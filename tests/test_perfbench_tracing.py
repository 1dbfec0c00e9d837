"""The traced benchmark (`perfbench/run.py --trace 1`) wraps every function
its `LAYERS` table names; a rename or a class that refuses the wrapper
would otherwise show only when a traced run is made."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import json, sys
sys.path.insert(0, "perfbench")
from tracing import LAYERS, Recorder
Recorder().install()
unwrapped = []
for name, module_name, attr in LAYERS:
    obj = sys.modules[module_name]
    for part in attr.split("."):
        obj = getattr(obj, part)
    if not hasattr(obj, "__wrapped__"):
        unwrapped.append(name)
print(json.dumps({"layers": len(LAYERS), "unwrapped": unwrapped}))
"""


def test_recorder_wraps_every_layer():
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", CHECK], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["layers"] > 0
    assert result["unwrapped"] == []
