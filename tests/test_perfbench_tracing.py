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


CAMPAIGN = """
import json, sys
sys.path.insert(0, "perfbench")
from tracing import Recorder
recorder = Recorder()
recorder.install()
from mptcpkit import cli
d = sys.argv[1]
for argv in (
    ["simulate", "--generate", "80", "--seed", "3", "--out-topology", d + "/topo.txt",
     "--out-targets", d + "/targets.txt"],
    ["scan", "--targets", d + "/targets.txt", "--sim-topology", d + "/topo.txt",
     "--seed", "3", "--out", d + "/scan.csv"],
    ["trace", "--from-scan", d + "/scan.csv", "--sim-topology", d + "/topo.txt",
     "--seed", "3", "--out", d + "/trace.csv"],
    ["bench", "--targets", d + "/targets.txt", "--sim-topology", d + "/topo.txt",
     "--runs", "2", "--seed", "3", "--out-dir", d + "/bench-out"],
):
    assert cli.main(argv) == 0, argv
totals = recorder.totals()
print(json.dumps({name: totals[name]["calls"] for name in recorder.names}))
"""

# The layers whose per-layer metrics tell where a simulated campaign spends
# its time; each must still be reached through the function the table wraps.
CAMPAIGN_LAYERS = [
    "netsim.SimNetwork.handshake",
    "netsim.SimNetwork.ttl_probe",
    "probe.build_syn_probe",
    "probe.classify_response",
    "tracer.diff_options",
    "options.encode_mp_capable",
    "bench.SimTimingTransport.fetch",
]


def test_traced_campaign_layers_stay_on_the_call_path(tmp_path):
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", CAMPAIGN, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.splitlines()[-1])
    assert {name: calls[name] > 0 for name in CAMPAIGN_LAYERS} == dict.fromkeys(
        CAMPAIGN_LAYERS, True)


EVERY_COMMAND_AFTER_A_FIRST_CALL = """
import json, struct, sys
sys.path.insert(0, "perfbench")
from tracing import Recorder
from mptcpkit import cli
d = sys.argv[1]
simulate = ["simulate", "--generate", "40", "--seed", "3", "--out-topology", d + "/topo.txt",
            "--out-targets", d + "/targets.txt"]
assert cli.main(simulate) == 0  # untraced, as the worker's first passes are
recorder = Recorder()
recorder.install()
with open(d + "/empty.pcap", "wb") as f:
    f.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
sim = ["--sim-topology", d + "/topo.txt", "--seed", "3"]
for argv in (
    simulate,
    ["scan", "--targets", d + "/targets.txt", *sim, "--out", d + "/scan.csv"],
    ["keys", "--from-scan", d + "/scan.csv", "--out", d + "/keys.txt"],
    ["trace", "--from-scan", d + "/scan.csv", *sim, "--out", d + "/trace.csv"],
    ["report", "summary", "--in", d + "/trace.csv", "--out", d + "/summary.csv"],
    ["bench", "--targets", d + "/targets.txt", *sim, "--runs", "2",
     "--out-dir", d + "/bench-out"],
    ["analyze-pcap", "--in", d + "/empty.pcap", "--out", d + "/pcap.csv"],
):
    assert cli.main(argv) == 0, argv
totals = recorder.totals()
print(json.dumps({name: totals[name]["calls"] for name in recorder.names
                  if name.startswith("cli.")}))
"""


def test_commands_are_counted_when_the_recorder_follows_a_first_call(tmp_path):
    """The worker makes untraced passes before it installs the recorder, so a
    command must be found at each `main` call, not when the parser was built."""
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", EVERY_COMMAND_AFTER_A_FIRST_CALL,
                           str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.splitlines()[-1])
    assert calls == dict.fromkeys(
        ["cli.simulate", "cli.scan", "cli.keys", "cli.trace", "cli.report", "cli.bench",
         "cli.analyze_pcap"], 1)
