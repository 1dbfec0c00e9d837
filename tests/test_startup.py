"""What each entry point runs of the package.

Each check runs in a fresh interpreter, since a module this test process has
run stays run. A module counts as run when `sys.modules` holds a plain
module for it: a registered module not yet used is a `LazyLoader` subclass
of `types.ModuleType` until its first attribute access.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mptcpkit
from capture_helpers import handshake_frames, write_pcap

SRC = Path(mptcpkit.__file__).resolve().parents[1]

REPORT = """
import json, sys, types
names = sorted(n for n in sys.modules if n == "mptcpkit" or n.startswith("mptcpkit."))
ran = [n for n in names if type(sys.modules[n]) is types.ModuleType]
print(json.dumps({"registered": names, "ran": ran}))
"""


def loaded(code: str, cwd: Path = SRC) -> dict[str, set[str]]:
    """The `mptcpkit` modules present and run after `code`, in a fresh
    interpreter, each named without its `mptcpkit.` prefix."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code) + REPORT], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    return {key: {name.partition(".")[2] or name for name in names}
            for key, names in report.items()}


def run_cli(*argv: str) -> str:
    return f"from mptcpkit.cli import main\nassert main({list(argv)!r}) == 0\n"


def test_importing_the_cli_runs_only_cli_and_errors():
    assert loaded("import mptcpkit.cli")["ran"] == {"mptcpkit", "cli", "errors"}


def test_every_module_but_main_is_registered_by_the_cli_import():
    modules = {path.stem for path in (SRC / "mptcpkit").glob("*.py")} - {"__init__", "__main__"}
    assert loaded("import mptcpkit.cli")["registered"] == modules | {"mptcpkit"}


def test_building_the_parser_runs_no_module_that_owns_a_bound():
    ran = loaded("import mptcpkit.cli\nmptcpkit.cli.build_parser()")["ran"]
    assert ran == {"mptcpkit", "cli", "errors", "options", "record"}


def test_analyze_pcap_runs_no_probing_simulating_or_reporting_module(tmp_path):
    write_pcap(tmp_path / "a.pcap", handshake_frames("10.1.0.1", "10.2.0.1", 5555, 80,
                                                     extra_data_packets=4))
    (tmp_path / "services.csv").write_text("80,tcp,Web\n")
    ran = loaded(run_cli("analyze-pcap", "--in", "a.pcap", "--services", "services.csv",
                         "--min-packets", "1", "--out", "share.csv"), cwd=tmp_path)["ran"]
    assert {"flows", "pcapio"} <= ran
    assert not ran & {"netsim", "probe", "tracer", "bench", "store", "keystats", "live"}
    assert (tmp_path / "share.csv").read_text().startswith("share,a.pcap,1,")


def test_a_simulated_scan_runs_no_capture_timing_or_reporting_module(tmp_path):
    ran = loaded(
        run_cli("simulate", "--generate", "20", "--seed", "3", "--out-topology", "topo.txt",
                "--out-targets", "targets.txt")
        + run_cli("scan", "--targets", "targets.txt", "--sim-topology", "topo.txt",
                  "--seed", "3", "--out", "scan.csv"),
        cwd=tmp_path)["ran"]
    assert {"probe", "netsim"} <= ran
    assert not ran & {"bench", "flows", "pcapio", "keystats", "store", "live"}
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 20


def test_the_bench_module_runs_no_simulator_for_a_live_transport():
    ran = loaded("import mptcpkit.bench\nmptcpkit.bench.SystemTimingTransport")["ran"]
    assert "bench" in ran
    assert not ran & {"netsim", "tracer"}


# The module each public name of the package is defined in.
PUBLIC = {
    "Classification": "probe",
    "ClassificationKind": "probe",
    "HandshakePhase": "options",
    "Key": "options",
    "MpCapable": "options",
    "PathVerdict": "tracer",
    "PathVerdictKind": "tracer",
    "ProbeContext": "probe",
    "ProbeResponse": "probe",
    "TcpOption": "options",
}


def test_each_public_name_is_its_module_s_and_runs_only_at_its_use():
    checked = loaded(f"""
        import importlib, sys, types
        import mptcpkit
        assert [n for n, m in sys.modules.items()
                if n.startswith("mptcpkit") and type(m) is types.ModuleType] == ["mptcpkit"]
        assert set(mptcpkit.__all__) <= set(dir(mptcpkit))
        assert [n for n, m in sys.modules.items()
                if n.startswith("mptcpkit") and type(m) is types.ModuleType] == ["mptcpkit"]
        for name, module in {PUBLIC!r}.items():
            owner = importlib.import_module("mptcpkit." + module)
            assert getattr(mptcpkit, name) is getattr(owner, name), name
        namespace = {{}}
        exec("from mptcpkit import *", namespace)
        assert sorted(set(namespace) - {{"__builtins__"}}) == sorted(mptcpkit.__all__)
        try:
            mptcpkit.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'mptcpkit' has no attribute 'no_such_name'"
        else:
            raise AssertionError("mptcpkit.no_such_name was found")
    """)
    assert checked["ran"] >= {"mptcpkit", "options", "probe", "tracer"}
    assert set(mptcpkit.__all__) == PUBLIC.keys() | {"__version__"}
