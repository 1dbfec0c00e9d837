"""Which value types are frozen, and that no value changes across runs.

Every record type in the package (a class that names its fields in
`__slots__`) is slotted all the way down. Values that are shared between
probes, paths or runs (a module constant, a cache key, a cached result, one
node per topology token) are frozen and hashable; everything built once per
probe, hop, sample or report row is a plain record, cheaper to build and
never hashed.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mptcpkit
from mptcpkit.cli import main
from mptcpkit.netsim import NodeBehavior, parse_topology
from mptcpkit.options import Key, MpCapable, TcpOption, syn_view
from mptcpkit.probe import DEFAULT_PROBE_KEY, ProbeContext, build_syn_probe
from mptcpkit.store import UNKNOWN_ASN, AsnInfo

FROZEN = {Key, TcpOption, MpCapable, NodeBehavior, AsnInfo, ProbeContext}


def _package_records() -> dict[str, type]:
    """Each class of the package with fields in its own `__slots__` (a
    NamedTuple's are empty, and so are the records' bases)."""
    found = {}
    for info in pkgutil.iter_modules(mptcpkit.__path__):
        module = importlib.import_module(f"mptcpkit.{info.name}")
        for _name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__dict__.get("__slots__") and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return found


RECORDS = _package_records()


def _frozen(cls: type) -> bool:
    return cls.__setattr__ is not object.__setattr__


def test_every_module_is_searched():
    assert FROZEN <= set(RECORDS.values())
    assert "mptcpkit.packet.TcpPacket" in RECORDS
    assert len(RECORDS) >= 30


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_dataclass_is_slotted(name):
    cls = RECORDS[name]
    assert all("__slots__" in base.__dict__ for base in cls.__mro__[:-1])
    assert "__dict__" not in cls.__dict__ and "__weakref__" not in cls.__dict__


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_only_shared_values_are_frozen_and_hashable(name):
    cls = RECORDS[name]
    shared = cls in FROZEN
    assert _frozen(cls) is shared
    assert (cls.__hash__ is not None) is shared


def test_the_cli_imports_no_code_generation_modules():
    # `dataclasses` runs `exec` for each class it builds and brings in
    # `inspect`, `ast`, `dis` and `tokenize`: a cost each command would pay
    # again at start-up.
    src = Path(mptcpkit.__file__).parent.parent
    code = "import sys, mptcpkit.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    loaded = set(done.stdout.split())
    assert "mptcpkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _options_seen_in_campaigns() -> list[bytes]:
    v0 = build_syn_probe(ProbeContext(0, DEFAULT_PROBE_KEY), "10.0.0.1", 80).options
    v1 = build_syn_probe(ProbeContext(1), "2001:db8::1", 443).options
    # MSS and a NOP around the MP_CAPABLE; an option list without one.
    return [v0, v1, b"\x02\x04\x05\xb4\x01" + v0, b"\x02\x04\x05\xb4"]


def _cached_values() -> list[object]:
    values = []
    for options in _options_seen_in_campaigns():
        view = syn_view(options)
        values += [*view.parsed, view.mp, view.any_mc, view.syn_mc]
    return [v for v in values if v is not None]


def test_shared_values_refuse_assignment():
    net = parse_topology(["path 10.0.0.1 80 key_rewrite(seed=3) quoting(64) true_host(v0)"])
    values = [DEFAULT_PROBE_KEY, UNKNOWN_ASN, *net.paths[("10.0.0.1", 80)].nodes,
              *_cached_values(), ProbeContext(1)]
    assert {type(v) for v in values} == FROZEN
    for value in values:
        for field in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)
            getattr(value, field)


# -- no record or cached value carries over from one run to the next ------------

BLOCKLIST = "10.0.0.0/28\n2001:db8:1::/124\n"


def _run_pipeline(d) -> dict[str, bytes]:
    """simulate, then scan, trace and bench in both versions, under `d`."""
    (d / "blocklist.txt").write_text(BLOCKLIST)
    runs = [["simulate", "--generate", 200, "--seed", 5, "--out-topology", d / "topology.txt",
             "--out-targets", d / "targets.csv", "--out-truth", d / "truth.csv"]]
    sim = ["--sim-topology", d / "topology.txt", "--seed", 5]
    for version in (0, 1):
        runs += [
            ["scan", "--targets", d / "targets.csv", "--version", version,
             "--blocklist", d / "blocklist.txt", "--out", d / f"scan-v{version}.csv", *sim],
            ["trace", "--targets", d / "targets.csv", "--version", version,
             "--blocklist", d / "blocklist.txt", "--out", d / f"trace-v{version}.csv", *sim],
        ]
    runs.append(["bench", "--targets", d / "targets.csv", "--runs", 3,
                 "--out-dir", d / "bench-out", *sim])
    for argv in runs:
        assert main([str(a) for a in argv]) == 0, argv
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))
            if p.is_file()}


def test_second_run_in_one_process_writes_the_same_bytes(tmp_path):
    # The second run finds every per-campaign cache warm from the first.
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    outputs = _run_pipeline(first)
    assert len(outputs) >= 12
    assert _run_pipeline(second) == outputs
