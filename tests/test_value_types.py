"""Which value types are frozen, and that no value changes across runs.

Every dataclass in the package is slotted. Values that are shared between
probes, paths or runs (a module constant, a cache key, a cached result, one
node per topology token) are frozen and hashable; everything built once per
probe, hop, sample or report row is a plain dataclass, cheaper to build and
never hashed.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import mptcpkit
from mptcpkit.cli import main
from mptcpkit.netsim import NodeBehavior, parse_topology
from mptcpkit.options import Key, MpCapable, TcpOption, syn_view
from mptcpkit.probe import DEFAULT_PROBE_KEY, ProbeContext, build_syn_probe
from mptcpkit.store import UNKNOWN_ASN, AsnInfo

FROZEN = {Key, TcpOption, MpCapable, NodeBehavior, AsnInfo, ProbeContext}


def _package_dataclasses() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(mptcpkit.__path__):
        module = importlib.import_module(f"mptcpkit.{info.name}")
        for _name, obj in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return found


DATACLASSES = _package_dataclasses()


def test_every_module_is_searched():
    assert FROZEN <= set(DATACLASSES.values())
    assert "mptcpkit.packet.TcpPacket" in DATACLASSES
    assert len(DATACLASSES) >= 30


@pytest.mark.parametrize("name", sorted(DATACLASSES))
def test_every_dataclass_is_slotted(name):
    cls = DATACLASSES[name]
    assert "__slots__" in cls.__dict__
    assert "__dict__" not in cls.__dict__


@pytest.mark.parametrize("name", sorted(DATACLASSES))
def test_only_shared_values_are_frozen_and_hashable(name):
    cls = DATACLASSES[name]
    shared = cls in FROZEN
    assert cls.__dataclass_params__.frozen is shared
    assert (cls.__hash__ is not None) is shared


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
        field = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))


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
