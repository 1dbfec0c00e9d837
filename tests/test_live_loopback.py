"""The live raw-socket path against real kernel listeners on loopback.

Runs only where raw sockets, `IPPROTO_MPTCP` and an enabled kernel MPTCP
stack are all present; the MPTCP switch is read, never written. Every
listener sits on a 127.0.1.x address and an ephemeral port, and nothing
outside the test's own sockets is changed.
"""

import functools
import gc
import json
import os
import resource
import socket
import sys
import warnings
from pathlib import Path

import pytest

from mptcpkit import cli
from mptcpkit.errors import TransportUnavailable
from mptcpkit.netsim import SimPath, ground_truth, true_host
from mptcpkit.packet import TcpPacket, pack_address

IPPROTO_MPTCP = 262
MPTCP_SWITCH = Path("/proc/sys/net/mptcp/enabled")

MPTCP_HOST, TCP_HOST, CLOSED_HOST, BLOCKED_HOST = (f"127.0.1.{i}" for i in range(1, 5))


def _live_ready() -> str | None:
    """Why the live path cannot run here, or None when it can."""
    from mptcpkit.live import LiveTransport

    try:
        LiveTransport(timeout_ms=10.0).close()
    except TransportUnavailable as exc:
        return str(exc)
    try:
        socket.socket(socket.AF_INET, socket.SOCK_STREAM, IPPROTO_MPTCP).close()
    except OSError as exc:
        return f"no IPPROTO_MPTCP sockets: {exc}"
    try:
        enabled = MPTCP_SWITCH.read_text().strip()
    except OSError as exc:
        return f"cannot read the MPTCP switch: {exc}"
    return None if enabled == "1" else "kernel MPTCP is disabled"


_not_ready = functools.cache(_live_ready)
# The condition is a string, so pytest evaluates it as each test is set up:
# a run that deselects `live` opens no raw socket, not even at collection.
pytestmark = [
    pytest.mark.live,
    pytest.mark.skipif("_not_ready() is not None",
                       reason="needs raw sockets, IPPROTO_MPTCP and kernel MPTCP enabled"),
]


def _bound(address: str, proto: int = 0, listen: bool = True) -> socket.socket:
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM, proto)
    s.bind((address, 0))
    if listen:
        s.listen(16)  # never accepts: the kernel answers the SYN on its own
    return s


@pytest.fixture(scope="module")
def endpoints():
    """(address, port) of each kind. The closed port is bound but does not
    listen, so no other socket takes it and the kernel resets every SYN."""
    socks = {
        "mptcp": _bound(MPTCP_HOST, IPPROTO_MPTCP),
        "tcp": _bound(TCP_HOST),
        "closed": _bound(CLOSED_HOST, listen=False),
        "blocked": _bound(BLOCKED_HOST, IPPROTO_MPTCP),
    }
    yield {kind: s.getsockname() for kind, s in socks.items()}
    for s in socks.values():
        s.close()


@pytest.fixture
def sends(monkeypatch):
    """Destination of every packet the live transport puts on the wire."""
    from mptcpkit.live import LiveTransport

    sent = []
    real = LiveTransport._send_packet

    def counting(self, pkt, *args, **kwargs):
        sent.append(pkt.dst)
        return real(self, pkt, *args, **kwargs)

    monkeypatch.setattr(LiveTransport, "_send_packet", counting)
    return sent


def _write(path: Path, rows) -> str:
    path.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
    return str(path)


def _scan(tmp_path: Path, version: int, targets) -> list[dict]:
    out = tmp_path / f"scan-v{version}.jsonl"
    argv = [
        "scan", "--targets", _write(tmp_path / "targets.txt", targets),
        "--version", str(version), "--rate", "1000",
        "--blocklist", _write(tmp_path / "blocklist.txt", [f"{BLOCKED_HOST}/32"]),
        "--timeout-ms", "500", "--format", "jsonl", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


def test_scan_labels_each_listener_kind(tmp_path, endpoints, sends):
    targets = [
        "{},{}".format(*endpoints["mptcp"]),
        "{},{}".format(*endpoints["tcp"]),
        f"::1,{endpoints['mptcp'][1]}",  # IPv6: an error record, then the rest
        "{},{}".format(*endpoints["closed"]),
        "{},{}".format(*endpoints["blocked"]),
    ]
    rows = _scan(tmp_path, 1, targets)
    assert [(r["address"], r["port"]) for r in rows] == [
        (a, int(p)) for a, p in (t.rsplit(",", 1) for t in targets)
    ]
    mptcp, tcp, v6, closed, blocked = rows
    assert mptcp["classification"] == "potential_capable"
    assert mptcp["got_version"] == 1
    assert len(mptcp["sender_key"]) == 16
    assert tcp["classification"] == "no_mp_capable"
    assert v6["classification"] == "error"
    assert (closed["classification"], closed["note"]) == ("no_response", "reset")
    assert blocked["classification"] == "skipped"
    assert BLOCKED_HOST not in sends
    assert sends == [MPTCP_HOST, TCP_HOST, "::1", CLOSED_HOST]


def test_scan_reads_only_its_replies(tmp_path, endpoints, sends, monkeypatch):
    # Bound to the probe source, the raw TCP socket no longer sees the
    # scan's own SYNs or the kernel's resets to the targets.
    from mptcpkit import live

    looked_up, bound, matched = [], set(), []
    real_lookup, real_match = live.local_source_address, live._match_reply
    real_handshake = live.LiveTransport.handshake

    def recording_lookup(target):
        looked_up.append(real_lookup(target))
        return looked_up[-1]

    def counting_match(*args):
        matched.append(args)
        return real_match(*args)

    def recording_handshake(self, syn):
        response = real_handshake(self, syn)
        bound.add((self._tcp.getsockname()[0], self._icmp.getsockname()[0]))
        return response

    monkeypatch.setattr(live, "local_source_address", recording_lookup)
    monkeypatch.setattr(live, "_match_reply", counting_match)
    monkeypatch.setattr(live.LiveTransport, "handshake", recording_handshake)
    kinds = ("mptcp", "tcp", "closed") * 67
    rows = _scan(tmp_path, 1, ["{},{}".format(*endpoints[kind]) for kind in kinds])
    expected = {"mptcp": ("potential_capable", None), "tcp": ("no_mp_capable", None),
                "closed": ("no_response", "reset")}
    assert [(r["classification"], r["note"]) for r in rows] == [expected[k] for k in kinds]
    assert len(sends) == len(kinds)
    assert len(matched) / len(sends) <= 1.1, f"{len(matched)} reads for {len(sends)} probes"
    assert len(looked_up) == 1
    assert bound == {(looked_up[0], looked_up[0])}


def test_v0_probe_to_v1_listener_gets_plain_tcp(tmp_path, endpoints):
    rows = _scan(tmp_path, 0, ["{},{}".format(*endpoints["mptcp"])])
    assert [r["classification"] for r in rows] == ["no_mp_capable"]


def _trace(tmp_path: Path, targets) -> list[list[str]]:
    out = tmp_path / "trace.csv"
    argv = [
        "trace", "--targets", _write(tmp_path / "targets.txt", targets),
        "--version", "1", "--rate", "1000", "--max-ttl", "4",
        "--blocklist", _write(tmp_path / "blocklist.txt", [f"{BLOCKED_HOST}/32"]),
        "--timeout-ms", "500", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    return [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]


def test_trace_to_mptcp_listener_matches_zero_hop_truth(tmp_path, endpoints, sends):
    (address, port, verdict, ttl, key), blocked = _trace(tmp_path, [
        "{},{}".format(*endpoints["mptcp"]), "{},{}".format(*endpoints["blocked"]),
    ])
    truth = ground_truth(SimPath((true_host(1),)), version=1)
    assert (address, int(port)) == endpoints["mptcp"]
    assert verdict == truth.verdict.value == "truly_capable"
    assert ttl == "" and truth.first_modifying_ttl is None
    assert len(key) == 16
    assert blocked[2] == "skipped"
    assert BLOCKED_HOST not in sends


def test_live_runs_leave_no_unclosed_socket(tmp_path, endpoints, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        rows = _scan(tmp_path, 1, ["{},{}".format(*endpoints["mptcp"])])
        (trace,) = _trace(tmp_path, ["{},{}".format(*endpoints["mptcp"])])
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []
    assert [r["classification"] for r in rows] == ["potential_capable"]
    assert trace[2] == "truly_capable"


@pytest.fixture
def high_descriptors():
    """Every descriptor below 1030 held by a dup of /dev/null, so sockets
    opened meanwhile sit above `select`'s limit of 1024."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 1200:
        pytest.skip(f"RLIMIT_NOFILE soft limit {soft} is below 1200")
    held = [os.open(os.devnull, os.O_RDONLY)]
    try:
        while held[-1] < 1030:  # dup takes the lowest free descriptor
            held.append(os.dup(held[0]))
        yield
    finally:
        for fd in held:
            os.close(fd)


def test_scan_with_descriptors_above_1024(tmp_path, endpoints, high_descriptors, monkeypatch):
    from mptcpkit.live import LiveTransport

    descriptors = []
    real = LiveTransport.handshake

    def recording(self, syn):
        descriptors.extend((self._tcp.fileno(), self._icmp.fileno()))
        return real(self, syn)

    monkeypatch.setattr(LiveTransport, "handshake", recording)
    rows = _scan(tmp_path, 1, [
        "{},{}".format(*endpoints[kind]) for kind in ("mptcp", "tcp", "closed")
    ])
    assert min(descriptors) >= 1024
    assert [(r["classification"], r["note"]) for r in rows] == [
        ("potential_capable", None), ("no_mp_capable", None), ("no_response", "reset"),
    ]
    # Nothing answers a probe that was never sent: the wait polls both
    # sockets until the timeout.
    transport = LiveTransport(timeout_ms=20.0)
    try:
        assert min(transport._tcp.fileno(), transport._icmp.fileno()) >= 1024
        unsent = TcpPacket(src="127.0.0.1", dst=CLOSED_HOST, src_port=9, dst_port=9, seq=0)
        assert transport._await(unsent, pack_address(CLOSED_HOST), want_icmp=True) is None
    finally:
        transport.close()
