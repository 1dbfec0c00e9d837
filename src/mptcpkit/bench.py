"""Paired GET timing: the same target measured over MPTCP and plain TCP.

Runs are paired by index and differenced per metric (delta = mptcp - tcp, so
negative deltas mean MPTCP was faster). The simulated transport derives its
timings from a topology: paths through a stripping middlebox charge the
MPTCP side a fallback retry penalty, reproducing the slow-connect signature
such boxes leave on real measurements.
"""

from __future__ import annotations

import hashlib
import socket
import ssl
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Iterable, Protocol

from .errors import PairingMismatch, TransportUnavailable
from .netsim import SimNetwork

METRICS = ("connect", "tls", "ttfb", "total")

# Linux socket protocol number for MPTCP sockets (kernel 5.6+).
IPPROTO_MPTCP = 262

# Seconds a system fetch may wait on any one socket operation.
FETCH_TIMEOUT_S = 10.0


@dataclass(slots=True)
class TimingSample:
    transport: str  # "tcp" | "mptcp"
    success: bool
    connect_ms: float | None = None
    tls_handshake_ms: float | None = None
    ttfb_ms: float | None = None
    total_ms: float | None = None

    def metric(self, name: str) -> float | None:
        return _METRIC_FIELDS[name](self)


_METRIC_FIELDS = {
    "connect": attrgetter("connect_ms"),
    "tls": attrgetter("tls_handshake_ms"),
    "ttfb": attrgetter("ttfb_ms"),
    "total": attrgetter("total_ms"),
}


@dataclass(slots=True)
class DeltaRecord:
    target: str
    metric: str
    delta_ms: float


class TimingTransport(Protocol):
    transport: str

    def fetch(self, target: str, port: int, run: int) -> TimingSample: ...


class SimTimingTransport:
    """Deterministic timing source backed by a simulated topology.

    connect time is one path round trip; a TLS handshake adds two more; the
    response adds one each for first byte and drain. When the path contains
    a stripping middlebox the MPTCP side pays `fallback_penalty_ms` on
    connect (SYN retry without extensions after a fallback timeout).
    """

    def __init__(
        self,
        network: SimNetwork,
        transport: str,
        fallback_penalty_ms: float = 250.0,
        jitter_ms: float = 0.5,
        seed: int = 0,
    ):
        if transport not in ("tcp", "mptcp"):
            raise ValueError(f"transport must be tcp or mptcp, got {transport!r}")
        self.network = network
        self.transport = transport
        self.fallback_penalty_ms = fallback_penalty_ms
        self.jitter_ms = jitter_ms
        self.seed = seed
        # Has absorbed each draw's identity prefix; draws hash copies (unlike hash(), stable).
        self._jitter_hash = hashlib.blake2b(f"{seed}|{transport}|".encode(), digest_size=8)

    def _jitter(self, target: str, port: int, run: int, metric: str) -> float:
        if self.jitter_ms <= 0:
            return 0.0
        h = self._jitter_hash.copy()
        h.update(f"{target}|{port}|{run}|{metric}".encode())
        digest = h.digest()
        # The top 53 bits of the digest as a float in [0, 1), as random() builds one.
        return self.jitter_ms * ((int.from_bytes(digest, "big") >> 11) * 2.0**-53)

    def fetch(self, target: str, port: int, run: int = 0) -> TimingSample:
        path = self.network.paths.get((target, port))
        if path is None or path.drops:
            return TimingSample(self.transport, success=False)
        rtt = path.rtt_ms
        connect = rtt + self._jitter(target, port, run, "connect")
        if self.transport == "mptcp" and path.strips:
            connect += self.fallback_penalty_ms
        tls = None
        after_connect = connect
        if port == 443:
            tls = 2.0 * rtt + self._jitter(target, port, run, "tls")
            after_connect = connect + tls
        ttfb = after_connect + rtt + self._jitter(target, port, run, "ttfb")
        total = ttfb + rtt + self._jitter(target, port, run, "total")
        return TimingSample(
            self.transport,
            success=True,
            connect_ms=connect,
            tls_handshake_ms=tls,
            ttfb_ms=ttfb,
            total_ms=total,
        )


class SystemTimingTransport:
    """GET timing over the host network stack.

    transport="mptcp" asks the kernel for an MPTCP socket and raises
    TransportUnavailable where the platform has none, before any fetch.
    """

    def __init__(self, transport: str = "tcp"):
        self.transport = transport
        if transport == "mptcp":
            try:
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM, IPPROTO_MPTCP)
                probe.close()
            except OSError as exc:
                raise TransportUnavailable(f"no MPTCP-capable stack: {exc}") from exc

    def _socket(self, target: str) -> socket.socket:
        proto = IPPROTO_MPTCP if self.transport == "mptcp" else 0
        family = socket.AF_INET6 if ":" in target else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM, proto)
        sock.settimeout(FETCH_TIMEOUT_S)
        return sock

    def fetch(self, target: str, port: int, run: int = 0) -> TimingSample:
        start = time.monotonic()
        sock = None
        try:
            sock = self._socket(target)
            sock.connect((target, port))
            connect_ms = (time.monotonic() - start) * 1000
            tls_ms = None
            stream = sock
            if port == 443:
                tls_start = time.monotonic()
                context = ssl.create_default_context()
                context.check_hostname = False
                context.verify_mode = ssl.CERT_NONE
                stream = context.wrap_socket(sock)
                tls_ms = (time.monotonic() - tls_start) * 1000
            request = f"GET / HTTP/1.0\r\nHost: {target}\r\nConnection: close\r\n\r\n"
            stream.sendall(request.encode())
            first = stream.recv(1)
            ttfb_ms = (time.monotonic() - start) * 1000
            while first and stream.recv(65536):
                pass
            total_ms = (time.monotonic() - start) * 1000
            return TimingSample(
                self.transport, True, connect_ms, tls_ms, ttfb_ms, total_ms
            )
        except OSError:
            return TimingSample(self.transport, success=False)
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass


def time_get(
    target: str, port: int, transport: TimingTransport, runs: int = 10
) -> list[TimingSample]:
    """One sample per run; failed runs are kept with success=False."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return [transport.fetch(target, port, run) for run in range(runs)]


@dataclass(slots=True)
class DeltaReport:
    records: list[DeltaRecord]
    cdf: dict[str, list[tuple[float, float]]]
    fractions: dict[str, tuple[float, float, float]]  # (faster, even, slower)
    paired_runs: int = 0

    def deltas(self, metric: str) -> list[float]:
        return [r.delta_ms for r in self.records if r.metric == metric]


def _summarize(
    records: list[DeltaRecord], paired: int, zero_tolerance_ms: float
) -> DeltaReport:
    """Per-metric CDF of the deltas and their faster/even/slower fractions.

    The fractions partition deltas into below -tolerance, within tolerance,
    and above.
    """
    cdf: dict[str, list[tuple[float, float]]] = {}
    fractions: dict[str, tuple[float, float, float]] = {}
    for metric in METRICS:
        deltas = sorted(r.delta_ms for r in records if r.metric == metric)
        if not deltas:
            continue
        n = len(deltas)
        cdf[metric] = [(d, (i + 1) / n) for i, d in enumerate(deltas)]
        faster = sum(1 for d in deltas if d < -zero_tolerance_ms) / n
        slower = sum(1 for d in deltas if d > zero_tolerance_ms) / n
        fractions[metric] = (faster, 1.0 - faster - slower, slower)
    return DeltaReport(records, cdf, fractions, paired_runs=paired)


def delta_report(
    mptcp_samples: list[TimingSample],
    tcp_samples: list[TimingSample],
    target: str = "",
    zero_tolerance_ms: float = 1.0,
) -> DeltaReport:
    """Pair runs by index and difference each metric (mptcp - tcp).

    Only pairs where both runs succeeded contribute.
    """
    return paired_report([(target, mptcp_samples, tcp_samples)], zero_tolerance_ms)


def paired_report(
    runs: Iterable[tuple[str, list[TimingSample], list[TimingSample]]],
    zero_tolerance_ms: float = 1.0,
) -> DeltaReport:
    """`delta_report` over (target, mptcp samples, tcp samples) triples: runs
    pair within a target, and one summary covers every target."""
    records: list[DeltaRecord] = []
    paired = 0
    for target, mptcp_samples, tcp_samples in runs:
        if len(mptcp_samples) != len(tcp_samples):
            raise PairingMismatch(
                f"{len(mptcp_samples)} mptcp runs vs {len(tcp_samples)} tcp runs"
            )
        for mp, tcp in zip(mptcp_samples, tcp_samples):
            if not (mp.success and tcp.success):
                continue
            paired += 1
            for metric in METRICS:
                a, b = mp.metric(metric), tcp.metric(metric)
                if a is None or b is None:
                    continue
                records.append(DeltaRecord(target, metric, a - b))
    return _summarize(records, paired, zero_tolerance_ms)


def merge_reports(reports: Iterable[DeltaReport], zero_tolerance_ms: float = 1.0) -> DeltaReport:
    """Combine per-target reports into one distribution per metric."""
    records: list[DeltaRecord] = []
    paired = 0
    for report in reports:
        records.extend(report.records)
        paired += report.paired_runs
    return _summarize(records, paired, zero_tolerance_ms)


def write_cdf(report: DeltaReport, metric: str, f: IO[str]) -> None:
    """Two-column text: delta_ms, cumulative fraction."""
    for delta, fraction in report.cdf.get(metric, []):
        f.write(f"{delta:.6f},{fraction:.6f}\n")
