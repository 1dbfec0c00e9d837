"""SYN probe construction, response classification, and campaign running.

Classification is stateless: a response is judged from the probe spec and the
packet alone, so campaigns scale like single-packet scanners. One probe per
target per campaign, no retries; the first valid response wins.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Protocol

from .errors import GuardViolation, IllegalCombination, OptionError
from .inputs import PrefixTable, data_lines, prefix_rows
from .options import (
    DEFAULT_MP_FLAGS,
    HandshakePhase,
    Key,
    MpCapable,
    TcpOption,
    decode_mp_capable,
    encode_mp_capable,
    parse_options_prefix,
)
from .packet import FLAG_RST, FLAG_SYN_ACK, RawSegment, TcpPacket, ip_family

# Default v0 campaign key: a documented constant of Hamming weight 16, so key
# weight histograms from different campaigns line up.
DEFAULT_PROBE_KEY = Key(0x000000000000FFFF)

DEFAULT_SCANNER_ADDR_V4 = "192.0.2.1"
DEFAULT_SCANNER_ADDR_V6 = "2001:db8:ffff::1"


@dataclass(slots=True)
class ProbeSpec:
    """One probe: target, port, MPTCP version, and (for v0) the static key."""

    target: str
    port: int
    version: int
    probe_key: Key | None = None

    def __post_init__(self) -> None:
        if self.version not in (0, 1):
            raise ValueError(f"version must be 0 or 1, got {self.version}")
        if self.version == 0 and self.probe_key is None:
            raise IllegalCombination("v0 probes require a probe key")
        if self.version == 1 and self.probe_key is not None:
            raise IllegalCombination("v1 probes must not carry a key")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    def syn_option(self) -> bytes:
        """The exact MP_CAPABLE bytes this probe sends in its SYN."""
        return _syn_option(self.version, self.probe_key)


# Keyed by campaign constants only: a campaign has one version and one key.
@functools.lru_cache(maxsize=16)
def _syn_option(version: int, probe_key: Key | None) -> bytes:
    return encode_mp_capable(
        MpCapable(version, DEFAULT_MP_FLAGS, probe_key), HandshakePhase.SYN
    )


@dataclass(slots=True)
class ProbeResponse:
    """A packet received before the timeout, with its parsed options."""

    tcp_flags: int
    options: list[TcpOption]
    rtt_ms: float
    note: str | None = None


@dataclass(slots=True)
class HopReply:
    """An ICMP-style time-exceeded reply quoting the in-flight packet."""

    responder: str
    quote: bytes
    rtt_ms: float


class ClassificationKind(Enum):
    NO_RESPONSE = "no_response"
    NO_MP_CAPABLE = "no_mp_capable"
    MIRRORED_KEY = "mirrored_key"
    VERSION_MISMATCH = "version_mismatch"
    POTENTIAL_CAPABLE = "potential_capable"


@dataclass(slots=True)
class Classification:
    """Outcome of one probe exchange; exactly one kind per probe."""

    kind: ClassificationKind
    sender_key: Key | None = None
    got_version: int | None = None
    note: str | None = None

    @property
    def label(self) -> str:
        return self.kind.value


# Keyed by campaign constants only: the seed and the digest size.
@functools.lru_cache(maxsize=16)
def _keyed_blake2b(seed: int, digest_size: int) -> hashlib.blake2b:
    """A blake2b that has absorbed the seed as its key; callers hash copies of it."""
    return hashlib.blake2b(key=seed.to_bytes(8, "big", signed=False), digest_size=digest_size)


def _keyed_digest(data: bytes, seed: int, digest_size: int) -> int:
    """`blake2b(data, key=seed, digest_size=...)` as a big-endian integer."""
    h = _keyed_blake2b(seed, digest_size).copy()
    h.update(data)
    return int.from_bytes(h.digest(), "big")


def derive_seq(target: str, port: int, seed: int) -> int:
    """Deterministic sequence number from the target and campaign seed.

    A keyed hash of the flow identity lets replies be validated without a
    per-target state table.
    """
    return _keyed_digest(f"{target},{port}".encode(), seed, 4)


def derive_src_port(target: str, port: int, seed: int) -> int:
    return 32768 + _keyed_digest(f"sport:{target},{port}".encode(), seed, 2) % 28000


def build_syn_probe(spec: ProbeSpec, seed: int = 0) -> TcpPacket:
    """Build the SYN carrying exactly one MP_CAPABLE option."""
    return TcpPacket(
        src=DEFAULT_SCANNER_ADDR_V4 if ip_family(spec.target) == 4 else DEFAULT_SCANNER_ADDR_V6,
        dst=spec.target,
        src_port=derive_src_port(spec.target, spec.port, seed),
        dst_port=spec.port,
        seq=derive_seq(spec.target, spec.port, seed),
        options=spec.syn_option(),
    )


def classify_response(spec: ProbeSpec, resp: ProbeResponse | None) -> Classification:
    """Classify one probe exchange. Total: never raises on packet content.

    v0: a returned sender's key equal to ours means a mirroring middlebox;
    a different key is potentially MPTCP-capable. v1: a byte-identical echo
    of our option means mirroring (checked before anything else), and a
    decoded version other than 1 is a version mismatch.
    """
    if resp is None:
        return Classification(ClassificationKind.NO_RESPONSE)
    if resp.tcp_flags & FLAG_SYN_ACK != FLAG_SYN_ACK:
        note = "reset" if resp.tcp_flags & FLAG_RST else "not a SYN-ACK"
        return Classification(ClassificationKind.NO_RESPONSE, note=note)
    kind30 = [o for o in resp.options if o.kind == 30]
    if not kind30:
        return Classification(ClassificationKind.NO_MP_CAPABLE)

    if spec.version == 1:
        # Both are kind 30, so equal payloads mean byte-identical options.
        sent_payload = spec.syn_option()[2:]
        if any(o.payload == sent_payload for o in kind30):
            return Classification(ClassificationKind.MIRRORED_KEY)

    decoded: list[MpCapable] = []
    notes: list[str] = []
    for opt in kind30:
        try:
            decoded.append(decode_mp_capable(opt, HandshakePhase.SYN_ACK))
        except OptionError as exc:  # every codec error folds into a diagnostic
            notes.append(str(exc))
    if not decoded:
        return Classification(
            ClassificationKind.NO_MP_CAPABLE, note="; ".join(notes) or None
        )

    if spec.version == 0:
        for mc in decoded:
            if mc.sender_key == spec.probe_key:
                return Classification(
                    ClassificationKind.MIRRORED_KEY, sender_key=mc.sender_key
                )
    first = decoded[0]
    if first.version != spec.version:
        return Classification(
            ClassificationKind.VERSION_MISMATCH, got_version=first.version
        )
    return Classification(
        ClassificationKind.POTENTIAL_CAPABLE,
        sender_key=first.sender_key,
        got_version=first.version,
    )


class PacketTransport(Protocol):
    """Transport contract shared by the live scanner and the simulator."""

    def handshake(self, syn: TcpPacket) -> ProbeResponse | None: ...

    # Sends `syn` with its IP TTL set to `ttl`; `syn.ttl` is not read.
    def ttl_probe(self, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None: ...


class Blocklist:
    """CIDR prefixes that must never be probed: `prefix[,asn]` lines."""

    def __init__(self, prefixes: Iterable[str] = ()):
        self.table = PrefixTable((prefix, True) for prefix in prefixes)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Blocklist":
        return cls(prefix for prefix, _asn in prefix_rows(lines))

    @classmethod
    def load(cls, path) -> "Blocklist":
        with open(path, encoding="utf-8") as f:
            return cls.from_lines(f)

    def matches(self, address: str) -> bool:
        return self.table.lookup(address) is not None

    def __len__(self) -> int:
        return len(self.table)


class VirtualClock:
    """Deterministic clock for tests and simulated campaigns."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.now += seconds


class RatePacer:
    """Spaces sends one interval apart so no 1-second window exceeds the rate.

    Send k is scheduled at exactly base + k*interval (no accumulation drift);
    a stalled campaign re-anchors instead of bursting to catch up.
    """

    def __init__(
        self,
        packets_per_second: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not 0 < packets_per_second < math.inf:  # NaN and inf would never wait
            raise GuardViolation(f"rate must be positive and finite, got {packets_per_second}")
        self.interval = 1.0 / packets_per_second
        self.clock = clock
        self._sleep = sleep
        self._base = clock() + self.interval
        self._count = 0

    def acquire(self) -> float:
        now = self.clock()
        send_at = self._base + self._count * self.interval
        if send_at < now:
            self._base = now
            self._count = 0
            send_at = now
        elif send_at > now:
            self._sleep(send_at - now)
        self._count += 1
        return send_at


@dataclass(slots=True)
class CampaignGuard:
    """What every command that sends applies, simulated or live: targets the
    blocklist matches are never probed, and every packet or fetch first waits
    its turn on the pacer, whose clock also stamps the rows of unsent probes.
    A guard without a blocklist reference is refused."""

    blocklist: Blocklist
    pacer: RatePacer

    def __post_init__(self) -> None:
        if self.blocklist is None:
            raise GuardViolation("campaign refused: no blocklist reference")


class PacedTransport:
    """The transport it wraps, each TTL probe or fetch of which first waits
    its turn on a RatePacer."""

    def __init__(self, inner, pacer: RatePacer):
        self.inner = inner
        self.pacer = pacer

    def ttl_probe(self, syn: TcpPacket, ttl: int) -> HopReply | ProbeResponse | None:
        self.pacer.acquire()
        return self.inner.ttl_probe(syn, ttl)

    def fetch(self, target: str, port: int, run: int = 0):
        self.pacer.acquire()
        return self.inner.fetch(target, port, run)


@dataclass(slots=True)
class CampaignRecord:
    """One output record per target; `label` adds skipped/dry_run outcomes."""

    timestamp: float
    address: str
    port: int
    version: int
    label: str
    sender_key: Key | None = None
    got_version: int | None = None
    note: str | None = None

    def to_csv(self) -> str:
        key = self.sender_key.hex if self.sender_key is not None else ""
        return f"{self.timestamp:.6f},{self.address},{self.port},{self.version},{self.label},{key}"

    def to_json(self) -> str:
        payload = {
            "timestamp": round(self.timestamp, 6),
            "address": self.address,
            "port": self.port,
            "version": self.version,
            "classification": self.label,
            "sender_key": self.sender_key.hex if self.sender_key else None,
            "got_version": self.got_version,
            "note": self.note,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_csv(cls, line: str) -> "CampaignRecord":
        parts = line.rstrip("\n").split(",")
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}: {line!r}")
        ts, address, port, version, label, key = parts
        return cls(float(ts), address, int(port), int(version), label,
                   Key(int(key, 16)) if key else None)

    @classmethod
    def from_json(cls, line: str) -> "CampaignRecord":
        try:
            payload = json.loads(line)
            key = payload.get("sender_key")
            address, label = payload["address"], payload["classification"]
            if not isinstance(address, str) or not isinstance(label, str):
                raise TypeError("address and classification must be strings")
            return cls(
                timestamp=float(payload["timestamp"]),
                address=address,
                port=int(payload["port"]),
                version=int(payload["version"]),
                label=label,
                sender_key=Key.from_hex(key) if key else None,
                got_version=payload.get("got_version"),
                note=payload.get("note"),
            )
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"bad scan record ({exc!r}): {line!r}") from None

    @classmethod
    def parse(cls, line: str) -> "CampaignRecord":
        """One scan row: JSON when it starts with `{`, CSV otherwise."""
        return cls.from_json(line) if line.startswith("{") else cls.from_csv(line)


def target_row(line: str) -> tuple[str, int]:
    """One `address,port` row."""
    address, sep, port = line.rpartition(",")
    if not sep:
        raise ValueError(f"expected address,port, got {line!r}")
    return address.strip(), int(port)


def load_targets(lines: Iterable[str]) -> list[tuple[str, int]]:
    """Parse a target list: one `address,port` per line, `#` comments."""
    return [target_row(line) for line in data_lines(lines)]


def run_campaign(
    targets: Iterable[tuple[str, int]],
    *,
    version: int,
    guard: CampaignGuard,
    transport: PacketTransport | None,
    probe_key: Key | None = None,
    seed: int = 0,
) -> Iterator[CampaignRecord]:
    """Probe each target once, classify, and yield one record per target.

    Blocklisted targets are skipped (and still recorded). Every send waits
    on `guard.pacer`, and its send slot is the record's timestamp; skipped
    and dry-run rows read the pacer's clock. Without a transport the run is
    dry: it emits the built probes and sends nothing. A target whose probe
    raises OSError gets an `error` record noting the exception, and the
    campaign goes on. Output order follows input order.
    """
    if version == 0 and probe_key is None:
        probe_key = DEFAULT_PROBE_KEY
    clock = guard.pacer.clock

    for address, port in targets:
        if guard.blocklist.matches(address):
            yield CampaignRecord(clock(), address, port, version, "skipped")
            continue
        spec = ProbeSpec(address, port, version, probe_key)
        syn = build_syn_probe(spec, seed)
        if transport is None:
            yield CampaignRecord(
                clock(), address, port, version, "dry_run",
                note=syn.options.hex(),
            )
            continue
        ts = guard.pacer.acquire()
        try:
            resp = transport.handshake(syn)
        except OSError as exc:  # a send that failed for this target only
            yield CampaignRecord(ts, address, port, version, "error", note=str(exc))
            continue
        cls = classify_response(spec, resp)
        yield CampaignRecord(
            ts, address, port, version, cls.label,
            sender_key=cls.sender_key, got_version=cls.got_version, note=cls.note,
        )


def make_response(seg: RawSegment, rtt_ms: float) -> ProbeResponse:
    """Build a ProbeResponse from a reply `decode_tcp` has read, with a
    tolerant option parse."""
    opts, err = parse_options_prefix(seg[9])
    return ProbeResponse(seg[6], opts, rtt_ms, note=err)
