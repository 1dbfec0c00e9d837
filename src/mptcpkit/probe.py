"""SYN probe construction, response classification, and campaign running.

Classification is stateless: a response is judged from the campaign's
`ProbeContext` and the packet alone, so campaigns scale like single-packet
scanners. One probe per target per campaign, no retries; the first valid
response wins.

What a campaign holds fixed is built once, in its `ProbeContext`: the
version and key (validated there), the SYN's MP_CAPABLE bytes and their
`options.syn_view`, and the blake2b hashers keyed with the seed. Each probe
computes only its own fields: `build_syn_probe` adds the address, port,
sequence number and source port, and `classify_response` reads the reply
against the context.
"""

from __future__ import annotations

import json
import math
import time
from enum import Enum
from typing import Callable, Iterable, Iterator, Protocol

from .errors import GuardViolation, IllegalCombination, OptionError
from .inputs import PrefixTable, Row, open_in, prefix_row, rows, timestamp_field, unsigned_field
from .options import (
    DEFAULT_MP_FLAGS,
    DEFAULT_PROBE_KEY,
    HandshakePhase,
    Key,
    MpCapable,
    TcpOption,
    decode_mp_capable,
    encode_mp_capable,
    parse_options_prefix,
    syn_view,
)
from .packet import FLAG_RST, FLAG_SYN_ACK, RawSegment, TcpPacket, pack_address
from .record import Frozen, Record

try:  # the built-in module; hashlib's would also map OpenSSL's libcrypto
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

DEFAULT_SCANNER_ADDR_V4 = "192.0.2.1"
DEFAULT_SCANNER_ADDR_V6 = "2001:db8:ffff::1"


class ProbeContext(Frozen):
    """What every probe of one campaign shares, built once: the MPTCP version,
    the v0 key and the seed (validated here), the MP_CAPABLE bytes of the SYN
    (`option`) and their `syn_view` (`view`), and two blake2b hashers keyed
    with the seed, from copies of which `build_syn_probe` derives each
    probe's sequence number (`seq_hash`) and source port (`sport_hash`,
    which has absorbed `sport:` too). Contexts compare by version, key and
    seed."""

    __slots__ = ("version", "probe_key", "seed", "option", "view", "seq_hash", "sport_hash")
    _fields = __slots__[:3]

    def __init__(self, version: int, probe_key: Key | None = None, seed: int = 0) -> None:
        if version not in (0, 1):
            raise ValueError(f"version must be 0 or 1, got {version}")
        if version == 0 and probe_key is None:
            raise IllegalCombination("v0 probes require a probe key")
        if version == 1 and probe_key is not None:
            raise IllegalCombination("v1 probes must not carry a key")
        option = encode_mp_capable(MpCapable(version, DEFAULT_MP_FLAGS, probe_key),
                                   HandshakePhase.SYN)
        key = seed.to_bytes(8, "big", signed=False)
        values = (version, probe_key, seed, option, syn_view(option),
                  blake2b(key=key, digest_size=4), blake2b(b"sport:", key=key, digest_size=2))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def for_campaign(cls, version: int, probe_key: Key | None, seed: int) -> "ProbeContext":
        """The context of a scan or trace: a v0 campaign given no key probes
        with DEFAULT_PROBE_KEY."""
        if version == 0 and probe_key is None:
            probe_key = DEFAULT_PROBE_KEY
        return cls(version, probe_key, seed)


class ProbeResponse(Record):
    """A packet received before the timeout, with its parsed options."""

    __slots__ = ("tcp_flags", "options", "rtt_ms", "note")

    def __init__(self, tcp_flags: int, options: list[TcpOption], rtt_ms: float,
                 note: str | None = None) -> None:
        self.tcp_flags, self.options, self.rtt_ms = tcp_flags, options, rtt_ms
        self.note = note


class HopReply(Record):
    """An ICMP-style time-exceeded reply quoting the in-flight packet."""

    __slots__ = ("responder", "quote", "rtt_ms")

    def __init__(self, responder: str, quote: bytes, rtt_ms: float) -> None:
        self.responder, self.quote, self.rtt_ms = responder, quote, rtt_ms


class ClassificationKind(Enum):
    NO_RESPONSE = "no_response"
    NO_MP_CAPABLE = "no_mp_capable"
    MIRRORED_KEY = "mirrored_key"
    VERSION_MISMATCH = "version_mismatch"
    POTENTIAL_CAPABLE = "potential_capable"


class Classification(Record):
    """Outcome of one probe exchange; exactly one kind per probe."""

    __slots__ = ("kind", "sender_key", "got_version", "note")

    def __init__(self, kind: ClassificationKind, sender_key: Key | None = None,
                 got_version: int | None = None, note: str | None = None) -> None:
        self.kind, self.sender_key = kind, sender_key
        self.got_version, self.note = got_version, note

    @property
    def label(self) -> str:
        return self.kind.value


def build_syn_probe(ctx: ProbeContext, target: str, port: int) -> TcpPacket:
    """The SYN of `ctx`'s campaign to one target, carrying exactly one
    MP_CAPABLE option, `ctx.option`.

    Only the target's own fields are computed here. Its sequence number is
    `blake2b(b"target,port", key=seed, digest_size=4)` and its source port
    32768 plus `blake2b(b"sport:target,port", key=seed, digest_size=2)`
    modulo 28000: a keyed hash of the flow identity lets replies be
    validated without a per-target state table. The family is read from the
    text (IPv6 alone has a colon) without parsing the address: the caller's
    blocklist lookup has parsed it already.
    """
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    flow = f"{target},{port}".encode()
    seq = ctx.seq_hash.copy()
    seq.update(flow)
    sport = ctx.sport_hash.copy()
    sport.update(flow)
    return TcpPacket(
        DEFAULT_SCANNER_ADDR_V6 if ":" in target else DEFAULT_SCANNER_ADDR_V4,
        target,
        32768 + int.from_bytes(sport.digest(), "big") % 28000,
        port,
        int.from_bytes(seq.digest(), "big"),
        options=ctx.option,
    )


def classify_response(ctx: ProbeContext, resp: ProbeResponse | None) -> Classification:
    """Classify one probe exchange of `ctx`'s campaign. Total: never raises on
    packet content.

    v0: a returned sender's key equal to ours means a mirroring middlebox;
    a different key is potentially MPTCP-capable. v1: a byte-identical echo
    of our option means mirroring (checked before anything else), and a
    decoded version other than 1 is a version mismatch. When no MP_CAPABLE
    decodes, the note joins the decode errors and `resp.note` by `; `.
    """
    if resp is None:
        return Classification(ClassificationKind.NO_RESPONSE)
    if resp.tcp_flags & FLAG_SYN_ACK != FLAG_SYN_ACK:
        note = "reset" if resp.tcp_flags & FLAG_RST else "not a SYN-ACK"
        return Classification(ClassificationKind.NO_RESPONSE, note=note)
    kind30 = [o for o in resp.options if o.kind == 30]
    if ctx.version == 1 and ctx.view.mp in kind30:
        return Classification(ClassificationKind.MIRRORED_KEY)  # a byte-identical echo

    decoded: list[MpCapable] = []
    notes: list[str] = []
    for opt in kind30:
        try:
            decoded.append(decode_mp_capable(opt, HandshakePhase.SYN_ACK))
        except OptionError as exc:  # every codec error folds into a diagnostic
            notes.append(str(exc))
    if not decoded:
        if resp.note is not None:
            notes.append(resp.note)
        return Classification(ClassificationKind.NO_MP_CAPABLE, note="; ".join(notes) or None)

    if ctx.version == 0:
        for mc in decoded:
            if mc.sender_key == ctx.probe_key:
                return Classification(
                    ClassificationKind.MIRRORED_KEY, sender_key=mc.sender_key
                )
    first = decoded[0]
    if first.version != ctx.version:
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

    def __init__(self, lines: Iterable[str] = ()):
        self.table = PrefixTable((key, True) for key, _asn in rows(lines, prefix_row))

    @classmethod
    def load(cls, path) -> "Blocklist":
        with open_in(path) as f:
            return cls(f)

    def matches(self, address: str) -> bool:
        return self.table.lookup(address) is not None

    def __len__(self) -> int:
        return len(self.table)


class VirtualClock:
    """Deterministic clock for tests and simulated campaigns; it starts at 0."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.now += seconds


# The tail of a real-clock wait spent polling the clock rather than asleep:
# `time.sleep` of a few µs takes tens of µs, and each overshoot would cost
# the pacer a send slot.
SLEEP_SLACK_S = 200e-6


def precise_sleep(
    seconds: float,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Wait until `seconds` have passed on `clock`: `sleep` all but the last
    SLEEP_SLACK_S, then poll `clock` for the rest."""
    deadline = clock() + seconds
    if seconds > SLEEP_SLACK_S:
        sleep(seconds - SLEEP_SLACK_S)
    while clock() < deadline:
        pass


class RatePacer:
    """Spaces sends one interval apart so no 1-second window exceeds the rate.

    Send k is scheduled at exactly base + k*interval (no accumulation drift);
    a stalled campaign re-anchors instead of bursting to catch up.
    """

    def __init__(
        self,
        packets_per_second: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = precise_sleep,
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


class CampaignGuard(Record):
    """What every command that sends applies, simulated or live: targets the
    blocklist matches are never probed, and every packet or fetch first waits
    its turn on the pacer, whose clock also stamps the rows of unsent probes.
    A guard without a blocklist reference is refused."""

    __slots__ = ("blocklist", "pacer")

    def __init__(self, blocklist: Blocklist, pacer: RatePacer) -> None:
        if blocklist is None:
            raise GuardViolation("campaign refused: no blocklist reference")
        self.blocklist, self.pacer = blocklist, pacer


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


# A scan row's label: a classification, or why the target has none.
SCAN_LABELS = frozenset({k.value for k in ClassificationKind} | {"skipped", "dry_run", "error"})
# The labels whose row may carry a key: the only ones `classify_response` gives one.
KEYED_LABELS = frozenset({"mirrored_key", "potential_capable"})


def scan_key(label: str, key: str | None) -> Key | None:
    """The key, None if empty or absent, of a scan or snapshot row of `label`,
    which must be one of SCAN_LABELS, and of KEYED_LABELS to carry a key."""
    if label not in SCAN_LABELS:
        raise ValueError(f"unknown classification {label!r}")
    if key in (None, ""):
        return None
    if label not in KEYED_LABELS:
        raise ValueError(f"a key is only on a mirrored_key or potential_capable row, "
                         f"got {key!r} on {label}")
    return Key.from_row(key)


class CampaignRecord(Record):
    """One output record per target; `label` is one of SCAN_LABELS."""

    __slots__ = ("timestamp", "address", "port", "version", "label", "sender_key", "got_version",
                 "note")

    def __init__(self, timestamp: float, address: str, port: int, version: int, label: str,
                 sender_key: Key | None = None, got_version: int | None = None,
                 note: str | None = None) -> None:
        self.timestamp, self.address, self.port = timestamp, address, port
        self.version, self.label, self.sender_key = version, label, sender_key
        self.got_version, self.note = got_version, note

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
        return cls(timestamp_field(ts), address, unsigned_field(port, "port"),
                   unsigned_field(version, "version"), label, scan_key(label, key))

    @classmethod
    def from_json(cls, line: str) -> "CampaignRecord":
        try:
            payload = json.loads(line)
            key = payload.get("sender_key")
            address, label = payload["address"], payload["classification"]
            timestamp, port, version = payload["timestamp"], payload["port"], payload["version"]
            if not isinstance(address, str) or not isinstance(label, str):
                raise TypeError("address and classification must be strings")
            # JSON integers and numbers only, as the CSV form reads them: no
            # bool, no string, and no fraction of a port or version.
            if type(port) is not int or type(version) is not int:
                raise TypeError(f"port and version must be integers, got {port!r}, {version!r}")
            if type(timestamp) not in (int, float):
                raise TypeError(f"timestamp must be a number, got {timestamp!r}")
            got_version, note = payload.get("got_version"), payload.get("note")
            if type(got_version) not in (int, type(None)) or got_version not in (None, 0, 1):
                raise TypeError(f"got_version must be null, 0 or 1, got {got_version!r}")
            if not isinstance(note, (str, type(None))):
                raise TypeError(f"note must be null or a string, got {note!r}")
            return cls(timestamp_field(timestamp), address, port, version, label,
                       scan_key(label, key), got_version, note)
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"bad scan record ({exc!r}): {line!r}") from None

    @classmethod
    def parse(cls, line: str) -> "CampaignRecord":
        """One scan row: JSON when it starts with `{`, CSV otherwise."""
        record = cls.from_json(line) if line.startswith("{") else cls.from_csv(line)
        checked_target(record.address, record.port)
        if record.version not in (0, 1):
            raise ValueError(f"version must be 0 or 1, got {record.version}")
        return record


def checked_target(address: str, port: int) -> tuple[str, int]:
    """(address, port) of a probe target: a port in [0, 65535] and an IPv4 or
    IPv6 address with no `,` (a scope may hold one, a CSV row may not)."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    if "," in address:
        raise ValueError(f"address must hold no ',', got {address!r}")
    pack_address(address)  # raises for what is not an address
    return address, port


def target_row(line: str) -> tuple[str, int]:
    """One `address,port` row, a `checked_target`; spaces may pad each field."""
    address, sep, port = line.rpartition(",")
    if not sep:
        raise ValueError(f"expected address,port, got {line!r}")
    return checked_target(address.strip(), unsigned_field(port.strip(), "port"))


def probe_targets(targets: Iterable[tuple[str, int]], blocklist: Blocklist,
                  probe: Callable[[str, int], Row],
                  unprobed: Callable[[str, int, str, str | None], Row]) -> Iterator[Row]:
    """The per-target loop of every probing command: one row per target, in
    input order. A target `blocklist` matches gets `unprobed(address, port,
    "skipped", None)` and no packet; any other gets `probe(address, port)`,
    or `unprobed(address, port, "error", str(exc))` if that raises OSError (a
    send that failed for this target only), and the run goes on."""
    for address, port in targets:
        if blocklist.matches(address):
            yield unprobed(address, port, "skipped", None)
            continue
        try:
            row = probe(address, port)
        except OSError as exc:
            row = unprobed(address, port, "error", str(exc))
        yield row


def run_campaign(
    targets: Iterable[tuple[str, int]],
    *,
    version: int,
    guard: CampaignGuard,
    transport: PacketTransport | None,
    probe_key: Key | None = None,
    seed: int = 0,
) -> Iterator[CampaignRecord]:
    """Probe each target once through `probe_targets`, and classify.

    The campaign's `ProbeContext` is built at the first row, so a bad version
    and key pair is refused before any target is read; each probe then
    computes only its target's own fields. Every send waits on
    `guard.pacer`, and its send slot is the record's timestamp, an `error`
    record's too; skipped and dry-run rows read the pacer's clock. Without a
    transport the run is dry: it emits the built probes and sends nothing.
    """
    ctx = ProbeContext.for_campaign(version, probe_key, seed)
    pacer = guard.pacer
    sent_at = 0.0  # the send slot of the latest probe

    def probe(address: str, port: int) -> CampaignRecord:
        nonlocal sent_at
        syn = build_syn_probe(ctx, address, port)
        if transport is None:
            return CampaignRecord(pacer.clock(), address, port, version, "dry_run",
                                  note=syn.options.hex())
        sent_at = pacer.acquire()
        cls = classify_response(ctx, transport.handshake(syn))
        return CampaignRecord(sent_at, address, port, version, cls.label, cls.sender_key,
                              cls.got_version, cls.note)

    def unprobed(address: str, port: int, label: str, note: str | None) -> CampaignRecord:
        timestamp = sent_at if label == "error" else pacer.clock()
        return CampaignRecord(timestamp, address, port, version, label, note=note)

    yield from probe_targets(targets, guard.blocklist, probe, unprobed)


def make_response(seg: RawSegment, rtt_ms: float) -> ProbeResponse:
    """Build a ProbeResponse from a reply `decode_tcp` has read, with a
    tolerant option parse."""
    opts, err = parse_options_prefix(seg[9])
    return ProbeResponse(seg[6], opts, rtt_ms, note=err)
