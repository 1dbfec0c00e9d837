"""TCP option list codec and the MP_CAPABLE option for MPTCP v0 and v1.

Wire layout per RFC 6824 (v0) and RFC 8684 (v1):

    kind=30 | length | subtype(4 bits)=0, version(4 bits) | flags(8 bits)
            | [sender's key, 64 bits] | [receiver's key, 64 bits]

Total option length by (version, handshake phase):

    v0: SYN 12, SYN-ACK 12, final ACK 20
    v1: SYN 4,  SYN-ACK 12, final ACK 20 (a 22-byte data-carrying ACK is
        accepted on decode, never emitted)

Flags are treated as an opaque 8-bit field; checksum and HMAC semantics are
not interpreted. All functions here are pure and safe for concurrent use.

This is the only module that knows the MP_CAPABLE byte layout. `syn_view`
reads a sent SYN's options once per campaign for the scanner's mirror test,
the tracer's per-hop diff and the simulator's middleboxes, and
`with_sender_key` is the one rewrite of a key in place.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import NamedTuple

from .errors import (
    BadLength,
    BadSubtype,
    IllegalCombination,
    IllegalLength,
    OptionError,
    TruncatedOption,
    UnknownVersion,
)
from .record import Frozen

EOL = 0
NOP = 1
MP_CAPABLE_KIND = 30
MP_CAPABLE_SUBTYPE = 0

# Checksum-required bit plus the standard crypto-algorithm bit; common stacks
# send 0x81, and so does every probe mptcpkit builds.
DEFAULT_MP_FLAGS = 0x81


class Key(Frozen):
    """A 64-bit MPTCP sender's key."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value < 1 << 64:
            raise ValueError(f"key must fit in 64 bits, got {value:#x}")
        object.__setattr__(self, "value", value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Key":
        if len(data) != 8:
            raise ValueError(f"key needs exactly 8 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def from_hex(cls, text: str) -> "Key":
        """A typed key (`--probe-key`, `keys --in`): whatever `int(text, 16)` reads."""
        return cls(int(text, 16))

    @classmethod
    def from_row(cls, text: str) -> "Key":
        """A key of a row the toolkit writes, as `hex` writes it: 16 lowercase hex digits."""
        if len(text) == 16 and not text.strip("0123456789abcdef"):
            return cls(int(text, 16))
        raise ValueError(f"key must be 16 lowercase hex digits, got {text!r}")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(8, "big")

    @property
    def hex(self) -> str:
        return f"{self.value:016x}"


# Default v0 campaign key: a documented constant of Hamming weight 16, so key
# weight histograms from different campaigns line up.
DEFAULT_PROBE_KEY = Key(0x000000000000FFFF)


class TcpOption(Frozen):
    """One TCP option: kind plus payload (kind and length bytes excluded).

    EOL(0) and NOP(1) are single-byte kinds and carry no payload.
    """

    __slots__ = ("kind", "payload")

    def __init__(self, kind: int, payload: bytes = b"") -> None:
        if not 0 <= kind <= 255:
            raise ValueError(f"option kind out of range: {kind}")
        if kind in (EOL, NOP) and payload:
            raise ValueError(f"kind {kind} carries no payload")
        if len(payload) > 38:
            raise ValueError("option payload exceeds 38 bytes")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)

    def encode(self) -> bytes:
        if self.kind in (EOL, NOP):
            return bytes([self.kind])
        return bytes([self.kind, len(self.payload) + 2]) + self.payload


class HandshakePhase(Enum):
    SYN = "syn"
    SYN_ACK = "syn-ack"
    ACK = "ack"

    # Members are singletons, so identity is their equality; this keeps the
    # codec's (version, phase) table lookups off Enum's Python `__hash__`.
    __hash__ = object.__hash__


_PHASES = tuple(HandshakePhase)  # iterating the class runs a Python generator


class MpCapable(Frozen):
    """Decoded MP_CAPABLE: version, opaque flags, optional 64-bit keys."""

    __slots__ = ("version", "flags", "sender_key", "receiver_key")

    def __init__(self, version: int, flags: int = DEFAULT_MP_FLAGS,
                 sender_key: Key | None = None, receiver_key: Key | None = None) -> None:
        if version not in (0, 1):
            raise UnknownVersion(f"version must be 0 or 1, got {version}")
        if not 0 <= flags <= 255:
            raise ValueError(f"flags must fit in 8 bits, got {flags:#x}")
        if receiver_key is not None and sender_key is None:
            raise IllegalCombination("receiver key requires a sender key")
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "sender_key", sender_key)
        object.__setattr__(self, "receiver_key", receiver_key)


# Accepted total option lengths on decode; the first is the one encoded. A
# form of 12 bytes or more carries the sender's key, one of 20 or more both.
_PHASE_LENGTHS = {
    (0, HandshakePhase.SYN): (12,),
    (0, HandshakePhase.SYN_ACK): (12,),
    (0, HandshakePhase.ACK): (20,),
    (1, HandshakePhase.SYN): (4,),
    (1, HandshakePhase.SYN_ACK): (12,),
    (1, HandshakePhase.ACK): (20, 22),
}


def _parse_options(
    data: bytes, start: int = 0, end: int | None = None, keep: int | None = None
) -> tuple[list[TcpOption], OptionError | None]:
    """The one option-framing loop: options of `data[start:end]` up to the first
    error, and that error. With `keep` (a multi-byte kind), only that kind is built."""
    out: list[TcpOption] = []
    i, end = start, len(data) if end is None else end
    while i < end:
        kind = data[i]
        if kind == EOL:
            break
        if kind == NOP:
            if keep is None:
                out.append(TcpOption(NOP))
            i += 1
            continue
        if i + 1 >= end:
            return out, TruncatedOption(f"truncated option kind {kind}")
        length = data[i + 1]
        if i + length > end:  # never for a length below 2: i + 1 < end
            return out, TruncatedOption(f"truncated option kind {kind}")
        if not 2 <= length <= 40:  # 40: the most a TCP header holds
            return out, IllegalLength(f"illegal length {length} for kind {kind}")
        if keep is None or kind == keep:
            out.append(TcpOption(kind, bytes(data[i + 2 : i + length])))
        i += length
    return out, None


def parse_options(data: bytes) -> list[TcpOption]:
    """Parse a TCP header options region into options in wire order.

    Parsing stops at EOL; NOP yields a zero-payload entry. Unknown kinds are
    preserved verbatim. Raises TruncatedOption when a declared length runs
    past the buffer, else IllegalLength when a multi-byte kind declares a
    length below 2 or above 40.
    """
    out, error = _parse_options(data)
    if error is not None:
        raise error
    return out


def parse_options_prefix(data: bytes) -> tuple[list[TcpOption], str | None]:
    """Tolerant variant: parse as far as possible, return (options, error)."""
    out, error = _parse_options(data)
    return out, None if error is None else str(error)


def encode_options(options: list[TcpOption]) -> bytes:
    """Serialize options back to wire bytes."""
    return b"".join(opt.encode() for opt in options)


def find_mp_capable(options: list[TcpOption]) -> TcpOption | None:
    for opt in options:
        if opt.kind == MP_CAPABLE_KIND:
            return opt
    return None


def decode_mp_capable(opt: TcpOption, phase: HandshakePhase) -> MpCapable:
    """Decode a kind-30 option as MP_CAPABLE for the given handshake phase.

    Raises BadSubtype, UnknownVersion, or BadLength; flags pass through
    verbatim.
    """
    if opt.kind != MP_CAPABLE_KIND:
        raise BadSubtype(f"kind {opt.kind} is not MP_CAPABLE")
    data = opt.payload
    if len(data) < 2:
        raise BadLength(f"option too short to carry subtype/flags: {len(data) + 2}")
    subtype = data[0] >> 4
    if subtype != MP_CAPABLE_SUBTYPE:
        raise BadSubtype(f"subtype {subtype} is not MP_CAPABLE")
    version = data[0] & 0x0F
    if version not in (0, 1):
        raise UnknownVersion(f"unsupported MPTCP version {version}")
    total = len(data) + 2
    if total not in _PHASE_LENGTHS[(version, phase)]:
        raise BadLength(
            f"length {total} illegal for v{version} {phase.value}"
        )
    flags = data[1]
    sender = Key.from_bytes(data[2:10]) if total >= 12 else None
    receiver = Key.from_bytes(data[10:18]) if total >= 20 else None
    return MpCapable(version, flags, sender, receiver)


def decode_mp_capable_any(opt: TcpOption) -> MpCapable | None:
    """Decode under whichever phase fits the length; None if nothing does."""
    for phase in _PHASES:
        try:
            return decode_mp_capable(opt, phase)
        except (BadSubtype, UnknownVersion):
            return None
        except BadLength:
            continue
    return None


def mp_capable_version(data: bytes, start: int = 0, end: int | None = None) -> int | None:
    """Version of the first MP_CAPABLE in the options `data[start:end]` that
    `decode_mp_capable_any` decodes; None if none does."""
    kept = _parse_options(data, start, end, MP_CAPABLE_KIND)[0]
    return next((mc.version for mc in map(decode_mp_capable_any, kept) if mc is not None), None)


def encode_mp_capable(mc: MpCapable, phase: HandshakePhase) -> bytes:
    """Encode to the full option bytes (kind and length included).

    The key set must match the (version, phase) form exactly, otherwise
    IllegalCombination is raised. decode(encode(mc, phase), phase) == mc.
    """
    length = _PHASE_LENGTHS[(mc.version, phase)][0]
    want_sender, want_receiver = length >= 12, length >= 20
    if (mc.sender_key is not None) != want_sender or (
        mc.receiver_key is not None
    ) != want_receiver:
        raise IllegalCombination(
            f"v{mc.version} {phase.value} requires sender={want_sender} "
            f"receiver={want_receiver}"
        )
    body = bytes([(MP_CAPABLE_SUBTYPE << 4) | mc.version, mc.flags])
    if mc.sender_key is not None:
        body += mc.sender_key.to_bytes()
    if mc.receiver_key is not None:
        body += mc.receiver_key.to_bytes()
    return bytes([MP_CAPABLE_KIND, len(body) + 2]) + body


def with_sender_key(opt: TcpOption, key: Key) -> TcpOption:
    """The keyed MP_CAPABLE `opt` with its sender's key swapped for `key`."""
    return TcpOption(MP_CAPABLE_KIND, opt.payload[:2] + key.to_bytes() + opt.payload[10:])


class SynView(NamedTuple):
    """What a sent SYN's option bytes say about the MP_CAPABLE it carries."""

    parsed: tuple[TcpOption, ...]  # the tolerant parse
    mp: TcpOption | None  # the first MP_CAPABLE
    any_mc: MpCapable | None  # `mp` decoded in whichever phase fits
    syn_mc: MpCapable | None  # `mp` decoded as a SYN; None if it does not decode


# Keyed by the SYN's option bytes, which every probe of a campaign shares.
@functools.lru_cache(maxsize=16)
def syn_view(options: bytes) -> SynView:
    """The view of a sent SYN's options, read once per distinct option bytes."""
    parsed, _ = parse_options_prefix(options)
    mp = find_mp_capable(parsed)
    if mp is None:
        return SynView(tuple(parsed), None, None, None)
    try:
        syn_mc = decode_mp_capable(mp, HandshakePhase.SYN)
    except OptionError:
        syn_mc = None
    return SynView(tuple(parsed), mp, decode_mp_capable_any(mp), syn_mc)
