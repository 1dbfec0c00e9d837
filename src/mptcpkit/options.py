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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    BadLength,
    BadSubtype,
    IllegalCombination,
    IllegalLength,
    OptionError,
    TruncatedOption,
    UnknownVersion,
)

EOL = 0
NOP = 1
MP_CAPABLE_KIND = 30
MP_CAPABLE_SUBTYPE = 0

# Checksum-required bit plus the standard crypto-algorithm bit; common stacks
# send 0x81, and so does every probe mptcpkit builds.
DEFAULT_MP_FLAGS = 0x81


@dataclass(frozen=True, order=True, slots=True)
class Key:
    """A 64-bit MPTCP sender's key."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << 64:
            raise ValueError(f"key must fit in 64 bits, got {self.value:#x}")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Key":
        if len(data) != 8:
            raise ValueError(f"key needs exactly 8 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def from_hex(cls, text: str) -> "Key":
        return cls(int(text, 16))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(8, "big")

    @property
    def hex(self) -> str:
        return f"{self.value:016x}"


@dataclass(frozen=True, slots=True)
class TcpOption:
    """One TCP option: kind plus payload (kind and length bytes excluded).

    EOL(0) and NOP(1) are single-byte kinds and carry no payload.
    """

    kind: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.kind <= 255:
            raise ValueError(f"option kind out of range: {self.kind}")
        if self.kind in (EOL, NOP) and self.payload:
            raise ValueError(f"kind {self.kind} carries no payload")
        if len(self.payload) > 38:
            raise ValueError("option payload exceeds 38 bytes")

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


@dataclass(frozen=True, slots=True)
class MpCapable:
    """Decoded MP_CAPABLE: version, opaque flags, optional 64-bit keys."""

    version: int
    flags: int = DEFAULT_MP_FLAGS
    sender_key: Key | None = None
    receiver_key: Key | None = None

    def __post_init__(self) -> None:
        if self.version not in (0, 1):
            raise UnknownVersion(f"version must be 0 or 1, got {self.version}")
        if not 0 <= self.flags <= 255:
            raise ValueError(f"flags must fit in 8 bits, got {self.flags:#x}")
        if self.receiver_key is not None and self.sender_key is None:
            raise IllegalCombination("receiver key requires a sender key")


# Which keys each legal wire form carries: (sender present, receiver present).
_PHASE_KEYS = {
    (0, HandshakePhase.SYN): (True, False),
    (0, HandshakePhase.SYN_ACK): (True, False),
    (0, HandshakePhase.ACK): (True, True),
    (1, HandshakePhase.SYN): (False, False),
    (1, HandshakePhase.SYN_ACK): (True, False),
    (1, HandshakePhase.ACK): (True, True),
}

# Accepted total option lengths on decode.
_PHASE_LENGTHS = {
    (0, HandshakePhase.SYN): (12,),
    (0, HandshakePhase.SYN_ACK): (12,),
    (0, HandshakePhase.ACK): (20,),
    (1, HandshakePhase.SYN): (4,),
    (1, HandshakePhase.SYN_ACK): (12,),
    (1, HandshakePhase.ACK): (20, 22),
}


def _parse_options(data: bytes) -> tuple[list[TcpOption], OptionError | None]:
    """The one parsing loop: options up to the first error, and that error."""
    out: list[TcpOption] = []
    i = 0
    while i < len(data):
        kind = data[i]
        if kind == EOL:
            break
        if kind == NOP:
            out.append(TcpOption(NOP))
            i += 1
            continue
        if i + 1 >= len(data):
            return out, TruncatedOption(f"truncated option kind {kind}")
        length = data[i + 1]
        if length < 2:
            return out, IllegalLength(f"illegal length {length} for kind {kind}")
        if i + length > len(data):
            return out, TruncatedOption(f"truncated option kind {kind}")
        out.append(TcpOption(kind, bytes(data[i + 2 : i + length])))
        i += length
    return out, None


def parse_options(data: bytes) -> list[TcpOption]:
    """Parse a TCP header options region into options in wire order.

    Parsing stops at EOL; NOP yields a zero-payload entry. Unknown kinds are
    preserved verbatim. Raises TruncatedOption when a declared length runs
    past the buffer and IllegalLength when a multi-byte kind declares a
    length below 2.
    """
    out, error = _parse_options(data)
    if error is not None:
        raise error
    return out


def parse_options_prefix(data: bytes) -> tuple[list[TcpOption], str | None]:
    """Tolerant variant: parse as far as possible, return (options, error)."""
    out, error = _parse_options(data)
    return out, None if error is None else str(error)


def encode_options(options: list[TcpOption], pad_to_word: bool = False) -> bytes:
    """Serialize options back to wire bytes, optionally zero-padded to 4n."""
    data = b"".join(opt.encode() for opt in options)
    if pad_to_word:
        data += b"\x00" * (-len(data) % 4)
    return data


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


def encode_mp_capable(mc: MpCapable, phase: HandshakePhase) -> bytes:
    """Encode to the full option bytes (kind and length included).

    The key set must match the (version, phase) form exactly, otherwise
    IllegalCombination is raised. decode(encode(mc, phase), phase) == mc.
    """
    want_sender, want_receiver = _PHASE_KEYS[(mc.version, phase)]
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
