"""Minimal IPv4/IPv6 + TCP segment construction and parsing.

Enough of the wire format to build SYN probes, synthesize captures, and read
TCP headers back out of responses and ICMP-quoted packets. The reader follows
the IPv6 Hop-by-Hop, Routing, Destination Options and Fragment headers; a later
fragment (IPv4 or IPv6) has no TCP header. No fragmentation or reassembly.
"""

from __future__ import annotations

import functools
import ipaddress
import socket
import struct
from dataclasses import dataclass
from enum import IntFlag

from .options import TcpOption, parse_options_prefix


class TcpFlags(IntFlag):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


# The same bits as plain ints, for per-packet tests: `flags & TcpFlags.SYN`
# with an int `flags` runs IntFlag's reflected `__rand__`, a Python call.
FLAG_SYN = int(TcpFlags.SYN)
FLAG_RST = int(TcpFlags.RST)
FLAG_ACK = int(TcpFlags.ACK)
FLAG_SYN_ACK = FLAG_SYN | FLAG_ACK

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
TCP_HEADER_LEN = 20


@dataclass(slots=True)
class TcpPacket:
    """Builder-side description of one TCP segment."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: int = FLAG_SYN
    ttl: int = 64
    window: int = 65535
    options: bytes = b""
    payload: bytes = b""


@dataclass(slots=True)
class ParsedSegment:
    """Reader-side view of an IP+TCP packet."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    ttl: int
    window: int
    options: bytes
    ip_bytes: int  # IP-layer total length, the byte-accounting unit
    payload_len: int


def pack_address(text: str) -> bytes:
    """The 4- or 16-byte form of an address, as `ipaddress.ip_address(text).packed`.

    `inet_pton` parses the common forms; whatever it rejects (scoped IPv6
    such as `fe80::1%eth0`, embedded NULs, non-text input, invalid text) goes
    to `ipaddress`, which decides and raises its own errors.
    """
    try:
        family = socket.AF_INET6 if ":" in text else socket.AF_INET
        return socket.inet_pton(family, text)
    except (OSError, ValueError, TypeError):
        return ipaddress.ip_address(text).packed


def ip_family(addr: str) -> int:
    return 4 if len(pack_address(addr)) == 4 else 6


# Wire layouts the parser reads.
_IPV4 = struct.Struct("!BBHHHBBH4s4s")  # ver/ihl tos len id frag ttl proto csum src dst
_IPV6 = struct.Struct("!IHBB16s16s")  # ver/class/label payload-len next-header hops src dst
_TCP = struct.Struct("!HHIIBBHHH")  # ports seq ack offset flags window csum urg
# What the builder writes: both headers in one pack, the TCP data offset and
# flags as one word.
_IPV4_TCP = struct.Struct("!BBHHHBBH4s4sHHIIHHHH")
_IPV6_TCP = struct.Struct("!IHBB16s16sHHIIHHHH")
_U16 = struct.Struct("!H")
_FRAGMENT_OFFSET = 0x1FFF  # mask of the IPv4 fragment offset field
_V6_EXTENSIONS = (0, 43, 44, 60)  # Hop-by-Hop, Routing, Fragment, Destination Options
_V6_FRAGMENT_OFFSET = 0xFFF8  # mask of the offset in the Fragment header's 2nd word


def address_text(packed: bytes) -> str:
    """Text form of a packed IPv4 (4-byte) or IPv6 (16-byte) address, as
    `str(ipaddress.ip_address(packed))` writes it."""
    if len(packed) == 4:
        return socket.inet_ntoa(packed)
    return str(ipaddress.IPv6Address(packed))


# Keyed by what a campaign holds fixed: its source, options, flags, window and
# TTL. A trace walks at most 64 TTLs, so a whole walk stays in the memo.
@functools.lru_cache(maxsize=64)
def _header_template(
    src: bytes, options: bytes, flags: int, window: int, ttl: int
) -> tuple[bytes, int, int, int]:
    """(padded options, data offset and flags word, IPv4 header sum, TCP sum).

    The sums are one's-complement partial sums of the fixed header fields,
    left unfolded: `int.from_bytes` of an even number of bytes is congruent
    to the sum of its 16-bit words modulo 0xFFFF, and so is any sum of such
    terms. The TCP sum covers the pseudo-header's source and protocol.
    """
    options += b"\x00" * (-len(options) % 4)
    offset_flags = (TCP_HEADER_LEN + len(options)) // 4 << 12 | flags
    src_sum = int.from_bytes(src, "big")
    ip_sum = 0x4500 + (ttl << 8 | 6) + src_sum
    tcp_sum = src_sum + 6 + offset_flags + window + int.from_bytes(options, "big")
    return options, offset_flags, ip_sum, tcp_sum


def _checksum(total: int) -> int:
    """The Internet checksum (RFC 1071) of data whose 16-bit words sum to
    `total` > 0: the one's complement of the sum folded to 16 bits."""
    return 0xFFFE - (total - 1) % 0xFFFF


def encode_packet(
    pkt: TcpPacket, src: str | None = None, ttl: int | None = None, options: bytes | None = None
) -> bytes:
    """Serialize to IP header + TCP header + options + payload, checksummed.

    `src`, `ttl` and `options`, when given, are sent in place of the packet's own.
    """
    src = pack_address(pkt.src if src is None else src)
    dst = pack_address(pkt.dst)
    if ttl is None:
        ttl = pkt.ttl
    if len(src) != len(dst):
        raise ValueError("source and destination address families differ")
    options, offset_flags, ip_sum, tcp_sum = _header_template(
        src, pkt.options if options is None else options, pkt.flags & 0xFF, pkt.window, ttl
    )
    payload = pkt.payload
    tcp_len = TCP_HEADER_LEN + len(options) + len(payload)
    seq = pkt.seq & 0xFFFFFFFF
    ack = pkt.ack & 0xFFFFFFFF
    dst_sum = int.from_bytes(dst, "big")
    tcp_csum = _checksum(
        tcp_sum + dst_sum + tcp_len + pkt.src_port + pkt.dst_port + seq + ack
        + (int.from_bytes(payload, "big") << 8 * (len(payload) & 1))  # odd: pad a zero
    )
    if len(src) == 4:
        total = IPV4_HEADER_LEN + tcp_len
        header = _IPV4_TCP.pack(
            0x45, 0, total, 0, 0, ttl, 6, _checksum(ip_sum + dst_sum + total), src, dst,
            pkt.src_port, pkt.dst_port, seq, ack, offset_flags, pkt.window, tcp_csum, 0,
        )
    else:
        header = _IPV6_TCP.pack(
            0x60000000, tcp_len, 6, ttl, src, dst,
            pkt.src_port, pkt.dst_port, seq, ack, offset_flags, pkt.window, tcp_csum, 0,
        )
    return header + options + payload


def _v6_chain(data: bytes, start: int = 0) -> tuple[int, int, bool] | None:
    """Walk the extension headers of the IPv6 packet at `start` in `data`:
    (offset, protocol, later fragment).

    `offset` is where the header named `protocol` starts. The walk stops at a
    fragment header whose offset is not zero (later fragment: `protocol` is
    what the fragment carries) and at any header it does not walk; None when
    the data ends inside an extension header.
    """
    offset = start + IPV6_HEADER_LEN
    proto = data[start + 6]
    while proto in _V6_EXTENSIONS:
        if len(data) < offset + 8:
            return None
        next_proto = data[offset]
        if proto == 44:  # Fragment: always 8 bytes
            if _U16.unpack_from(data, offset + 2)[0] & _V6_FRAGMENT_OFFSET:
                return offset + 8, next_proto, True
            offset += 8
        else:  # the length byte counts 8-byte units after the first
            offset += (data[offset + 1] + 1) * 8
            if len(data) < offset:
                return None
        proto = next_proto
    return offset, proto, False


def is_non_tcp(data: bytes) -> bool:
    """An IPv4/IPv6 header naming a protocol other than TCP, past any IPv6
    extension headers. A later IPv6 fragment that carries an extension header
    does not say, so it is not counted here."""
    if len(data) < 10:
        return False
    version = data[0] >> 4
    if version == 4:
        return data[9] != 6
    if version != 6:
        return False
    chain = _v6_chain(data)
    return chain is not None and chain[1] != 6 and chain[1] not in _V6_EXTENSIONS


def is_later_fragment(data: bytes) -> bool:
    """A fragment whose offset is not zero: no transport header follows."""
    if len(data) < IPV4_HEADER_LEN:
        return False
    version = data[0] >> 4
    if version == 4:
        return _U16.unpack_from(data, 6)[0] & _FRAGMENT_OFFSET != 0
    chain = _v6_chain(data) if version == 6 else None
    return chain is not None and chain[2]


# The fields of `ParsedSegment` in its order, src and dst packed (4 or 16 bytes).
RawSegment = tuple[bytes, bytes, int, int, int, int, int, int, int, bytes, int, int]


def decode_tcp(data: bytes, start: int = 0) -> RawSegment | None:
    """Parse the IP+TCP packet that starts at `start` in `data`, addresses
    packed; None for anything not complete TCP, a later fragment or a
    truncated IPv6 extension header. Headers are read where they lie: only
    the options are copied out."""
    size = len(data) - start
    version = data[start] >> 4 if size >= IPV4_HEADER_LEN else 0
    if version == 4:
        ver_ihl, _tos, ip_total, _id, frag, ttl, proto, _csum, src, dst = (
            _IPV4.unpack_from(data, start)
        )
        ihl = (ver_ihl & 0x0F) * 4
        if ihl < IPV4_HEADER_LEN or size < ihl or frag & _FRAGMENT_OFFSET:
            return None
    elif version == 6 and size >= IPV6_HEADER_LEN:
        _first, payload_len, proto, ttl, src, dst = _IPV6.unpack_from(data, start)
        ihl, ip_total = IPV6_HEADER_LEN, IPV6_HEADER_LEN + payload_len
        if proto != 6:  # walk any extension headers; `ihl` counts them
            chain = _v6_chain(data, start)
            if chain is None or chain[2]:
                return None
            ihl, proto = chain[0] - start, chain[1]
    else:
        return None
    tcp = start + ihl
    if proto != 6 or size < ihl + TCP_HEADER_LEN:
        return None
    src_port, dst_port, seq, ack, offset_byte, flags, window, _csum, _urg = (
        _TCP.unpack_from(data, tcp)
    )
    tcp_len = (offset_byte >> 4) * 4
    if tcp_len < TCP_HEADER_LEN or size < ihl + tcp_len:
        return None
    options = bytes(data[tcp + TCP_HEADER_LEN : tcp + tcp_len])
    payload_len = ip_total - ihl - tcp_len
    return (
        src, dst, src_port, dst_port, seq, ack, flags, ttl, window, options,
        ip_total, payload_len if payload_len > 0 else 0,
    )


def decode_packet(data: bytes) -> ParsedSegment | None:
    """Text view of `decode_tcp`: the same parse, addresses as strings."""
    seg = decode_tcp(data)
    if seg is None:
        return None
    return ParsedSegment(address_text(seg[0]), address_text(seg[1]), *seg[2:])


def extract_quoted_options(quote: bytes) -> list[TcpOption] | None:
    """Read the TCP options region out of an ICMP-quoted packet prefix.

    Returns None when the quote is too short to cover the full options
    region, or quotes no TCP header: absence of evidence, not evidence of
    absence.
    """
    seg = decode_tcp(quote)
    if seg is None:
        return None
    opts, err = parse_options_prefix(seg[9])
    return None if err is not None else opts
