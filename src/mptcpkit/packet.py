"""Minimal IPv4/IPv6 + TCP segment construction and parsing.

Enough of the wire format to build SYN probes, synthesize captures, and read
TCP headers back out of responses and ICMP-quoted packets. `flow_fields` is the
one reader of IP and TCP headers: it reads the two common layouts in one unpack
and walks any other packet, every read bounded by the packet's end, and answers
with the flow fields, `NON_TCP`, `LATER_FRAGMENT` or None. It follows the IPv6
Hop-by-Hop, Routing, Destination Options and Fragment headers; a later fragment
(IPv4 or IPv6) has no TCP header. `decode_tcp` is its view with the rest of the
TCP header. No fragmentation or reassembly.
"""

from __future__ import annotations

import functools
import ipaddress
import socket
import struct

from .errors import OptionError
from .options import TcpOption, parse_options
from .record import Record

FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_ACK = 0x10
FLAG_SYN_ACK = FLAG_SYN | FLAG_ACK

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
TCP_HEADER_LEN = 20


class TcpPacket(Record):
    """Builder-side description of one TCP segment."""

    __slots__ = ("src", "dst", "src_port", "dst_port", "seq", "ack", "flags", "ttl", "window",
                 "options", "payload")

    def __init__(self, src: str, dst: str, src_port: int, dst_port: int, seq: int, ack: int = 0,
                 flags: int = FLAG_SYN, ttl: int = 64, window: int = 65535, options: bytes = b"",
                 payload: bytes = b"") -> None:
        self.src, self.dst, self.src_port = src, dst, src_port
        self.dst_port, self.seq, self.ack = dst_port, seq, ack
        self.flags, self.ttl, self.window = flags, ttl, window
        self.options, self.payload = options, payload


class ParsedSegment(Record):
    """Reader-side view of an IP+TCP packet; `ip_bytes` is its IP-layer total
    length, the byte-accounting unit."""

    __slots__ = ("src", "dst", "src_port", "dst_port", "seq", "ack", "flags", "ttl", "window",
                 "options", "ip_bytes", "payload_len")

    def __init__(self, src: str, dst: str, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, ttl: int, window: int, options: bytes, ip_bytes: int,
                 payload_len: int) -> None:
        self.src, self.dst, self.src_port = src, dst, src_port
        self.dst_port, self.seq, self.ack = dst_port, seq, ack
        self.flags, self.ttl, self.window = flags, ttl, window
        self.options, self.ip_bytes, self.payload_len = options, ip_bytes, payload_len


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


# What `flow_fields` reads of a packet it walks header by header, and the
# rest of the TCP header, which `decode_tcp` adds.
_IPV4 = struct.Struct("!2xH8x4s4s")  # len src dst
_IPV6 = struct.Struct("!4xH2x16s16s")  # payload-len src dst
_TCP_PORTS = struct.Struct("!HH8xB")  # ports offset
_TCP_STATE = struct.Struct("!4xIIxBH")  # seq ack flags window
# What the builder writes: both headers in one pack, the TCP data offset and
# flags as one word.
_IPV4_TCP = struct.Struct("!BBHHHBBH4s4sHHIIHHHH")
_IPV6_TCP = struct.Struct("!IHBB16s16sHHIIHHHH")
# The common layouts up to the TCP data offset, for `flow_fields`: an IPv4
# header without options (its first byte read apart), or an IPv6 header.
_IPV4_FLOW = struct.Struct("!xxH2xHxB2x4s4sHH8xB")  # len frag proto src dst ports offset
_IPV6_FLOW = struct.Struct("!4xHBx16s16sHH8xB")  # payload-len next-header src dst ports offset
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


def encode_packet(pkt: TcpPacket, ttl: int | None = None, options: bytes | None = None) -> bytes:
    """Serialize to IP header + TCP header + options + payload, checksummed.

    `ttl` and `options`, when given, are sent in place of the packet's own.
    """
    return encode_packed(pkt, pack_address(pkt.src), pack_address(pkt.dst), ttl, options)


def encode_packed(
    pkt: TcpPacket, src: bytes, dst: bytes, ttl: int | None = None, options: bytes | None = None
) -> bytes:
    """`encode_packet` from addresses the caller has packed (4 or 16 bytes),
    sent in place of the packet's own text ones."""
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


def _v6_chain(data: bytes, start: int, end: int) -> tuple[int, int, bool] | None:
    """Walk the extension headers of the IPv6 packet `data[start:end]`:
    (offset, protocol, later fragment).

    `offset` is where the header named `protocol` starts. The walk stops at a
    fragment header whose offset is not zero (later fragment: `protocol` is
    what the fragment carries) and at any header it does not walk; None when
    the packet ends inside an extension header.
    """
    offset = start + IPV6_HEADER_LEN
    proto = data[start + 6]
    while proto in _V6_EXTENSIONS:
        if end < offset + 8:
            return None
        next_proto = data[offset]
        if proto == 44:  # Fragment: always 8 bytes
            if _U16.unpack_from(data, offset + 2)[0] & _V6_FRAGMENT_OFFSET:
                return offset + 8, next_proto, True
            offset += 8
        else:  # the length byte counts 8-byte units after the first
            offset += (data[offset + 1] + 1) * 8
            if end < offset:
                return None
        proto = next_proto
    return offset, proto, False


# src, dst (packed), src_port, dst_port, IP length, options start, options end.
FlowFields = tuple[bytes, bytes, int, int, int, int, int]

# What `flow_fields` answers for a packet whose IP header says it holds no TCP
# header: another protocol, or a fragment after the first.
NON_TCP = 1
LATER_FRAGMENT = 2


def flow_fields(data: bytes, start: int, end: int) -> FlowFields | int | None:
    """(src, dst, src_port, dst_port, IP length, options start, options end)
    of the TCP packet in `data[start:end]`; the options are
    `data[options start:options end]`. Nothing at or past `end` is read.

    A packet with no TCP header to read is `NON_TCP` when an IP header names
    another protocol (an IPv4 one does even in a later fragment, an IPv6
    Fragment header only when what it carries is not TCP or an extension
    header), else `LATER_FRAGMENT` for a fragment after the first. None when
    no complete header says: the packet ends inside one, or is not IP.
    """
    size = end - start
    if size >= IPV4_HEADER_LEN + TCP_HEADER_LEN:
        # The common layouts in one unpack: IPv4 without IP options, and IPv6
        # whose next header is TCP. Anything else they leave to the walk.
        first = data[start]
        if first == 0x45:
            ip_total, frag, proto, src, dst, src_port, dst_port, offset = (
                _IPV4_FLOW.unpack_from(data, start))
            tcp_end = start + IPV4_HEADER_LEN + (offset >> 4) * 4
            if proto == 6 and not frag & _FRAGMENT_OFFSET and start + 40 <= tcp_end <= end:
                return src, dst, src_port, dst_port, ip_total, start + 40, tcp_end
        elif first >> 4 == 6 and size >= IPV6_HEADER_LEN + TCP_HEADER_LEN:
            payload_len, proto, src, dst, src_port, dst_port, offset = (
                _IPV6_FLOW.unpack_from(data, start))
            tcp_end = start + IPV6_HEADER_LEN + (offset >> 4) * 4
            if proto == 6 and start + 60 <= tcp_end <= end:
                return src, dst, src_port, dst_port, 40 + payload_len, start + 60, tcp_end
    if size < 10:  # no protocol byte
        return None
    version = data[start] >> 4
    if version == 4:
        if data[start + 9] != 6:
            return NON_TCP
        if size < IPV4_HEADER_LEN:
            return None
        if _U16.unpack_from(data, start + 6)[0] & _FRAGMENT_OFFSET:
            return LATER_FRAGMENT
        ihl = (data[start] & 0x0F) * 4
        if ihl < IPV4_HEADER_LEN:
            return None
        tcp = start + ihl
        ip_total, src, dst = _IPV4.unpack_from(data, start)
    elif version == 6:
        chain = _v6_chain(data, start, end)
        if chain is None:
            return None
        tcp, proto, later = chain
        if proto != 6 and proto not in _V6_EXTENSIONS:
            return NON_TCP
        if later:
            return LATER_FRAGMENT
        if size < IPV6_HEADER_LEN:
            return None
        payload_len, src, dst = _IPV6.unpack_from(data, start)
        ip_total = IPV6_HEADER_LEN + payload_len
    else:
        return None
    if tcp + TCP_HEADER_LEN > end:
        return None
    src_port, dst_port, offset = _TCP_PORTS.unpack_from(data, tcp)
    tcp_len = (offset >> 4) * 4
    if tcp_len < TCP_HEADER_LEN or tcp + tcp_len > end:
        return None
    return src, dst, src_port, dst_port, ip_total, tcp + TCP_HEADER_LEN, tcp + tcp_len


# The fields of `ParsedSegment` in its order, src and dst packed (4 or 16 bytes).
RawSegment = tuple[bytes, bytes, int, int, int, int, int, int, int, bytes, int, int]


def decode_tcp(data: bytes, start: int = 0) -> RawSegment | None:
    """The TCP packet that starts at `start` in `data`, read by `flow_fields`
    with the rest of its TCP header and its TTL or hop limit, addresses packed;
    None for anything else. Only the options are copied out."""
    fields = flow_fields(data, start, len(data))
    if fields.__class__ is not tuple:
        return None
    src, dst, src_port, dst_port, ip_total, options_start, options_end = fields
    seq, ack, flags, window = _TCP_STATE.unpack_from(data, options_start - TCP_HEADER_LEN)
    ttl = data[start + 8 if len(src) == 4 else start + 7]
    payload_len = ip_total - (options_end - start)
    return (
        src, dst, src_port, dst_port, seq, ack, flags, ttl, window,
        bytes(data[options_start:options_end]), ip_total, payload_len if payload_len > 0 else 0,
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
    try:
        return parse_options(seg[9])
    except OptionError:
        return None
