"""Minimal IPv4/IPv6 + TCP segment construction and parsing.

Enough of the wire format to build SYN probes, synthesize captures, and read
TCP headers back out of responses and ICMP-quoted packets. No fragmentation,
no IPv6 extension headers, no payload reassembly.
"""

from __future__ import annotations

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


IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
TCP_HEADER_LEN = 20


@dataclass(frozen=True)
class TcpPacket:
    """Builder-side description of one TCP segment."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: int = int(TcpFlags.SYN)
    ttl: int = 64
    window: int = 65535
    options: bytes = b""
    payload: bytes = b""


@dataclass(frozen=True)
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


def internet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


# Wire layouts, shared by the builder and the parser.
_IPV4 = struct.Struct("!BBHHHBBH4s4s")  # ver/ihl tos len id frag ttl proto csum src dst
_IPV6 = struct.Struct("!IHBB16s16s")  # ver/class/label payload-len next-header hops src dst
_TCP = struct.Struct("!HHIIBBHHH")  # ports seq ack offset flags window csum urg
_PSEUDO_V4 = struct.Struct("!4s4sBBH")
_PSEUDO_V6 = struct.Struct("!16s16sIBBBB")
_U16 = struct.Struct("!H")
_FRAGMENT_OFFSET = 0x1FFF  # mask of the IPv4 fragment offset field


def address_text(packed: bytes) -> str:
    """Text form of a packed IPv4 (4-byte) or IPv6 (16-byte) address, as
    `str(ipaddress.ip_address(packed))` writes it."""
    if len(packed) == 4:
        return socket.inet_ntoa(packed)
    return str(ipaddress.IPv6Address(packed))


def _tcp_bytes(pkt: TcpPacket, src_packed: bytes, dst_packed: bytes) -> bytes:
    options = pkt.options + b"\x00" * (-len(pkt.options) % 4)
    offset = (TCP_HEADER_LEN + len(options)) // 4
    header = _TCP.pack(
        pkt.src_port,
        pkt.dst_port,
        pkt.seq & 0xFFFFFFFF,
        pkt.ack & 0xFFFFFFFF,
        offset << 4,
        pkt.flags & 0xFF,
        pkt.window,
        0,
        0,
    )
    segment = header + options + pkt.payload
    if len(src_packed) == 4:
        pseudo = _PSEUDO_V4.pack(src_packed, dst_packed, 0, 6, len(segment))
    else:
        pseudo = _PSEUDO_V6.pack(src_packed, dst_packed, len(segment), 0, 0, 0, 6)
    csum = internet_checksum(pseudo + segment)
    return segment[:16] + _U16.pack(csum) + segment[18:]


def encode_packet(pkt: TcpPacket) -> bytes:
    """Serialize to IP header + TCP header + options + payload, checksummed."""
    src = pack_address(pkt.src)
    dst = pack_address(pkt.dst)
    if len(src) != len(dst):
        raise ValueError("source and destination address families differ")
    segment = _tcp_bytes(pkt, src, dst)
    if len(src) == 4:
        total = IPV4_HEADER_LEN + len(segment)
        header = _IPV4.pack(0x45, 0, total, 0, 0, pkt.ttl, 6, 0, src, dst)
        csum = internet_checksum(header)
        return header[:10] + _U16.pack(csum) + header[12:] + segment
    header = _IPV6.pack(0x60000000, len(segment), 6, pkt.ttl, src, dst)
    return header + segment


def _ip_header(data: bytes) -> tuple[int, bytes, bytes, int, int, int] | None:
    """Return (ip_header_len, src, dst, ttl, ip_total_bytes, proto) or None.

    Addresses stay packed (4 or 16 bytes); None for a later IPv4 fragment.
    """
    if not data:
        return None
    version = data[0] >> 4
    if version == 4:
        if len(data) < IPV4_HEADER_LEN:
            return None
        ver_ihl, _tos, total_len, _id, frag, ttl, proto, _csum, src, dst = (
            _IPV4.unpack_from(data)
        )
        ihl = (ver_ihl & 0x0F) * 4
        if ihl < IPV4_HEADER_LEN or len(data) < ihl or frag & _FRAGMENT_OFFSET:
            return None
        return ihl, src, dst, ttl, total_len, proto
    if version == 6:
        if len(data) < IPV6_HEADER_LEN:
            return None
        _first, payload_len, proto, ttl, src, dst = _IPV6.unpack_from(data)
        return IPV6_HEADER_LEN, src, dst, ttl, IPV6_HEADER_LEN + payload_len, proto
    return None


def is_later_fragment(data: bytes) -> bool:
    """An IPv4 header whose fragment offset is not zero: no transport header follows."""
    return (len(data) >= IPV4_HEADER_LEN and data[0] >> 4 == 4
            and _U16.unpack_from(data, 6)[0] & _FRAGMENT_OFFSET != 0)


def decode_tcp(
    data: bytes,
) -> tuple[bytes, bytes, int, int, int, int, int, int, int, bytes, int, int] | None:
    """Parse an IP+TCP packet with packed addresses; None for anything not
    complete TCP.

    The tuple holds the fields of `ParsedSegment` in its order, except that
    src and dst are the packed 4- or 16-byte addresses.
    """
    ip = _ip_header(data)
    if ip is None:
        return None
    ihl, src, dst, ttl, ip_total, proto = ip
    if proto != 6 or len(data) < ihl + TCP_HEADER_LEN:
        return None
    src_port, dst_port, seq, ack, offset_byte, flags, window, _csum, _urg = (
        _TCP.unpack_from(data, ihl)
    )
    tcp_len = (offset_byte >> 4) * 4
    if tcp_len < TCP_HEADER_LEN or len(data) < ihl + tcp_len:
        return None
    options = bytes(data[ihl + TCP_HEADER_LEN : ihl + tcp_len])
    payload_len = max(0, ip_total - ihl - tcp_len)
    return (
        src, dst, src_port, dst_port, seq, ack, flags, ttl, window, options,
        ip_total, payload_len,
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
    region: absence of evidence, not evidence of absence.
    """
    ip = _ip_header(quote)
    if ip is None:
        return None
    ihl = ip[0]
    if len(quote) < ihl + 13:
        return None
    tcp_len = (quote[ihl + 12] >> 4) * 4
    if tcp_len < TCP_HEADER_LEN or len(quote) < ihl + tcp_len:
        return None
    region = bytes(quote[ihl + TCP_HEADER_LEN : ihl + tcp_len])
    opts, err = parse_options_prefix(region)
    if err is not None:
        return None
    return opts
