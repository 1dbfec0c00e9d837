import ipaddress
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capture_helpers import replace, with_v6_headers
from mptcpkit.options import TcpOption
from mptcpkit.packet import (
    FLAG_SYN,
    LATER_FRAGMENT,
    NON_TCP,
    TcpPacket,
    address_text,
    decode_packet,
    decode_tcp,
    encode_packet,
    extract_quoted_options,
    flow_fields,
    pack_address,
)


def internet_checksum(data: bytes) -> int:
    """Reference: the RFC 1071 checksum, summed word by word and folded."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def syn(src="192.0.2.1", dst="10.0.0.1", options=b"\x1e\x04\x01\x81"):
    return TcpPacket(
        src=src, dst=dst, src_port=40000, dst_port=80, seq=12345,
        flags=FLAG_SYN, options=options,
    )


def test_encode_decode_round_trip_v4():
    pkt = syn()
    seg = decode_packet(encode_packet(pkt))
    assert seg is not None
    assert (seg.src, seg.dst) == (pkt.src, pkt.dst)
    assert (seg.src_port, seg.dst_port, seg.seq) == (40000, 80, 12345)
    assert seg.options == pkt.options  # 4-byte option needs no padding


def test_encode_decode_round_trip_v6():
    pkt = syn(src="2001:db8::1", dst="2001:db8::2")
    seg = decode_packet(encode_packet(pkt))
    assert seg is not None
    assert seg.src == "2001:db8::1"
    assert seg.dst == "2001:db8::2"


def test_options_padded_to_word():
    pkt = syn(options=b"\xfd\x03\x01")  # 3 bytes -> padded to 4
    seg = decode_packet(encode_packet(pkt))
    assert seg.options == b"\xfd\x03\x01\x00"


def test_ipv4_header_checksum_valid():
    data = encode_packet(syn())
    assert internet_checksum(data[:20]) == 0


def test_tcp_checksum_valid_v4():
    data = encode_packet(syn())
    pseudo = data[12:20] + struct.pack("!BBH", 0, 6, len(data) - 20)
    assert internet_checksum(pseudo + data[20:]) == 0


def test_ip_total_length_field():
    pkt = syn(options=b"")
    data = encode_packet(pkt)
    seg = decode_packet(data)
    assert seg.ip_bytes == len(data) == 40


def test_decode_rejects_non_tcp():
    data = bytearray(encode_packet(syn()))
    data[9] = 17  # protocol = UDP
    assert decode_packet(bytes(data)) is None


def test_decode_rejects_short_input():
    assert decode_packet(b"") is None
    assert decode_packet(b"\x45" + bytes(10)) is None


def test_quote_full_packet_shows_options():
    data = encode_packet(syn())
    quoted = extract_quoted_options(data)
    assert quoted == [TcpOption(30, b"\x01\x81")]


def test_quote_28_bytes_hides_options():
    # classic minimal quote: IPv4 header + 8 bytes of TCP
    data = encode_packet(syn())
    assert extract_quoted_options(data[:28]) is None


def test_quote_covering_headers_but_not_options():
    data = encode_packet(syn())
    assert extract_quoted_options(data[:41]) is None


def test_quote_of_optionless_packet():
    data = encode_packet(syn(options=b""))
    assert extract_quoted_options(data) == []


def _read(data: bytes):
    """`flow_fields` of the whole of `data`."""
    return flow_fields(data, 0, len(data))


def _fragment(data: bytes, frag: int) -> bytes:
    """`data` with the IPv4 flags/fragment-offset field set to `frag`."""
    out = bytearray(data)
    struct.pack_into("!H", out, 6, frag)
    return bytes(out)


@pytest.mark.parametrize("frag", [0x2000, 0x4000])  # MF set, DF set: offset 0
def test_first_fragment_read_as_tcp(frag):
    data = encode_packet(syn())
    assert _read(_fragment(data, frag)).__class__ is tuple
    assert decode_tcp(_fragment(data, frag)) == decode_tcp(data)
    assert extract_quoted_options(_fragment(data, frag)) == [TcpOption(30, b"\x01\x81")]


@pytest.mark.parametrize("frag", [0x0001, 0x2001, 0x1FFF, 0x3FFF])
def test_non_first_fragment_not_read_as_tcp(frag):
    # the payload of a later fragment would otherwise parse as a TCP header
    data = _fragment(encode_packet(syn()), frag)
    assert _read(data) == LATER_FRAGMENT
    assert decode_tcp(data) is None
    assert decode_packet(data) is None
    assert extract_quoted_options(data) is None


V6_SYN = encode_packet(syn(src="2001:db8::1", dst="2001:db8::2"))
_V6_UDP = V6_SYN[:6] + b"\x11" + V6_SYN[7:]  # the same header naming UDP


@pytest.mark.parametrize("kinds, size", [
    ((0,), 8), ((43,), 8), ((60,), 8), ((44,), 8),  # Fragment at offset 0: the first
    ((60,), 24), ((0, 43, 44, 60), 16),
])
def test_tcp_behind_v6_extension_headers(kinds, size):
    data = with_v6_headers(V6_SYN, kinds, size=size)
    chain_len = len(data) - len(V6_SYN)
    plain = decode_tcp(V6_SYN)
    # the same segment; the IP-layer length grows by the chain
    assert decode_tcp(data) == (*plain[:10], plain[10] + chain_len, plain[11])
    assert extract_quoted_options(data) == [TcpOption(30, b"\x01\x81")]
    assert _read(data).__class__ is tuple


def test_udp_behind_hop_by_hop_is_non_tcp():
    udp = bytearray(V6_SYN)
    udp[6] = 17
    data = with_v6_headers(bytes(udp), (0,))
    assert decode_tcp(data) is None
    assert _read(data) == NON_TCP


@pytest.mark.parametrize("kinds", [(44,), (0, 44), (44, 60)])
def test_later_v6_fragment_not_read_as_tcp(kinds):
    data = with_v6_headers(V6_SYN, kinds, fragment_offset=5)
    assert _read(data) == LATER_FRAGMENT
    assert decode_tcp(data) is None
    assert extract_quoted_options(data) is None
    udp = bytearray(data)
    udp[40 + 8 * kinds.index(44)] = 17  # the fragment carries UDP
    assert _read(bytes(udp)) == NON_TCP  # what the fragment carries decides first


@pytest.mark.parametrize("cut", [40, 47, 48, 55])
def test_truncated_v6_extension_chain(cut):
    data = with_v6_headers(V6_SYN, (0, 60), size=16)[:cut]
    assert decode_tcp(data) is None
    assert _read(data) is None


def test_decode_tcp_keeps_addresses_packed():
    seg = decode_tcp(encode_packet(syn(src="2001:db8::1", dst="2001:db8::2")))
    assert seg[:4] == (ipaddress.ip_address("2001:db8::1").packed,
                       ipaddress.ip_address("2001:db8::2").packed, 40000, 80)
    assert decode_tcp(encode_packet(syn()))[:2] == (bytes([192, 0, 2, 1]), bytes([10, 0, 0, 1]))


@given(st.one_of(st.binary(min_size=4, max_size=4), st.binary(min_size=16, max_size=16)))
@settings(max_examples=300)
def test_address_text_matches_ipaddress(packed):
    assert address_text(packed) == str(ipaddress.ip_address(packed))


# Valid packets of both families, then truncated and with one byte overwritten,
# so the decoders are driven past their first length checks.
_BASES = [
    encode_packet(syn()),
    encode_packet(syn(src="2001:db8::1", dst="2001:db8::2", options=b"\x01\x01\x08\x0a" + bytes(8))),
    encode_packet(syn(options=b"")),
    with_v6_headers(V6_SYN, (0, 44, 60), size=16),
]


def _mutate(base: bytes, cut: int, pos: int, value: int) -> bytes:
    data = bytearray(base[:cut] or b"\x00")
    data[pos % len(data)] = value
    return bytes(data)


_wire_bytes = st.one_of(
    st.binary(max_size=100),
    st.builds(
        _mutate,
        st.sampled_from(_BASES),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=255),
    ),
)


@given(_wire_bytes)
@settings(max_examples=300)
def test_decoders_total_and_consistent(data):
    packed = decode_tcp(data)
    text = decode_packet(data)
    extract_quoted_options(data)
    assert (packed is None) == (text is None)
    if packed is not None:
        assert text.src == str(ipaddress.ip_address(packed[0]))
        assert text.dst == str(ipaddress.ip_address(packed[1]))
        assert (text.src_port, text.dst_port, text.seq, text.ack, text.flags, text.ttl,
                text.window, text.options, text.ip_bytes, text.payload_len) == packed[2:]


def _with_nul(text: str, at: int) -> str:
    at %= len(text) + 1
    return text[:at] + "\x00" + text[at:]


_address_text = st.one_of(
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded),
    st.ip_addresses(v=4).map(lambda a: f"::ffff:{a}"),
    st.text(),
    st.text(alphabet="0123456789abcdefABCDEF:.%", max_size=48),
    st.builds("{}%{}".format, st.ip_addresses(v=6).map(str), st.text(max_size=8)),
    st.builds(_with_nul, st.ip_addresses().map(str), st.integers(min_value=0)),
)


@given(_address_text)
@settings(max_examples=1000)
@example("fe80::1%eth0")
@example("fe80::1%")
@example("10.0.0.1\x00")
@example("1::2:3:4:5:6:7")
@example("1:2:3:4:5:6:7::")
@example("::1.2.3.4")
@example("01.2.3.4")
@example(" 10.0.0.1")
@example("")
def test_pack_address_matches_ipaddress(text):
    try:
        expected = ipaddress.ip_address(text).packed
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            pack_address(text)
        assert str(raised.value) == str(exc)
        return
    assert pack_address(text) == expected


def test_pack_address_non_text_goes_to_ipaddress():
    assert pack_address(b"\x0a\x00\x00\x01") == bytes([10, 0, 0, 1])
    assert pack_address(1) == bytes([0, 0, 0, 1])


def test_encode_rejects_mixed_families():
    with pytest.raises(ValueError, match="families differ"):
        encode_packet(syn(src="2001:db8::1", dst="10.0.0.1"))


# -- the memoized encoder against the straight one it replaced -------------------


_REF_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_REF_IPV6 = struct.Struct("!IHBB16s16s")
_REF_TCP = struct.Struct("!HHIIBBHHH")
_REF_PSEUDO_V4 = struct.Struct("!4s4sBBH")
_REF_PSEUDO_V6 = struct.Struct("!16s16sIBBBB")
_REF_U16 = struct.Struct("!H")


def reference_tcp_bytes(pkt: TcpPacket, src_packed: bytes, dst_packed: bytes) -> bytes:
    """Reference: the TCP segment packed field by field, checksummed in full."""
    options = pkt.options + b"\x00" * (-len(pkt.options) % 4)
    offset = (20 + len(options)) // 4
    header = _REF_TCP.pack(
        pkt.src_port, pkt.dst_port, pkt.seq & 0xFFFFFFFF, pkt.ack & 0xFFFFFFFF,
        offset << 4, pkt.flags & 0xFF, pkt.window, 0, 0,
    )
    segment = header + options + pkt.payload
    if len(src_packed) == 4:
        pseudo = _REF_PSEUDO_V4.pack(src_packed, dst_packed, 0, 6, len(segment))
    else:
        pseudo = _REF_PSEUDO_V6.pack(src_packed, dst_packed, len(segment), 0, 0, 0, 6)
    csum = internet_checksum(pseudo + segment)
    return segment[:16] + _REF_U16.pack(csum) + segment[18:]


def reference_encode_packet(pkt: TcpPacket, src=None, ttl=None) -> bytes:
    """Reference: every header field packed and checksummed on every call."""
    src = pack_address(pkt.src if src is None else src)
    dst = pack_address(pkt.dst)
    if ttl is None:
        ttl = pkt.ttl
    segment = reference_tcp_bytes(pkt, src, dst)
    if len(src) == 4:
        header = _REF_IPV4.pack(0x45, 0, 20 + len(segment), 0, 0, ttl, 6, 0, src, dst)
        csum = internet_checksum(header)
        return header[:10] + _REF_U16.pack(csum) + header[12:] + segment
    return _REF_IPV6.pack(0x60000000, len(segment), 6, ttl, src, dst) + segment


@st.composite
def _encodable(draw):
    """A packet of either family, any flags, seq and ack past 32 bits, options
    and payloads of any length, and possibly a source or TTL override."""
    addresses = st.ip_addresses(v=draw(st.sampled_from([4, 6]))).map(str)
    ports = st.integers(0, 65535)
    pkt = TcpPacket(
        src=draw(addresses), dst=draw(addresses),
        src_port=draw(ports), dst_port=draw(ports),
        seq=draw(st.integers(0, 2**40)), ack=draw(st.integers(0, 2**40)),
        flags=draw(st.integers(0, 0xFFFF)), ttl=draw(st.integers(0, 255)),
        window=draw(ports), options=draw(st.binary(max_size=40)),
        payload=draw(st.binary(max_size=64)),
    )
    return pkt, draw(st.none() | addresses), draw(st.none() | st.integers(0, 255))


@given(_encodable())
@settings(max_examples=1000)
@example((syn(options=b"\x01\x01\x01"), None, None))
# Words that sum to 0xFFFF: the checksum is 0, not 0xFFFF.
@example((TcpPacket("192.0.2.1", "10.0.0.1", 40000, 80, 18256), None, None))  # TCP
@example((TcpPacket("2001:db8::1", "2001:db8::2", 40000, 80, 47069), None, None))
@example((TcpPacket("192.0.2.1", "10.0.174.207", 40000, 80, 1), None, None))  # IPv4
@example((TcpPacket("192.0.2.1", "10.0.0.1", 1, 2, 2**32 + 5, 2**33, flags=0x1FF,
                    options=b"\x02", payload=b"\xff" * 7), "10.9.9.9", 1))
@example((TcpPacket("2001:db8::1", "2001:db8::2", 65535, 0, 2**32 - 1, 2**32,
                    flags=0x312, window=0, options=b"\x1e\x04\x01", payload=b"\x01"), None, 0))
def test_encoder_matches_reference(case):
    pkt, src, ttl = case
    data = encode_packet(pkt if src is None else replace(pkt, src=src), ttl)
    assert data == reference_encode_packet(pkt, src, ttl)
    if data[0] >> 4 == 4:
        assert internet_checksum(data[:20]) == 0
        pseudo = data[12:20] + struct.pack("!BBH", 0, 6, len(data) - 20)
        assert internet_checksum(pseudo + data[20:]) == 0
    else:
        pseudo = data[8:40] + struct.pack("!IBBBB", len(data) - 40, 0, 0, 0, 6)
        assert internet_checksum(pseudo + data[40:]) == 0


@given(_encodable(), st.binary(max_size=40))
@settings(max_examples=300)
def test_options_sent_in_place_of_the_packets_own(case, options):
    pkt, _src, _ttl = case
    before = replace(pkt)
    assert encode_packet(pkt, ttl=0, options=options) == encode_packet(
        replace(pkt, ttl=0, options=options)
    )
    assert pkt == before  # the caller's packet is not touched


def test_header_memo_is_shared_and_bounded():
    from mptcpkit.packet import _header_template

    _header_template.cache_clear()
    encode_packet(syn(dst="10.0.0.1"))
    encode_packet(syn(dst="10.0.0.2"))  # another target, the same campaign
    assert _header_template.cache_info().hits == 1
    for ttl in range(256):
        encode_packet(syn(), ttl=ttl)
    info = _header_template.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


# -- decode_tcp at an offset: the same parse as of the packet on its own ---------


@st.composite
def _encoded(draw):
    """(packet bytes, the fields decode_tcp must read back) for either family."""
    pkt, src, ttl = draw(_encodable())
    data = encode_packet(pkt if src is None else replace(pkt, src=src), ttl)
    ihl = 20 if data[0] >> 4 == 4 else 40
    options = pkt.options + b"\x00" * (-len(pkt.options) % 4)
    want = (
        pack_address(pkt.src if src is None else src), pack_address(pkt.dst),
        pkt.src_port, pkt.dst_port, pkt.seq & 0xFFFFFFFF, pkt.ack & 0xFFFFFFFF,
        pkt.flags & 0xFF, pkt.ttl if ttl is None else ttl, pkt.window, options,
        len(data), len(pkt.payload),
    )
    assert len(data) == ihl + 20 + len(options) + len(pkt.payload)
    return data, want


_v6_behind_extensions = st.builds(
    lambda data, kinds, offset, size: with_v6_headers(data, tuple(kinds), offset, size),
    st.sampled_from([V6_SYN, encode_packet(syn(src="2001:db8::1", dst="2001:db8::2",
                                               options=b"")), _V6_UDP]),
    st.lists(st.sampled_from([0, 43, 44, 60]), min_size=1, max_size=4),
    st.sampled_from([0, 0, 3]),
    st.sampled_from([8, 16, 24]),
)


@given(_encoded())
@settings(max_examples=300)
def test_decode_tcp_reads_back_every_encoded_field(case):
    data, want = case
    assert decode_tcp(data) == want


@given(
    st.binary(max_size=48),
    st.one_of(_wire_bytes, _encoded().map(lambda case: case[0]), _v6_behind_extensions),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=1000)
@example(b"\x45", encode_packet(syn()), 200)  # a prefix that reads as an IPv4 header
@example(b"\x60" * 7 + b"\x06", V6_SYN, 200)
@example(b"", b"", 0)
def test_decode_at_offset_matches_decode_alone(prefix, packet, cut):
    data = packet[:cut]
    seg = decode_tcp(data)
    assert decode_tcp(prefix + data, len(prefix)) == seg
    from_bytearray = decode_tcp(bytearray(prefix + data), len(prefix))
    assert from_bytearray == seg
    if seg is not None:
        assert type(seg[9]) is bytes and type(from_bytearray[9]) is bytes


# -- flow_fields: the one reader, against a classifier that reads slices ---------


def _reference_read(ip: bytes):
    """What the IP packet `ip` holds, read from slices of it alone, by the rules
    of reference ingest: (TCP header offset, TCP header length) for a whole TCP
    header, else NON_TCP, LATER_FRAGMENT or None."""
    if len(ip) < 10:
        return None
    version = ip[0] >> 4
    if version == 4:
        if ip[9] != 6:  # in IPv4 every protocol but TCP is another one
            return NON_TCP
        if len(ip) < 20:
            return None
        if int.from_bytes(ip[6:8], "big") & 0x1FFF:
            return LATER_FRAGMENT
        tcp = (ip[0] & 0x0F) * 4
        if tcp < 20:
            return None
    elif version == 6:
        tcp, proto = 40, ip[6]
        while proto in (0, 43, 44, 60):
            header = ip[tcp : tcp + 8]
            if len(header) < 8:
                return None
            if proto == 44 and int.from_bytes(header[2:4], "big") >> 3:
                return LATER_FRAGMENT if header[0] in (6, 0, 43, 44, 60) else NON_TCP
            size = 8 if proto == 44 else 8 * (header[1] + 1)
            if len(ip) < tcp + size:
                return None
            tcp, proto = tcp + size, header[0]
        if proto != 6:
            return NON_TCP
    else:
        return None
    header = ip[tcp : tcp + 20]
    tcp_len = (header[12] >> 4) * 4 if len(header) == 20 else 0
    return (tcp, tcp_len) if 20 <= tcp_len <= len(ip) - tcp else None


def _check_window(data: bytes, start: int, end: int) -> None:
    """flow_fields of the window [start, end) of `data` is what the reference
    reads in the window's bytes alone, and decode_tcp of them agrees."""
    got = flow_fields(data, start, end)
    window = data[start:end]
    want = _reference_read(window)
    seg = decode_tcp(window)
    if want.__class__ is not tuple:
        assert got == want and got.__class__ is not tuple
        assert seg is None
        return
    tcp, tcp_len = want
    if window[0] >> 4 == 4:
        addresses, ip_bytes = (window[12:16], window[16:20]), int.from_bytes(window[2:4], "big")
    else:
        addresses, ip_bytes = (window[8:24], window[24:40]), 40 + int.from_bytes(window[4:6], "big")
    ports = struct.unpack("!HH", window[tcp : tcp + 4])
    assert got == (*addresses, *ports, ip_bytes, start + tcp + 20, start + tcp + tcp_len)
    assert seg is not None and (*seg[:4], seg[10]) == got[:5]
    assert data[got[5]:got[6]] == seg[9]


def _with_ip_options(data: bytes) -> bytes:
    """An IPv4 packet with one word of NOP options in its header (IHL 6)."""
    return bytes([0x46]) + data[1:2] + struct.pack("!H", len(data) + 4) + data[4:20] + (
        b"\x01" * 4) + data[20:]


def _v4_variant(data: bytes, ip_options: bool, proto: int, frag: int) -> bytes:
    """An IPv4 packet, perhaps with IP options, naming `proto`, its flags and
    fragment offset field set to `frag`."""
    data = bytearray(_with_ip_options(data) if ip_options else data)
    data[9] = proto
    struct.pack_into("!H", data, 6, frag)
    return bytes(data)


_v4_variants = st.builds(
    _v4_variant,
    _encoded().map(lambda case: case[0]).filter(lambda d: d[0] == 0x45),
    st.booleans(),
    st.sampled_from([6, 6, 17]),
    st.sampled_from([0, 0x4000, 0x2000, 0x0001, 0x3FFF]),
)


@given(
    st.binary(max_size=48),
    st.one_of(_wire_bytes, _encoded().map(lambda case: case[0]), _v6_behind_extensions,
              _v4_variants),
    st.integers(min_value=0, max_value=200),
    st.binary(max_size=8),
)
@settings(max_examples=1000)
@example(b"", encode_packet(syn()), 43, b"")  # cut inside the TCP options
@example(b"\x45", encode_packet(syn()), 39, b"")  # cut inside the fixed TCP header
@example(b"", encode_packet(syn(src="2001:db8::1", dst="2001:db8::2")), 59, b"")
@example(b"", encode_packet(syn(src="2001:db8::1", dst="2001:db8::2")), 30, b"")  # in IPv6
@example(b"", encode_packet(syn()), 12, b"")  # inside the IPv4 header
@example(b"", b"", 0, b"")
def test_flow_fields_are_decode_tcp_fields_of_the_window(prefix, packet, cut, suffix):
    # The window [start, end) sits inside a larger buffer: what follows `end`
    # is the rest of the packet, which a read past `end` would find.
    data = prefix + packet + suffix
    start = len(prefix)
    _check_window(data, start, min(start + cut, len(data)))


@pytest.mark.parametrize("packet", [
    with_v6_headers(V6_SYN, (0, 60), size=16),
    with_v6_headers(_V6_UDP, (0, 43), size=16),
    with_v6_headers(V6_SYN, (0, 44, 60), fragment_offset=5),
    with_v6_headers(_V6_UDP, (60, 44), size=24, fragment_offset=5),
    with_v6_headers(V6_SYN, (44, 0), size=8),
], ids=["tcp", "udp", "later-fragment", "later-fragment-of-udp", "first-fragment"])
def test_flow_fields_of_an_extension_chain_cut_at_every_byte(packet):
    data = b"\x60" * 3 + packet + packet  # the packet again after the cut
    for cut in range(len(packet) + 1):
        _check_window(data, 3, 3 + cut)
