import ipaddress
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mptcpkit.options import TcpOption
from mptcpkit.packet import (
    TcpFlags,
    TcpPacket,
    address_text,
    decode_packet,
    decode_tcp,
    encode_packet,
    extract_quoted_options,
    internet_checksum,
    is_later_fragment,
    ip_family,
    pack_address,
)


def syn(src="192.0.2.1", dst="10.0.0.1", options=b"\x1e\x04\x01\x81"):
    return TcpPacket(
        src=src, dst=dst, src_port=40000, dst_port=80, seq=12345,
        flags=int(TcpFlags.SYN), options=options,
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


def _fragment(data: bytes, frag: int) -> bytes:
    """`data` with the IPv4 flags/fragment-offset field set to `frag`."""
    out = bytearray(data)
    struct.pack_into("!H", out, 6, frag)
    return bytes(out)


@pytest.mark.parametrize("frag", [0x2000, 0x4000])  # MF set, DF set: offset 0
def test_first_fragment_read_as_tcp(frag):
    data = encode_packet(syn())
    assert not is_later_fragment(_fragment(data, frag))
    assert decode_tcp(_fragment(data, frag)) == decode_tcp(data)
    assert extract_quoted_options(_fragment(data, frag)) == [TcpOption(30, b"\x01\x81")]


@pytest.mark.parametrize("frag", [0x0001, 0x2001, 0x1FFF, 0x3FFF])
def test_non_first_fragment_not_read_as_tcp(frag):
    # the payload of a later fragment would otherwise parse as a TCP header
    data = _fragment(encode_packet(syn()), frag)
    assert is_later_fragment(data)
    assert decode_tcp(data) is None
    assert decode_packet(data) is None
    assert extract_quoted_options(data) is None


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
    assert ip_family(text) == ipaddress.ip_address(text).version


def test_pack_address_non_text_goes_to_ipaddress():
    assert pack_address(b"\x0a\x00\x00\x01") == bytes([10, 0, 0, 1])
    assert pack_address(1) == bytes([0, 0, 0, 1])


def test_encode_rejects_mixed_families():
    with pytest.raises(ValueError, match="families differ"):
        encode_packet(syn(src="2001:db8::1", dst="10.0.0.1"))
