"""The live transport needs raw sockets; only its guard behavior is testable
without network capability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.errors import TransportUnavailable
from mptcpkit.packet import TcpPacket, encode_packet


def test_live_transport_constructs_or_refuses_cleanly():
    from mptcpkit.live import LiveTransport

    try:
        transport = LiveTransport(timeout_ms=10.0)
    except TransportUnavailable:
        return  # no raw-socket capability here: the declared degradation
    transport.close()


def test_system_mptcp_transport_degrades():
    from mptcpkit.bench import SystemTimingTransport

    try:
        SystemTimingTransport("mptcp")
    except TransportUnavailable:
        pass  # platform without an MPTCP stack


def _bare_transport():
    from mptcpkit.live import LiveTransport

    return LiveTransport.__new__(LiveTransport)  # no sockets opened


def _syn():
    return TcpPacket(src="10.0.0.9", dst="10.0.0.1", src_port=40000, dst_port=80, seq=7,
                     options=b"\x1e\x04\x01\x81")


@pytest.mark.parametrize("data", [b"", b"\x45", b"\x45" + bytes(18)])
def test_icmp_quote_short_input_is_none(data):
    assert _bare_transport()._icmp_quote(_syn(), data) is None


def test_icmp_quote_matches_time_exceeded():
    responder = bytes([0x45]) + bytes(11) + bytes([192, 0, 2, 77]) + bytes([10, 0, 0, 9])
    quote = encode_packet(_syn())
    hop = _bare_transport()._icmp_quote(_syn(), responder + bytes([11]) + bytes(7) + quote)
    assert hop is not None
    assert hop.responder == "192.0.2.77"
    assert hop.quote == quote


@given(st.binary(max_size=80))
@settings(max_examples=200)
def test_icmp_quote_never_raises(data):
    _bare_transport()._icmp_quote(_syn(), data)
