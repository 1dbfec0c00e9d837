"""The live transport needs raw sockets; only its guard behavior is testable
without network capability."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.errors import TransportUnavailable
from mptcpkit.packet import TcpFlags, TcpPacket, encode_packet
from mptcpkit.probe import HopReply, make_response


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


@pytest.mark.parametrize("flags, ack, sport, matches", [
    (TcpFlags.SYN | TcpFlags.ACK, 8, 80, True),  # acks seq + 1
    (TcpFlags.SYN | TcpFlags.ACK, 9, 80, False),  # acks something else
    (TcpFlags.RST | TcpFlags.ACK, 8, 80, True),
    (TcpFlags.RST | TcpFlags.ACK, 0, 80, False),
    (TcpFlags.RST, 0, 80, True),  # no ACK flag: the ack field is not read
    (TcpFlags.SYN, 12345, 80, True),
    (TcpFlags.SYN | TcpFlags.ACK, 8, 81, False),  # another port
])
def test_reply_matched_by_flow_and_ack(flags, ack, sport, matches):
    syn = _syn()
    reply = TcpPacket(src=syn.dst, dst=syn.src, src_port=sport, dst_port=syn.src_port,
                      seq=99, ack=ack, flags=int(flags))
    assert _bare_transport()._matches(syn, encode_packet(reply)) is matches


@pytest.mark.parametrize("data", [b"", b"\x45", b"\x45" + bytes(18)])
def test_icmp_quote_short_input_is_none(data):
    assert _bare_transport()._icmp_quote(_syn(), data) is None


def test_source_address_found_once_per_destination(monkeypatch):
    from mptcpkit import live

    lookups = []

    def counting_source(target):
        lookups.append(target)
        return "10.9.9.9"

    class RecordingSocket:
        def __init__(self):
            self.sent = []

        def sendto(self, data, address):
            self.sent.append((data, address))

    monkeypatch.setattr(live, "local_source_address", counting_source)
    transport = _bare_transport()
    transport._sources = {}
    transport._send = RecordingSocket()
    placeholder = replace(_syn(), src="192.0.2.1")
    probes = [placeholder, replace(placeholder, dst="10.0.0.2"), replace(placeholder, ttl=3)]
    for pkt in probes:
        transport._send_packet(pkt)
    assert lookups == ["10.0.0.1", "10.0.0.2"]
    assert transport._send.sent == [
        (encode_packet(replace(pkt, src="10.9.9.9")), (pkt.dst, 0)) for pkt in probes
    ]


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


@pytest.fixture
def paired_transport():
    """A bare transport whose TCP and ICMP sockets are AF_UNIX datagram pairs."""
    import socket

    transport = _bare_transport()
    transport._tcp, tcp_peer = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    transport._icmp, icmp_peer = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    transport.timeout_ms = 1000.0
    yield transport, tcp_peer, icmp_peer
    for sock in (transport._tcp, transport._icmp, tcp_peer, icmp_peer):
        sock.close()


def _reply(**fields):
    syn = _syn()
    base = dict(src=syn.dst, dst=syn.src, src_port=syn.dst_port, dst_port=syn.src_port,
                seq=99, ack=syn.seq + 1, flags=int(TcpFlags.SYN | TcpFlags.ACK))
    return encode_packet(TcpPacket(**{**base, **fields}))


def test_matched_reply_is_decoded_once(paired_transport, monkeypatch):
    from mptcpkit import live

    transport, tcp_peer, _ = paired_transport
    built = []

    def counting_make_response(*args, **kwargs):
        built.append(args)
        return make_response(*args, **kwargs)

    monkeypatch.setattr(live, "make_response", counting_make_response)
    tcp_peer.send(_reply(src_port=81, options=b"\x1e\x09\x00\x81"))  # another flow
    tcp_peer.send(_reply(options=b"\x1e\x09\x00\x81"))
    resp = transport._await(_syn(), want_icmp=False)
    assert resp is not None
    assert resp.note == "truncated option kind 30"
    assert resp.rtt_ms >= 0
    assert len(built) == 1


def test_hop_reply_is_built_once(paired_transport, monkeypatch):
    from mptcpkit import live

    transport, _, icmp_peer = paired_transport
    built = []

    def counting_hop_reply(*args):
        built.append(args)
        return HopReply(*args)

    monkeypatch.setattr(live, "HopReply", counting_hop_reply)
    responder = bytes([0x45]) + bytes(11) + bytes([192, 0, 2, 77]) + bytes([10, 0, 0, 9])
    icmp_peer.send(responder + bytes([11]) + bytes(7) + encode_packet(_syn()))
    hop = transport._await(_syn(), want_icmp=True)
    assert hop.responder == "192.0.2.77"
    assert hop.quote == encode_packet(_syn())
    assert hop.rtt_ms >= 0
    assert len(built) == 1
