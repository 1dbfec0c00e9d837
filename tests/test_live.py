"""The live transport without raw sockets: its guards, its byte-level reply
matching and its socket loop over AF_UNIX pairs. `test_live_loopback.py`
runs it against kernel listeners."""

import socket
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.errors import TransportUnavailable
from mptcpkit.packet import (
    TcpFlags,
    TcpPacket,
    decode_packet,
    decode_tcp,
    encode_packet,
    pack_address,
)
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


def _matches(syn, data):
    from mptcpkit.live import _match_reply, _reply_keys

    return _match_reply(data, *_reply_keys(syn))


def _quote(syn, data):
    from mptcpkit.live import _icmp_quote

    return _icmp_quote(data, pack_address(syn.dst), syn.dst_port, 0.0)


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
    reply = encode_packet(TcpPacket(src=syn.dst, dst=syn.src, src_port=sport,
                                    dst_port=syn.src_port, seq=99, ack=ack, flags=int(flags)))
    seg = _matches(syn, reply)
    assert (seg is not None) is matches
    if matches:
        assert seg == decode_tcp(reply)


@pytest.mark.parametrize("data", [b"", b"\x45", b"\x45" + bytes(18)])
def test_icmp_quote_short_input_is_none(data):
    assert _quote(_syn(), data) is None


class _RecordingSocket:
    def __init__(self):
        self.sent = []

    def sendto(self, data, address):
        self.sent.append((data, address))


def test_source_address_found_once_per_destination(monkeypatch):
    from mptcpkit import live

    lookups = []

    def counting_source(target):
        lookups.append(target)
        return "10.9.9.9"

    monkeypatch.setattr(live, "local_source_address", counting_source)
    transport = _bare_transport()
    transport._sources = {}
    transport._send = _RecordingSocket()
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
    hop = _quote(_syn(), responder + bytes([11]) + bytes(7) + quote)
    assert hop is not None
    assert hop.responder == "192.0.2.77"
    assert hop.quote == quote


@given(st.binary(max_size=80))
@settings(max_examples=200)
def test_icmp_quote_never_raises(data):
    _quote(_syn(), data)


# -- the byte-level matchers against the text rule they replace ----------------


def text_matches(syn: TcpPacket, data: bytes) -> bool:
    """Reference: decode to text, then compare the 4-tuple and, if it acks, the ack."""
    seg = decode_packet(data)
    return (
        seg is not None
        and seg.src == syn.dst
        and seg.src_port == syn.dst_port
        and seg.dst_port == syn.src_port
        and (not seg.flags & TcpFlags.ACK or seg.ack == (syn.seq + 1) & 0xFFFFFFFF)
    )


def text_icmp_quote(syn: TcpPacket, data: bytes) -> tuple[str, bytes] | None:
    """Reference: the quote decoded to text; (responder, quote) when it matches."""
    if len(data) < 28:
        return None
    icmp = data[(data[0] & 0x0F) * 4:]
    if len(icmp) < 8 or icmp[0] not in (3, 11):
        return None
    quote = icmp[8:]
    quoted = decode_packet(quote)
    if quoted is None:
        matched = len(quote) >= 20 and socket.inet_ntoa(quote[16:20]) == syn.dst
    else:
        matched = quoted.dst == syn.dst and quoted.dst_port == syn.dst_port
    return (socket.inet_ntoa(data[12:16]), quote) if matched else None


_ports = st.integers(0, 65535)
_syns = st.builds(
    TcpPacket, src=st.ip_addresses(v=4).map(str), dst=st.ip_addresses(v=4).map(str),
    src_port=_ports, dst_port=_ports, seq=st.integers(0, 2**32 - 1),
)


def _edit(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new):]


@st.composite
def _probe_and_reply(draw):
    """A probe and an encoded reply to it, one field possibly changed."""
    syn = draw(_syns)
    flags = draw(st.sampled_from([0x12, 0x14, 0x04, 0x02, 0x10, 0x11]))
    data = encode_packet(TcpPacket(
        src=syn.dst, dst=syn.src, src_port=syn.dst_port, dst_port=syn.src_port,
        seq=draw(st.integers(0, 2**32 - 1)), ack=(syn.seq + 1) & 0xFFFFFFFF, flags=flags,
        options=draw(st.sampled_from([b"", b"\x1e\x0c\x01\x81" + bytes(8)])),
        payload=draw(st.binary(max_size=8)),
    ))
    field = draw(st.sampled_from(
        ["none", "address", "src_port", "dst_port", "ack", "flags", "ihl", "ip_options",
         "offset", "truncate", "version"]))
    byte = draw(st.integers(0, 255))
    if field == "address":
        data = _edit(data, draw(st.integers(12, 15)), bytes([byte]))
    elif field == "src_port":
        data = _edit(data, 20 + draw(st.integers(0, 1)), bytes([byte]))
    elif field == "dst_port":
        data = _edit(data, 22 + draw(st.integers(0, 1)), bytes([byte]))
    elif field == "ack":
        data = _edit(data, 28 + draw(st.integers(0, 3)), bytes([byte]))
    elif field == "flags":
        data = _edit(data, 33, bytes([data[33] ^ TcpFlags.ACK]))
    elif field == "ihl":
        data = _edit(data, 0, bytes([0x40 | byte & 0x0F]))
    elif field == "offset":
        data = _edit(data, 32, bytes([byte]))
    elif field == "truncate":
        data = data[:draw(st.integers(0, len(data)))]
    elif field == "ip_options":  # the TCP header moves: found through the IHL
        words = draw(st.integers(1, 10))
        data = bytes([0x45 + words]) + data[1:20] + bytes(4 * words) + data[20:]
    elif field == "version":
        version = draw(st.sampled_from(range(16)))
        data = _edit(data, 0, bytes([version << 4 | 5]))
        if version == 6:  # an IPv6 TCP packet with the IPv4 fields in place
            data = _edit(data, 6, b"\x06").ljust(60, b"\x00")
            data = _edit(data, 52, b"\x50")
    return syn, data


@given(st.one_of(st.tuples(_syns, st.binary(max_size=80)), _probe_and_reply()))
@settings(max_examples=1000)
def test_byte_matcher_accepts_what_the_text_rule_accepts(case):
    syn, data = case
    seg = _matches(syn, data)
    assert (seg is not None) is text_matches(syn, data)
    if seg is not None:
        assert seg == decode_tcp(data)


@st.composite
def _probe_and_icmp(draw):
    """A probe and an ICMP error quoting it (or another flow), possibly cut short."""
    syn = draw(_syns)
    quoted = syn if draw(st.booleans()) else draw(_syns)
    quote = encode_packet(quoted)[:draw(st.integers(0, 60))]
    outer = bytes([0x45]) + bytes(11) + draw(st.binary(min_size=8, max_size=8))
    icmp = bytes([draw(st.sampled_from([3, 11, 0, 8]))]) + bytes(7)
    return syn, outer + icmp + quote


@given(st.one_of(st.tuples(_syns, st.binary(max_size=80)), _probe_and_icmp()))
@settings(max_examples=500)
def test_icmp_quote_answers_as_the_text_rule(case):
    syn, data = case
    hop = _quote(syn, data)
    assert (None if hop is None else (hop.responder, hop.quote)) == text_icmp_quote(syn, data)


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


# -- queued replies are read before any wait ------------------------------------


@pytest.fixture
def polls(paired_transport, monkeypatch):
    """The transport of `paired_transport` with a sending stub, and the
    `want_icmp` of every wait on its poll set."""
    from mptcpkit.live import LiveTransport

    transport = paired_transport[0]
    transport._send = _RecordingSocket()
    waits = []
    real = LiveTransport._poll_set

    def recording(self, want_icmp):
        waits.append(want_icmp)
        return real(self, want_icmp)

    monkeypatch.setattr(LiveTransport, "_poll_set", recording)
    return waits


def test_queued_reply_returned_without_a_poll(paired_transport, polls):
    transport, tcp_peer, _ = paired_transport
    tcp_peer.send(_reply(options=b"\x1e\x09\x00\x81"))
    resp = transport.handshake(_syn())
    assert resp is not None and resp.note == "truncated option kind 30"
    assert transport._send.sent == [(encode_packet(_syn()), ("10.0.0.1", 0))]
    assert polls == []


def test_stale_packets_queued_ahead_are_skipped(paired_transport, polls):
    transport, tcp_peer, _ = paired_transport
    tcp_peer.send(encode_packet(_syn()))  # the probe itself, as loopback shows it
    tcp_peer.send(_reply(ack=9))  # acks something else
    tcp_peer.send(_reply(src_port=81, flags=int(TcpFlags.RST)))  # another flow
    tcp_peer.send(_reply(flags=int(TcpFlags.RST | TcpFlags.ACK)))
    resp = transport.handshake(_syn())
    assert resp is not None and resp.tcp_flags == TcpFlags.RST | TcpFlags.ACK
    assert polls == []


def test_reply_arriving_later_found_by_poll(paired_transport, polls):
    transport, tcp_peer, _ = paired_transport
    tcp_peer.send(_reply(src_port=81))  # only a stale packet is queued
    later = threading.Timer(0.05, tcp_peer.send, args=(_reply(),))
    later.start()
    try:
        resp = transport.handshake(_syn())
    finally:
        later.join()
    assert resp is not None and resp.tcp_flags == TcpFlags.SYN | TcpFlags.ACK
    assert resp.rtt_ms >= 40
    assert polls and set(polls) == {False}


def test_nothing_queued_waits_out_the_timeout(paired_transport, polls):
    transport = paired_transport[0]
    transport.timeout_ms = 30.0
    assert transport.handshake(_syn()) is None
    assert polls and set(polls) == {False}


def _time_exceeded(syn) -> bytes:
    responder = bytes([0x45]) + bytes(11) + bytes([192, 0, 2, 77]) + bytes([10, 0, 0, 9])
    return responder + bytes([11]) + bytes(7) + encode_packet(syn)


@pytest.mark.parametrize("delay", [None, 0.05])
def test_ttl_probe_matches_icmp_quote(paired_transport, polls, delay):
    transport, tcp_peer, icmp_peer = paired_transport
    tcp_peer.send(encode_packet(_syn()))  # the probe itself, not a reply
    icmp_peer.send(_time_exceeded(replace(_syn(), dst_port=81)))  # another flow's
    if delay is None:
        icmp_peer.send(_time_exceeded(_syn()))
        hop = transport.ttl_probe(_syn(), 3)
    else:
        later = threading.Timer(delay, icmp_peer.send, args=(_time_exceeded(_syn()),))
        later.start()
        try:
            hop = transport.ttl_probe(_syn(), 3)
        finally:
            later.join()
    assert isinstance(hop, HopReply) and hop.responder == "192.0.2.77"
    assert hop.quote == encode_packet(_syn())
    assert transport._send.sent == [(encode_packet(_syn(), ttl=3), ("10.0.0.1", 0))]
    if delay is None:
        assert polls == []
    else:
        assert polls and set(polls) == {True}
