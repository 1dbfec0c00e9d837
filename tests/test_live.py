"""The live transport without raw sockets: its guards, its byte-level reply
matching and its socket loop over AF_UNIX pairs. `test_live_loopback.py`
runs it against kernel listeners."""

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capture_helpers import replace
from mptcpkit.errors import TransportUnavailable
from mptcpkit.packet import (
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    FLAG_SYN_ACK,
    TcpPacket,
    decode_packet,
    decode_tcp,
    encode_packet,
    pack_address,
)
from mptcpkit.probe import HopReply, make_response


@pytest.mark.live
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

    return _match_reply(data, pack_address(syn.dst), *_reply_keys(syn))


def _quote(syn, data):
    from mptcpkit.live import _icmp_quote

    return _icmp_quote(data, pack_address(syn.dst), syn.dst_port, 0.0)


@pytest.mark.parametrize("flags, ack, sport, matches", [
    (FLAG_SYN_ACK, 8, 80, True),  # acks seq + 1
    (FLAG_SYN_ACK, 9, 80, False),  # acks something else
    (FLAG_RST | FLAG_ACK, 8, 80, True),
    (FLAG_RST | FLAG_ACK, 0, 80, False),
    (FLAG_RST, 0, 80, True),  # no ACK flag: the ack field is not read
    (FLAG_SYN, 12345, 80, True),
    (FLAG_SYN_ACK, 8, 81, False),  # another port
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
    """A socket that records each send and bind in `events`, shared by the
    sockets of one transport, and makes neither."""

    def __init__(self, events=None):
        self.events = [] if events is None else events
        self.sent, self.bound = [], []

    def sendto(self, data, address):
        self.sent.append((data, address))
        self.events.append(("sendto", self, address))

    def bind(self, address):
        self.bound.append(address)
        self.events.append(("bind", self, address))


def _recording_transport():
    """A bare transport whose three sockets share one `_RecordingSocket` log."""
    transport = _bare_transport()
    events = []
    transport._send, transport._tcp, transport._icmp = (_RecordingSocket(events) for _ in range(3))
    return transport, events


@pytest.fixture
def lookups(monkeypatch):
    """Each target `live.local_source_address` is asked about; it answers
    10.9.9.9 for IPv4 and fails for IPv6, as the kernel's lookup does."""
    from mptcpkit import live

    asked = []

    def counting_source(target):
        asked.append(target)
        if ":" in target:  # as the IPv4 UDP socket fails to connect
            raise OSError("Address family for hostname not supported")
        return "10.9.9.9"

    monkeypatch.setattr(live, "local_source_address", counting_source)
    return asked


def test_source_address_found_once_per_transport(lookups):
    transport, _events = _recording_transport()
    placeholder = replace(_syn(), src="192.0.2.1")
    probes = [placeholder, replace(placeholder, dst="10.0.0.2"), replace(placeholder, ttl=3)]
    for pkt in probes:
        transport._send_packet(pkt)
    # Its own source, the one the transport is bound to: sent as it is.
    own = replace(_syn(), src="10.9.9.9", dst="10.0.0.3")
    transport._send_packet(own)
    assert lookups == ["10.0.0.1"]
    assert transport._send.sent == [
        (encode_packet(replace(pkt, src="10.9.9.9")), (pkt.dst, 0)) for pkt in probes
    ] + [(encode_packet(own), ("10.0.0.3", 0))]
    with pytest.raises(OSError):  # an IPv6 target still fails the lookup
        transport._send_packet(replace(placeholder, dst="2001:db8::1"))
    assert lookups == ["10.0.0.1", "2001:db8::1"]


def test_receive_sockets_bound_once_before_the_first_send(lookups):
    transport, events = _recording_transport()
    placeholder = replace(_syn(), src="192.0.2.1")
    for dst in ("10.0.0.1", "10.0.0.2", "10.0.0.3"):
        transport._send_packet(replace(placeholder, dst=dst))
    bound = ("10.9.9.9", 0)
    assert events == [("bind", transport._tcp, bound), ("bind", transport._icmp, bound)] + [
        ("sendto", transport._send, (dst, 0)) for dst in ("10.0.0.1", "10.0.0.2", "10.0.0.3")
    ]
    assert transport._source == pack_address("10.9.9.9")


def test_first_explicit_source_is_the_one_bound(lookups):
    transport, _events = _recording_transport()
    transport._send_packet(_syn())
    transport._send_packet(replace(_syn(), dst="10.0.0.2"))
    assert transport._tcp.bound == transport._icmp.bound == [("10.0.0.9", 0)]
    assert lookups == []


def test_failed_lookup_is_tried_again_at_the_next_probe(lookups, monkeypatch):
    from mptcpkit import live

    transport, events = _recording_transport()
    answering = live.local_source_address  # the stub of `lookups`

    def unreachable_once(target):
        monkeypatch.setattr(live, "local_source_address", answering)
        lookups.append(target)
        raise OSError("Network is unreachable")

    monkeypatch.setattr(live, "local_source_address", unreachable_once)
    placeholder = replace(_syn(), src="192.0.2.1")
    with pytest.raises(OSError, match="unreachable"):
        transport._send_packet(placeholder)
    assert transport._source is None and events == []
    transport._send_packet(replace(placeholder, dst="10.0.0.2"))
    assert lookups == ["10.0.0.1", "10.0.0.2"]
    assert transport._tcp.bound == transport._icmp.bound == [("10.9.9.9", 0)]
    assert transport._send.sent == [
        (encode_packet(replace(placeholder, src="10.9.9.9", dst="10.0.0.2")), ("10.0.0.2", 0))
    ]


def test_failed_bind_is_tried_again_at_the_next_probe(lookups):
    transport, _events = _recording_transport()
    refusals = [OSError("Cannot assign requested address")]
    recorded = transport._icmp.bind

    def refusing(address):
        if refusals:
            raise refusals.pop()
        recorded(address)

    transport._icmp.bind = refusing
    placeholder = replace(_syn(), src="192.0.2.1")
    with pytest.raises(OSError, match="Cannot assign"):
        transport._send_packet(placeholder)
    assert transport._source is None and transport._send.sent == []
    transport._send_packet(placeholder)
    assert lookups == ["10.0.0.1", "10.0.0.1"]
    assert transport._tcp.bound == [("10.9.9.9", 0)] * 2  # bound again with the ICMP one
    assert transport._icmp.bound == [("10.9.9.9", 0)]
    assert transport._source == pack_address("10.9.9.9")
    assert len(transport._send.sent) == 1


@pytest.mark.parametrize("src, message", [
    ("10.0.0.9", "probe source 10.0.0.9 differs from the bound source 10.9.9.9"),
    ("2001:db8::9", "the live transport sends IPv4 probes only"),
])
def test_probe_from_another_source_is_refused_unsent(lookups, src, message):
    transport, events = _recording_transport()
    transport._send_packet(replace(_syn(), src="192.0.2.1"))
    before = list(events)
    with pytest.raises(OSError, match=f"^{message}$"):
        transport._send_packet(replace(_syn(), src=src, dst="10.0.0.2"))
    assert events == before
    assert transport._source == pack_address("10.9.9.9")


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
        and (not seg.flags & FLAG_ACK or seg.ack == (syn.seq + 1) & 0xFFFFFFFF)
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
        data = _edit(data, 33, bytes([data[33] ^ FLAG_ACK]))
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


class _PairSocket(socket.socket):
    """One end of an AF_UNIX datagram pair that records each bind in `bound`
    instead of making it: an AF_UNIX socket takes no (address, port)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bound = []

    def bind(self, address):
        self.bound.append(address)


def _recording_pair():
    """An AF_UNIX datagram pair whose first end is a `_PairSocket`."""
    mine, peer = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    return _PairSocket(mine.family, mine.type, mine.proto, mine.detach()), peer


@pytest.fixture
def paired_transport():
    """A bare transport whose TCP and ICMP sockets are AF_UNIX datagram pairs."""
    transport = _bare_transport()
    transport._tcp, tcp_peer = _recording_pair()
    transport._icmp, icmp_peer = _recording_pair()
    transport.timeout_ms = 1000.0
    yield transport, tcp_peer, icmp_peer
    for sock in (transport._tcp, transport._icmp, tcp_peer, icmp_peer):
        sock.close()


def _reply(**fields):
    syn = _syn()
    base = dict(src=syn.dst, dst=syn.src, src_port=syn.dst_port, dst_port=syn.src_port,
                seq=99, ack=syn.seq + 1, flags=FLAG_SYN_ACK)
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
    resp = transport._await(_syn(), pack_address(_syn().dst), want_icmp=False)
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
    hop = transport._await(_syn(), pack_address(_syn().dst), want_icmp=True)
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
    assert transport._tcp.bound == transport._icmp.bound == [("10.0.0.9", 0)]
    assert polls == []


def test_stale_packets_queued_ahead_are_skipped(paired_transport, polls):
    transport, tcp_peer, _ = paired_transport
    tcp_peer.send(encode_packet(_syn()))  # the probe itself, as loopback shows it
    tcp_peer.send(_reply(ack=9))  # acks something else
    tcp_peer.send(_reply(src_port=81, flags=FLAG_RST))  # another flow
    tcp_peer.send(_reply(flags=FLAG_RST | FLAG_ACK))
    resp = transport.handshake(_syn())
    assert resp is not None and resp.tcp_flags == FLAG_RST | FLAG_ACK
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
    assert resp is not None and resp.tcp_flags == FLAG_SYN_ACK
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


def test_each_probe_packs_its_destination_once(paired_transport, monkeypatch):
    # A scan through the live transport parses each destination twice: once
    # for the blocklist lookup and once to send the SYN and match its reply.
    from mptcpkit import inputs, live, packet
    from mptcpkit.probe import (Blocklist, CampaignGuard, ProbeContext, RatePacer, VirtualClock,
                                build_syn_probe, run_campaign)

    monkeypatch.setattr(live, "local_source_address", lambda target: "10.9.9.9")
    transport = paired_transport[0]
    transport.timeout_ms = 1.0  # nothing answers
    transport._send = _RecordingSocket()
    targets = [(f"10.0.{i // 4}.{i}", 80 + i % 3) for i in range(40)]
    clock = VirtualClock()
    guard = CampaignGuard(Blocklist(["10.99.0.0/16"]),
                          RatePacer(1e6, clock=clock, sleep=clock.sleep))
    packed = []

    def counting_pack(text):
        packed.append(text)
        return pack_address(text)

    for module in (packet, inputs, live):
        monkeypatch.setattr(module, "pack_address", counting_pack)
    records = list(run_campaign(targets, version=1, guard=guard, transport=transport, seed=3))
    assert [r.label for r in records] == ["no_response"] * len(targets)
    assert len(packed) == 2 * len(targets)
    assert transport._send.sent == [
        (encode_packet(replace(build_syn_probe(ProbeContext(1, seed=3), a, p), src="10.9.9.9")),
         (a, 0))
        for a, p in targets
    ]
