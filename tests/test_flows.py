import gzip
import io
import random
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capture_helpers import (
    capture_bytes,
    handshake_frames,
    tcp_frame,
    with_v6_headers,
    write_pcap,
)
from mptcpkit import cli
from mptcpkit.errors import EmptyInput, MalformedCapture
from mptcpkit.flows import (
    FlowKey,
    FlowStats,
    FlowTable,
    ServiceTables,
    concentration,
    ewma,
    ingest_capture,
    map_service,
    mptcp_share,
)
from mptcpkit.options import (
    HandshakePhase,
    Key,
    MpCapable,
    decode_mp_capable_any,
    encode_mp_capable,
    mp_capable_version,
    parse_options_prefix,
)
from mptcpkit.packet import address_text, decode_packet, pack_address
from mptcpkit.pcapio import (
    GZIP_MAGIC,
    LINKTYPE_ETHERNET,
    LINKTYPE_NULL,
    LINKTYPE_RAW,
    read_pcap,
)

K = Key(0xABCDABCDABCDABCD)


def _key(src: str, dst: str, src_port: int, dst_port: int) -> FlowKey:
    return FlowKey(pack_address(src), pack_address(dst), src_port, dst_port)


class TestIngest:
    def test_plain_handshake_one_flow(self):
        table = ingest_capture(capture_bytes(handshake_frames("10.0.0.1", "10.0.0.2", 5555, 80)))
        assert len(table.flows) == 1
        stats = next(iter(table.flows.values()))
        assert stats.packets == 3
        assert stats.mptcp_version is None

    def test_mptcp_handshake_detected(self):
        frames = handshake_frames("10.0.0.1", "10.0.0.2", 5555, 80, mptcp_version=0, key=K)
        table = ingest_capture(capture_bytes(frames))
        stats = next(iter(table.flows.values()))
        assert stats.mptcp_version == 0

    def test_v1_handshake_detected(self):
        frames = handshake_frames("10.0.0.1", "10.0.0.2", 5555, 80, mptcp_version=1)
        stats = next(iter(ingest_capture(capture_bytes(frames)).flows.values()))
        assert stats.mptcp_version == 1

    def test_empty_capture(self):
        table = ingest_capture(capture_bytes([]))
        assert table.flows == {}

    def test_malformed_header(self):
        with pytest.raises(MalformedCapture):
            ingest_capture(io.BytesIO(b"not a capture at all....."))

    def test_bytes_use_ip_total_length(self):
        frames = [(0.0, tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, payload_len=60))]
        table = ingest_capture(capture_bytes(frames))
        stats = next(iter(table.flows.values()))
        assert stats.bytes == 20 + 20 + 60

    def test_conservation(self):
        frames = []
        frames += handshake_frames("10.0.0.1", "10.0.0.2", 1111, 80, extra_data_packets=3)
        frames += handshake_frames("10.0.0.3", "10.0.0.4", 2222, 443, extra_data_packets=5)
        table = ingest_capture(capture_bytes(frames))
        assert sum(f.packets for f in table.flows.values()) == table.tcp_packets == len(frames)
        assert sum(f.bytes for f in table.flows.values()) == table.tcp_bytes

    def test_direction_reversal_same_table(self):
        frames = handshake_frames("10.0.0.1", "10.0.0.2", 5555, 80, mptcp_version=0, key=K,
                                  extra_data_packets=2)
        reversed_frames = []
        for ts, data in frames:
            seg = decode_packet(data)
            reversed_frames.append(
                (ts, tcp_frame(seg.dst, seg.src, seg.dst_port, seg.src_port,
                               seg.flags, seg.options, seg.payload_len, seg.seq))
            )
        a = ingest_capture(capture_bytes(frames))
        b = ingest_capture(capture_bytes(reversed_frames))
        assert a.flows.keys() == b.flows.keys()
        for key in a.flows:
            assert a.flows[key].packets == b.flows[key].packets
            assert a.flows[key].bytes == b.flows[key].bytes
            assert a.flows[key].mptcp_version == b.flows[key].mptcp_version

    def test_unidirectional_mode_splits_directions(self):
        frames = handshake_frames("10.0.0.1", "10.0.0.2", 5555, 80)
        table = ingest_capture(capture_bytes(frames), bidirectional=False)
        assert len(table.flows) == 2

    def test_non_tcp_counted_not_fatal(self):
        frame = bytearray(tcp_frame("10.0.0.1", "10.0.0.2", 1, 2))
        frame[9] = 17  # UDP
        struct.pack_into("!H", frame, 10, 0)
        table = ingest_capture(capture_bytes([(0.0, bytes(frame))]))
        assert table.non_tcp == 1
        assert table.flows == {}

    def test_non_first_fragment_counted_as_fragment(self):
        frame = tcp_frame("10.0.0.1", "10.0.0.2", 1, 2, payload_len=24)
        first = _as_fragment(frame, 0x2000)  # more fragments, offset 0
        later = _as_fragment(frame, 0x0005)  # offset 40 bytes: no TCP header
        frames = [(0.0, first), (0.1, later), (0.2, _as_udp(later))]
        table = ingest_capture(capture_bytes(frames))
        assert (table.tcp_packets, table.fragments, table.non_tcp, table.parse_failures) == (
            1, 1, 1, 0)
        assert list(table.flows) == [_key("10.0.0.1", "10.0.0.2", 1, 2)]

    def test_v6_extension_headers_followed(self):
        frame = tcp_frame("2001:db8::1", "2001:db8::2", 1, 2, payload_len=24)
        udp = _as_udp(frame)
        frames = [(0.0, with_v6_headers(frame, kinds)) for kinds in ((0,), (43,), (60,), (44,))]
        frames += [
            (1.0, with_v6_headers(udp, (0,))),
            (2.0, with_v6_headers(frame, (0, 44), fragment_offset=5)),
            (3.0, with_v6_headers(frame, (0, 60), size=16)[:50]),  # cut inside a header
        ]
        table = ingest_capture(capture_bytes(frames))
        assert (table.tcp_packets, table.non_tcp, table.fragments, table.parse_failures) == (
            4, 1, 1, 1)
        assert list(table.flows) == [_key("2001:db8::1", "2001:db8::2", 1, 2)]

    def test_garbage_frame_counted_as_failure(self):
        table = ingest_capture(capture_bytes([(0.0, b"\x99\x01\x02")]))
        assert table.parse_failures == 1

    def test_ethernet_linktype(self):
        ip = tcp_frame("10.0.0.1", "10.0.0.2", 1234, 80)
        ether = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip
        buf = io.BytesIO()
        write_pcap(buf, [(0.0, ether)], linktype=LINKTYPE_ETHERNET)
        buf.seek(0)
        table = ingest_capture(buf)
        assert table.tcp_packets == 1


def _reference_mp_version(options: bytes) -> int | None:
    opts, _err = parse_options_prefix(options)
    for opt in opts:
        if opt.kind == 30:
            mc = decode_mp_capable_any(opt)
            if mc is not None:
                return mc.version
    return None


def _reference_strip(linktype: int, frame: bytes) -> bytes | None:
    if linktype == LINKTYPE_RAW:
        return frame
    if linktype == LINKTYPE_NULL:
        return frame[4:] if len(frame) > 4 else None
    offset = 18 if frame[12:14] == b"\x81\x00" else 14  # one VLAN tag at most
    if len(frame) < offset or frame[offset - 2 : offset] not in (b"\x08\x00", b"\x86\xdd"):
        return None
    return frame[offset:]


def _reference_upper(ip_data: bytes) -> tuple[int, bool] | None:
    """(protocol, later fragment) of a packet that did not decode as TCP;
    None when no complete header names one."""
    version = ip_data[0] >> 4 if len(ip_data) >= 10 else 0
    if version == 4:
        later = len(ip_data) >= 20 and int.from_bytes(ip_data[6:8], "big") & 0x1FFF
        return ip_data[9], bool(later)
    if version != 6:
        return None
    at, proto = 40, ip_data[6]
    while proto in (0, 43, 44, 60):
        header = ip_data[at : at + 8]
        if len(header) < 8:
            return None
        if proto == 44 and int.from_bytes(header[2:4], "big") >> 3:
            return header[0], True
        size = 8 if proto == 44 else 8 * (header[1] + 1)
        if len(ip_data) < at + size:
            return None
        at, proto = at + size, header[0]
    return proto, False


def reference_ingest(source, bidirectional: bool) -> FlowTable:
    """Per-packet text segments, FlowKey.canonical and a full option parse."""
    linktype, frames = read_pcap(source)
    table = FlowTable()
    for ts, frame in frames:
        table.frames_seen += 1
        ip_data = _reference_strip(linktype, frame)
        if ip_data is None:
            table.parse_failures += 1
            continue
        seg = decode_packet(ip_data)
        if seg is None:
            upper = _reference_upper(ip_data)
            # Only IPv6 has extension headers: in IPv4 every protocol but TCP is another one.
            if upper is not None and upper[0] != 6 and (
                ip_data[0] >> 4 == 4 or upper[0] not in (0, 43, 44, 60)
            ):
                table.non_tcp += 1
            elif upper is not None and upper[1]:
                table.fragments += 1
            else:
                table.parse_failures += 1
            continue
        key = _key(seg.src, seg.dst, seg.src_port, seg.dst_port)
        if bidirectional:
            key = key.canonical()
        stats = table.flows.setdefault(key, FlowStats())
        stats.update(seg.ip_bytes, _reference_mp_version(seg.options))
        table.tcp_packets += 1
        table.tcp_bytes += seg.ip_bytes
    return table


DSS = b"\x1e\x08\x20\x01" + bytes(4)  # kind 30, subtype 2: not MP_CAPABLE
TIMESTAMPS_WITH_30 = b"\x01\x01\x08\x0a\x00\x00\x1e\x1e\x1e\x00\x00\x1e"
UNKNOWN_VERSION = b"\x1e\x04\x0f\x81"
V1_SYN = encode_mp_capable(MpCapable(1), HandshakePhase.SYN)
V0_SYN = encode_mp_capable(MpCapable(0, sender_key=K), HandshakePhase.SYN)


_OPTION_PIECES = [DSS, TIMESTAMPS_WITH_30, UNKNOWN_VERSION, V1_SYN, V0_SYN, b"\x00", b"\x01",
                  b"\x1e", b"\x1e\x01", b"\x1e\x2a", b"\x63\x32"]


@given(
    st.binary(max_size=20),
    st.lists(st.one_of(st.sampled_from(_OPTION_PIECES), st.binary(max_size=12)), max_size=6),
    st.sampled_from([V1_SYN, V0_SYN]),
    st.binary(max_size=20),
)
@example(b"\x1e", [UNKNOWN_VERSION, V0_SYN], V1_SYN, b"")  # the decodable second one wins
@example(b"", [DSS], V1_SYN, b"")  # DSS is kind 30 but not MP_CAPABLE
@example(b"\x02", [b"\x00", V1_SYN], V0_SYN, b"")  # EOL ends the options
@example(b"", [b"\x02\x01", V1_SYN], V0_SYN, b"")  # a malformed option ends them
@example(b"", [b"\x1e\x0c\x00\x81"], V1_SYN, bytes(20))  # cut short by `end`, not the buffer
@settings(max_examples=400)
def test_mp_capable_version_reads_only_its_window(before, pieces, after_end, tail):
    # A valid MP_CAPABLE sits just past `end`: the reader must never see it.
    window = b"".join(pieces)
    data = before + window + after_end + tail
    start, end = len(before), len(before) + len(window)
    assert mp_capable_version(data, start, end) == _reference_mp_version(window)
    assert mp_capable_version(window) == _reference_mp_version(window)


def test_mp_capable_version_named_cases():
    assert mp_capable_version(UNKNOWN_VERSION + V0_SYN) == 0
    assert mp_capable_version(DSS + V1_SYN) == 1
    assert mp_capable_version(DSS) is None
    assert mp_capable_version(b"\x00" + V1_SYN) is None
    assert mp_capable_version(b"\x02\x01" + V1_SYN) is None
    assert mp_capable_version(V1_SYN + V0_SYN, len(V1_SYN)) == 0
    assert mp_capable_version(V0_SYN + V1_SYN, 0, len(V0_SYN)) == 0


def _as_udp(frame: bytes) -> bytes:
    data = bytearray(frame)
    data[9 if data[0] >> 4 == 4 else 6] = 17
    return bytes(data)


def _as_fragment(frame: bytes, frag: int) -> bytes:
    """An IPv4 frame with its flags and fragment offset field set to `frag`."""
    return frame[:6] + struct.pack("!H", frag) + frame[8:]


def mixed_ip_frames(seed: int = 5) -> list[tuple[float, bytes]]:
    """IPv4 and IPv6 flows in both endpoint orders, plain and MPTCP v0/v1,
    option edge cases, UDP and truncated frames, shuffled together."""
    frames = []
    pairs = [
        ("10.0.0.9", "10.0.0.1", 40001, 80),  # server sorts first
        ("10.0.0.1", "10.0.0.9", 40002, 443),  # client sorts first
        ("10.0.0.5", "10.0.0.5", 9999, 80),  # same address: the ports decide
        ("2001:db8::9", "2001:db8::1", 40003, 80),
        ("2001:db8::1", "2001:db8::9", 40004, 22),
    ]
    for i, (client, server, cport, sport) in enumerate(pairs):
        for j, version in enumerate((None, 0, 1)):
            frames += handshake_frames(client, server, cport + 10 * j, sport, mptcp_version=version,
                                       key=K if version == 0 else None,
                                       extra_data_packets=2, t0=i + j / 10)
    edge = [
        ("10.0.0.7", "10.0.0.8", 5000, 80, TIMESTAMPS_WITH_30),
        ("10.0.0.8", "10.0.0.7", 80, 5000, DSS),
        ("10.0.0.7", "10.0.0.8", 5000, 80, UNKNOWN_VERSION),
        ("10.0.0.7", "10.0.0.8", 5000, 80, V1_SYN + b"\x08\x0a\x00"),  # parse error after it
        ("10.0.0.8", "10.0.0.7", 80, 5000, V0_SYN),  # version already set: stays 1
        ("2001:db8::7", "2001:db8::8", 6000, 443, DSS),  # DSS only: never MPTCP
        ("2001:db8::8", "2001:db8::7", 443, 6000, TIMESTAMPS_WITH_30),
    ]
    for k, (src, dst, sport, dport, options) in enumerate(edge):
        frames.append((10.0 + k, tcp_frame(src, dst, sport, dport, options=options)))
    v4 = tcp_frame("10.0.0.1", "10.0.0.2", 1, 2, options=V1_SYN, payload_len=20)
    v6 = tcp_frame("2001:db8::1", "2001:db8::2", 1, 2, options=V1_SYN, payload_len=20)
    frames += [(20.0, _as_udp(v4)), (20.1, _as_udp(v6))]
    frames += [(21.0 + n / 100, v4[:n]) for n in (0, 1, 10, 19, 25, 39, 43)]
    frames += [(22.0 + n / 100, v6[:n]) for n in (9, 30, 50, 63)]
    v6_ext = [
        with_v6_headers(v6, (0,)), with_v6_headers(v6, (43, 60), size=16),
        with_v6_headers(v6, (44,)), with_v6_headers(_as_udp(v6), (0,)),
        with_v6_headers(v6, (0, 44), fragment_offset=3),
        with_v6_headers(_as_udp(v6), (44,), fragment_offset=3),
        with_v6_headers(v6, (44, 60), fragment_offset=3),
    ]
    frames += [(24.0 + k / 100, frame) for k, frame in enumerate(v6_ext)]
    frames += [(25.0 + n / 100, v6_ext[1][:n]) for n in (47, 48, 60, 71, 72)]
    frames.append((23.0, b"\x99\x01\x02"))
    random.Random(seed).shuffle(frames)
    return frames


def _with_link_layer(linktype: int, frames):
    if linktype == LINKTYPE_RAW:
        return list(frames)
    if linktype == LINKTYPE_NULL:
        return [(ts, b"\x02\x00\x00\x00" + ip) for ts, ip in frames] + [(30.0, b"\x02\x00")]
    out = []
    for n, (ts, ip) in enumerate(frames):
        ethertype = b"\x08\x00" if not ip or ip[0] >> 4 != 6 else b"\x86\xdd"
        tag = b"\x81\x00\x00\x07" if n % 2 else b""
        out.append((ts, bytes(6) + b"\xbb" * 6 + tag + ethertype + ip))
    arp = bytes(12) + b"\x08\x06" + bytes(28)
    return out + [(30.0, arp), (30.1, bytes(13)), (30.2, bytes(12) + b"\x81\x00\x00")]


class TestIngestMatchesReference:
    @pytest.mark.parametrize("bidirectional", [True, False])
    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW, LINKTYPE_ETHERNET, LINKTYPE_NULL])
    def test_same_flows_and_counters(self, linktype, bidirectional):
        frames = _with_link_layer(linktype, mixed_ip_frames())
        got = ingest_capture(capture_bytes(frames, linktype), bidirectional)
        want = reference_ingest(capture_bytes(frames, linktype), bidirectional)
        versions = {s.mptcp_version for s in want.flows.values()}
        assert versions == {None, 0, 1}
        assert any(":" in address_text(k.src) for k in want.flows)
        assert want.non_tcp >= 4 and want.parse_failures >= 10 and want.fragments >= 2
        assert list(got.flows) == list(want.flows)
        fields = [(s.packets, s.bytes, s.mptcp_version) for s in got.flows.values()]
        assert fields == [(s.packets, s.bytes, s.mptcp_version) for s in want.flows.values()]
        for counter in ("frames_seen", "tcp_packets", "tcp_bytes", "parse_failures", "non_tcp",
                        "fragments"):
            assert getattr(got, counter) == getattr(want, counter), counter

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_insertion_order_follows_capture(self, seed):
        frames = mixed_ip_frames(seed)
        got = ingest_capture(capture_bytes(frames))
        assert list(got.flows) == list(reference_ingest(capture_bytes(frames), True).flows)


_LINK_PREFIX = {
    LINKTYPE_RAW: b"",
    LINKTYPE_NULL: b"\x02\x00\x00\x00",
    LINKTYPE_ETHERNET: bytes(12) + b"\x08\x00",
}
_SAMPLES = [
    tcp_frame("10.0.0.1", "10.0.0.2", 1, 2, options=V1_SYN),
    tcp_frame("2001:db8::1", "2001:db8::2", 1, 2, options=V0_SYN + DSS),
    _as_fragment(tcp_frame("10.0.0.1", "10.0.0.2", 1, 2, options=V1_SYN), 0x2001),
    with_v6_headers(tcp_frame("2001:db8::1", "2001:db8::2", 1, 2, options=V1_SYN), (0, 60)),
    with_v6_headers(tcp_frame("2001:db8::1", "2001:db8::2", 1, 2), (0, 44), fragment_offset=1),
]


@st.composite
def _capture(draw):
    linktype = draw(st.sampled_from(sorted(_LINK_PREFIX)))
    sample_frame = st.builds(
        lambda sample, cut, tail: _LINK_PREFIX[linktype] + sample[:cut] + tail,
        st.sampled_from(_SAMPLES),
        st.integers(min_value=0, max_value=90),
        st.binary(max_size=6),
    )
    frames = draw(st.lists(st.one_of(st.binary(max_size=60), sample_frame), max_size=6))
    return linktype, frames


@given(_capture(), st.booleans())
@example((0, [b"\x02\x00\x00\x00E\x00\x00,\x00\x00\x00\x00\x00\x00"]), False)  # IPv4 protocol 0
@settings(max_examples=150)
def test_ingest_total_and_counters_add_up(capture, bidirectional):
    linktype, frames = capture
    stamped = [(float(i), f) for i, f in enumerate(frames)]
    table = ingest_capture(capture_bytes(stamped, linktype), bidirectional)
    assert table.frames_seen == len(frames)
    assert table.frames_seen == (
        table.tcp_packets + table.non_tcp + table.fragments + table.parse_failures
    )
    want = reference_ingest(capture_bytes(stamped, linktype), bidirectional)
    assert list(table.flows) == list(want.flows)
    assert table == want  # the same FlowStats per flow and the same six counters


class TestFilter:
    """`mptcp_share(flows, min_packets)` counts only flows with at least
    `min_packets` packets, and collects only those of them that are MPTCP."""

    def make(self, packets):
        return _key("10.0.0.1", "10.0.0.2", 1, 2), FlowStats(packets=packets, bytes=packets * 100,
                                                             mptcp_version=0)

    def test_four_packets_removed(self):
        k, v = self.make(4)
        share = mptcp_share({k: v}, 5)
        assert (share.tcp_flows, share.tcp_bytes, share.mptcp_bytes_by_flow) == (0, 0, {})

    def test_five_packets_retained(self):
        k, v = self.make(5)
        share = mptcp_share({k: v}, 5)
        assert (share.tcp_flows, share.tcp_bytes, share.mptcp_bytes_by_flow) == (1, 500, {k: 500})

    def test_empty_input(self):
        share = mptcp_share({}, 5)
        assert (share.tcp_flows, share.tcp_bytes, share.mptcp_bytes_by_flow) == (0, 0, {})


class TestShare:
    def flows(self, tcp_count, mptcp_count, tcp_bytes_each=1000, mptcp_bytes_each=4):
        flows = {}
        for i in range(tcp_count - mptcp_count):
            flows[_key("10.0.0.1", "10.0.0.2", 10000 + i, 80)] = FlowStats(
                packets=5, bytes=tcp_bytes_each
            )
        for i in range(mptcp_count):
            flows[_key("10.0.1.1", "10.0.1.2", 20000 + i, 80)] = FlowStats(
                packets=5, bytes=mptcp_bytes_each, mptcp_version=0
            )
        return flows

    def test_one_in_a_thousand(self):
        report = mptcp_share(self.flows(1000, 1))
        assert report.flow_share == 1 / 1000
        assert report.mptcp_flows == 1
        assert report.tcp_flows == 1000

    def test_byte_share_magnitude(self):
        flows = self.flows(2, 1, tcp_bytes_each=996, mptcp_bytes_each=4)
        report = mptcp_share(flows)
        assert report.byte_share == 4 / 1000

    def test_zero_flows_absent_shares(self):
        report = mptcp_share({})
        assert report.flow_share is None
        assert report.byte_share is None
        assert report.tcp_flows == 0


def reference_capture_rows(capture: str, flows, min_packets: int, tables) -> str:
    """Reference: one capture's share, concentration and service rows as
    `analyze-pcap` built them in four walks: a copy of the table without its
    short flows, two sums and a list over the copy, a dict of its MPTCP flows,
    then the concentration and the service counts of that dict."""
    kept = {k: v for k, v in flows.items() if v.packets >= min_packets}
    tcp_bytes = sum(f.bytes for f in kept.values())
    mptcp = [f for f in kept.values() if f.mptcp_version is not None]
    mptcp_bytes = sum(f.bytes for f in mptcp)
    flow_share = f"{len(mptcp) / len(kept):.9f}" if kept else ""
    byte_share = f"{mptcp_bytes / tcp_bytes:.9f}" if tcp_bytes else ""
    rows = [f"share,{capture},{len(kept)},{tcp_bytes},{len(mptcp)},{mptcp_bytes},"
            f"{flow_share},{byte_share}\n"]
    mptcp_flows = {k: v for k, v in kept.items() if v.mptcp_version is not None}
    if mptcp_flows:
        conc = concentration(s.bytes for s in mptcp_flows.values())
        rows.append(f"concentration,{capture},{conc.top1_share:.6f},"
                    f"{conc.top5_share:.6f},{conc.top_half_share:.6f}\n")
    if tables is not None:
        by_service: dict[str, tuple[int, int]] = {}
        for key, stats in mptcp_flows.items():
            label = map_service(FlowKey(*key), tables)
            n, b = by_service.get(label, (0, 0))
            by_service[label] = (n + 1, b + stats.bytes)
        rows += [f"service,{capture},{label},{n},{b}\n"
                 for label, (n, b) in sorted(by_service.items())]
    return "".join(rows)


_ROW_ADDRESSES = [pack_address(a) for a in ("10.0.0.1", "10.0.0.2", "192.0.2.7",
                                            "2001:db8::1", "2001:db8::2")]
# Port 0, registered ports with and without a label, and ephemeral ones.
_ROW_PORTS = [0, 22, 80, 443, 5223, 9999, 49151, 49152, 50000, 65535]
_ROW_LABELS = st.sampled_from(["HTTP", "HTTPS", "Siri", "XMPP", "vendor, with a comma"])


@st.composite
def _row_inputs(draw):
    """(flows, min_packets, tables): a table keyed by plain 4-tuples of IPv4
    or IPv6 addresses, whose packet counts are 0, one below `min_packets`, at
    it or above it, and service tables (or None) whose supplementary table may
    label a port the registry labels too."""
    min_packets = draw(st.integers(min_value=0, max_value=6))
    address = st.sampled_from(_ROW_ADDRESSES)
    port = st.one_of(st.sampled_from(_ROW_PORTS), st.integers(min_value=0, max_value=65535))
    packets = st.sampled_from([0, max(0, min_packets - 1), min_packets, min_packets + 3])
    stats = st.builds(FlowStats, packets, st.integers(min_value=0, max_value=10**6),
                      st.sampled_from([None, 0, 1]))
    flows = draw(st.dictionaries(st.tuples(address, address, port, port), stats, max_size=30))
    tables = draw(st.none() | st.builds(
        ServiceTables, st.dictionaries(st.sampled_from(_ROW_PORTS), _ROW_LABELS),
        st.dictionaries(st.sampled_from(_ROW_PORTS), _ROW_LABELS)))
    return flows, min_packets, tables


@given(_row_inputs())
@settings(max_examples=300)
def test_one_pass_rows_equal_the_reference(inputs):
    flows, min_packets, tables = inputs
    out = io.StringIO()
    share = cli._capture_rows(out, "c.pcap", flows, min_packets, tables)
    assert out.getvalue() == reference_capture_rows("c.pcap", flows, min_packets, tables)
    assert share.mptcp_bytes_by_flow == {
        k: v.bytes for k, v in flows.items()
        if v.packets >= min_packets and v.mptcp_version is not None}


class TestConcentration:
    def test_reference_sizes(self):
        report = concentration([50, 20, 10, 10, 10])
        assert report.top1_share == 0.5
        assert report.top5_share == 1.0
        assert report.top_half_share == 0.8

    def test_single_flow(self):
        report = concentration([42])
        assert (report.top1_share, report.top5_share, report.top_half_share) == (1.0, 1.0, 1.0)

    def test_equal_sizes_top_half(self):
        assert concentration([10, 10, 10, 10]).top_half_share == 0.5

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            concentration([])

    def test_monotonicity(self):
        report = concentration([7, 5, 3, 2, 2, 1])
        assert report.top1_share <= report.top5_share <= 1.0

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_growing_largest_never_shrinks_top1(self, sizes):
        before = concentration(sizes).top1_share
        grown = sorted(sizes, reverse=True)
        grown[0] += 1000
        assert concentration(grown).top1_share >= before - 1e-12


class TestEwma:
    def test_one_step(self):
        assert ewma([10, 20], alpha=0.2) == [10.0, 12.0]

    def test_constant_series_fixed_point(self):
        assert ewma([5, 5, 5, 5]) == [5.0, 5.0, 5.0, 5.0]

    def test_alpha_one_identity(self):
        assert ewma([3, 1, 4, 1, 5], alpha=1.0) == [3.0, 1.0, 4.0, 1.0, 5.0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ewma([])

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ewma([1], alpha=0.0)
        with pytest.raises(ValueError):
            ewma([1], alpha=1.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_bounded_by_input_range(self, series):
        out = ewma(series)
        assert min(series) - 1e-6 <= min(out)
        assert max(out) <= max(series) + 1e-6


class TestServiceMapping:
    def tables(self):
        return ServiceTables({80: "HTTP", 443: "HTTPS", 113: "Ident"}, {5223: "Siri"})

    def test_https(self):
        key = _key("10.0.0.1", "10.0.0.2", 50000, 443)
        assert map_service(key, self.tables()) == "HTTPS"

    def test_both_ephemeral_unknown(self):
        key = _key("10.0.0.1", "10.0.0.2", 50000, 60000)
        assert map_service(key, self.tables()) == "Unknown"

    def test_source_port_zero(self):
        key = _key("10.0.0.1", "10.0.0.2", 0, 443)
        assert map_service(key, self.tables()) == "ReservedZero"

    def test_supplementary_takes_precedence(self):
        tables = ServiceTables({5223: "XMPP"}, {5223: "Siri"})
        key = _key("10.0.0.1", "10.0.0.2", 50000, 5223)
        assert map_service(key, tables) == "Siri"

    def test_registered_port_without_entry_unknown(self):
        key = _key("10.0.0.1", "10.0.0.2", 50000, 9999)
        assert map_service(key, self.tables()) == "Unknown"

    def test_load_from_files(self, tmp_path):
        registry = tmp_path / "registry.csv"
        registry.write_text("80,tcp,HTTP\n443,tcp,HTTPS\n# c\n")
        extra = tmp_path / "extra.csv"
        extra.write_text("5223,tcp,Siri\n")
        tables = ServiceTables.load(registry, extra)
        assert tables.registry[443] == "HTTPS"
        assert tables.supplementary[5223] == "Siri"

    def test_only_tcp_rows_label_a_flow(self, tmp_path):
        # Every flow is TCP, so a `udp` row for the same port leaves the `tcp` label.
        services = tmp_path / "services.csv"
        services.write_text("512,tcp,exec\n512,udp,biff\n513,TCP,login\n513,Udp,who\n"
                            "514,udp,syslog\n")
        tables = ServiceTables.load(services, services)
        assert tables.registry == tables.supplementary == {512: "exec", 513: "login"}
        labels = [map_service(_key("10.0.0.1", "10.0.0.2", 50000, port), tables)
                  for port in (512, 513, 514)]
        assert labels == ["exec", "login", "Unknown"]

    def test_builtin_registry_default(self):
        tables = ServiceTables.load()
        key = _key("10.0.0.1", "10.0.0.2", 50000, 3389)
        assert map_service(key, tables) == "RDP"


class TestFlowKey:
    def test_canonical_orders_endpoints(self):
        a = _key("10.0.0.2", "10.0.0.1", 80, 5555)
        b = _key("10.0.0.1", "10.0.0.2", 5555, 80)
        assert a.canonical() == b.canonical()

    def test_canonical_handles_same_address(self):
        a = _key("10.0.0.1", "10.0.0.1", 9999, 80)
        b = _key("10.0.0.1", "10.0.0.1", 80, 9999)
        assert a.canonical() == b.canonical()

    def test_canonical_orders_by_packed_bytes_not_text(self):
        # "10.0.0.10" < "10.0.0.9" as text, but 10 > 9 as bytes
        forward = _key("10.0.0.9", "10.0.0.10", 5555, 80)
        backward = _key("10.0.0.10", "10.0.0.9", 80, 5555)
        assert forward.canonical() == backward.canonical() == forward

    @pytest.mark.parametrize("src, dst, text", [
        ("10.0.0.9", "192.168.1.10", ("10.0.0.9", "192.168.1.10")),
        ("2001:0db8:0:0:0:0:0:0001", "fe80:0:0:0:0:0:0:a", ("2001:db8::1", "fe80::a")),
    ])
    def test_addresses_read_back_as_text(self, src, dst, text):
        key = _key(src, dst, 1, 2)
        assert (address_text(key.src), address_text(key.dst)) == text

    def test_ingested_keys_are_packed(self):
        table = ingest_capture(capture_bytes(mixed_ip_frames()))
        lengths = set()
        for key in table.flows:
            assert type(key) is tuple and len(key) == 4
            key = FlowKey(*key)
            assert type(key.src) is bytes and type(key.dst) is bytes
            assert type(key.src_port) is int and type(key.dst_port) is int
            lengths |= {len(key.src), len(key.dst)}
        assert lengths == {4, 16}


class TestFlowStats:
    def test_slotted(self):
        assert not hasattr(FlowStats(), "__dict__")
        assert FlowStats.__slots__ == ("packets", "bytes", "mptcp_version")

    def test_update_keeps_the_first_version(self):
        stats = FlowStats()
        stats.update(40, None)
        assert (stats.packets, stats.mptcp_version) == (1, None)
        stats.update(52, 0)
        assert (stats.packets, stats.mptcp_version) == (2, 0)
        stats.update(52, 1)  # the first version seen stays
        assert (stats.packets, stats.bytes, stats.mptcp_version) == (3, 144, 0)


_PCAP_MAGICS = [
    bytes.fromhex(m) for m in ("d4c3b2a1", "a1b2c3d4", "4d3cb2a1", "a1b23c4d")
]


@given(st.one_of(
    st.binary(max_size=200),
    st.builds(lambda magic, rest: magic + rest, st.sampled_from(_PCAP_MAGICS),
              st.binary(max_size=200)),
))
@settings(max_examples=500)
def test_read_pcap_raises_only_malformed_capture(data):
    try:
        _linktype, frames = read_pcap(io.BytesIO(data))
        for ts, frame in frames:  # an impossible record length raises here
            assert isinstance(ts, float) and isinstance(frame, bytes)
    except MalformedCapture:
        pass


def _capture_frames():
    frames = handshake_frames("10.0.0.1", "10.0.0.2", 5555, 80, mptcp_version=0,
                              extra_data_packets=6)
    frames += handshake_frames("2001:db8::1", "2001:db8::2", 6000, 443,
                               extra_data_packets=3, t0=1.0)
    frames += handshake_frames("10.0.0.3", "10.0.0.2", 5556, 80, mptcp_version=1,
                               extra_data_packets=2, t0=2.0)
    frames.append((3.0, b"\x45" + bytes(30)))  # an IPv4 header of another protocol
    return frames


class TestCompressedCapture:
    def test_gzip_reads_as_the_plain_file(self, tmp_path):
        plain = capture_bytes(_capture_frames()).getvalue()
        (tmp_path / "c.pcap").write_bytes(plain)
        (tmp_path / "c.pcap.gz").write_bytes(gzip.compress(plain))
        want = ingest_capture(tmp_path / "c.pcap")
        assert want.tcp_packets > 0 and want.non_tcp == 1
        assert ingest_capture(tmp_path / "c.pcap.gz") == want
        assert ingest_capture(str(tmp_path / "c.pcap.gz")) == want
        assert ingest_capture(io.BytesIO(gzip.compress(plain))) == want

    def test_cut_short_ends_after_the_last_whole_record(self):
        plain = capture_bytes(_capture_frames()).getvalue()
        packed = gzip.compress(plain)
        for cut in range(len(packed) + 1):
            available = zlib.decompressobj(wbits=31).decompress(packed[:cut])
            if len(available) < 24:
                with pytest.raises(MalformedCapture):
                    read_pcap(io.BytesIO(packed[:cut]))
                continue
            _linktype, frames = read_pcap(io.BytesIO(packed[:cut]))
            _linktype, want = read_pcap(io.BytesIO(available))  # the plain reader's answer
            assert list(frames) == list(want), cut

    @pytest.mark.parametrize("where, value", [
        (10, 0xFF),  # first deflate byte: a block of the reserved type
        (-8, None),  # CRC of the trailer no longer matches
    ])
    def test_corrupt_data_raises_malformed_capture(self, where, value):
        packed = bytearray(gzip.compress(capture_bytes(_capture_frames()).getvalue()))
        packed[where] = value if value is not None else packed[where] ^ 0xFF
        with pytest.raises(MalformedCapture):
            _linktype, frames = read_pcap(io.BytesIO(bytes(packed)))
            list(frames)


@pytest.mark.parametrize("content", [
    b"\xd4\xc3\xb2\xa1",  # too short for the global header
    bytes(24),  # unknown magic
    GZIP_MAGIC + bytes(30),  # corrupt compressed data
    capture_bytes(_capture_frames(), linktype=147).getvalue(),  # unsupported link type
], ids=["short", "magic", "gzip", "linktype"])
def test_file_opened_for_a_bad_capture_is_closed(tmp_path, monkeypatch, content):
    from mptcpkit import pcapio

    opened = []

    def recording_open(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(pcapio, "open", recording_open, raising=False)
    (tmp_path / "bad.pcap").write_bytes(content)
    for source in (tmp_path / "bad.pcap", str(tmp_path / "bad.pcap")):
        with pytest.raises(MalformedCapture):
            ingest_capture(source)
    assert len(opened) == 2 and all(f.closed for f in opened)


_GZIP_HEADER = bytes.fromhex("1f8b08000000000000ff")


@given(st.one_of(
    st.binary(max_size=200).map(lambda rest: GZIP_MAGIC + rest),
    st.binary(max_size=200).map(lambda rest: _GZIP_HEADER + rest),
    st.builds(lambda data, i, byte: data[:i % len(data)] + bytes([byte]) + data[i % len(data) + 1:],
              st.just(gzip.compress(capture_bytes(handshake_frames(
                  "10.0.0.1", "10.0.0.2", 5555, 80, mptcp_version=0)).getvalue())),
              st.integers(0, 10_000), st.integers(0, 255)),
))
@settings(max_examples=500)
def test_read_gzip_raises_only_malformed_capture(data):
    try:
        _linktype, frames = read_pcap(io.BytesIO(data))
        for ts, frame in frames:
            assert isinstance(ts, float) and isinstance(frame, bytes)
    except MalformedCapture:
        pass
