"""The block reader in `pcapio` against a per-record reference, and ingest
straight out of its blocks against the per-frame reference ingest."""

import gzip
import io
import struct
import time
import tracemalloc

import pytest

from capture_helpers import capture_bytes, tcp_frame, with_v6_headers
from mptcpkit import pcapio
from mptcpkit.errors import MalformedCapture
from mptcpkit.flows import ingest_capture
from mptcpkit.options import HandshakePhase, MpCapable, encode_mp_capable
from mptcpkit.pcapio import BLOCK, LINKTYPE_ETHERNET, LINKTYPE_RAW, MAGIC_NS, MAGIC_US, read_pcap
from test_flows import reference_ingest

_FORMATS = [("<", False), (">", False), ("<", True), (">", True)]
_FORMAT_IDS = ["le-us", "be-us", "le-ns", "be-ns"]


def capture(records, endian="<", nanos=False, linktype=LINKTYPE_RAW, snaplen=262144) -> bytes:
    """A pcap of `records` given as (seconds, fraction, frame)."""
    magic = MAGIC_NS if nanos else MAGIC_US
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)]
    for sec, frac, frame in records:
        parts += [struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)), frame]
    return b"".join(parts)


def reference_frames(data: bytes) -> list[tuple[float, bytes]]:
    """Reference: the per-record reader, one read for each record header and
    one for its frame; a truncated trailing record ends the list."""
    f = io.BytesIO(data)
    header = f.read(24)
    endian = "<" if struct.unpack("<I", header[:4])[0] in (MAGIC_US, MAGIC_NS) else ">"
    divisor = 1e9 if struct.unpack(endian + "I", header[:4])[0] == MAGIC_NS else 1e6
    frames = []
    while True:
        rec = f.read(16)
        if len(rec) < 16:
            return frames
        ts_sec, ts_frac, incl_len, _orig_len = struct.unpack(endian + "IIII", rec)
        frame = f.read(incl_len)
        if len(frame) < incl_len:
            return frames
        frames.append((ts_sec + ts_frac / divisor, frame))


def read_all(data: bytes, packed: bool, tmp_path=None) -> list[tuple[float, bytes]]:
    """`read_pcap`'s frames for `data`, given plain or gzip-compressed, from a
    file when `tmp_path` is given, else from memory."""
    raw = gzip.compress(data) if packed else data
    source = io.BytesIO(raw)
    if tmp_path is not None:
        source = tmp_path / ("c.pcap.gz" if packed else "c.pcap")
        source.write_bytes(raw)
    _linktype, frames = read_pcap(source)
    return list(frames)


def _frame(n: int, size: int) -> bytes:
    return bytes((n + i) % 251 for i in range(size))


# A first frame of this size makes the first record end exactly on the block edge.
_TO_EDGE = BLOCK - 24 - 16


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_records_across_the_block_edge(tmp_path, packed, endian, nanos):
    # shift 0: the first record ends on the edge; -15..-1: the next record
    # header straddles it; below -15 and above 0: a frame straddles it.
    for shift in (-40, -17, -16, -15, -8, -1, 0, 1, 15, 16, 17, 40):
        records = [(1, 999_999, _frame(0, _TO_EDGE + shift))]
        records += [(2 + n, n * 1000, _frame(n, 60 + n)) for n in range(1, 6)]
        data = capture(records, endian, nanos)
        want = reference_frames(data)
        assert len(want) == 6
        assert read_all(data, packed, tmp_path) == want, shift


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_frame_larger_than_a_block(tmp_path, packed, endian, nanos):
    records = [(1, 5, _frame(1, 100)), (2, 6, _frame(2, 3 * BLOCK + 123)), (3, 7, b""),
               (4, 8, _frame(4, 2 * BLOCK)), (5, 9, _frame(5, 70))]
    data = capture(records, endian, nanos)
    want = reference_frames(data)
    assert [len(frame) for _ts, frame in want] == [100, 3 * BLOCK + 123, 0, 2 * BLOCK, 70]
    assert read_all(data, packed, tmp_path) == want


@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_every_cut_of_a_multi_block_capture(monkeypatch, endian, nanos):
    # 64-byte blocks, so a 1.6 KB capture spans 25 of them and every cut is cheap.
    monkeypatch.setattr(pcapio, "BLOCK", 64)
    sizes = [0, 1, 47, 48, 49, 64, 100, 130, 250, 3, 16, 200, 40, 80, 20]
    data = capture([(n, n * 7, _frame(n, size)) for n, size in enumerate(sizes)], endian, nanos)
    assert len(reference_frames(data)) == len(sizes)
    for cut in range(len(data) + 1):
        if cut < 24:
            with pytest.raises(MalformedCapture):
                read_all(data[:cut], False)
            continue
        assert read_all(data[:cut], False) == reference_frames(data[:cut]), cut


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_cuts_near_the_block_edge(packed):
    records = [(n, n, _frame(n, size)) for n, size in enumerate([_TO_EDGE - 10, 50, 50])]
    data = capture(records)
    for cut in range(BLOCK - 30, BLOCK + 30):
        assert read_all(data[:cut], packed) == reference_frames(data[:cut]), cut


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_ingest_peak_memory_is_one_block_not_the_file(tmp_path, packed):
    ip = tcp_frame("10.0.0.1", "10.0.0.2", 40000, 443, payload_len=1380)
    ether = bytes(6) + b"\xbb" * 6 + b"\x08\x00" + ip
    plain = capture_bytes([(i / 1000, ether) for i in range(3000)], LINKTYPE_ETHERNET).getvalue()
    assert len(plain) >= 4_000_000
    path = tmp_path / ("big.pcap.gz" if packed else "big.pcap")
    path.write_bytes(gzip.compress(plain) if packed else plain)
    ingest_capture(path)  # imports and caches warmed before measuring
    tracemalloc.start()
    try:
        table = ingest_capture(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.tcp_packets == 3000 and len(table.flows) == 1
    assert peak - held < 1_000_000


def test_corrupt_frame_length_reserves_no_more_than_a_block(tmp_path):
    path = tmp_path / "claims-50mb.pcap"
    header = struct.pack("<IIII", 0, 0, 50_000_000, 50_000_000)
    path.write_bytes(capture([]) + header + bytes(100))
    tracemalloc.start()
    try:
        _linktype, frames = read_pcap(path)
        with pytest.raises(MalformedCapture, match="offset 24 claims 50000000 bytes"):
            list(frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_record_claiming_4gb_raises_within_a_block(packed, endian, nanos):
    # Whole records past the first block, then a header claiming 4 GB in
    # front of 6 MB of records: the walk stops at that header, having read
    # no more than its block.
    before = [(n, 0, _frame(n, 1000)) for n in range(80)]
    after = [(n, 0, _frame(n, 1400)) for n in range(4300)]
    corrupt = struct.pack(endian + "IIII", 0, 0, 0xFFFF_FFF0, 0xFFFF_FFF0)
    head = capture(before, endian, nanos)
    data = head + corrupt + capture(after, endian, nanos)[24:]
    assert len(head) > BLOCK and len(data) > 6_000_000
    source = io.BytesIO(gzip.compress(data) if packed else data)
    tracemalloc.start()
    try:
        _linktype, frames = read_pcap(source)
        with pytest.raises(MalformedCapture, match=f"offset {len(head)} claims 4294967280 bytes"):
            for _frame_seen in frames:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a block, its offsets and the decompressor's state


def test_limit_is_the_larger_of_snaplen_and_libpcaps():
    big = (0, 0, bytes(pcapio.MAX_SNAPLEN + 1))
    with pytest.raises(MalformedCapture):
        read_all(capture([big], snaplen=65535), False)
    assert read_all(capture([big], snaplen=pcapio.MAX_SNAPLEN + 1), False) == [(0.0, big[2])]
    # A plausible length cut short by the end of the file ends the stream quietly.
    assert read_all(capture([big], snaplen=1 << 30)[:-1], False) == []
    assert read_all(capture([(0, 0, bytes(100))])[:-1], False) == []


def _walk_seconds(frame_size: int) -> float:
    """Best of five: the time to walk a capture of one record whose frame is
    `frame_size` bytes, under a snaplen of 2 MiB."""
    data = capture([(0, 0, bytes(frame_size))], snaplen=2 << 20)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        _linktype, blocks = pcapio.read_blocks(io.BytesIO(data))
        lengths = [len(block) for block, _offsets in blocks]
        best = min(best, time.perf_counter() - started)
    assert lengths == [16 + frame_size]
    return best


def test_record_longer_than_a_block_is_joined_once(monkeypatch):
    # 4 KiB blocks, so a 2 MiB record spans 512 of them. Sixteen times the
    # bytes take about 16 times as long when the record's reads are joined
    # once, and above 250 times when each read copies all before it again.
    monkeypatch.setattr(pcapio, "BLOCK", 4096)
    _walk_seconds(2 << 20)  # the allocator's first large blocks, untimed
    assert _walk_seconds(2 << 20) / _walk_seconds(128 << 10) < 100


# -- ingest straight out of the blocks: the same shapes, real frames -----------------

_V1_SYN = encode_mp_capable(MpCapable(1), HandshakePhase.SYN)
_LINKTYPES = [LINKTYPE_RAW, LINKTYPE_ETHERNET]
_LINK_IDS = ["raw", "ethernet"]


def _packet(n: int, payload_len: int) -> bytes:
    """Record n's IP packet: IPv4 or IPv6 TCP in a few flows and both
    directions, with and without an MP_CAPABLE, some behind an IPv6
    Hop-by-Hop header, and now and then a UDP datagram."""
    kind = n % 5
    port = 40000 + n % 3
    options = _V1_SYN if n % 4 == 0 else b"\x01\x01\x08\x0a" + bytes(8)
    if kind == 0:
        return tcp_frame("10.0.0.1", "10.0.0.2", port, 443, options=options,
                         payload_len=payload_len)
    if kind == 1:
        return tcp_frame("10.0.0.2", "10.0.0.1", 443, port, payload_len=payload_len)
    if kind == 2:
        return tcp_frame("2001:db8::1", "2001:db8::2", port, 80, options=options,
                         payload_len=payload_len)
    if kind == 3:
        return with_v6_headers(tcp_frame("2001:db8::2", "2001:db8::1", 80, port,
                                         payload_len=payload_len), (0,))
    udp = bytearray(tcp_frame("10.0.0.3", "10.0.0.4", port, 53, payload_len=payload_len))
    udp[9] = 17
    return bytes(udp)


def _real_frame(n: int, size: int, linktype: int) -> bytes:
    """A frame of exactly `size` bytes for record n: the link header (Ethernet,
    every other one VLAN-tagged) and `_packet(n)`, cut short like a snaplen
    when `size` is small, followed by a trailer when it is past what one IP
    packet holds."""
    link = b""
    if linktype == LINKTYPE_ETHERNET:
        ethertype = b"\x86\xdd" if n % 5 in (2, 3) else b"\x08\x00"
        link = bytes(6) + b"\xbb" * 6 + (b"\x81\x00\x00\x07" if n % 2 else b"") + ethertype
    header_len = len(link) + len(_packet(n, 0))
    frame = link + _packet(n, min(max(0, size - header_len), 60000))
    return frame[:size] + bytes(max(0, size - len(frame)))


def _ingest_matches_reference(data: bytes, packed: bool):
    raw = gzip.compress(data) if packed else data
    got = ingest_capture(io.BytesIO(raw))
    want = reference_ingest(io.BytesIO(raw), True)
    assert list(got.flows) == list(want.flows)
    assert got == want  # the same FlowStats per flow and the same six counters
    return want


@pytest.mark.parametrize("linktype", _LINKTYPES, ids=_LINK_IDS)
@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_ingest_across_the_block_edge(packed, endian, nanos, linktype):
    for shift in (-40, -17, -16, -15, -8, -1, 0, 1, 15, 16, 17, 40):
        records = [(1, 999_999, _real_frame(0, _TO_EDGE + shift, linktype))]
        # Some of the later frames are cut short inside a header, as by a snaplen.
        records += [(2 + n, n * 1000, _real_frame(n, 40 + 9 * n, linktype)) for n in range(1, 11)]
        table = _ingest_matches_reference(capture(records, endian, nanos, linktype), packed)
        assert table.frames_seen == 11 and table.non_tcp == 2, shift
        assert table.tcp_packets >= 5 and table.parse_failures >= 2
        assert any(s.mptcp_version for s in table.flows.values())


@pytest.mark.parametrize("linktype", _LINKTYPES, ids=_LINK_IDS)
@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_ingest_frame_larger_than_a_block(packed, endian, nanos, linktype):
    sizes = [100, 3 * BLOCK + 123, 0, 2 * BLOCK, 70]
    records = [(n, n, _real_frame(n, size, linktype)) for n, size in enumerate(sizes)]
    table = _ingest_matches_reference(capture(records, endian, nanos, linktype), packed)
    assert (table.tcp_packets, table.non_tcp, table.parse_failures) == (3, 1, 1)
    assert table.tcp_bytes < 2 * BLOCK  # counted by the IP length, not the frame's


@pytest.mark.parametrize("linktype", _LINKTYPES, ids=_LINK_IDS)
@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("endian, nanos", _FORMATS, ids=_FORMAT_IDS)
def test_ingest_every_cut_of_a_multi_block_capture(monkeypatch, packed, endian, nanos,
                                                   linktype):
    monkeypatch.setattr(pcapio, "BLOCK", 64)
    sizes = [0, 1, 47, 48, 49, 64, 100, 130, 250, 3, 16, 200, 40, 80, 20, 120]
    records = [(n, n * 7, _real_frame(n, size, linktype)) for n, size in enumerate(sizes)]
    data = capture(records, endian, nanos, linktype)
    assert _ingest_matches_reference(data, packed).tcp_packets >= 5
    for cut in range(24, len(data) + 1):
        _ingest_matches_reference(data[:cut], packed)


@pytest.mark.parametrize("linktype", _LINKTYPES, ids=_LINK_IDS)
@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_no_block_but_the_last_holds_one_record(monkeypatch, packed, linktype):
    # 512-byte blocks and records of 56 to 216 bytes: a record cut at a
    # block's end is read together with the next block, so each block holds
    # several records, and ingest counts the same flows as with 64 KiB blocks.
    records = [(n, n, _real_frame(n, 40 + n * 37 % 161, linktype)) for n in range(400)]
    data = capture(records, linktype=linktype)
    raw = gzip.compress(data) if packed else data
    whole = ingest_capture(io.BytesIO(raw))
    monkeypatch.setattr(pcapio, "BLOCK", 512)
    _linktype, blocks = pcapio.read_blocks(io.BytesIO(raw))
    counts = [len(offsets) - 1 for _block, offsets in blocks]
    assert len(counts) > 50 and sum(counts) == len(records)
    assert min(counts[:-1]) > 1
    assert _ingest_matches_reference(data, packed) == whole
    assert whole.frames_seen == len(records) and whole.tcp_packets > 200


def test_ingest_peak_memory_with_minimum_size_records(tmp_path):
    # 16-byte records with empty frames, 4,096 to a block, then records of
    # every size from 16 to 56 bytes: the most records a block can hold.
    packet = tcp_frame("10.0.0.1", "10.0.0.2", 40000, 443)
    assert len(packet) == 40
    records = [(n, 0, b"") for n in range(8 * BLOCK // 16)]
    records += [(n, 0, packet[: n % 41]) for n in range(50_000)]
    path = tmp_path / "small.pcap"
    path.write_bytes(capture(records))
    assert path.stat().st_size >= 2_000_000
    ingest_capture(path)  # imports and caches warmed before measuring
    tracemalloc.start()
    try:
        table = ingest_capture(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.frames_seen == len(records) and len(table.flows) == 1
    assert peak - held < 1_000_000
