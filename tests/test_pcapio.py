"""The block reader in `pcapio.read_pcap` against a per-record reference."""

import gzip
import io
import struct
import tracemalloc

import pytest

from capture_helpers import capture_bytes, tcp_frame
from mptcpkit import pcapio
from mptcpkit.errors import MalformedCapture
from mptcpkit.flows import ingest_capture
from mptcpkit.pcapio import BLOCK, LINKTYPE_ETHERNET, LINKTYPE_RAW, MAGIC_NS, MAGIC_US, read_pcap

_FORMATS = [("<", False), (">", False), ("<", True), (">", True)]
_FORMAT_IDS = ["le-us", "be-us", "le-ns", "be-ns"]


def capture(records, endian="<", nanos=False, linktype=LINKTYPE_RAW) -> bytes:
    """A pcap of `records` given as (seconds, fraction, frame)."""
    magic = MAGIC_NS if nanos else MAGIC_US
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 262144, linktype)]
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
        assert list(frames) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
