"""Classic pcap file reading.

Handles microsecond and nanosecond magic in either byte order, plain or
gzip-compressed. Link types: Ethernet (1), raw IP (101), and NULL/loopback
(0); the global header of any other is refused. A truncated trailing record,
or a compressed stream cut short, ends the stream quietly; an unreadable
global header, corrupt compressed data or an impossible record length is fatal.

The file is read in 64 KiB blocks of its (decompressed) bytes. `read_blocks`
yields each block with the offsets of the whole records in it, so a reader
finds every frame in place without a copy; `read_pcap` is the per-frame view
of the same walk, which slices out each frame and its timestamp. Memory stays
bounded by one block plus the record completed into it (one cut at the end of
the block before), and their offsets (8 bytes a record), whatever the file size.
"""

from __future__ import annotations

import io
import struct
from array import array
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterator

from .errors import MalformedCapture

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D

LINKTYPE_NULL = 0
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

GZIP_MAGIC = b"\x1f\x8b"

# Per-record header (ts_sec, ts_frac, incl_len, orig_len), by byte order.
_RECORD = {"<": struct.Struct("<IIII"), ">": struct.Struct(">IIII")}
_INCL_LEN = {"<": struct.Struct("<8xI"), ">": struct.Struct(">8xI")}
BLOCK = 1 << 16  # bytes read at a time
MAX_SNAPLEN = 262144  # libpcap's: a record longer than this and the snaplen is corrupt


def _gunzip_reader(f: IO[bytes], consumed: int) -> Callable[[int], bytes]:
    """`read` for a gzip-compressed capture whose first `consumed` bytes were
    read from `f`: a stream cut short reads as its end, and corrupt data
    raises MalformedCapture."""
    import gzip  # only compressed captures pay for these imports
    import zlib

    f.seek(-consumed, io.SEEK_CUR)
    stream = gzip.GzipFile(fileobj=f, mode="rb")

    def read(size: int) -> bytes:
        # `read1`, not `read`: on a stream cut short, `read` raises EOFError
        # and drops what it decompressed in the same call.
        chunks = []
        while size > 0:
            try:
                chunk = stream.read1(size)
            except EOFError:
                break
            except (gzip.BadGzipFile, zlib.error) as exc:
                raise MalformedCapture(f"corrupt compressed capture: {exc}") from None
            if not chunk:
                break
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    return read


Blocks = Iterator[tuple[bytes, array]]


def _open(source: str | Path | IO[bytes]) -> tuple[int, str, float, Blocks]:
    """(linktype, byte order, timestamp divisor, blocks) of the capture at
    `source`, its global header read and checked."""
    owned = isinstance(source, (str, Path))
    f = open(source, "rb") if owned else source
    try:
        read = f.read
        header = read(24)
        if header[:2] == GZIP_MAGIC:
            read = _gunzip_reader(f, len(header))
            header = read(24)
        if len(header) < 24:
            raise MalformedCapture("file too short for a pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (MAGIC_US, MAGIC_NS):
            endian = "<"
        else:
            magic = struct.unpack(">I", header[:4])[0]
            if magic in (MAGIC_US, MAGIC_NS):
                endian = ">"
            else:
                raise MalformedCapture(f"unknown pcap magic {header[:4].hex()}")
        snaplen, linktype = struct.unpack(f"{endian}II", header[16:24])
        if linktype not in (LINKTYPE_NULL, LINKTYPE_ETHERNET, LINKTYPE_RAW):
            raise MalformedCapture(f"unsupported link type {linktype}")
    except BaseException:
        if owned:
            f.close()
        raise
    limit = max(snaplen, MAX_SNAPLEN)
    blocks = _walk(read, _INCL_LEN[endian].unpack_from, limit, f if owned else None)
    return linktype, endian, 1e9 if magic == MAGIC_NS else 1e6, blocks


def _walk(read: Callable[[int], bytes], incl_len: Callable, limit: int,
          owned: IO[bytes] | None) -> Blocks:
    """(block, offsets) for each block that holds a whole record: record i runs from
    offsets[i] to offsets[i + 1], its 16-byte header first; one over `limit` raises."""
    try:
        tail, missing, base = b"", BLOCK, 24  # base: the stream offset of buf
        while True:
            # A record cut at the end of a block is completed, and the next
            # block read behind it, by reads of a block at most each, joined
            # once: a corrupt length reserves no more than a block beyond
            # what the file holds.
            chunks = [tail]
            while missing > 0:
                chunk = read(min(missing, BLOCK))
                if not chunk:
                    break
                chunks.append(chunk)
                missing -= len(chunk)
            buf = b"".join(chunks)
            size = len(buf)
            if size == len(tail):
                return
            offsets = array("Q", (0,))  # 4,097 records at the most: 32 KiB
            pos = 0
            while True:
                end = pos + 16
                if end > size:
                    break
                length = incl_len(buf, pos)[0]
                if length > limit:
                    raise MalformedCapture(f"record at offset {base + pos} claims "
                                           f"{length} bytes, above the {limit}-byte limit")
                end += length
                if end > size:
                    break
                offsets.append(end)
                pos = end
            if pos:
                yield buf, offsets
            tail = buf[pos:]
            base += pos
            missing = end - size + BLOCK if tail else BLOCK
    finally:
        if owned is not None:
            owned.close()


def read_blocks(source: str | Path | IO[bytes]) -> tuple[int, Blocks]:
    """Open a pcap file; returns (linktype, iterator of (block, offsets)).

    Each block comes with the offsets of the whole records it holds: record i
    is `block[offsets[i]:offsets[i + 1]]`, a 16-byte record header and then
    the frame. A file opened here is closed as `read_pcap` closes it.
    """
    linktype, _endian, _divisor, blocks = _open(source)
    return linktype, blocks


def read_pcap(source: str | Path | IO[bytes]) -> tuple[int, Iterator[tuple[float, bytes]]]:
    """Open a pcap file; returns (linktype, iterator of (timestamp, frame)).

    A file opened here is closed when the frames run out, or at once when
    the global header raises MalformedCapture.
    """
    linktype, endian, divisor, blocks = _open(source)
    stamp = _RECORD[endian].unpack_from

    def frames() -> Iterator[tuple[float, bytes]]:
        for buf, offsets in blocks:
            pos = 0
            for end in islice(offsets, 1, None):
                ts_sec, ts_frac, _incl_len, _orig_len = stamp(buf, pos)
                yield ts_sec + ts_frac / divisor, buf[pos + 16 : end]
                pos = end

    return linktype, frames()
