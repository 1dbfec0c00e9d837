"""Classic pcap file reading.

Handles microsecond and nanosecond magic in either byte order, plain or
gzip-compressed. Link types: Ethernet (1), raw IP (101), and NULL/loopback
(0); the global header of any other is refused. A truncated trailing record,
or a compressed stream cut short, ends the stream quietly; an unreadable
global header or corrupt compressed data is fatal.

Frames are sliced out of 64 KiB blocks of the (decompressed) file, so memory
stays bounded by one block plus the largest frame, whatever the file size.
"""

from __future__ import annotations

import io
import struct
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
BLOCK = 1 << 16  # bytes read at a time


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


def read_pcap(source: str | Path | IO[bytes]) -> tuple[int, Iterator[tuple[float, bytes]]]:
    """Open a pcap file; returns (linktype, iterator of (timestamp, frame)).

    A file opened here is closed when the frames run out, or at once when
    the global header raises MalformedCapture.
    """
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
        linktype = struct.unpack(f"{endian}I", header[20:24])[0]
        if linktype not in (LINKTYPE_NULL, LINKTYPE_ETHERNET, LINKTYPE_RAW):
            raise MalformedCapture(f"unsupported link type {linktype}")
    except BaseException:
        if owned:
            f.close()
        raise
    ts_divisor = 1e9 if magic == MAGIC_NS else 1e6
    record = _RECORD[endian].unpack_from

    def frames() -> Iterator[tuple[float, bytes]]:
        try:
            tail, missing = b"", 0
            while True:
                # A record cut at the end of a block is completed by reads of
                # what it lacks, a block at most: two blocks are never joined,
                # and a corrupt length reserves no more than a block.
                buf = tail + read(min(missing, BLOCK) if tail else BLOCK)
                size = len(buf)
                if size == len(tail):
                    return
                pos = 0
                while True:
                    end = pos + 16
                    if end > size:
                        break
                    ts_sec, ts_frac, incl_len, _orig_len = record(buf, pos)
                    end += incl_len
                    if end > size:
                        break
                    yield ts_sec + ts_frac / ts_divisor, buf[pos + 16 : end]
                    pos = end
                tail, missing = buf[pos:], end - size
        finally:
            if owned:
                f.close()

    return linktype, frames()
