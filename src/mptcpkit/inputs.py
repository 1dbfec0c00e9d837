"""What every text file shares. Inputs: the comment rule (`data_line`) and,
for blocklists and prefix-to-ASN tables, `prefix[,asn]` rows in a
`PrefixTable`. Outputs: `OutFile`, the one writer, which replaces a file
whole, and only when the run succeeds.
"""

from __future__ import annotations

import contextlib
import ipaddress
import itertools
import os
import stat
import sys
from typing import Iterable, Iterator

from .packet import pack_address


def data_line(line: str) -> str:
    """`line` cut at its first `#` and stripped; empty when it holds no data."""
    return line.split("#", 1)[0].strip()


def data_lines(lines: Iterable[str]) -> Iterator[str]:
    """Each line through `data_line`; blank results are skipped."""
    return filter(None, map(data_line, lines))


def prefix_rows(lines: Iterable[str]) -> Iterator[tuple[str, int | None]]:
    """(prefix, asn) per `prefix[,asn]` line; asn is None when absent."""
    for line in data_lines(lines):
        prefix, sep, asn = line.partition(",")
        yield prefix.strip(), int(asn) if sep else None


def _prefix_key(prefix: str) -> tuple[int, int, int] | None:
    """(version, host bits, address bits) of `address/length`, else None."""
    try:
        address, _, length = prefix.partition("/")
        packed = pack_address(address)
    except (AttributeError, ValueError):
        return None
    bits = len(packed) * 8
    if not (length.isascii() and length.isdigit() and len(length) <= 3 and int(length) <= bits):
        return None
    return 4 if bits == 32 else 6, bits - int(length), int.from_bytes(packed, "big")


class PrefixTable:
    """Longest-prefix match from CIDR prefixes to values, IPv4 and IPv6.

    A prefix is what `ipaddress.ip_network(prefix, strict=False)` reads, with
    its errors: `address/length` (host bits set or not; read by `pack_address`),
    `address/netmask`, `address/hostmask`, a bare address and scoped IPv6.

    One hash bucket per prefix length, keyed by the network bits. A lookup
    probes only the lengths present for the address's family, longest first.
    A later entry for the same prefix replaces the earlier one; values must
    not be None, which lookup returns for "no prefix holds the address".
    """

    def __init__(self, entries: Iterable[tuple[str, object]] = ()):
        # IP version -> host bits -> network bits -> value, fewest host bits first
        self._buckets: dict[int, dict[int, dict[int, object]]] = {4: {}, 6: {}}
        for prefix, value in entries:
            self.add(prefix, value)

    def add(self, prefix: str, value: object) -> None:
        key = _prefix_key(prefix)
        if key is None:
            net = ipaddress.ip_network(prefix, strict=False)
            key = net.version, net.max_prefixlen - net.prefixlen, int(net.network_address)
        version, shift, bits = key
        buckets = self._buckets[version]
        if shift not in buckets:
            buckets[shift] = {}
            self._buckets[version] = buckets = dict(sorted(buckets.items()))
        buckets[shift][bits >> shift] = value

    def lookup(self, address: str) -> object | None:
        """The value of the longest prefix holding `address`, or None."""
        packed = pack_address(address)
        bits = int.from_bytes(packed, "big")
        for shift, bucket in self._buckets[4 if len(packed) == 4 else 6].items():
            value = bucket.get(bits >> shift)
            if value is not None:
                return value
        return None

    def __len__(self) -> int:
        return sum(len(b) for buckets in self._buckets.values() for b in buckets.values())


def through_proc(path: str | os.PathLike) -> bool:
    """Whether `path` resolves through /proc, as /dev/stdout, /dev/fd/N and a
    shell's `>(cmd)` do: their last link names a file some descriptor already
    holds open (a pipe, or a log opened for appending), to be written, not
    replaced."""
    for _ in range(40):  # as many links as the kernel follows
        head = os.path.realpath(os.path.dirname(os.path.abspath(path)))
        if head == "/proc" or head.startswith("/proc/"):
            return True
        path = os.path.join(head, os.path.basename(path))
        if not os.path.islink(path):
            return False
        path = os.path.join(head, os.readlink(path))
    return False


class OutFile:
    """An output file (`--out`, a `bench --out-dir` file, a snapshot),
    replaced whole, and only by a run that succeeds.

    Rows go to a temporary file beside it, opened at the first write (or at
    a clean exit without one, so an empty result still empties the file),
    that `os.replace` renames over the file, with the old file's permission
    bits, at a clean exit; a run that fails, even after writing (a bad row
    late in a streamed input), removes it. A file that cannot be replaced
    is opened at the first write and written in place: one that exists and
    is not a regular file (a FIFO, /dev/null), one reached through /proc
    (/dev/stdout, /dev/fd/N), and one whose directory takes no new file.
    """

    def __init__(self, path: str | os.PathLike):
        try:
            st = os.stat(path)  # through symlinks: /dev/stdout on a pipe is a FIFO
        except OSError:  # no file yet, or one that opening will report on
            st = None
        self._in_place = (st is not None and not stat.S_ISREG(st.st_mode)) or through_proc(path)
        self._path = path if self._in_place else os.path.realpath(path)  # a link's target
        self._mode = None if st is None else stat.S_IMODE(st.st_mode)
        self._temp = None
        self._file = None

    def _open(self):
        if not self._in_place:
            head, tail = os.path.split(self._path)
            for n in itertools.count():  # a name no other run holds
                temp = os.path.join(head, f".{tail}.{n}.tmp")
                try:
                    file = open(temp, "x", encoding="utf-8")
                except FileExistsError:
                    continue
                except PermissionError:  # a directory that takes no new file
                    break
                self._temp = temp
                return file
        return open(self._path, "w", encoding="utf-8")

    def _opened(self):
        if self._file is None:
            self._file = self._open()
        return self._file

    def write(self, text: str) -> int:
        return self._opened().write(text)

    def writelines(self, lines: Iterable[str]) -> None:
        self._opened().writelines(lines)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._file is None and exc_type is None:
            self.write("")
        if self._file is None:
            return
        try:
            self._file.close()
            if self._temp is not None and exc_type is None:
                if self._mode is not None:
                    os.chmod(self._temp, self._mode)
                os.replace(self._temp, self._path)
                self._temp = None
        finally:
            if self._temp is not None:
                os.unlink(self._temp)


def open_out(path: str | os.PathLike | None):
    """`OutFile(path)`, or stdout for no path or `-`."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return OutFile(path)
