"""What every text file shares. One reader: `rows` applies the comment rule
(`data_line`) and a schema's row parser to each line, and names the line of a
bad row; `read_rows` and `open_in` open a file by path and name it too;
`unsigned_field` reads every integer field, of the toolkit's own rows and of
user tables, and `timestamp_field` a scan row's timestamp. One writer:
`OutFile`, which replaces a file whole, and only when the run succeeds. And
the `prefix[,asn]` rows and `PrefixTable` of blocklists and ASN tables."""

from __future__ import annotations

import contextlib
import ipaddress
import itertools
import math
import os
import stat
import sys
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .packet import pack_address


def data_line(line: str) -> str:
    """`line` cut at its first `#` and stripped; empty when it holds no data."""
    return line.split("#", 1)[0].strip()


Row = TypeVar("Row")  # one row of a text input, or of a command's output
PrefixKey = tuple[int, int, int]  # IP version, host bits, address bits (host bits unread)
MAX_ASN = 2**32 - 1  # four-octet AS numbers, RFC 6793


def rows(lines: Iterable[str], parse: Callable[[str], Row]) -> Iterator[Row]:
    """`parse(data_line(line))` for each line of `lines` that holds data, as the
    caller asks for it; a ValueError of `parse` is raised again, chained, as
    `line N: <message>`, N counting every line, comment and blank lines too."""
    for number, line in enumerate(lines, 1):
        # `data_line(line)`, without its call for a line that holds no `#`
        if line := data_line(line) if "#" in line else line.strip():
            try:
                row = parse(line)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
            yield row


@contextlib.contextmanager
def open_in(path: str | os.PathLike) -> Iterator[IO[str]]:
    """The text input at `path`, opened UTF-8; a ValueError while it is open gains `<path>: `."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def read_rows(path: str | os.PathLike, parse: Callable[[str], Row]) -> Iterator[Row]:
    """`rows` of the text input at `path`, opened at the first row asked for."""
    with open_in(path) as f:
        yield from rows(f, parse)


def unsigned_field(text: str, name: str) -> int:
    """A row's integer field: ASCII digits alone, no sign, space, `_` or other script's digit."""
    if text.isdigit() and text.isascii():
        return int(text)
    raise ValueError(f"{name} must be ASCII digits, got {text!r}")


def bounded_field(text: str, name: str, top: int) -> int:
    """`unsigned_field`, at most `top`."""
    value = unsigned_field(text, name)
    if value > top:
        raise ValueError(f"{name} must be at most {top}, got {text!r}")
    return value


def timestamp_field(value: str | float) -> float:
    """A scan row's timestamp: finite and >= 0; in CSV, ASCII digits with at most one `.`."""
    if isinstance(value, str) and not (value.replace(".", "", 1).isdigit() and value.isascii()):
        raise ValueError(f"timestamp must be digits with at most one '.', got {value!r}")
    number = float(value)
    if 0 <= number < math.inf:  # NaN fails too
        return number
    raise ValueError(f"timestamp must be finite and >= 0, got {value!r}")


def prefix_key(prefix: str) -> PrefixKey:
    """The `PrefixTable` key of `prefix`, read as `ipaddress.ip_network(prefix,
    strict=False)` reads it, with its errors; `address/length` skips ipaddress."""
    try:
        address, _, length = prefix.partition("/")
        packed = pack_address(address)
        bits = len(packed) * 8
        if length.isascii() and length.isdigit() and len(length) <= 3 and int(length) <= bits:
            return 4 if bits == 32 else 6, bits - int(length), int.from_bytes(packed, "big")
    except (AttributeError, ValueError):
        pass
    net = ipaddress.ip_network(prefix, strict=False)
    return net.version, net.max_prefixlen - net.prefixlen, int(net.network_address)


def prefix_row(line: str) -> tuple[PrefixKey, int | None]:
    """(prefix key, asn) of one `prefix[,asn]` row; asn is None when absent."""
    prefix, sep, asn = line.partition(",")
    return prefix_key(prefix.strip()), bounded_field(asn.strip(), "asn", MAX_ASN) if sep else None


class PrefixTable:
    """Longest-prefix match from CIDR prefixes to values, IPv4 and IPv6.

    Each prefix comes as its `prefix_key`, and a prefix is what that reads:
    `address/length` (host bits set or not; read by `pack_address`),
    `address/netmask`, `address/hostmask`, a bare address and scoped IPv6.

    One hash bucket per prefix length, keyed by the network bits. A lookup
    probes only the lengths present for the address's family, longest first.
    A later entry for the same prefix replaces the earlier one; values must
    not be None, which lookup returns for "no prefix holds the address".
    """

    def __init__(self, entries: Iterable[tuple[PrefixKey, object]] = ()):
        """A table of `entries`: (`prefix_key` of a prefix, value) pairs."""
        # IP version -> host bits -> network bits -> value, fewest host bits first
        self._buckets: dict[int, dict[int, dict[int, object]]] = {4: {}, 6: {}}
        for (version, shift, bits), value in entries:
            self._buckets[version].setdefault(shift, {})[bits >> shift] = value
        for version, buckets in self._buckets.items():
            self._buckets[version] = dict(sorted(buckets.items()))

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
        lines = iter(lines)
        first = next(lines, None)  # opened at the first line, as at the first write
        if first is not None:
            file = self._opened()
            file.write(first)
            file.writelines(lines)

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
