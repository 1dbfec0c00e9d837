"""What every text input shares: the comment rule (`data_line`) and, for
blocklists and prefix-to-ASN tables, `prefix[,asn]` rows in a `PrefixTable`.
"""

from __future__ import annotations

import ipaddress
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
