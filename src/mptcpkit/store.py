"""Dated scan snapshots and longitudinal analyses.

Snapshots are persisted one file per (month, family, port, version) as
line-delimited text, named `YYYY-MM_family_port_version`: append-only,
diff-able, no database. A save writes through `inputs.OutFile`, the rule of
every output file: it replaces its file whole, or not at all.
Re-ingesting the same data is idempotent; within a month, repeated scans
collapse by union with positive classifications winning.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from .errors import InsufficientHistory
from .inputs import (MAX_ASN, OutFile, PrefixKey, PrefixTable, bounded_field, open_in, prefix_row,
                     read_rows, rows, unsigned_field)
from .options import Key
from .packet import pack_address
from .probe import ClassificationKind, scan_key
from .record import Frozen, Record

POSITIVE_LABELS = {ClassificationKind.POTENTIAL_CAPABLE.value}
# Labels that mean "answered with MP_CAPABLE at all" (reachable for pruning).
MPCAPABLE_LABELS = POSITIVE_LABELS | {ClassificationKind.MIRRORED_KEY.value,
                                      ClassificationKind.VERSION_MISMATCH.value}


class HostRecord(Record):
    __slots__ = ("address", "classification", "sender_key")

    def __init__(self, address: str, classification: str, sender_key: Key | None = None) -> None:
        self.address, self.classification, self.sender_key = address, classification, sender_key

    @property
    def positive(self) -> bool:
        return self.classification in POSITIVE_LABELS

    @property
    def answered_mp_capable(self) -> bool:
        return self.classification in MPCAPABLE_LABELS

    def to_line(self) -> str:
        key = self.sender_key.hex if self.sender_key is not None else ""
        return f"{self.address},{self.classification},{key}"

    @classmethod
    def from_line(cls, line: str) -> "HostRecord":
        """A row as `to_line` writes one: an address, a scan label and its `scan_key`."""
        address, classification, key = line.rstrip("\n").split(",")
        pack_address(address)  # raises for what is not an address
        return cls(address, classification, scan_key(classification, key))


class ScanSnapshot(Record):
    """One month (`YYYY-MM`) of results for a single (family, port, version)
    scan, family `v4` or `v6`."""

    __slots__ = ("date", "family", "port", "version", "records")

    def __init__(self, date: str, family: str, port: int, version: int,
                 records: dict[str, HostRecord] | None = None) -> None:
        parse_month(date)
        if family not in ("v4", "v6"):
            raise ValueError(f"family must be v4 or v6, got {family}")
        self.date, self.family, self.port, self.version = date, family, port, version
        self.records = {} if records is None else records

    def add(self, record: HostRecord) -> None:
        """Merge one host record; a positive classification is never
        downgraded by a later negative within the same month."""
        existing = self.records.get(record.address)
        if existing is not None and existing.positive and not record.positive:
            return
        self.records[record.address] = record

    def positives(self) -> set[str]:
        return {a for a, r in self.records.items() if r.positive}

    def filename(self) -> str:
        return f"{self.date}_{self.family}_{self.port}_{self.version}"


def parse_month(date: str) -> tuple[int, int]:
    """(year, month) of a canonical `YYYY-MM`, the only form snapshots are named by."""
    try:
        year, month = date.split("-")
        y, m = int(year), int(month)
    except ValueError:  # not two numbers around one dash
        y = m = 0
    if not (1 <= m <= 12 and y >= 1) or date != f"{y:04d}-{m:02d}":
        raise ValueError(f"bad month in {date!r}, expected YYYY-MM")
    return y, m


def month_shift(date: str, delta: int) -> str:
    y, m = parse_month(date)
    index = y * 12 + (m - 1) + delta
    if index < 12:
        raise ValueError(f"{date} shifted by {delta} months is before 0001-01")
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


class SnapshotStore:
    """Directory of snapshot files; single writer, many readers."""

    def __init__(self, root: str | Path):
        self.root = Path(root)  # made by the first `save`, so reading creates nothing

    def save(self, snapshot: ScanSnapshot) -> Path:
        """Write or merge a snapshot; existing records are unioned in."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / snapshot.filename()
        if path.exists():
            existing = self._read(path, snapshot)
            for record in snapshot.records.values():
                existing.add(record)
            snapshot = existing
        records = snapshot.records
        # `load_series` reads no `OutFile` temporary: its name ends `.tmp`.
        with OutFile(path) as f:  # a line at a time, not one string
            f.write(f"# snapshot {snapshot.date} {snapshot.family} "
                    f"port={snapshot.port} version={snapshot.version}\n")
            f.writelines(f"{records[a].to_line()}\n" for a in sorted(records))
        return path

    def _read(self, path: Path, template: ScanSnapshot) -> ScanSnapshot:
        snap = ScanSnapshot(template.date, template.family, template.port, template.version)
        for record in read_rows(path, HostRecord.from_line):
            snap.add(record)
        return snap

    def load_series(self, family: str, port: int, version: int) -> dict[str, ScanSnapshot]:
        series = {}
        suffix = f"_{family}_{port}_{version}"
        for path in sorted(self.root.iterdir()):
            if path.name.endswith(suffix):
                date = path.name[: -len(suffix)]
                series[date] = self._read(path, ScanSnapshot(date, family, port, version))
        return series


def _window_snapshots(
    series: Mapping[str, ScanSnapshot], window_months: int, at_date: str
) -> list[ScanSnapshot]:
    if window_months < 1:
        raise ValueError("window must be >= 1 month")
    parse_month(at_date)  # a bad month is named before a short series
    if window_months > len(series):
        raise InsufficientHistory(f"window of {window_months} months is longer "
                                  f"than the {len(series)}-month series")
    months = [month_shift(at_date, -i) for i in range(window_months)]
    missing = [m for m in months if m not in series]
    if missing:
        raise InsufficientHistory(f"missing snapshots for {', '.join(sorted(missing))}")
    return [series[m] for m in months]


def consistent_hosts(
    series: Mapping[str, ScanSnapshot], window_months: int, at_date: str
) -> set[str]:
    """Addresses positive in every month of the trailing window."""
    snaps = _window_snapshots(series, window_months, at_date)
    result = snaps[0].positives()
    for snap in snaps[1:]:
        result &= snap.positives()
    return result


def eligible_for_path_probe(
    series: Mapping[str, ScanSnapshot], window_months: int, at_date: str
) -> set[str]:
    """Targets worth tracing: answered with MP_CAPABLE in every month of the
    window and returned a non-mirrored key at least once. Prunes transient
    hosts before the (expensive, mostly-timeout) path probes."""
    snaps = _window_snapshots(series, window_months, at_date)
    reachable = {
        a for a, r in snaps[0].records.items() if r.answered_mp_capable
    }
    for snap in snaps[1:]:
        reachable &= {a for a, r in snap.records.items() if r.answered_mp_capable}
    different_key_once = set()
    for snap in snaps:
        different_key_once |= snap.positives()
    return reachable & different_key_once


class OverlapReport(Record):
    __slots__ = ("both", "only_a", "only_b")

    def __init__(self, both: frozenset[str], only_a: frozenset[str],
                 only_b: frozenset[str]) -> None:
        self.both, self.only_a, self.only_b = both, only_a, only_b

    @property
    def union_size(self) -> int:
        return len(self.both) + len(self.only_a) + len(self.only_b)

    def fractions(self) -> tuple[float, float, float]:
        """(both, only_a, only_b) over the union; zeros for empty input."""
        n = self.union_size
        if n == 0:
            return 0.0, 0.0, 0.0
        return len(self.both) / n, len(self.only_a) / n, len(self.only_b) / n


def port_overlap(set_a: Iterable[str], set_b: Iterable[str]) -> OverlapReport:
    a, b = set(set_a), set(set_b)
    return OverlapReport(
        both=frozenset(a & b), only_a=frozenset(a - b), only_b=frozenset(b - a)
    )


def version_overlap(v0_set: Iterable[str], v1_set: Iterable[str]) -> OverlapReport:
    """Partition into v0-only / v1-only / both (only_a is v0-only)."""
    return port_overlap(v0_set, v1_set)


class MigrationReport(Record):
    __slots__ = ("added_v1_support", "migrated_v0_to_v1", "added_v0_support",
                 "migrated_v1_to_v0")

    def __init__(self, added_v1_support: frozenset[str], migrated_v0_to_v1: frozenset[str],
                 added_v0_support: frozenset[str], migrated_v1_to_v0: frozenset[str]) -> None:
        self.added_v1_support, self.migrated_v0_to_v1 = added_v1_support, migrated_v0_to_v1
        self.added_v0_support, self.migrated_v1_to_v0 = added_v0_support, migrated_v1_to_v0


def migration_report(
    prev: tuple[Iterable[str], Iterable[str]],
    current: tuple[Iterable[str], Iterable[str]],
) -> MigrationReport:
    """Month-over-month version changes.

    "Added" hosts supported exactly one version last month and now support
    both; "migrated" hosts dropped the version they had and now support only
    the other. The four categories are pairwise disjoint.
    """
    prev_v0, prev_v1 = set(prev[0]), set(prev[1])
    cur_v0, cur_v1 = set(current[0]), set(current[1])
    was_v0_only = prev_v0 - prev_v1
    was_v1_only = prev_v1 - prev_v0
    return MigrationReport(
        added_v1_support=frozenset(was_v0_only & cur_v0 & cur_v1),
        migrated_v0_to_v1=frozenset(was_v0_only & (cur_v1 - cur_v0)),
        added_v0_support=frozenset(was_v1_only & cur_v0 & cur_v1),
        migrated_v1_to_v0=frozenset(was_v1_only & (cur_v0 - cur_v1)),
    )


class AsnInfo(Frozen):
    __slots__ = ("asn", "organization", "country", "rank")

    def __init__(self, asn: int | None, organization: str, country: str,
                 rank: int | None) -> None:
        object.__setattr__(self, "asn", asn)
        object.__setattr__(self, "organization", organization)
        object.__setattr__(self, "country", country)
        object.__setattr__(self, "rank", rank)


UNKNOWN_ASN = AsnInfo(None, "Unknown", "??", None)


class EnrichmentTable:
    """Longest-prefix-match address-to-ASN mapping, from `prefix,asn` lines,
    plus ASN metadata."""

    def __init__(
        self,
        prefix_lines: Iterable[str] = (),
        asn_meta: Mapping[int, tuple[str, str, int | None]] | None = None,
    ):
        self.prefixes = PrefixTable(rows(prefix_lines, prefix_asn_row))
        self.asn_meta = dict(asn_meta or {})

    @classmethod
    def load(cls, prefix_path: str | Path, meta_path: str | Path | None = None) -> EnrichmentTable:
        """Prefix file: `prefix,asn` lines. Meta file: `asn,org,country,rank`."""
        with open_in(prefix_path) as f:
            table = cls(f)
        if meta_path is not None:
            table.asn_meta.update(read_rows(meta_path, asn_meta_row))
        return table

    def lookup_asn(self, address: str) -> int | None:
        return self.prefixes.lookup(address)


def prefix_asn_row(line: str) -> tuple[PrefixKey, int]:
    """(prefix key, asn) of one prefix table row, which needs its asn."""
    key, asn = prefix_row(line)
    if asn is None:
        raise ValueError(f"expected prefix,asn, got {line!r}")
    return key, asn


def asn_meta_row(line: str) -> tuple[int, tuple[str, str, int | None]]:
    """(asn, (organization, country, rank)) of one `asn,org,country,rank` row."""
    fields = [field.strip() for field in line.split(",")]
    if len(fields) != 4:
        raise ValueError(f"expected asn,org,country,rank, got {line!r}")
    asn, org, country, rank = fields
    return (bounded_field(asn, "asn", MAX_ASN),
            (org, country, unsigned_field(rank, "rank") if rank else None))


def enrich(address: str, table: EnrichmentTable) -> AsnInfo:
    """Longest-prefix match; total, falling back to Unknown."""
    asn = table.lookup_asn(address)
    if asn is None:
        return UNKNOWN_ASN
    org, country, rank = table.asn_meta.get(asn, ("Unknown", "??", None))
    return AsnInfo(asn, org, country, rank)


class TopReportRow(Record):
    """One group, its ASN as decimal text or a country code, with its unique
    addresses per port."""

    __slots__ = ("group", "organization", "country", "rank", "port_counts")

    def __init__(self, group: str, organization: str, country: str, rank: int | None,
                 port_counts: Mapping[int, int]) -> None:
        self.group, self.organization, self.country = group, organization, country
        self.rank, self.port_counts = rank, port_counts

    def count(self, port: int) -> int:
        return self.port_counts.get(port, 0)


def top_report(
    records: Iterable[tuple[str, int]],
    table: EnrichmentTable,
    group_by: str = "asn",
    k: int = 10,
) -> list[TopReportRow]:
    """Rank groups by unique addresses, with per-port breakdowns.

    Ties break toward the smaller ASN / lexicographically smaller country.
    """
    if group_by not in ("asn", "country"):
        raise ValueError(f"group_by must be asn or country, got {group_by!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # group -> (its first AsnInfo, its addresses, its addresses per port)
    groups: dict[str, tuple[AsnInfo, set[str], dict[int, set[str]]]] = {}
    for address, port in records:
        info = enrich(address, table)
        group = str(info.asn) if group_by == "asn" else info.country
        if info.asn is None and group_by == "asn":
            group = "unknown"
        entry = groups.get(group)
        if entry is None:
            entry = groups[group] = (info, set(), {})
        entry[1].add(address)
        entry[2].setdefault(port, set()).add(address)

    def sort_key(item):
        group, (_info, addresses, _per_port) = item
        if group_by == "asn":
            tie = (0, int(group)) if group.isdigit() else (1, 0)
        else:
            tie = group
        return -len(addresses), tie

    return [
        TopReportRow(group, info.organization, info.country, info.rank,
                     {p: len(s) for p, s in per_port.items()})
        for group, (info, _addresses, per_port) in sorted(groups.items(), key=sort_key)[:k]
    ]
