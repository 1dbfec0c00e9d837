"""Dated scan snapshots and longitudinal analyses.

Snapshots are persisted one file per (month, family, port, version) as
line-delimited text, named `YYYY-MM_family_port_version`: append-only,
diff-able, no database. Re-ingesting the same data is idempotent; within a
month, repeated scans collapse by union with positive classifications
winning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InsufficientHistory, MissingTable
from .inputs import PrefixTable, data_lines, prefix_rows
from .options import Key

POSITIVE_LABELS = {"potential_capable", "truly_capable"}
# Labels that mean "answered with MP_CAPABLE at all" (reachable for pruning).
MPCAPABLE_LABELS = POSITIVE_LABELS | {"mirrored_key", "version_mismatch"}


@dataclass(slots=True)
class HostRecord:
    address: str
    classification: str
    sender_key: Key | None = None

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
        address, classification, key = line.rstrip("\n").split(",")
        return cls(address, classification, Key.from_hex(key) if key else None)


@dataclass(slots=True)
class ScanSnapshot:
    """One month of results for a single (family, port, version) scan."""

    date: str  # YYYY-MM
    family: str  # v4 | v6
    port: int
    version: int
    records: dict[str, HostRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        parse_month(self.date)
        if self.family not in ("v4", "v6"):
            raise ValueError(f"family must be v4 or v6, got {self.family}")

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
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def save(self, snapshot: ScanSnapshot) -> Path:
        """Write or merge a snapshot; existing records are unioned in."""
        path = self.root / snapshot.filename()
        if path.exists():
            existing = self._read(path, snapshot)
            for record in snapshot.records.values():
                existing.add(record)
            snapshot = existing
        lines = [
            f"# snapshot {snapshot.date} {snapshot.family} "
            f"port={snapshot.port} version={snapshot.version}"
        ]
        lines += [snapshot.records[a].to_line() for a in sorted(snapshot.records)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _read(self, path: Path, template: ScanSnapshot) -> ScanSnapshot:
        snap = ScanSnapshot(template.date, template.family, template.port, template.version)
        for line in data_lines(path.read_text(encoding="utf-8").splitlines()):
            snap.add(HostRecord.from_line(line))
        return snap

    def load(self, date: str, family: str, port: int, version: int) -> ScanSnapshot:
        snap = ScanSnapshot(date, family, port, version)
        path = self.root / snap.filename()
        if not path.exists():
            raise FileNotFoundError(path)
        return self._read(path, snap)

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
    series: Mapping[str, ScanSnapshot], window_months: int = 3, at_date: str = ""
) -> set[str]:
    """Addresses positive in every month of the trailing window."""
    snaps = _window_snapshots(series, window_months, at_date)
    result = snaps[0].positives()
    for snap in snaps[1:]:
        result &= snap.positives()
    return result


def eligible_for_path_probe(
    series: Mapping[str, ScanSnapshot], at_date: str, window_months: int = 3
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


@dataclass(slots=True)
class OverlapReport:
    both: frozenset[str]
    only_a: frozenset[str]
    only_b: frozenset[str]

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


@dataclass(slots=True)
class MigrationReport:
    added_v1_support: frozenset[str]
    migrated_v0_to_v1: frozenset[str]
    added_v0_support: frozenset[str]
    migrated_v1_to_v0: frozenset[str]


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


@dataclass(frozen=True, slots=True)
class AsnInfo:
    asn: int | None
    organization: str
    country: str
    rank: int | None


UNKNOWN_ASN = AsnInfo(None, "Unknown", "??", None)


class EnrichmentTable:
    """Longest-prefix-match address-to-ASN mapping plus ASN metadata."""

    def __init__(
        self,
        prefix_to_asn: Mapping[str, int] | None = None,
        asn_meta: Mapping[int, tuple[str, str, int | None]] | None = None,
    ):
        self.prefixes = PrefixTable((prefix_to_asn or {}).items())
        self.asn_meta = dict(asn_meta or {})

    @classmethod
    def load(
        cls, prefix_path: str | Path, meta_path: str | Path | None = None
    ) -> "EnrichmentTable":
        """Prefix file: `prefix,asn` lines. Meta file: `asn,org,country,rank`."""
        table = cls()
        with open(prefix_path, encoding="utf-8") as f:
            for prefix, asn in prefix_rows(f):
                if asn is None:
                    raise ValueError(f"expected prefix,asn, got {prefix!r}")
                table.prefixes.add(prefix, asn)
        if meta_path is not None:
            with open(meta_path, encoding="utf-8") as f:
                for line in data_lines(f):
                    asn, org, country, rank = line.split(",")
                    table.asn_meta[int(asn)] = (
                        org.strip(),
                        country.strip(),
                        int(rank) if rank.strip() else None,
                    )
        return table

    def lookup_asn(self, address: str) -> int | None:
        return self.prefixes.lookup(address)


def enrich(address: str, table: EnrichmentTable | None) -> AsnInfo:
    """Longest-prefix match; total, falling back to Unknown."""
    if table is None:
        raise MissingTable("enrichment table not loaded")
    asn = table.lookup_asn(address)
    if asn is None:
        return UNKNOWN_ASN
    org, country, rank = table.asn_meta.get(asn, ("Unknown", "??", None))
    return AsnInfo(asn, org, country, rank)


@dataclass(slots=True)
class TopReportRow:
    group: str  # ASN as decimal text, or country code
    organization: str
    country: str
    rank: int | None
    port_counts: Mapping[int, int]
    total_unique: int

    def count(self, port: int) -> int:
        return self.port_counts.get(port, 0)


def top_report(
    records: Iterable[tuple[str, int]],
    table: EnrichmentTable | None,
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
    addresses: dict[str, set[str]] = {}
    per_port: dict[str, dict[int, set[str]]] = {}
    meta: dict[str, AsnInfo] = {}
    for address, port in records:
        info = enrich(address, table)
        group = str(info.asn) if group_by == "asn" else info.country
        if info.asn is None and group_by == "asn":
            group = "unknown"
        addresses.setdefault(group, set()).add(address)
        per_port.setdefault(group, {}).setdefault(port, set()).add(address)
        meta.setdefault(group, info)

    def sort_key(group: str):
        if group_by == "asn":
            tie = (0, int(group)) if group.isdigit() else (1, 0)
        else:
            tie = group
        return -len(addresses[group]), tie

    rows = []
    for group in sorted(addresses, key=sort_key)[:k]:
        info = meta[group]
        rows.append(
            TopReportRow(
                group=group,
                organization=info.organization,
                country=info.country,
                rank=info.rank,
                port_counts={p: len(s) for p, s in per_port[group].items()},
                total_unique=len(addresses[group]),
            )
        )
    return rows
