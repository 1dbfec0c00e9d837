import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.errors import InsufficientHistory
from mptcpkit.options import Key
from mptcpkit.store import (
    EnrichmentTable,
    HostRecord,
    MigrationReport,
    ScanSnapshot,
    SnapshotStore,
    TopReportRow,
    consistent_hosts,
    eligible_for_path_probe,
    enrich,
    migration_report,
    month_shift,
    parse_month,
    port_overlap,
    top_report,
    version_overlap,
)


def snap(date, addresses, classification="potential_capable", port=80, version=0):
    snapshot = ScanSnapshot(date, "v4", port, version)
    for address in addresses:
        snapshot.add(HostRecord(address, classification))
    return snapshot


def series(*snaps):
    return {s.date: s for s in snaps}


class TestMonths:
    def test_shift(self):
        assert month_shift("2021-03", -1) == "2021-02"
        assert month_shift("2021-01", -1) == "2020-12"
        assert month_shift("2021-12", 1) == "2022-01"
        assert month_shift("2021-06", -3) == "2021-03"

    def test_bad_month_rejected(self):
        with pytest.raises(ValueError):
            ScanSnapshot("2021-13", "v4", 80, 0)
        with pytest.raises(ValueError):
            ScanSnapshot("2021-01", "v5", 80, 0)

    def test_no_month_before_year_one(self):
        assert month_shift("0001-03", -2) == "0001-01"
        with pytest.raises(ValueError, match="^0001-03 shifted by -3 months is before 0001-01$"):
            month_shift("0001-03", -3)
        with pytest.raises(ValueError, match="^2021-01 shifted by -24241 months is before"):
            month_shift("2021-01", -24241)
        for date in ("0000-12", "0000-01"):
            with pytest.raises(ValueError, match="expected YYYY-MM"):
                parse_month(date)

    @pytest.mark.parametrize(
        "date", ["2021-1", "+2021-01", "2021- 1", "2021-01 ", "\uff12\uff10\uff12\uff11-01", "21-01"]
    )
    def test_only_canonical_months(self, date):
        with pytest.raises(ValueError, match="expected YYYY-MM"):
            ScanSnapshot(date, "v4", 80, 0)
        with pytest.raises(ValueError, match="expected YYYY-MM"):
            month_shift(date, -1)


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snapshot = snap("2021-10", ["10.0.0.1", "10.0.0.2"])
        snapshot.add(HostRecord("10.0.0.3", "mirrored_key", Key(0xFFFF)))
        path = store.save(snapshot)
        assert path.name == "2021-10_v4_80_0"
        loaded = store.load_series("v4", 80, 0)["2021-10"]
        assert loaded.records.keys() == snapshot.records.keys()
        assert loaded.records["10.0.0.3"].sender_key == Key(0xFFFF)

    def test_reingest_idempotent(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snapshot = snap("2021-10", ["10.0.0.1", "10.0.0.2"])
        store.save(snapshot)
        first = (tmp_path / snapshot.filename()).read_text()
        store.save(snap("2021-10", ["10.0.0.1", "10.0.0.2"]))
        assert (tmp_path / snapshot.filename()).read_text() == first

    def test_month_merge_unions_and_keeps_positive(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(snap("2021-10", ["10.0.0.1"]))
        later = ScanSnapshot("2021-10", "v4", 80, 0)
        later.add(HostRecord("10.0.0.1", "no_response"))
        later.add(HostRecord("10.0.0.9", "potential_capable"))
        store.save(later)
        merged = store.load_series("v4", 80, 0)["2021-10"]
        assert merged.records["10.0.0.1"].classification == "potential_capable"
        assert "10.0.0.9" in merged.records

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path)
        path = store.save(snap("2021-10", ["10.0.0.1", "10.0.0.2"]))
        before = path.read_bytes()
        real_to_line = HostRecord.to_line
        written = []

        def to_line(record):
            if written:
                raise OSError("no space left on device")
            written.append(record)
            return real_to_line(record)

        monkeypatch.setattr(HostRecord, "to_line", to_line)
        with pytest.raises(OSError):
            store.save(snap("2021-10", ["10.0.0.3"]))
        assert written  # the failure came after a row was written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_merge_save_keeps_the_permission_bits(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save(snap("2021-10", ["10.0.0.1"]))
        path.chmod(0o600)
        store.save(snap("2021-10", ["10.0.0.2"]))
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert store.load_series("v4", 80, 0)["2021-10"].records.keys() == {
            "10.0.0.1", "10.0.0.2"}

    def test_load_series(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for date in ("2021-08", "2021-09", "2021-10"):
            store.save(snap(date, ["10.0.0.1"]))
        store.save(snap("2021-10", ["10.0.0.2"], port=443))
        loaded = store.load_series("v4", 80, 0)
        assert sorted(loaded) == ["2021-08", "2021-09", "2021-10"]


class TestConsistentHosts:
    def test_present_all_three_months(self):
        s = series(
            snap("2021-08", ["a", "b"]),
            snap("2021-09", ["a", "c"]),
            snap("2021-10", ["a", "b", "c"]),
        )
        assert consistent_hosts(s, 3, "2021-10") == {"a"}

    def test_gap_excluded(self):
        s = series(
            snap("2021-08", ["a"]),
            snap("2021-09", []),
            snap("2021-10", ["a"]),
        )
        assert consistent_hosts(s, 3, "2021-10") == set()

    def test_missing_month_raises(self):
        s = series(snap("2021-10", ["a"]))
        with pytest.raises(InsufficientHistory):
            consistent_hosts(s, 3, "2021-10")
        with pytest.raises(InsufficientHistory):
            consistent_hosts({}, 3, "2021-10")

    def test_window_longer_than_the_series_is_refused_in_one_line(self):
        s = series(snap("2021-01", ["a"]))
        for select in (consistent_hosts, eligible_for_path_probe):
            with pytest.raises(InsufficientHistory) as raised:
                select(s, window_months=30000, at_date="2021-01")
            assert str(raised.value) == "window of 30000 months is longer than the 1-month series"
        with pytest.raises(ValueError, match="expected YYYY-MM"):  # a bad month still comes first
            consistent_hosts(s, 30000, "2021-1")

    def test_month_missing_inside_a_long_enough_series_is_named(self):
        s = series(snap("2021-08", ["a"]), snap("2021-10", ["a"]), snap("2021-11", ["a"]))
        for select in (consistent_hosts, eligible_for_path_probe):
            with pytest.raises(InsufficientHistory, match="^missing snapshots for 2021-09$"):
                select(s, window_months=3, at_date="2021-11")

    def test_window_of_no_months_is_refused(self):
        s = series(snap("2021-10", ["a"]))
        for select in (consistent_hosts, eligible_for_path_probe):
            with pytest.raises(ValueError, match="^window must be >= 1 month$"):
                select(s, window_months=0, at_date="2021-10")

    def test_window_one_equals_latest_positives(self):
        latest = snap("2021-10", ["a", "b"])
        latest.add(HostRecord("z", "mirrored_key"))
        s = series(snap("2021-09", ["q"]), latest)
        assert consistent_hosts(s, 1, "2021-10") == latest.positives() == {"a", "b"}

    def test_negative_classifications_not_positive(self):
        s = series(snap("2021-10", ["a"], classification="mirrored_key"))
        assert consistent_hosts(s, 1, "2021-10") == set()


class TestEligibleForPathProbe:
    def build(self, monthly):
        snaps = []
        for date, entries in monthly.items():
            snapshot = ScanSnapshot(date, "v4", 80, 0)
            for address, classification in entries:
                snapshot.add(HostRecord(address, classification))
            snaps.append(snapshot)
        return series(*snaps)

    def test_reachable_with_one_different_key(self):
        s = self.build({
            "2021-10": [("a", "mirrored_key")],
            "2021-11": [("a", "potential_capable")],
            "2021-12": [("a", "mirrored_key")],
        })
        assert eligible_for_path_probe(s, 3, "2021-12") == {"a"}

    def test_always_mirrored_excluded(self):
        s = self.build({
            "2021-10": [("a", "mirrored_key")],
            "2021-11": [("a", "mirrored_key")],
            "2021-12": [("a", "mirrored_key")],
        })
        assert eligible_for_path_probe(s, 3, "2021-12") == set()

    def test_transient_host_excluded(self):
        s = self.build({
            "2021-10": [("a", "potential_capable")],
            "2021-11": [],
            "2021-12": [("a", "potential_capable")],
        })
        assert eligible_for_path_probe(s, 3, "2021-12") == set()


class TestOverlaps:
    def test_set_algebra(self):
        report = port_overlap({"x", "y"}, {"y", "z"})
        assert report.both == {"y"}
        assert report.only_a == {"x"}
        assert report.only_b == {"z"}

    def test_disjoint(self):
        report = port_overlap({"x"}, {"z"})
        assert report.both == frozenset()

    def test_empty(self):
        report = version_overlap(set(), set())
        assert report.fractions() == (0.0, 0.0, 0.0)

    def test_fractions_over_union(self):
        report = port_overlap({"a", "b", "c"}, {"c", "d"})
        both, only_a, only_b = report.fractions()
        assert both == 1 / 4 and only_a == 2 / 4 and only_b == 1 / 4

    @given(
        st.sets(st.integers(0, 50)),
        st.sets(st.integers(0, 50)),
    )
    @settings(max_examples=200)
    def test_partition_sums_to_union(self, a, b):
        a = {str(x) for x in a}
        b = {str(x) for x in b}
        report = port_overlap(a, b)
        assert report.union_size == len(a | b)
        assert sum(report.fractions()) == pytest.approx(1.0) or not (a | b)


class TestMigration:
    def test_added_v1_support(self):
        report = migration_report(({"h"}, set()), ({"h"}, {"h"}))
        assert report.added_v1_support == {"h"}
        assert report.migrated_v0_to_v1 == frozenset()

    def test_migrated_v1_to_v0(self):
        report = migration_report((set(), {"h"}), ({"h"}, set()))
        assert report.migrated_v1_to_v0 == {"h"}

    def test_unchanged_host_counted_nowhere(self):
        report = migration_report(({"h"}, set()), ({"h"}, set()))
        assert all(
            not getattr(report, name)
            for name in (
                "added_v1_support", "migrated_v0_to_v1",
                "added_v0_support", "migrated_v1_to_v0",
            )
        )

    def test_dual_stack_host_not_added(self):
        report = migration_report(({"h"}, {"h"}), ({"h"}, {"h"}))
        assert report.added_v1_support == frozenset()

    @given(
        st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)),
        st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)),
    )
    @settings(max_examples=200)
    def test_categories_pairwise_disjoint(self, pv0, pv1, cv0, cv1):
        report = migration_report(
            ({str(x) for x in pv0}, {str(x) for x in pv1}),
            ({str(x) for x in cv0}, {str(x) for x in cv1}),
        )
        groups = [
            report.added_v1_support, report.migrated_v0_to_v1,
            report.added_v0_support, report.migrated_v1_to_v0,
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (groups[i] & groups[j])


class TestEnrichment:
    def table(self):
        return EnrichmentTable(
            ["10.0.0.0/16,100", "10.0.1.0/24,200", "2001:db8::/32,300"],
            {100: ("BigNet", "US", 5), 200: ("SmallNet", "DE", 9)},
        )

    def test_lpm_prefers_longer_prefix(self):
        assert enrich("10.0.1.7", self.table()).asn == 200
        assert enrich("10.0.2.7", self.table()).asn == 100

    def test_v6_lookup(self):
        info = enrich("2001:db8::42", self.table())
        assert info.asn == 300
        assert info.organization == "Unknown"

    def test_miss_is_unknown(self):
        info = enrich("192.168.0.1", self.table())
        assert info.asn is None
        assert info.organization == "Unknown"

    def test_load_from_files(self, tmp_path):
        prefixes = tmp_path / "prefixes.csv"
        prefixes.write_text("10.0.0.0/8,64500\n# comment\n2001:db8::/32,64501\n")
        meta = tmp_path / "meta.csv"
        meta.write_text("64500,ExampleNet,US,123\n64501,SixNet,DE,\n")
        table = EnrichmentTable.load(prefixes, meta)
        info = enrich("10.1.2.3", table)
        assert info.asn == 64500
        assert info.rank == 123
        assert enrich("2001:db8::1", table).rank is None


class TestTopReport:
    def table(self):
        return EnrichmentTable(
            ["10.5.0.0/16,5", "10.3.0.0/16,3", "10.4.0.0/16,4"],
            {5: ("Five", "US", 1), 3: ("Three", "DE", 2), 4: ("Four", "US", 3)},
        )

    def test_descending_by_unique_addresses(self):
        records = [(f"10.5.0.{i}", 80) for i in range(5)]
        records += [(f"10.3.0.{i}", 80) for i in range(3)]
        rows = top_report(records, self.table(), "asn", k=10)
        assert [r.group for r in rows] == ["5", "3"]
        assert rows[0].count(80) == 5

    def test_tie_breaks_to_lower_asn(self):
        records = [(f"10.4.0.{i}", 80) for i in range(4)]
        records += [(f"10.3.0.{i}", 443) for i in range(4)]
        rows = top_report(records, self.table(), "asn", k=10)
        assert [r.group for r in rows] == ["3", "4"]

    def test_group_by_country(self):
        records = [("10.5.0.1", 80), ("10.4.0.1", 80), ("10.3.0.1", 80)]
        rows = top_report(records, self.table(), "country", k=10)
        assert rows[0].group == "US"
        assert rows[0].count(80) == 2

    def test_k_truncates(self):
        records = [("10.5.0.1", 80), ("10.4.0.1", 80), ("10.3.0.1", 80)]
        assert len(top_report(records, self.table(), "asn", k=2)) == 2

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        records = [("10.5.0.1", 80), ("10.4.0.1", 80)]
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_report(records, self.table(), "asn", k=k)

    def test_same_address_on_both_ports_counts_once(self):
        records = [("10.4.0.1", 80), ("10.4.0.1", 443), ("10.5.0.1", 80), ("10.5.0.2", 443)]
        rows = top_report(records, self.table(), "asn", k=2)
        # two hosts rank above one; counted twice, ASN 4 would tie and win
        assert [r.group for r in rows] == ["5", "4"]
        assert rows[1].count(80) == 1 and rows[1].count(443) == 1

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError, match="^group_by must be asn or country, got 'x'$"):
            top_report([("10.5.0.1", 80)], self.table(), group_by="x")

    @settings(max_examples=300, deadline=None)
    @given(
        prefixes=st.dictionaries(
            st.sampled_from(["10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.1.1.0/24",
                             "2001:db8::/32", "2001:db8:1::/48", "2001:db8:2::/48"]),
            st.integers(1, 6),
        ),
        meta=st.dictionaries(
            st.integers(1, 6),
            st.tuples(st.sampled_from(["Apple", "Akamai", "Unknown"]),
                      st.sampled_from(["US", "DE", "JP", "??"]),
                      st.none() | st.integers(1, 50)),
        ),
        records=st.lists(st.tuples(
            st.one_of(
                st.builds("10.{}.{}.{}".format, st.integers(0, 3), st.integers(0, 2),
                          st.integers(0, 3)),
                st.builds("2001:db8:{:x}::{:x}".format, st.integers(0, 3), st.integers(0, 3)),
                st.builds("192.0.2.{}".format, st.integers(0, 3)),
            ),
            st.sampled_from([80, 443, 8080]),
        ), max_size=60),
        group_by=st.sampled_from(["asn", "country"]),
        k=st.integers(1, 12),
    )
    def test_one_group_table_equals_the_reference(self, prefixes, meta, records, group_by, k):
        table = EnrichmentTable([f"{p},{asn}" for p, asn in prefixes.items()], meta)
        assert (top_report(records, table, group_by, k)
                == reference_top_report(records, table, group_by, k))


def reference_top_report(records, table, group_by, k):
    """`top_report` as three dicts kept in lockstep: the reference for the
    one table of groups."""
    addresses: dict[str, set[str]] = {}
    per_port: dict[str, dict[int, set[str]]] = {}
    meta = {}
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
            )
        )
    return rows
