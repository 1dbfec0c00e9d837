import csv
import io
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit.errors import EmptyInput
from mptcpkit.keystats import (
    WeightHistogram,
    analyze_keys,
    chi_square_sf,
    expected_counts,
    pooled_chi_square,
    read_keys,
    write_report,
)
from mptcpkit.options import Key

PROBE = Key(0x000000000000FFFF)  # weight 16


def hamming_weight(key: Key | int) -> int:
    """Reference: number of set bits in a 64-bit key."""
    return (key.value if isinstance(key, Key) else int(key)).bit_count()


class TestHammingWeight:
    def test_zero(self):
        assert hamming_weight(Key(0)) == 0

    def test_all_ones(self):
        assert hamming_weight(Key(0xFFFFFFFFFFFFFFFF)) == 64

    def test_probe_key_weight_16(self):
        assert hamming_weight(PROBE) == 16

    def test_accepts_plain_ints(self):
        assert hamming_weight(0b1011) == 3

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_matches_bit_enumeration(self, value):
        # independent oracle: count bits one position at a time
        expected = sum((value >> i) & 1 for i in range(64))
        assert hamming_weight(Key(value)) == expected
        assert WeightHistogram.from_keys([Key(value), value]).counts[expected] == 2


class TestExpectedCounts:
    def test_center_bin_value(self):
        # exact rational oracle: 10000 * C(64,32) / 2^64
        exact = Fraction(10000) * math.comb(64, 32) / Fraction(1 << 64)
        got = expected_counts(10000)[32]
        assert abs(got - float(exact)) < 1e-9
        assert abs(got - 993.46) < 0.01

    def test_tail_bin_value(self):
        got = expected_counts(10000)[0]
        assert abs(got - 10000 / (1 << 64)) < 1e-25
        assert got == pytest.approx(5.4e-16, rel=0.01)

    def test_symmetry(self):
        exp = expected_counts(12345)
        for w in range(65):
            assert exp[w] == pytest.approx(exp[64 - w], rel=1e-12)

    def test_sums_to_total(self):
        for total in (1, 10, 100000):
            assert sum(expected_counts(total)) == pytest.approx(total, rel=1e-9)

    def test_requires_positive_total(self):
        with pytest.raises(EmptyInput):
            expected_counts(0)


def uniform_keys(n, seed):
    rng = random.Random(seed)
    return [Key(rng.getrandbits(64)) for _ in range(n)]


class TestAnalyzeKeys:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            analyze_keys([], PROBE)

    def test_singleton_mirror(self):
        report = analyze_keys([PROBE], PROBE)
        assert report.mirrored_exact_count == 1
        assert report.histogram.total == 1
        assert report.probe_key_weight == 16

    def test_histogram_conserves_total(self):
        keys = uniform_keys(5000, seed=1)
        report = analyze_keys(keys, PROBE)
        assert sum(report.histogram.counts) == 5000

    def test_mixture_70_30(self):
        keys = uniform_keys(70000, seed=2) + [PROBE] * 30000
        report = analyze_keys(keys, PROBE)
        assert report.mirrored_exact_count == 30000
        assert abs(report.excess_at_probe_weight - 0.30) <= 0.02
        assert report.p_value < 1e-6  # mixture is wildly non-binomial

    def test_pure_mirror_excess(self):
        report = analyze_keys([PROBE] * 1000, PROBE)
        expected_excess = 1 - math.comb(64, 16) / (1 << 64)
        assert report.excess_at_probe_weight == pytest.approx(expected_excess, abs=1e-6)

    def test_permutation_invariant(self):
        keys = uniform_keys(2000, seed=3) + [PROBE] * 50
        shuffled = list(keys)
        random.Random(9).shuffle(shuffled)
        a = analyze_keys(keys, PROBE)
        b = analyze_keys(shuffled, PROBE)
        assert a == b

    def test_uniform_keys_fit_binomial(self):
        report = analyze_keys(uniform_keys(100000, seed=4), PROBE)
        assert report.p_value > 0.01
        assert report.excess_at_probe_weight < 0.01
        assert report.mirrored_exact_count == 0


class TestPooledChiSquare:
    def test_tail_bins_pooled(self):
        expected = expected_counts(10000)
        counts = [round(e) for e in expected]
        counts[32] += 10000 - sum(counts)
        _stat, _p, bins = pooled_chi_square(counts, expected)
        assert 2 <= bins < 65  # tails collapsed

    def test_degenerate_single_bin(self):
        expected = expected_counts(1)
        stat, p, _bins = pooled_chi_square([1] + [0] * 64, expected)
        assert stat == 0.0
        assert p == 1.0

    def test_perfect_fit_high_p(self):
        expected = expected_counts(1_000_000)
        counts = [round(e) for e in expected]
        counts[32] += 1_000_000 - sum(counts)
        _stat, p, _bins = pooled_chi_square(counts, expected)
        assert p > 0.5


def scipy_reference():
    """Frozen scipy chi2.sf values: (df, x, sf) rows, see the file header."""
    path = Path(__file__).with_name("chi2_sf_reference.csv")
    with path.open(encoding="utf-8") as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        return [(int(r["df"]), float(r["x"]), float(r["sf"])) for r in rows]


class TestChiSquareTail:
    def test_reference_covers_every_df(self):
        assert {df for df, _x, _sf in scipy_reference()} == set(range(1, 65))

    def test_matches_scipy_reference(self):
        for df, x, want in scipy_reference():
            got = chi_square_sf(x, df)
            if want < sys.float_info.min:
                # scipy underflows to zero below the normal range; no
                # relative comparison is meaningful there
                assert got < sys.float_info.min, (df, x, got)
            else:
                assert abs(got - want) <= 1e-12 * want, (df, x, got, want)

    def test_closed_forms_for_small_df(self):
        for x in (0.01, 1.0, 7.5, 40.0):
            assert chi_square_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)

    def test_normal_tail_past_exp_underflow(self):
        # e^{-x/2} is 0.0 in double precision here, the df=64 tail is not
        assert math.exp(-1500 / 2) == 0.0
        assert chi_square_sf(1500.0, 64) > sys.float_info.min

    def test_non_positive_x_is_certain(self):
        assert chi_square_sf(0.0, 5) == 1.0
        assert chi_square_sf(-1.0, 5) == 1.0


class TestReportExport:
    def test_export_contains_histogram(self):
        keys = uniform_keys(1000, seed=5) + [PROBE] * 400
        report = analyze_keys(keys, PROBE)
        buf = io.StringIO()
        write_report(report, buf)
        text = buf.getvalue()
        lines = text.strip().splitlines()
        assert "# total=1400" in text
        assert "# mirrored_exact_count=400" in text
        assert lines[-1].startswith("64,")
        data_rows = [l for l in lines if l and not l.startswith(("#", "weight"))]
        assert len(data_rows) == 65

    def test_read_keys(self):
        lines = ["# comment", "000000000000ffff", "", "deadbeefdeadbeef  # trailer"]
        keys = read_keys(lines)
        assert keys == [PROBE, Key(0xDEADBEEFDEADBEEF)]


def test_histogram_validation():
    with pytest.raises(ValueError):
        WeightHistogram([0] * 64, 0)
    with pytest.raises(ValueError):
        WeightHistogram([1] + [0] * 64, 2)
