"""Hamming-weight analysis of sender's keys.

A genuine MPTCP endpoint draws its 64-bit key uniformly at random, so key
weights follow Binomial(64, 1/2). Mirroring middleboxes echo the scanner's
static key instead, which piles mass onto that key's exact weight bin. The
report measures both signals: exact byte equality with the probe key and
excess mass at the probe key's weight bin, plus a chi-square fit against the
exact binomial reference. `analyze_keys` reads its keys in one pass and keeps
only the 65 bin counts and the count of keys equal to the probe key, so its
caller can hand them over one at a time, as they are read.
"""

from __future__ import annotations

import math
from typing import IO, Iterable

from .errors import EmptyInput
from .options import Key
from .record import Record

_TWO_64 = 1 << 64
# The expected count each pooled chi-square bin reaches.
MIN_EXPECTED = 5.0


def _as_int(key: Key | int) -> int:
    return key.value if isinstance(key, Key) else int(key)


def expected_counts(total: int) -> list[float]:
    """Expected weight-bin counts for `total` uniform keys: Binomial(64, 1/2).

    Exact integer binomial coefficients, so the tails are right even where
    the usual normal approximation N(32, 16) breaks down.
    """
    if total < 1:
        raise EmptyInput("total must be >= 1")
    return [total * math.comb(64, w) / _TWO_64 for w in range(65)]


class WeightHistogram(Record):
    """Key counts in 65 bins, by Hamming weight 0..64, and their total."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: list[int], total: int) -> None:
        if len(counts) != 65:
            raise ValueError("weight histogram needs 65 bins")
        if sum(counts) != total:
            raise ValueError("histogram counts do not sum to total")
        self.counts, self.total = counts, total


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-square distribution with integer df >= 1.

    Closed form: for even df a finite Poisson sum, for odd df erfc plus a
    finite sum. Each term e^{-x/2} (x/2)^a / Gamma(a + 1) is taken in log
    space, because e^{-x/2} alone underflows near x = 1,490 while the tail
    is still a normal double.
    """
    if x <= 0:
        return 1.0
    y = x / 2
    log_y = math.log(y)
    a0 = (df % 2) / 2
    head = [math.erfc(math.sqrt(y))] if df % 2 else []
    terms = [math.exp((a0 + i) * log_y - y - math.lgamma(a0 + i + 1)) for i in range(df // 2)]
    return math.fsum(head + terms)


class EntropyReport(Record):
    __slots__ = ("histogram", "probe_key_weight", "mirrored_exact_count", "excess_at_probe_weight",
                 "chi_square", "p_value")

    def __init__(self, histogram: WeightHistogram, probe_key_weight: int,
                 mirrored_exact_count: int, excess_at_probe_weight: float, chi_square: float,
                 p_value: float) -> None:
        self.histogram, self.probe_key_weight = histogram, probe_key_weight
        self.mirrored_exact_count = mirrored_exact_count
        self.excess_at_probe_weight = excess_at_probe_weight
        self.chi_square, self.p_value = chi_square, p_value


def pooled_chi_square(counts: list[int], expected: list[float]) -> tuple[float, float, int]:
    """Chi-square statistic with tail bins pooled to expected >= MIN_EXPECTED.

    Returns (statistic, p_value, pooled_bin_count); degrees of freedom are
    pooled bins minus one. With fewer than two pooled bins there is nothing
    to test and p defaults to 1.
    """
    bins: list[tuple[float, float]] = []
    obs_acc = 0.0
    exp_acc = 0.0
    for obs, exp in zip(counts, expected):
        obs_acc += obs
        exp_acc += exp
        if exp_acc >= MIN_EXPECTED:
            bins.append((obs_acc, exp_acc))
            obs_acc = exp_acc = 0.0
    if exp_acc > 0 or obs_acc > 0:
        if bins:
            last_obs, last_exp = bins[-1]
            bins[-1] = (last_obs + obs_acc, last_exp + exp_acc)
        else:
            bins.append((obs_acc, exp_acc))
    if len(bins) < 2:
        return 0.0, 1.0, len(bins)
    stat = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    p_value = chi_square_sf(stat, len(bins) - 1)
    return stat, p_value, len(bins)


def analyze_keys(keys: Iterable[Key | int], probe_key: Key | int) -> EntropyReport:
    """Full entropy report for observed sender's keys, read in one pass: no
    key is held once its weight and its match with the probe key are counted."""
    probe_value = _as_int(probe_key)
    counts = [0] * 65
    mirrored = 0
    for key in keys:
        value = _as_int(key)
        counts[value.bit_count()] += 1
        mirrored += value == probe_value
    total = sum(counts)
    if not total:
        raise EmptyInput("no keys to analyze")
    histogram = WeightHistogram(counts, total)
    expected = expected_counts(total)
    w_star = probe_value.bit_count()
    excess = max(
        0.0, (histogram.counts[w_star] - expected[w_star]) / histogram.total
    )
    stat, p_value, _bins = pooled_chi_square(histogram.counts, expected)
    return EntropyReport(
        histogram=histogram,
        probe_key_weight=w_star,
        mirrored_exact_count=mirrored,
        excess_at_probe_weight=excess,
        chi_square=stat,
        p_value=p_value,
    )


def write_report(report: EntropyReport, f: IO[str]) -> None:
    """Export as structured text: summary header plus the 65-bin histogram."""
    f.write(f"# total={report.histogram.total}\n")
    f.write(f"# probe_key_weight={report.probe_key_weight}\n")
    f.write(f"# mirrored_exact_count={report.mirrored_exact_count}\n")
    f.write(f"# excess_at_probe_weight={report.excess_at_probe_weight:.6f}\n")
    f.write(f"# chi_square={report.chi_square:.6f}\n")
    f.write(f"# p_value={report.p_value:.6g}\n")
    f.write("weight,observed,expected\n")
    expected = expected_counts(report.histogram.total)
    for w in range(65):
        f.write(f"{w},{report.histogram.counts[w]},{expected[w]:.6f}\n")
