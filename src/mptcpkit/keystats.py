"""Hamming-weight analysis of sender's keys.

A genuine MPTCP endpoint draws its 64-bit key uniformly at random, so key
weights follow Binomial(64, 1/2). Mirroring middleboxes echo the scanner's
static key instead, which piles mass onto that key's exact weight bin. The
report measures both signals: exact byte equality with the probe key and
excess mass at the probe key's weight bin, plus a chi-square fit against the
exact binomial reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import EmptyInput
from .inputs import data_lines
from .options import Key

_TWO_64 = 1 << 64


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


@dataclass(slots=True)
class WeightHistogram:
    counts: list[int]  # 65 bins, weight 0..64
    total: int

    def __post_init__(self) -> None:
        if len(self.counts) != 65:
            raise ValueError("weight histogram needs 65 bins")
        if sum(self.counts) != self.total:
            raise ValueError("histogram counts do not sum to total")

    @classmethod
    def from_keys(cls, keys: Iterable[Key | int]) -> "WeightHistogram":
        counts = [0] * 65
        total = 0
        for key in keys:
            counts[_as_int(key).bit_count()] += 1
            total += 1
        return cls(counts, total)


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


@dataclass(slots=True)
class EntropyReport:
    histogram: WeightHistogram
    probe_key_weight: int
    mirrored_exact_count: int
    excess_at_probe_weight: float
    chi_square: float
    p_value: float


def pooled_chi_square(
    counts: list[int], expected: list[float], min_expected: float = 5.0
) -> tuple[float, float, int]:
    """Chi-square statistic with tail bins pooled to expected >= min_expected.

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
        if exp_acc >= min_expected:
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


def analyze_keys(keys: list[Key | int], probe_key: Key | int) -> EntropyReport:
    """Full entropy report for a batch of observed sender's keys."""
    if not keys:
        raise EmptyInput("no keys to analyze")
    probe_value = _as_int(probe_key)
    histogram = WeightHistogram.from_keys(keys)
    mirrored = sum(1 for k in keys if _as_int(k) == probe_value)
    expected = expected_counts(histogram.total)
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


def read_keys(lines: Iterable[str]) -> list[Key]:
    """Read one hex key per line, `#` comments allowed."""
    return [Key.from_hex(line) for line in data_lines(lines)]
