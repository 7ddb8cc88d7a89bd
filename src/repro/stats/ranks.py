"""Rank-based statistics, implemented from scratch.

The paper's analysis (§7) is entirely non-parametric: Kendall τ for the
correlation of measures, Kruskal–Wallis for taxon effects.  Both are
implemented here directly (with tie corrections); the test suite
cross-checks them against scipy on random data.
"""

from __future__ import annotations

import math
from typing import Sequence

from .result import TestResult


def rank_with_ties(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Kendall's τ-b rank correlation with tie correction.

    Returns the statistic and a normal-approximation two-sided p-value
    (adequate for n ≥ 10, which all the study's uses satisfy).
    """
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two observations")

    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            product = dx * dy
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1

    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(x)
    n2 = _tie_pairs(y)
    denominator = math.sqrt((n0 - n1) * (n0 - n2))
    if denominator == 0:
        return TestResult("kendall_tau_b", float("nan"), 1.0)
    tau = (concordant - discordant) / denominator

    # normal approximation of the null distribution of tau
    variance = (2 * (2 * n + 5)) / (9 * n * (n - 1))
    z = tau / math.sqrt(variance)
    p = 2 * (1 - _normal_cdf(abs(z)))
    return TestResult(
        "kendall_tau_b",
        tau,
        p,
        details={"concordant": concordant, "discordant": discordant, "z": z},
    )


def _tie_pairs(values: Sequence[float]) -> int:
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def _normal_cdf(z: float) -> float:
    return 0.5 * (1 + math.erf(z / math.sqrt(2)))


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal–Wallis H test over k independent groups, with ties.

    The p-value uses the χ² approximation with k−1 degrees of freedom,
    standard for group sizes ≥ 5 (all taxa qualify).
    """
    from scipy.stats import chi2

    groups = [list(g) for g in groups if len(g) > 0]
    k = len(groups)
    if k < 2:
        raise ValueError("need at least two non-empty groups")
    pooled: list[float] = [v for g in groups for v in g]
    n = len(pooled)
    if n <= k:
        raise ValueError("too few observations")
    ranks = rank_with_ties(pooled)

    h = 0.0
    offset = 0
    for group in groups:
        size = len(group)
        rank_sum = sum(ranks[offset:offset + size])
        h += rank_sum * rank_sum / size
        offset += size
    h = 12 / (n * (n + 1)) * h - 3 * (n + 1)

    # tie correction
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    correction = 1 - tie_term / (n ** 3 - n)
    if correction > 0:
        h /= correction

    p = float(chi2.sf(h, k - 1))
    group_medians = [median(g) for g in groups]
    return TestResult(
        "kruskal_wallis",
        h,
        p,
        details={"df": k - 1, "group_medians": group_medians},
    )


def median(values: Sequence[float]) -> float:
    """Plain sample median (interpolated for even sizes)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def shapiro_wilk(values: Sequence[float]) -> TestResult:
    """Shapiro–Wilk normality test (delegates to scipy)."""
    from scipy.stats import shapiro

    if len(values) < 3:
        raise ValueError("Shapiro-Wilk needs at least 3 observations")
    statistic, p = shapiro(list(values))
    return TestResult("shapiro_wilk", float(statistic), float(p))
