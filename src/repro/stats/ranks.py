"""Rank-based statistics and the normality test, implemented from scratch.

The paper's analysis (§7) is entirely non-parametric: Kendall τ for the
correlation of measures, Kruskal–Wallis for taxon effects, after
Shapiro–Wilk has found no measure normal.  All three are implemented
here directly (with tie corrections); the test suite cross-checks them
against scipy on random and degenerate data.
"""

from __future__ import annotations

import math
from typing import Sequence

from .distributions import chi2_sf, normal_ppf, normal_sf
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
    p = 2 * normal_sf(abs(z))
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


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal–Wallis H test over k independent groups, with ties.

    The p-value uses the χ² approximation with k−1 degrees of freedom,
    standard for group sizes ≥ 5 (all taxa qualify).
    """
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

    p = chi2_sf(h, k - 1)
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


_SW_SMALL = 1e-19
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.5440, -0.39978, 0.025054, -0.0006714)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)


def shapiro_wilk(values: Sequence[float]) -> TestResult:
    """Shapiro–Wilk normality test: Royston's algorithm AS R94.

    W is exact; its p-value uses Royston's normalising transformations
    (exact for n = 3, a small-sample branch for n ≤ 11), which are
    calibrated for n ≤ 5000.  Zero-range data give (1.0, 1.0) with
    ``details["zero_range"]`` set.
    """
    n = len(values)
    if n < 3:
        raise ValueError("Shapiro-Wilk needs at least 3 observations")
    # W is shift-invariant; centring on a middle data value keeps large
    # offsets from swallowing the spread.  The input's middle element is
    # the one scipy subtracts (gh-15777), so both see the same numbers.
    centre = float(values[n // 2])
    x = sorted(float(v) - centre for v in values)
    spread = x[-1] - x[0]
    if spread < _SW_SMALL:
        return TestResult(
            "shapiro_wilk", 1.0, 1.0, details={"zero_range": True}
        )
    w1 = _sw_one_minus_w([v / spread for v in x], _sw_coefficients(n))
    return TestResult("shapiro_wilk", 1.0 - w1, _sw_p_value(n, w1))


def _poly(coefficients: Sequence[float], x: float) -> float:
    """c0 + c1·x + c2·x² + …, in AS 181's evaluation order."""
    result = 0.0
    for c in reversed(coefficients[1:]):
        result = (result + c) * x
    return coefficients[0] + result


def _sw_coefficients(n: int) -> list[float]:
    """The weights a_1…a_{n//2} of the order statistics, a_1 the extremes'."""
    if n == 3:
        return [math.sqrt(0.5)]
    an25 = n + 0.25
    m = [normal_ppf((i - 0.375) / an25) for i in range(1, n // 2 + 1)]
    summ2 = 2.0 * sum(v * v for v in m)
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
    if n > 5:
        a2 = -m[1] / ssumm2 + _poly(_SW_C2, rsn)
        fac = math.sqrt(
            (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2)
        )
        head = [a1, a2]
    else:
        fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
        head = [a1]
    return head + [-v / fac for v in m[len(head):]]


def _sw_one_minus_w(x: list[float], a: list[float]) -> float:
    """1 − W: one minus the squared correlation of sorted x with the weights.

    Taken as (√(SS_a·SS_x) − S_ax)(√(SS_a·SS_x) + S_ax) / (SS_a·SS_x) to
    avoid the rounding loss of forming W first; never below 0.
    """
    n = len(x)
    weights = [-c for c in a] + [0.0] * (n - 2 * len(a)) + a[::-1]
    mean_a = sum(weights) / n
    mean_x = sum(x) / n
    ssa = ssx = sax = 0.0
    for weight, value in zip(weights, x):
        da = weight - mean_a
        dx = value - mean_x
        ssa += da * da
        ssx += dx * dx
        sax += da * dx
    ssassx = math.sqrt(ssa * ssx)
    return max(0.0, (ssassx - sax) * (ssassx + sax) / (ssa * ssx))


def _sw_p_value(n: int, w1: float) -> float:
    if w1 == 0.0:
        return 1.0  # W = 1: the sample fits the weights exactly
    if n == 3:
        # exact: (6/π)(asin √W − π/3)
        angle = math.asin(math.sqrt(1.0 - w1))
        return max(0.0, 6.0 / math.pi * (angle - math.pi / 3))
    y = math.log(w1)
    if n <= 11:
        gamma = _poly(_SW_G, n)
        if y >= gamma:
            return _SW_SMALL
        y = -math.log(gamma - y)
        mean = _poly(_SW_C3, n)
        sd = math.exp(_poly(_SW_C4, n))
    else:
        log_n = math.log(n)
        mean = _poly(_SW_C5, log_n)
        sd = math.exp(_poly(_SW_C6, log_n))
    return normal_sf((y - mean) / sd)
