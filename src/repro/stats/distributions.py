"""Tail probabilities and quantiles the §7 tests need, in the stdlib.

* ``normal_sf``: the upper tail of the standard normal, via ``erfc`` so
  it keeps full relative precision far into the tail;
* ``normal_ppf``: algorithm AS 111 (Beasley & Springer, 1977), the
  normal quantile Royston's Shapiro–Wilk coefficients are defined with;
* ``chi2_sf``: the χ² survival function for integer degrees of freedom,
  in closed form.

``tests/test_stats_oracle.py`` holds the χ² tail, and the Shapiro–Wilk
W and p built on the other two, to scipy.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / _SQRT2)


# AS 111 coefficients
_A = (2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637)
_B = (-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833)
_C = (-2.78718931138, -2.29796479134, 4.85014127135, 2.32121276858)
_D = (3.54388924762, 1.63706781897)


def normal_ppf(p: float) -> float:
    """The standard normal quantile of ``p`` by AS 111.

    Its error is about 3e-9 for 0.08 ≤ p ≤ 0.92 and stays below 1e-6 out
    to p = 1e-4.  This is deliberately not
    ``statistics.NormalDist().inv_cdf``: Royston's Shapiro–Wilk
    coefficients are defined through this approximation, and scipy
    computes them with it too.  ``p`` outside (0, 1) raises
    ``ValueError``.
    """
    q = p - 0.5
    if abs(q) <= 0.42:
        r = q * q
        return q * (((_A[3] * r + _A[2]) * r + _A[1]) * r + _A[0]) / (
            (((_B[3] * r + _B[2]) * r + _B[1]) * r + _B[0]) * r + 1.0
        )
    r = math.sqrt(-math.log(1.0 - p if q > 0 else p))
    value = (((_C[3] * r + _C[2]) * r + _C[1]) * r + _C[0]) / (
        (_D[1] * r + _D[0]) * r + 1.0
    )
    return value if q > 0 else -value


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ χ² with integer ``df`` ≥ 1.

    With h = x/2, the upper tail is the finite Poisson-type series
    Σ_k e^{-h} h^k / Γ(k+1) over k = 0, 1, …, df/2 − 1 for even ``df``,
    and erfc(√h) plus the same sum over k = ½, 3/2, …, df/2 − 1 for odd
    ``df``.  Every term is positive and taken in log space, so the tail
    never comes from ``1 − cdf`` and does not underflow before the
    answer does.
    """
    if df < 1 or df != int(df):
        raise ValueError("df must be a positive integer")
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    half = int(df) // 2
    if df % 2:
        head, powers = math.erfc(math.sqrt(h)), [k + 0.5 for k in range(half)]
    else:
        head, powers = 0.0, range(half)
    return head + math.fsum(
        math.exp(k * log_h - h - math.lgamma(k + 1)) for k in powers
    )
