"""Cross-correlation lag between the schema and project heartbeats.

The paper is explicit that θ "is not a measure of lag, but just an
acceptance band".  This module adds the lag measure proper: the discrete
cross-correlation of the two *raw* monthly activity series over a lag
window, reporting the offset at which they align best.  At lag ``k``
schema month ``m`` is paired with project month ``m + k``, so a
*positive* best lag means project activity echoes earlier schema
activity — schema leads; a triangulation of RQ2 with a method
independent of cumulative progressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..heartbeat import Heartbeat


@dataclass(frozen=True)
class LagProfile:
    """Cross-correlation of two heartbeats across lags."""

    lags: tuple[int, ...]
    correlations: tuple[float, ...]

    @property
    def best_lag(self) -> int:
        """Lag (in months) maximising the correlation.

        Positive = the second series (project) echoes the first
        (schema) with that delay, i.e. schema leads.  Ties resolve
        toward the smallest |lag|.
        """
        best = max(self.correlations)
        candidates = [
            lag
            for lag, corr in zip(self.lags, self.correlations)
            if corr == best
        ]
        return min(candidates, key=abs)

    @property
    def best_correlation(self) -> float:
        return max(self.correlations)

    def correlation_at(self, lag: int) -> float:
        try:
            index = self.lags.index(lag)
        except ValueError:
            raise ValueError(f"lag {lag} outside the profile window")
        return self.correlations[index]


def _pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    # two square roots, not the root of the product: tiny variances
    # (~1e-236) multiply to an underflowed zero
    return cov / (math.sqrt(var_x) * math.sqrt(var_y))


def cross_correlation(
    schema: Heartbeat,
    project: Heartbeat,
    *,
    max_lag: int = 6,
) -> LagProfile:
    """Correlate the two activity series over lags in [-max_lag, max_lag].

    At lag ``k``, schema month ``m`` is paired with project month
    ``m + k``: a peak at *positive* ``k`` means the project's activity
    echoes the schema's earlier activity — schema leads.

    Both heartbeats are aligned on their union window first so the lag
    is measured on the shared calendar.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    start = min(schema.start, project.start)
    end = max(schema.end, project.end)
    xs = schema.aligned(start, end).values
    ys = project.aligned(start, end).values
    n = len(xs)

    lags = []
    correlations = []
    for lag in range(-max_lag, max_lag + 1):
        pairs_x: list[float] = []
        pairs_y: list[float] = []
        for m in range(n):
            j = m + lag
            if 0 <= j < n:
                pairs_x.append(xs[m])
                pairs_y.append(ys[j])
        lags.append(lag)
        correlations.append(_pearson(pairs_x, pairs_y))
    return LagProfile(lags=tuple(lags), correlations=tuple(correlations))


def schema_leads(
    schema: Heartbeat, project: Heartbeat, *, max_lag: int = 6
) -> bool:
    """True when the best cross-correlation lag has schema leading."""
    return cross_correlation(
        schema, project, max_lag=max_lag
    ).best_lag > 0
