"""Contingency-table tests: χ² and an r×c Fisher exact test.

The paper (§7, "Testing Lag") runs a Chi-square and a two-sided Fisher
test over taxon × always-lag tables, which are 6×2 — beyond scipy's 2×2
``fisher_exact``.  This module implements the Freeman–Halton
generalisation from scratch: exact enumeration of all tables with the
observed margins when that is tractable, and Patefield-style Monte Carlo
sampling otherwise.
"""

from __future__ import annotations

import math
from typing import Sequence

from .distributions import chi2_sf
from .result import TestResult

Matrix = Sequence[Sequence[int]]


def _validate(table: Matrix) -> list[list[int]]:
    rows = [list(row) for row in table]
    if not rows or not rows[0]:
        raise ValueError("empty contingency table")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged contingency table")
        for cell in row:
            if cell < 0 or cell != int(cell):
                raise ValueError("cells must be non-negative integers")
    return rows


def chi_square(table: Matrix) -> TestResult:
    """Pearson's χ² test of independence for an r×c table."""
    rows = _validate(table)
    row_sums = [sum(row) for row in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    total = sum(row_sums)
    if total == 0:
        raise ValueError("empty table (all zero)")
    if any(s == 0 for s in row_sums) or any(s == 0 for s in col_sums):
        raise ValueError("zero margin; drop empty rows/columns first")

    statistic = 0.0
    min_expected = float("inf")
    for i, row in enumerate(rows):
        for j, observed in enumerate(row):
            expected = row_sums[i] * col_sums[j] / total
            min_expected = min(min_expected, expected)
            statistic += (observed - expected) ** 2 / expected
    df = (len(rows) - 1) * (len(col_sums) - 1)
    p = chi2_sf(statistic, df)
    return TestResult(
        "chi_square",
        statistic,
        p,
        details={"df": df, "min_expected": min_expected},
    )


def fisher_exact_rxc(
    table: Matrix,
    *,
    max_exact_tables: int = 200_000,
    monte_carlo_samples: int = 200_000,
    seed: int = 20230331,
) -> TestResult:
    """Two-sided Freeman–Halton exact test for an r×c table.

    The p-value is the total null probability of all tables with the
    observed margins whose probability does not exceed the observed
    table's.  Enumeration is used when the number of candidate tables is
    within ``max_exact_tables``; otherwise a Monte Carlo estimate over
    ``monte_carlo_samples`` margin-preserving random tables is returned
    (``details["method"]`` says which).
    """
    rows = _validate(table)
    rows = [row for row in rows if sum(row) > 0]
    if not rows:
        raise ValueError("empty table (all zero)")
    cols_keep = [j for j in range(len(rows[0])) if sum(r[j] for r in rows) > 0]
    rows = [[row[j] for j in cols_keep] for row in rows]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValueError("need at least a 2x2 table after dropping zeros")

    row_sums = [sum(row) for row in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    total = sum(row_sums)
    log_fact = _log_factorials(total)

    log_margin = (
        sum(log_fact[s] for s in row_sums)
        + sum(log_fact[s] for s in col_sums)
        - log_fact[total]
    )

    def log_prob(cells: list[int]) -> float:
        return log_margin - sum(log_fact[c] for c in cells)

    observed_cells = [c for row in rows for c in row]
    observed_log_p = log_prob(observed_cells)

    estimate = _count_tables(row_sums, col_sums, max_exact_tables)
    if estimate is not None:
        p = _exact_sum(rows, row_sums, col_sums, log_fact, observed_log_p)
        return TestResult(
            "fisher_exact_rxc",
            math.exp(observed_log_p),
            min(1.0, p),
            details={"method": "exact", "tables": estimate},
        )

    p = _monte_carlo_p(
        row_sums, col_sums, log_fact, log_margin, observed_log_p,
        monte_carlo_samples, seed,
    )
    return TestResult(
        "fisher_exact_rxc",
        math.exp(observed_log_p),
        p,
        details={"method": "monte_carlo", "samples": monte_carlo_samples},
    )


def _log_factorials(n: int) -> list[float]:
    out = [0.0] * (n + 1)
    for i in range(2, n + 1):
        out[i] = out[i - 1] + math.log(i)
    return out


def _count_tables(
    row_sums: list[int], col_sums: list[int], limit: int
) -> int | None:
    """Count tables with the given margins, or None when above ``limit``.

    Uses the same recursive structure as the enumeration itself, with
    memoisation on (row index, remaining column sums), aborting early.
    """
    n_cols = len(col_sums)
    cache: dict[tuple, int] = {}

    def rec(row_idx: int, remaining: tuple[int, ...]) -> int:
        if row_idx == len(row_sums) - 1:
            # last row is forced
            return 1
        key = (row_idx, remaining)
        if key in cache:
            return cache[key]
        total = 0
        target = row_sums[row_idx]

        def fill(col: int, left: int, rem: list[int]) -> None:
            nonlocal total
            if total > limit:
                return
            if col == n_cols - 1:
                if left <= rem[col]:
                    rem[col] -= left
                    total += rec(row_idx + 1, tuple(rem))
                    rem[col] += left
                return
            upper = min(left, rem[col])
            for take in range(upper + 1):
                rem[col] -= take
                fill(col + 1, left - take, rem)
                rem[col] += take
                if total > limit:
                    return

        fill(0, target, list(remaining))
        cache[key] = total
        return total

    count = rec(0, tuple(col_sums))
    return count if count <= limit else None


def _exact_sum(
    rows: list[list[int]],
    row_sums: list[int],
    col_sums: list[int],
    log_fact: list[float],
    observed_log_p: float,
) -> float:
    """Sum the probabilities of all as-or-less-probable tables."""
    n_rows = len(row_sums)
    n_cols = len(col_sums)
    log_margin = (
        sum(log_fact[s] for s in row_sums)
        + sum(log_fact[s] for s in col_sums)
        - log_fact[sum(row_sums)]
    )
    p_total = 0.0

    def rec(row_idx: int, remaining: list[int], partial: float) -> None:
        nonlocal p_total
        if row_idx == n_rows - 1:
            log_p = log_margin - partial - sum(
                log_fact[c] for c in remaining
            )
            if log_p <= observed_log_p + 1e-9:
                p_total += math.exp(log_p)
            return
        target = row_sums[row_idx]

        def fill(col: int, left: int, acc: float) -> None:
            if col == n_cols - 1:
                if left <= remaining[col]:
                    remaining[col] -= left
                    rec(row_idx + 1, remaining, acc + log_fact[left])
                    remaining[col] += left
                return
            upper = min(left, remaining[col])
            for take in range(upper + 1):
                remaining[col] -= take
                fill(col + 1, left - take, acc + log_fact[take])
                remaining[col] += take

        fill(0, target, partial)

    rec(0, list(col_sums), 0.0)
    return p_total


def _monte_carlo_p(
    row_sums: list[int],
    col_sums: list[int],
    log_fact: list[float],
    log_margin: float,
    observed_log_p: float,
    samples: int,
    seed: int,
) -> float:
    """Monte Carlo Freeman–Halton p-value (vectorised with numpy).

    Random tables with the observed margins are drawn by filling rows
    top to bottom; within a row, each cell is a hypergeometric draw from
    the remaining column capacities (the correct conditional
    distribution given fixed margins).  All ``samples`` tables are drawn
    simultaneously via numpy's element-wise hypergeometric sampler, so
    the cost is ``(rows − 1) × (cols − 1)`` vectorised draws.  A table's
    log-probability indexes the same ``log_fact`` table as the observed
    one's, so equally probable tables compare equal.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n_rows = len(row_sums)
    n_cols = len(col_sums)
    log_fact_of = np.array(log_fact)

    remaining = np.tile(np.array(col_sums, dtype=np.int64), (samples, 1))
    cell_log_fact = np.zeros(samples)
    for i in range(n_rows - 1):
        left = np.full(samples, row_sums[i], dtype=np.int64)
        for j in range(n_cols - 1):
            ngood = remaining[:, j]
            nbad = remaining[:, j + 1:].sum(axis=1)
            can_draw = left > 0
            take = np.zeros(samples, dtype=np.int64)
            if can_draw.any():
                take[can_draw] = rng.hypergeometric(
                    ngood[can_draw], nbad[can_draw], left[can_draw]
                )
            remaining[:, j] -= take
            left -= take
            cell_log_fact += log_fact_of[take]
        remaining[:, n_cols - 1] -= left
        cell_log_fact += log_fact_of[left]
    # the last row is forced to the remaining column capacities
    cell_log_fact += log_fact_of[remaining].sum(axis=1)

    log_p = log_margin - cell_log_fact
    hits = int(np.count_nonzero(log_p <= observed_log_p + 1e-9)) + 1
    return hits / (samples + 1)
