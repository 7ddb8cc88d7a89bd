"""Aggregate measures of a schema history.

The Schema_Evo_2019 dataset ships "detailed and aggregate measures of
the schema history in terms of timing, schema size, numbers of tables
and attributes changed" (§3.1).  This module computes those aggregates
from a parsed :class:`~repro.mining.SchemaHistory`, including the
*change locality* measures the related work reports ([24]: 60–90% of
changes touch 20% of the tables; ~40% of tables never change).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diff import ChangeKind
from .history import SchemaHistory


@dataclass(frozen=True)
class SizeSnapshot:
    """Schema size at one version."""

    index: int
    tables: int
    attributes: int


@dataclass
class HistoryAggregates:
    """Aggregate measures of one schema history.

    Change-locality measures are computed over *post-initial* changes:
    the initiating commit births every table by definition and would
    flatten any locality signal.
    """

    sizes: list[SizeSnapshot]
    changes_per_table: dict[str, int]
    all_tables: set[str]
    total_post_initial_changes: int
    version_count: int
    active_version_count: int

    @classmethod
    def of(cls, history: SchemaHistory) -> "HistoryAggregates":
        sizes = [
            SizeSnapshot(
                index=i,
                tables=version.table_count,
                attributes=version.attribute_count,
            )
            for i, version in enumerate(history.versions)
        ]
        changes_per_table: dict[str, int] = {}
        all_tables: set[str] = set()
        for version in history.versions:
            all_tables.update(t.key for t in version.schema.tables)
        total = 0
        for transition in history.transitions[1:]:
            for change in transition.delta:
                key = change.table.lower()
                changes_per_table[key] = changes_per_table.get(key, 0) + 1
                total += 1
        return cls(
            sizes=sizes,
            changes_per_table=changes_per_table,
            all_tables=all_tables,
            total_post_initial_changes=total,
            version_count=history.commit_count,
            active_version_count=history.active_commit_count,
        )

    # ------------------------------------------------------------ sizes
    @property
    def initial_size(self) -> SizeSnapshot:
        return self.sizes[0]

    @property
    def final_size(self) -> SizeSnapshot:
        return self.sizes[-1]

    @property
    def max_attributes(self) -> int:
        return max(s.attributes for s in self.sizes)

    @property
    def net_attribute_growth(self) -> int:
        return self.final_size.attributes - self.initial_size.attributes

    def size_reaches_fraction_at(self, fraction: float) -> int:
        """First version index where attribute count ≥ fraction of max.

        [24]: "in 7 of the 10 studied projects, their schema size
        approaches 60% of their maximum value within the first 20% of
        their lifetimes" — this is the measure behind that claim.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction out of (0, 1]: {fraction}")
        target = fraction * self.max_attributes
        for snapshot in self.sizes:
            if snapshot.attributes >= target:
                return snapshot.index
        return self.sizes[-1].index

    # --------------------------------------------------------- locality
    @property
    def changed_table_count(self) -> int:
        return len(self.changes_per_table)

    @property
    def unchanged_table_fraction(self) -> float:
        """Fraction of ever-existing tables with zero post-initial change."""
        if not self.all_tables:
            raise ValueError("history defines no tables")
        unchanged = len(self.all_tables - set(self.changes_per_table))
        return unchanged / len(self.all_tables)

    def change_concentration(self, *, fraction: float = 0.2) -> float:
        """Share of post-initial changes held by the most-changed tables.

        ``fraction`` selects the top share of the *table universe*
        (ever-existing tables), mirroring [24]'s "x% of changes refer to
        20% of the tables".  Undefined (raises) with no changes.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction out of (0, 1]: {fraction}")
        if self.total_post_initial_changes == 0:
            raise ValueError("no post-initial changes")
        k = max(1, round(len(self.all_tables) * fraction))
        top = sorted(self.changes_per_table.values(), reverse=True)[:k]
        return sum(top) / self.total_post_initial_changes

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "versions": self.version_count,
            "active_versions": self.active_version_count,
            "initial_tables": self.initial_size.tables,
            "initial_attributes": self.initial_size.attributes,
            "final_tables": self.final_size.tables,
            "final_attributes": self.final_size.attributes,
            "max_attributes": self.max_attributes,
            "net_attribute_growth": self.net_attribute_growth,
            "tables_ever": len(self.all_tables),
            "tables_changed": self.changed_table_count,
            "post_initial_changes": self.total_post_initial_changes,
        }
        if self.total_post_initial_changes > 0:
            out["top20_change_share"] = self.change_concentration()
            out["unchanged_table_fraction"] = self.unchanged_table_fraction
        return out


class AggregateAccumulator:
    """Fold-style corpus aggregation: ``update(shard)`` / ``finalize()``.

    The streaming reduce unit behind the pipeline's ``aggregate`` stage:
    each ``analyze`` shard payload (``{"project", "row"}``) is folded as
    soon as the map phase releases it, so the driver never holds the
    corpus-wide payload list — only the accumulated measure rows.

    With a ``spill_dir`` even the accumulated rows stay bounded: every
    ``spill_batch`` rows are pickled to a numbered partial file and
    dropped from memory, and :meth:`finalize` merges the partials back
    *in fold order*.  The pickle round-trip preserves dataclass value
    equality, so a spilled aggregate is byte-identical to an in-memory
    one all the way through the rendered report.  Skip names are a few
    bytes each and always stay in memory.
    """

    def __init__(self, *, spill_dir: str | None = None,
                 spill_batch: int = 1024):
        self.spill_dir = spill_dir
        self.spill_batch = max(1, spill_batch)
        self.rows: list = []
        self.skipped: list[str] = []
        self.folded = 0
        self.spilled_batches = 0
        self.spilled_rows = 0

    def update(self, entry: dict) -> None:
        """Fold one ``analyze`` shard payload (corpus order required)."""
        self.folded += 1
        if entry["row"] is None:
            self.skipped.append(entry["project"])
            return
        self.rows.append(entry["row"])
        if self.spill_dir is not None and len(self.rows) >= self.spill_batch:
            self._spill()

    def _spill(self) -> None:
        import os
        import pickle

        path = os.path.join(
            self.spill_dir, f"aggregate-{self.spilled_batches:06d}.pkl"
        )
        with open(path, "wb") as handle:
            pickle.dump(self.rows, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.spilled_batches += 1
        self.spilled_rows += len(self.rows)
        self.rows = []

    def finalize(self) -> dict:
        """The aggregate payload: ``{"rows", "skipped"}``.

        Spilled partials merge back in spill order (each partial is
        itself in fold order), then the in-memory tail — the exact row
        order a non-spilling fold would have produced.
        """
        if self.spilled_batches == 0:
            return {"rows": self.rows, "skipped": self.skipped}
        import os
        import pickle

        rows: list = []
        for batch in range(self.spilled_batches):
            path = os.path.join(
                self.spill_dir, f"aggregate-{batch:06d}.pkl"
            )
            with open(path, "rb") as handle:
                rows.extend(pickle.load(handle))
            os.unlink(path)
        rows.extend(self.rows)
        return {"rows": rows, "skipped": self.skipped}

    def stats(self) -> dict:
        return {
            "folded": self.folded,
            "spilled_batches": self.spilled_batches,
            "spilled_rows": self.spilled_rows,
        }


#: Change kinds that represent structural growth (for growth/restructure
#: style analyses in the spirit of [37]).
GROWTH_KINDS = frozenset({ChangeKind.BORN_WITH_TABLE, ChangeKind.INJECTED})
SHRINK_KINDS = frozenset(
    {ChangeKind.DELETED_WITH_TABLE, ChangeKind.EJECTED}
)


def growth_vs_restructuring(history: SchemaHistory) -> tuple[int, int, int]:
    """(growth, shrinkage, mutation) counts over post-initial changes.

    [37] finds embedded-database schemata "more prone to restructuring
    rather than continuous growth"; this splits the activity that way:
    growth = births/injections, shrinkage = deletions/ejections,
    mutation = type and primary-key changes.
    """
    growth = shrink = mutate = 0
    for transition in history.transitions[1:]:
        for change in transition.delta:
            if change.kind in GROWTH_KINDS:
                growth += 1
            elif change.kind in SHRINK_KINDS:
                shrink += 1
            else:
                mutate += 1
    return growth, shrink, mutate
