"""Change-impact analysis: which queries does a schema change affect?

Given the atomic changes of a schema transition and the dependency sets
of the application's embedded queries, classify the impact per query:

* ``BREAKS`` — the query references a table or column that no longer
  exists (syntactic breakage);
* ``AT_RISK`` — a referenced column changed its data type or primary-key
  role (possible semantic/translation breakage);
* ``DRIFTS`` — the query consumes ``SELECT *`` from a table whose row
  shape changed (silent semantic drift, §1's "semantic inconsistency");
* ``UNAFFECTED`` — none of the above.

A dependency graph over (query, table, column) nodes is also exposed via
networkx for downstream tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..diff import AtomicChange, ChangeKind, SchemaDelta
from .deps import QueryDeps, analyze_query
from .extract import EmbeddedQuery

if TYPE_CHECKING:
    import networkx as nx


class Impact(Enum):
    BREAKS = "breaks"
    AT_RISK = "at_risk"
    DRIFTS = "drifts"
    UNAFFECTED = "unaffected"


#: Severity order, most severe first.
_SEVERITY = (Impact.BREAKS, Impact.AT_RISK, Impact.DRIFTS, Impact.UNAFFECTED)


@dataclass
class QueryImpact:
    """The impact of a schema transition on one query."""

    query: EmbeddedQuery
    impact: Impact
    reasons: list[str] = field(default_factory=list)


@dataclass
class ImpactReport:
    """Impacts for a whole application, worst first."""

    impacts: list[QueryImpact]

    def __iter__(self):
        return iter(self.impacts)

    def __len__(self) -> int:
        return len(self.impacts)

    def with_impact(self, impact: Impact) -> list[QueryImpact]:
        return [qi for qi in self.impacts if qi.impact is impact]

    @property
    def affected_count(self) -> int:
        return sum(
            1 for qi in self.impacts if qi.impact is not Impact.UNAFFECTED
        )


def classify_query(
    deps: QueryDeps, changes: list[AtomicChange]
) -> tuple[Impact, list[str]]:
    """Classify one query's impact under a list of atomic changes."""
    worst = Impact.UNAFFECTED
    reasons: list[str] = []

    def bump(level: Impact, reason: str) -> None:
        nonlocal worst
        reasons.append(reason)
        if _SEVERITY.index(level) < _SEVERITY.index(worst):
            worst = level

    dropped_tables = {
        c.table.lower()
        for c in changes
        if c.kind is ChangeKind.DELETED_WITH_TABLE
    }
    for table in dropped_tables:
        if deps.references_table(table):
            bump(Impact.BREAKS, f"table {table!r} was dropped")

    for change in changes:
        table = change.table.lower()
        column = change.attribute.lower()
        if change.kind is ChangeKind.EJECTED:
            if deps.references_column(table, column):
                bump(
                    Impact.BREAKS,
                    f"column {table}.{column} was removed",
                )
            elif table in deps.positional_insert_tables:
                bump(
                    Impact.BREAKS,
                    f"positional INSERT into {table!r} has wrong arity "
                    f"after {column!r} was removed",
                )
            elif table in deps.star_tables:
                bump(
                    Impact.DRIFTS,
                    f"SELECT * row shape of {table!r} lost {column!r}",
                )
        elif change.kind is ChangeKind.TYPE_CHANGED:
            if deps.references_column(table, column):
                bump(
                    Impact.AT_RISK,
                    f"column {table}.{column} changed type"
                    + (f" ({change.detail})" if change.detail else ""),
                )
        elif change.kind is ChangeKind.PK_CHANGED:
            if deps.references_column(table, column):
                bump(
                    Impact.AT_RISK,
                    f"column {table}.{column} changed primary-key role",
                )
        elif change.kind is ChangeKind.INJECTED:
            if table in deps.positional_insert_tables:
                bump(
                    Impact.BREAKS,
                    f"positional INSERT into {table!r} has wrong arity "
                    f"after {column!r} was added",
                )
            elif table in deps.star_tables:
                bump(
                    Impact.DRIFTS,
                    f"SELECT * row shape of {table!r} gained {column!r}",
                )
    return worst, reasons


def analyze_impact(
    queries: list[EmbeddedQuery], delta: SchemaDelta | list[AtomicChange]
) -> ImpactReport:
    """Classify every query against a schema transition's changes."""
    changes = list(delta)
    impacts = []
    for query in queries:
        deps = analyze_query(query.text)
        impact, reasons = classify_query(deps, changes)
        impacts.append(
            QueryImpact(query=query, impact=impact, reasons=reasons)
        )
    impacts.sort(key=lambda qi: _SEVERITY.index(qi.impact))
    return ImpactReport(impacts=impacts)


def dependency_graph(queries: list[EmbeddedQuery]) -> "nx.DiGraph":
    """Build the query → table/column dependency graph.

    Node kinds (``kind`` attribute): ``query``, ``table``, ``column``.
    Edges point from a query to the schema elements it references, and
    from each column to its table.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for query in queries:
        qnode = f"query:{query.file}:{query.line}"
        graph.add_node(qnode, kind="query", text=query.text)
        deps = analyze_query(query.text)
        for table in deps.tables:
            tnode = f"table:{table}"
            graph.add_node(tnode, kind="table")
            graph.add_edge(qnode, tnode)
        for table, column in deps.columns:
            if table is None:
                continue
            cnode = f"column:{table}.{column}"
            tnode = f"table:{table}"
            graph.add_node(cnode, kind="column")
            graph.add_node(tnode, kind="table")
            graph.add_edge(qnode, cnode)
            graph.add_edge(cnode, tnode)
    return graph


def queries_touching(graph: "nx.DiGraph", element: str) -> list[str]:
    """Query nodes that (transitively) depend on a table/column node."""
    import networkx as nx

    if element not in graph:
        return []
    dependents = nx.ancestors(graph, element)
    return sorted(
        node for node in dependents
        if graph.nodes[node].get("kind") == "query"
    )
