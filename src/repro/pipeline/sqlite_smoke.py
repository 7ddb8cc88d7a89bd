"""The ``make sqlite-smoke`` entry point: the workload contract.

``python -m repro.pipeline.sqlite_smoke`` runs the scaled-down study
under the sqlite workload (``--dialect sqlite``) cold into a temporary
on-disk artifact store, then checks the (dialect, source) plumbing end
to end:

1. the cold sqlite run recomputes every shard and reduce stage and
   persists one artifact per planned key — the full DAG executes under
   a non-default workload with zero reduce-stage changes;
2. a warm serial rerun is **byte-identical** and serves everything from
   the store (zero recomputes), and a warm ``jobs=4`` rerun replays the
   same bytes — parallelism is not a fingerprint input for workloads
   either;
3. sqlite and canonical plans never share a store key: the dialect is a
   shard-identity component, so the two studies co-exist in one store
   without cross-talk (and the sqlite report differs from canonical —
   the workload actually changed the corpus);
4. every mined history under the sqlite source detects as sqlite and
   the generated DDL carries the dialect's conventions (PRAGMA
   preamble);
5. ``pipeline explain`` against the warm canonical artifacts attributes
   the workload switch to ``params.dialect`` on the generate shards;
6. artifact meta and the run registry carry the (dialect, source) pair
   for sqlite runs and stay shape-identical for canonical ones.

Exit status 0 on success, 1 with a diagnosis on the first violation.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from .smoke import SMOKE_JOBS, SMOKE_SCALE, SMOKE_SEED

DIALECT = "sqlite"


def main() -> int:
    from .graph import Pipeline
    from .stages import MAP_STAGE_NAMES, REDUCE_STAGE_NAMES
    from .store import DirStore

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory(prefix="repro-sqlite-smoke-") as tmp:
        store_dir = Path(tmp) / "artifacts"

        def pipeline(jobs: int = 1, **kwargs) -> Pipeline:
            kwargs.setdefault("seed", SMOKE_SEED)
            kwargs.setdefault("dialect", DIALECT)
            return Pipeline(
                scale=SMOKE_SCALE,
                jobs=jobs,
                store=DirStore(store_dir),
                **kwargs,
            )

        # 1. cold: the full DAG executes under the sqlite workload
        cold = pipeline()
        cold_text = cold.report()
        shards = cold.shards()
        n = len(shards)
        totals = cold.timings.artifact_totals
        expected_cold = len(MAP_STAGE_NAMES) * n + len(REDUCE_STAGE_NAMES)
        check(totals.hits == 0, f"cold sqlite run claimed {totals.hits} hits")
        check(
            totals.recomputes == expected_cold,
            f"cold sqlite run recomputed {totals.recomputes} artifacts, "
            f"expected {expected_cold} ({n} shards)",
        )
        check(
            all(
                shard.identity.get("dialect") == DIALECT
                for shard in shards
            ),
            "some sqlite shard identity lost its dialect component",
        )

        # 2. warm serial and warm parallel replay byte-identically
        warm = pipeline()
        warm.study()
        check(
            warm.report() == cold_text,
            "warm serial sqlite report differs from the cold run",
        )
        check(
            warm.timings.artifact_totals.recomputes == 0,
            "warm serial sqlite run recomputed a clean stage",
        )
        warm_parallel = pipeline(jobs=SMOKE_JOBS)
        warm_parallel.study()
        check(
            warm_parallel.report() == cold_text,
            f"warm jobs={SMOKE_JOBS} sqlite report differs from the "
            "cold run",
        )
        check(
            warm_parallel.timings.artifact_totals.recomputes == 0,
            f"warm jobs={SMOKE_JOBS} sqlite run recomputed a clean stage",
        )

        # 3. canonical and sqlite studies co-exist keyed apart
        sqlite_keys = set(warm.store.keys())
        canonical = pipeline(dialect=None)
        canonical_text = canonical.report()
        canonical_keys = set(canonical.store.keys()) - sqlite_keys
        check(
            len(canonical_keys) == expected_cold,
            "the canonical run over a sqlite-warm store shared a key "
            "with the sqlite study",
        )
        check(
            canonical_text != cold_text,
            "the sqlite report is byte-identical to canonical — the "
            "workload changed nothing",
        )

        # 4. the generated corpus really is sqlite-dialected, and the
        # sqlite history source mines it as such
        study = warm.study()
        check(
            len(study.projects) + len(study.skipped) == n,
            "the sqlite study lost or duplicated projects",
        )
        from ..corpus import generate_corpus
        from ..corpus.profiles import scaled_profiles
        from ..mining import get_source
        from ..sqlparser import detect_dialect

        corpus = generate_corpus(
            seed=SMOKE_SEED,
            profiles=scaled_profiles(SMOKE_SCALE),
            dialect=DIALECT,
        )
        _, history = get_source(DIALECT).mine_schema_history(
            corpus[0].repository
        )
        check(
            all(
                version.schema.dialect == DIALECT
                for version in history.versions
            ),
            "the sqlite source mined a non-sqlite schema version",
        )
        check(
            all(
                detect_dialect(version) == DIALECT
                for project in corpus
                for version in project.ddl_versions
            ),
            "a generated sqlite DDL version does not detect as sqlite",
        )
        check(
            all(
                "PRAGMA foreign_keys" in project.ddl_versions[-1]
                for project in corpus
            ),
            "a generated sqlite DDL lost the PRAGMA preamble",
        )

        # 5. explain attributes the workload switch to params.dialect
        probe = pipeline()
        (gen_rec,) = probe.explain("generate", project=shards[0].project)
        check(
            gen_rec["state"] == "warm",
            "a warm sqlite plan should explain its generate shard warm",
        )
        # canonical store is warm too (step 3), so the *canonical* plan
        # explained against it is warm while the sqlite plan diffing a
        # canonical artifact names params.dialect: rebuild a store with
        # only canonical artifacts to force that match
        with tempfile.TemporaryDirectory(
            prefix="repro-sqlite-smoke-canon-"
        ) as tmp2:
            canon_store = DirStore(Path(tmp2) / "artifacts")
            Pipeline(
                seed=SMOKE_SEED, scale=SMOKE_SCALE, store=canon_store
            ).report()
            switcher = Pipeline(
                seed=SMOKE_SEED,
                scale=SMOKE_SCALE,
                store=canon_store,
                dialect=DIALECT,
            )
            (switch_rec,) = switcher.explain(
                "generate", project=shards[0].project
            )
            components = [
                c["component"] for c in switch_rec["causes"]
            ]
            check(
                switch_rec["state"] == "stale"
                and "params.dialect" in components,
                "switching workloads over a warm canonical store "
                "should blame params.dialect, got "
                f"{switch_rec['state']}/{components}",
            )

        # 6. artifact meta and registry records carry (dialect, source)
        meta = warm.store.meta_of(shards[0].keys["generate"]) or {}
        check(
            meta.get("dialect") == DIALECT
            and meta.get("source") == DIALECT,
            f"sqlite shard meta lost the (dialect, source) pair: {meta}",
        )
        canon_meta = canonical.store.meta_of(
            canonical.shards()[0].keys["generate"]
        ) or {}
        check(
            "dialect" not in canon_meta and "source" not in canon_meta,
            "canonical shard meta grew workload keys — old stores are "
            f"no longer shape-identical: {canon_meta}",
        )
        from ..obs.registry import RunRegistry, build_run_record

        registry = RunRegistry(store_dir)
        registry.append(build_run_record(
            command="sqlite-smoke", study=study,
            seed=SMOKE_SEED, scale=SMOKE_SCALE, dialect=DIALECT,
        ))
        registry.append(build_run_record(
            command="sqlite-smoke", study=canonical.study(),
            seed=SMOKE_SEED, scale=SMOKE_SCALE,
        ))
        sqlite_rec, canon_rec = registry.records()[-2:]
        check(
            sqlite_rec.get("dialect") == DIALECT
            and "dialect" not in canon_rec,
            "registry records mis-carry the workload dialect",
        )

    if failures:
        for failure in failures:
            print(f"sqlite-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "sqlite-smoke ok: the sqlite workload ran the full DAG cold "
        f"({len(MAP_STAGE_NAMES)}x{n}+{len(REDUCE_STAGE_NAMES)} artifacts) "
        f"and replayed byte-identical warm, serial and jobs={SMOKE_JOBS}; "
        "sqlite and canonical studies co-exist keyed apart in one store; "
        "every history mines as sqlite; explain blames params.dialect on "
        "a workload switch; meta and registry carry (dialect, source) "
        "only for non-default runs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
