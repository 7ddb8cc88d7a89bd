"""The ``make pipeline-smoke`` entry point: the warm-replay contract.

``python -m repro.pipeline.smoke`` runs a scaled-down study cold into a
temporary on-disk artifact store, then re-resolves it warm — serial and
with ``jobs=4`` — and checks the incremental-study contract end to end:

1. the cold run recomputes every map shard and every reduce stage (no
   phantom hits) and persists one artifact per shard per map stage plus
   one per reduce stage;
2. a warm serial rerun is **byte-identical** to the cold run and serves
   everything from the store: the warm ``aggregate`` hit short-circuits
   the whole map phase (zero shard lookups), zero recomputes anywhere;
3. a warm ``jobs=4`` rerun reuses the *same* artifacts — parallelism is
   not a fingerprint input — and is byte-identical too;
4. the warm run's hit rate surfaces in the timings payload (what the
   manifest and the run registry carry);
5. a code-version bump dirties exactly the dependent cone: bumping
   ``figures`` leaves ``aggregate`` and ``statistics`` warm;
6. changing the seed re-keys every stage fingerprint;
7. **incremental**: mutating one project's seed against the warm store
   recomputes exactly that project's generate/mine/analyze shards plus
   the reduce tail — every other shard serves warm — and a second run
   of the same mutation replays fully warm;
8. **provenance explain** attributes each recompute to its true cause:
   a warm plan explains all-warm, a project override blames the
   upstream generate digest (on mine) and the identity params (on
   generate), and a stage version bump blames ``code_version``;
9. the **run registry** accepts one record per run.

Exit status 0 on success, 1 with a diagnosis on the first violation.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

#: Same shrink factor as the obs smoke: 195 projects / 16 ≈ 12.
SMOKE_SCALE = 16
SMOKE_SEED = 195_2023
SMOKE_JOBS = 4


def main() -> int:
    from .graph import Pipeline
    from .stages import MAP_STAGE_NAMES, REDUCE_STAGE_NAMES, STAGE_NAMES
    from .store import DirStore

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory(prefix="repro-pipeline-smoke-") as tmp:
        store_dir = Path(tmp) / "artifacts"

        def pipeline(jobs: int = 1, **kwargs) -> Pipeline:
            kwargs.setdefault("seed", SMOKE_SEED)
            return Pipeline(
                scale=SMOKE_SCALE,
                jobs=jobs,
                store=DirStore(store_dir),
                **kwargs,
            )

        # 1. cold: every shard and stage recomputes, everything persists
        cold = pipeline()
        cold_text = cold.report()
        shards = cold.shards()
        n = len(shards)
        totals = cold.timings.artifact_totals
        expected_cold = len(MAP_STAGE_NAMES) * n + len(REDUCE_STAGE_NAMES)
        check(totals.hits == 0, f"cold run claimed {totals.hits} hits")
        check(
            totals.recomputes == expected_cold,
            f"cold run recomputed {totals.recomputes} artifacts, "
            f"expected {expected_cold} ({n} shards)",
        )
        expected_keys = sorted(
            [
                shard.keys[stage]
                for shard in shards
                for stage in MAP_STAGE_NAMES
            ]
            + [cold.fingerprint(stage) for stage in REDUCE_STAGE_NAMES]
        )
        check(
            sorted(cold.store.keys()) == expected_keys,
            "cold store contents do not match the planned shard and "
            "reduce keys",
        )

        # 2. warm serial: byte-identical, aggregate hit skips the map
        warm = pipeline()
        warm.study()
        warm_text = warm.report()
        check(
            warm_text == cold_text,
            "warm serial report differs from the cold run",
        )
        for stage in REDUCE_STAGE_NAMES:
            stats = warm.timings.artifacts.get(stage)
            check(
                stats is not None and stats.hits >= 1,
                f"warm serial run did not hit the {stage} artifact",
            )
        for stage in MAP_STAGE_NAMES:
            check(
                stage not in warm.timings.artifacts,
                f"warm serial run probed {stage} shards despite the "
                "warm aggregate",
            )
        check(
            warm.timings.artifact_totals.recomputes == 0,
            "warm serial run recomputed a clean stage",
        )

        # 3. warm parallel: jobs is not a fingerprint input
        warm_parallel = pipeline(jobs=SMOKE_JOBS)
        warm_parallel.study()
        check(
            warm_parallel.report() == cold_text,
            f"warm jobs={SMOKE_JOBS} report differs from the cold run",
        )
        check(
            warm_parallel.timings.artifact_totals.recomputes == 0,
            f"warm jobs={SMOKE_JOBS} run recomputed a clean stage",
        )

        # 4. the hit rate the manifest / BENCH payload will carry
        payload = warm.timings.as_dict()
        store_block = payload.get("artifact_store")
        check(
            store_block is not None and store_block["hit_rate"] == 1.0,
            f"warm run hit rate not 1.0 in timings payload: {store_block}",
        )

        # 5. a code-version bump dirties exactly the dependent cone
        bumped = pipeline(code_versions={"figures": "smoke"})
        bumped.study()
        stats = bumped.timings.artifacts
        check(
            stats.get("aggregate") is not None
            and stats["aggregate"].hits == 1,
            "aggregate should stay warm under a figures version bump",
        )
        check(
            stats.get("figures") is not None
            and stats["figures"].recomputes == 1,
            "figures should recompute under its own version bump",
        )
        check(
            stats.get("statistics") is not None
            and stats["statistics"].hits == 1,
            "statistics should stay warm under a figures version bump",
        )

        # 6. the seed re-keys everything
        reseeded = pipeline(seed=SMOKE_SEED + 1)
        check(
            all(
                reseeded.fingerprint(stage) != cold.fingerprint(stage)
                for stage in STAGE_NAMES
            ),
            "a seed change left some stage fingerprint unchanged",
        )

        # 7. incremental: one mutated project recomputes exactly its
        # map cone plus the reduce tail against the warm store
        target = shards[0].project
        override = {target: SMOKE_SEED + 999}
        touched = pipeline(project_overrides=override)
        touched.study()
        touched_text = touched.report()
        stats = touched.timings.artifacts
        for stage in MAP_STAGE_NAMES:
            got = stats.get(stage)
            check(
                got is not None and got.recomputes == 1,
                f"mutating {target} should recompute exactly one "
                f"{stage} shard, got {got}",
            )
        check(
            stats.get("analyze") is not None
            and stats["analyze"].hits == n - 1,
            f"mutating {target} should serve {n - 1} analyze shards "
            f"warm, got {stats.get('analyze')}",
        )
        for stage in ("generate", "mine"):
            check(
                stats.get(stage) is not None and stats[stage].hits == 0,
                f"warm analyze shards should never probe {stage} keys",
            )
        for stage in REDUCE_STAGE_NAMES:
            got = stats.get(stage)
            check(
                got is not None and got.recomputes == 1,
                f"mutating {target} should recompute the {stage} "
                f"reduce stage, got {got}",
            )
        study = touched._study
        check(
            study is not None
            and len(study.projects) + len(study.skipped) == n,
            "the mutated run lost or duplicated projects",
        )

        # ... and re-running the same mutation replays fully warm
        retouched = pipeline(project_overrides=override)
        retouched.study()
        check(
            retouched.report() == touched_text,
            "re-running the mutated corpus is not byte-identical",
        )
        check(
            retouched.timings.artifact_totals.recomputes == 0,
            "re-running the mutated corpus recomputed a clean stage",
        )

        # 8. provenance explain names the true recompute cause
        explained = retouched.explain("mine")
        check(
            all(r["state"] == "warm" for r in explained),
            "a fully warm plan should explain every mine shard warm",
        )
        probe = pipeline(
            project_overrides={target: SMOKE_SEED + 1000}
        )
        (mine_rec,) = probe.explain("mine", project=target)
        check(
            mine_rec["state"] == "stale"
            and [c["component"] for c in mine_rec["causes"]]
            == ["upstream.generate"],
            "a project override should blame exactly the upstream "
            f"generate digest on its mine shard, got {mine_rec}",
        )
        (gen_rec,) = probe.explain("generate", project=target)
        check(
            gen_rec["state"] == "stale"
            and gen_rec["causes"]
            and all(
                c["component"].startswith("params.")
                for c in gen_rec["causes"]
            ),
            "a project override should blame the identity params on "
            f"its generate shard, got {gen_rec}",
        )
        bump = pipeline(code_versions={"mine": "smoke"})
        bump_records = bump.explain("mine")
        check(
            bump_records
            and all(
                r["state"] == "stale"
                and [c["component"] for c in r["causes"]]
                == ["code_version"]
                for r in bump_records
            ),
            "a mine version bump should blame code_version on every "
            "mine shard",
        )

        # 9. the run registry accumulates records
        from ..obs.registry import RunRegistry, build_run_record

        registry = RunRegistry(store_dir)
        for run in (cold, warm, retouched):
            registry.append(build_run_record(
                command="smoke", study=run.study(),
                seed=SMOKE_SEED, scale=SMOKE_SCALE,
            ))
        check(
            len(registry) == 3,
            f"registry holds {len(registry)} records, expected 3",
        )

    if failures:
        for failure in failures:
            print(f"pipeline-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "pipeline-smoke ok: cold run persisted "
        f"{len(MAP_STAGE_NAMES)}x{n}+{len(REDUCE_STAGE_NAMES)} artifacts; "
        f"warm serial and jobs={SMOKE_JOBS} replays byte-identical with a "
        "100% hit rate and zero shard probes; version bump and reseed "
        "invalidate exactly their cones; a one-project mutation recomputes "
        "one shard per map stage plus the reduce tail; explain attributes "
        "override/version-bump/identity causes correctly; the run registry "
        "holds one record per run"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
