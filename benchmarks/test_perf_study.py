"""PERF — per-stage timing of the full study, written to BENCH_study.json.

Not a paper artifact: the machine-readable perf trajectory of the
extraction pipeline.  Each run records the stage breakdown (generate /
mine / analyze / figures), the parse-cache hit rates and a warm-cache
re-study measurement at the repo root, so future PRs can compare
against the committed history of ``BENCH_study.json``.

Run via ``make bench`` — the Makefile refuses to reach this file (and
therefore to overwrite ``BENCH_study.json``) unless the tier-1 suite
passes first.
"""

import json
import os
import time
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_study.json"


def _study_jobs() -> int:
    """Mirror of conftest.study_jobs (kept importable standalone)."""
    try:
        return max(1, int(os.environ.get("REPRO_STUDY_JOBS", "1")))
    except ValueError:
        return 1


def test_study_stage_breakdown_and_bench_json(study, tmp_path_factory):
    """The session study carries timings; persist them machine-readably."""
    timings = study.timings
    assert timings.stages.get("generate", 0) > 0
    assert timings.stages.get("mine", 0) > 0
    assert timings.stages.get("analyze", 0) > 0
    assert timings.cache.lookups > 0

    with timings.timed("figures"):
        study.headline()
        study.fig4()
        study.fig5()
        study.fig6()
        study.fig7()
        study.fig8()

    # warm-cache re-study through a disk store: a cold pass fills the
    # cache (in every worker when parallel), a second pass over the same
    # corpus hits it ~100% and the mine stage collapses.
    from repro.analysis import run_study
    from repro.context import RunContext
    from repro.corpus import generate_corpus

    cache_dir = tmp_path_factory.mktemp("parse-cache")
    with RunContext(cache_dir=cache_dir).installed():
        corpus = generate_corpus()
        jobs = _study_jobs()
        cold_start = time.perf_counter()
        cold = run_study(corpus, jobs=jobs)
        cold_seconds = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        warm = run_study(corpus, jobs=jobs)
        warm_seconds = time.perf_counter() - warm_start
    assert cold.projects == study.projects
    assert warm.projects == study.projects
    assert warm.timings.cache.hit_rate > 0.95

    from repro.obs.manifest import runtime_environment

    payload = {
        "benchmark": "canonical_study",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "projects": len(study),
        "skipped": len(study.skipped),
        # host fingerprint: `repro bench-check` refuses cross-machine
        # comparisons against this record unless explicitly allowed
        "environment": runtime_environment(),
        **timings.as_dict(),
        "warm_restudy": {
            "cold_seconds": round(cold_seconds, 6),
            "seconds": round(warm_seconds, 6),
            "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
            "parse_cache": warm.timings.cache.as_dict(),
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{study.timings.render()}\n[written to {BENCH_PATH}]")


def test_bench_json_is_valid_and_complete(study):
    """The emitted file parses and names every pipeline stage."""
    if not BENCH_PATH.exists():
        import pytest

        pytest.skip("BENCH_study.json not written yet (run the full file)")
    payload = json.loads(BENCH_PATH.read_text())
    for stage in ("generate", "mine", "analyze", "figures", "total"):
        assert stage in payload["stages"], f"missing stage {stage}"
    assert 0.0 <= payload["parse_cache"]["hit_rate"] <= 1.0
    assert payload["projects"] == len(study)
    assert payload["warm_restudy"]["parse_cache"]["hit_rate"] > 0.95
