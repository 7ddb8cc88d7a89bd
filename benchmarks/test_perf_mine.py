"""PERF — mine-only microbenchmark, written to BENCH_mine.json.

The mine stage dominates the cold study run (see BENCH_study.json), so
this harness times it in isolation: the canonical 195-project corpus is
generated once, then every project is mined serially through a fresh
memory-only parse cache (the cold pass) and once more through the now
warm cache.  The payload is a ``bench-check``-compatible record — run
``repro bench-check BENCH_mine.json <candidate> --stage mine`` to gate
the hot path — and carries the statement-level fragment-cache counters
that the incremental parse engine lives or dies by.

``BENCH_mine_baseline.json`` preserves the pre-incremental-engine
record of this same benchmark; it is committed history, never
overwritten.  Run via ``make bench-mine`` — gated on the tier-1 suite
like every BENCH writer.
"""

import json
import time
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_mine.json"


def test_mine_only_breakdown_and_bench_json():
    """Cold + warm mine over the canonical corpus; persist the record."""
    from repro.context import RunContext
    from repro.corpus import generate_corpus
    from repro.mining import mine_project
    from repro.obs.manifest import runtime_environment

    corpus = generate_corpus()
    with RunContext().installed() as ctx:
        cold_start = time.perf_counter()
        histories = [mine_project(p.repository) for p in corpus]
        cold_seconds = time.perf_counter() - cold_start
        cold_stats = ctx.cache.stats

        warm_start = time.perf_counter()
        rehistories = [mine_project(p.repository) for p in corpus]
        warm_seconds = time.perf_counter() - warm_start
        warm_stats = ctx.cache.stats - cold_stats

    assert len(histories) == len(corpus) == len(rehistories)
    total_activity = sum(
        h.schema_history.total_activity for h in histories
    )
    assert total_activity == sum(
        h.schema_history.total_activity for h in rehistories
    ), "warm mine must reproduce the cold activity totals"
    assert warm_stats.hit_rate > 0.95

    payload = {
        "benchmark": "mine_only",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "projects": len(corpus),
        "jobs": 1,
        "environment": runtime_environment(),
        "stages": {
            "mine": round(cold_seconds, 6),
            "total": round(cold_seconds, 6),
        },
        "parse_cache": cold_stats.as_dict(),
        "total_activity": total_activity,
        "warm_mine": {
            "seconds": round(warm_seconds, 6),
            "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
            "parse_cache": warm_stats.as_dict(),
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nmine (cold): {cold_seconds:.3f}s over {len(corpus)} projects; "
        f"warm: {warm_seconds:.3f}s\n[written to {BENCH_PATH}]"
    )


def test_bench_mine_json_is_valid():
    """The emitted record parses and is bench-check comparable."""
    if not BENCH_PATH.exists():
        import pytest

        pytest.skip("BENCH_mine.json not written yet (run the full file)")
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["benchmark"] == "mine_only"
    assert payload["stages"]["mine"] > 0
    assert 0.0 <= payload["parse_cache"]["hit_rate"] <= 1.0

    from repro.obs.regress import sample_from_dict

    sample = sample_from_dict(payload, source=str(BENCH_PATH))
    assert sample.kind == "bench"
    assert "mine" in sample.stages
