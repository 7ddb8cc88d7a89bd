# Developer entry points for the study toolkit.
#
# Performance is measured by `python perfbench/run.py` over the
# workloads declared in BENCHMARK.json (see perfbench/README.md).
# `make test` is gated on `trace-smoke` — a small traced study
# whose JSONL events are validated line-by-line against the event
# schema and whose manifest must round-trip through json.loads — and on
# `pipeline-smoke`, which proves a warm artifact-store rerun replays the
# cold run byte-for-byte.  Both contracts hold before the suite starts.

PYTHON ?= python
JOBS ?= 1
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test trace-smoke pipeline-smoke sqlite-smoke serve-smoke scale-smoke study clean

test: trace-smoke pipeline-smoke sqlite-smoke serve-smoke
	$(PYTHON) -m pytest -x -q

# small traced study + event-schema validation + manifest round-trip
trace-smoke:
	$(PYTHON) -m repro.obs.smoke

# live-telemetry endpoint gate: a --serve 0 study probed over HTTP
# (/healthz, /metrics against the Prometheus grammar, /status, /runs,
# first-N SSE envelopes + ring replay) and proven byte-identical to an
# unserved run, with a clean port release on shutdown
serve-smoke:
	$(PYTHON) -m repro.obs.serve_smoke

# cold -> warm artifact-store replay: byte-identical reports (serial and
# jobs=4), every clean stage served from the store, invalidation cones,
# and the incremental scenario — mutating one project against the warm
# store recomputes exactly its map shards plus the reduce tail
pipeline-smoke:
	$(PYTHON) -m repro.pipeline.smoke

# workload gate: a --dialect sqlite micro-study runs the full DAG cold
# and replays byte-identical warm (serial and jobs=4), keys disjoint
# from the canonical study in the same store, with explain attributing
# the workload switch to params.dialect
sqlite-smoke:
	$(PYTHON) -m repro.pipeline.sqlite_smoke

# bounded-memory gate: a 2000-project study under --limit-memory 512
# (driver peak RSS asserted from the manifest-visible timings, the
# backpressure window proven bounded, the aggregate spill proven used)
# plus a byte-identical warm rerun, and a 195-project capped run whose
# per-project peak RSS must exceed the large run's (sub-linear growth);
# dial with REPRO_SCALE_SMOKE_PROJECTS / REPRO_SCALE_SMOKE_LIMIT_MB
scale-smoke:
	$(PYTHON) -m repro.pipeline.scale_smoke

study:
	$(PYTHON) -m repro study --jobs $(JOBS) --profile

clean:
	rm -rf benchmarks/output .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
