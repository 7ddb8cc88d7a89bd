"""The per-project units of the study and their process-pool fan-out.

One per-project engine serves every study: :func:`mine_one` mines a
project (git log plus DDL history) and the driver analyzes the result
with :func:`~repro.pipeline.stages.analyze_one`.  The stage graph runs
that unit with an artifact store (:func:`map_shard` adds generation in
front of it); :func:`~repro.analysis.study.run_study` runs it without
one, over an already generated or loaded corpus.  Both fan out through
:func:`window_map` and fold every result's side channels through
:func:`fold_mined`.

The units are module-level functions because bound methods and
closures cannot cross the pickle boundary.  Each result carries its own
stage seconds, parse-cache delta, metrics delta, warning window, worker
resource sample and (when tracing is enabled) the serialised span tree
of its work, so the driver can rebuild a corpus-wide breakdown and
reattach every worker span under its own dispatching span.  The same
functions run in-process on the serial path, so serial and parallel
runs flow through identical instrumentation and produce identical
results.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

from ..corpus.generator import (
    GeneratedProject,
    ProjectSpec,
    generate_project,
)
from ..corpus.profiles import TaxonProfile
from ..context import RunContext, current, install
from ..mining import mine_project
from ..obs.metrics import MetricsSnapshot
from ..obs.resources import cpu_times, peak_rss_bytes
from .cache import CacheStats


#: CPU clock at this worker's previous resource sample (first set by
#: :func:`worker_init`); ``None`` means this process is the driver
#: (serial path), whose footprint the driver's own sampler windows
#: already cover — workers alone ship samples back.
_worker_cpu_mark: tuple[float, float] | None = None


def worker_init(config: tuple[bool, str | None]) -> None:
    """Install a pool worker's own run context.

    ``config`` is the driver context's
    :attr:`~repro.context.RunContext.worker_config` — ``(trace,
    cache_dir)`` — passed as the pool's ``initargs``.  The worker
    builds a fresh, store-less context from it rather than using the
    one it inherited when forked: that one's bus may hold the driver's
    ``--log-json`` sink, and writing through the duplicated file
    descriptor would log every worker span and warning twice.  Worker
    spans and warnings travel back inside the :class:`MinedHistory`
    and the driver alone emits them.

    Also marks the worker's CPU baseline so shipped resource samples
    report the worker's *work*, not its import/fork overhead, and so
    the serial path (where this initializer never runs) ships no
    sample at all.
    """
    trace, cache_dir = config
    install(RunContext(trace=trace, cache_dir=cache_dir))
    # a worker forked while --serve is up inherits the listening
    # socket fd; left open, the kernel keeps accepting on the port
    # after the driver shuts the server down (guarded import: a no-op
    # unless the driver loaded the server module)
    server_mod = sys.modules.get("repro.obs.server")
    if server_mod is not None:
        server_mod.close_inherited_sockets()
    global _worker_cpu_mark
    _worker_cpu_mark = cpu_times()


def _worker_sample() -> dict | None:
    """This worker's footprint for the driver, ``None`` on the driver.

    A pool worker is a single-purpose process, so its lifetime peak RSS
    *is* its work's peak — no sampler window needs to cross the pickle
    boundary.  CPU seconds are measured since the worker's previous
    sample (or :func:`worker_init` for its first), so the driver can
    sum the samples of many tasks run by one worker without counting
    any CPU twice.
    """
    global _worker_cpu_mark
    if _worker_cpu_mark is None:
        return None
    last_user, last_system = _worker_cpu_mark
    user, system = _worker_cpu_mark = cpu_times()
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "cpu_seconds": round(
            max(0.0, user - last_user) + max(0.0, system - last_system),
            6,
        ),
        "pid": os.getpid(),
    }


@dataclass
class MinedHistory:
    """One project's mined result, as :func:`mine_one` returns it.

    Mining stops before analysis so the pipeline's ``mine`` artifact can
    be reused by every downstream consumer.  Besides the full
    :class:`~repro.mining.ProjectHistory` and the ground truth analysis
    needs, it carries the cross-process observability channels that
    :func:`fold_mined` folds into the driver's run.
    """

    name: str
    history: object  # ProjectHistory (kept untyped: pickled across pools)
    true_taxon: object
    seconds: float
    cache: CacheStats
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    warnings: list[dict] = field(default_factory=list)
    trace: dict | None = None
    resources: dict | None = None


def mine_one(
    project: GeneratedProject, *, source: str = "ddl"
) -> MinedHistory:
    """The per-project mining unit, run in a worker or in-process.

    Mines inside a detached ``project``/``mine`` span pair, counts
    ``projects.mined`` and ``changes.*``, and ships the cache / metrics
    / warning deltas back to the driver.  Analysis — and the
    empty-history skip decision it makes — happens driver-side in
    :func:`~repro.pipeline.stages.analyze_one`.  ``source`` names the
    :class:`~repro.mining.sources.HistorySource` the schema half mines
    through (the workload's source half; ``"ddl"`` is canonical).
    """
    ctx = current()
    tracer, metrics, recorder = ctx.tracer, ctx.metrics, ctx.recorder
    cache_before = ctx.cache.stats
    metrics_before = metrics.snapshot()
    warn_mark = recorder.mark()
    with tracer.detached(
        "project", project=project.name, worker=os.getpid()
    ) as span:
        start = time.perf_counter()
        with tracer.span("mine") as mine_span:
            history = mine_project(project.repository, source=source)
            mine_span.set(
                versions=history.schema_history.commit_count,
                months=history.duration_months,
            )
        done = time.perf_counter()
    metrics.inc("projects.mined")
    for kind, count in _change_counts(history).items():
        metrics.inc(f"changes.{kind}", count)
    return MinedHistory(
        name=project.name,
        history=history,
        true_taxon=project.true_taxon,
        seconds=done - start,
        cache=ctx.cache.stats - cache_before,
        metrics=metrics.snapshot() - metrics_before,
        warnings=recorder.since(warn_mark),
        trace=span.to_dict() if tracer.enabled else None,
        resources=_worker_sample(),
    )


def fold_mined(
    mined: MinedHistory, timings, metrics: MetricsSnapshot, *, jobs: int
) -> MetricsSnapshot:
    """Fold one :func:`mine_one` result's side channels into the run.

    The one driver-side fold for mined results, with or without a
    store: the mine seconds and parse-cache delta go into ``timings``
    (a :class:`~repro.perf.timing.StudyTimings`), a worker's resource
    sample into its ``workers`` scope, the span tree reattaches under
    the driver's current span, and — when ``jobs > 1``, so the work ran
    in another process — the worker's warnings replay through the
    driver recorder.  Returns ``metrics`` plus the result's metrics
    delta.
    """
    timings.record("mine", mined.seconds)
    timings.merge_cache(mined.cache)
    if mined.resources is not None:
        # worker peaks fold by max into one "workers" scope: the pool's
        # footprint is its worst process, not their sum
        timings.record_resource("workers", mined.resources)
    if mined.trace is not None:
        # a worker's span closes were invisible to the driver's sinks,
        # so with jobs > 1 attaching re-emits their events
        current().tracer.attach(mined.trace, emit=jobs > 1)
    if mined.warnings and jobs > 1:
        # worker warnings replay here so the driver's recorder (and any
        # --log-json sink) sees them exactly once
        recorder = current().recorder
        for record in mined.warnings:
            recorder.replay(record)
    return metrics + mined.metrics


@dataclass
class ShardTask:
    """One cold map shard shipped to the fan-out.

    ``project`` carries a warm ``generate`` artifact payload when only
    the mine work is cold; ``None`` means the worker generates first.
    ``spec``/``profile`` are always present — they are the shard's
    identity, and generation needs them.  ``source`` names the history
    source the mine half runs through (the workload's source half;
    the default keeps canonical tasks pickle-compatible).
    """

    spec: ProjectSpec
    profile: TaxonProfile
    project: GeneratedProject | None = None
    source: str = "ddl"


@dataclass
class ShardResult:
    """What one map-shard unit hands back to the driver.

    ``generated`` is the freshly generated project when the worker had
    to generate (the driver stores it as the shard's ``generate``
    artifact), ``None`` when the task arrived with a warm project.
    The mine half always runs; its observability channels ride on
    ``mined``, folded by :func:`fold_mined`.
    """

    name: str
    mined: MinedHistory
    generated: GeneratedProject | None = None
    generate_seconds: float = 0.0


def map_shard(task: ShardTask) -> ShardResult:
    """The per-shard unit of the pipeline's map phase: generate? + mine.

    One code path for serial and pooled runs: a cold shard generates its project from ``spec.seed`` (bit
    identical regardless of scheduling) and mines it in the same
    worker, so the project never crosses the process boundary twice.
    Analysis stays driver-side — it is orders of magnitude cheaper and
    owns the skip decision.
    """
    project = task.project
    generated = None
    generate_seconds = 0.0
    if project is None:
        start = time.perf_counter()
        project = generate_project(task.spec, task.profile)
        generate_seconds = time.perf_counter() - start
        generated = project
    return ShardResult(
        name=task.spec.name,
        mined=mine_one(project, source=task.source),
        generated=generated,
        generate_seconds=generate_seconds,
    )


def _change_counts(history) -> dict[str, int]:
    """Atomic-change totals by kind over one project's whole history."""
    totals: dict[str, int] = {}
    for transition in history.schema_history.transitions:
        for change in transition.delta.changes:
            kind = change.kind.value
            totals[kind] = totals.get(kind, 0) + 1
    return totals


def call(task):
    """Run one bound task — the fan-out unit for a ``functools.partial``.

    Lets :func:`window_map` ship work whose function takes more than
    one argument (corpus generation) without a wrapper per function.
    """
    return task()


def default_window(jobs: int) -> int:
    """The fan-out's default in-flight window for ``jobs`` workers."""
    return max(2, 2 * jobs)


@dataclass
class WindowStats:
    """What one :func:`window_map` drive actually did.

    ``max_in_flight`` is the high-water mark of simultaneously
    submitted-but-undrained tasks — the memory bound the window
    enforces.  ``shrinks`` counts the times a callable ``window``
    returned a smaller limit than the previous check (the memory
    watchdog's auto-shrink leaves its trail here).
    """

    submitted: int = 0
    completed: int = 0
    max_in_flight: int = 0
    shrinks: int = 0
    _last_limit: int | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "max_in_flight": self.max_in_flight,
            "shrinks": self.shrinks,
        }


def window_map(fn, items, *, executor=None, window=2, stats=None):
    """Backpressured fan-out: map ``fn`` over tasks, a window at a time.

    ``items`` yields ``(tag, kind, value)`` triples in corpus order:

    - ``kind == "ready"`` — ``value`` is already a result (a warm shard
      payload); it flows through untouched, in order.
    - ``kind == "task"`` — ``value`` is an argument for ``fn``.  With an
      ``executor`` it is submitted; serially it is evaluated lazily at
      drain time.  Either way at most ``window`` tasks are in flight at
      once — the producer is *not* advanced while the window is full,
      so planning, submission and result memory are all bounded.

    Yields ``(tag, result)`` strictly in item order (the reduce fold
    must see corpus order to stay byte-identical with a serial run).  ``window`` may be a callable returning the current limit —
    the memory watchdog shrinks it under pressure; a limit drop takes
    effect at the next admission check, draining the surplus before any
    new submission.
    """
    from collections import deque

    if stats is None:
        stats = WindowStats()
    limit = window if callable(window) else (lambda: window)
    pending: deque = deque()

    def drain():
        tag, kind, value = pending.popleft()
        if kind == "task":
            stats.completed += 1
            if executor is None:
                return tag, fn(value)
            return tag, value.result()
        return tag, value

    def current_limit() -> int:
        now = max(1, int(limit()))
        if stats._last_limit is not None and now < stats._last_limit:
            stats.shrinks += 1
        stats._last_limit = now
        return now

    for item in items:
        tag, kind, value = item
        if kind == "task":
            if executor is not None:
                value = executor.submit(fn, value)
            stats.submitted += 1
        pending.append((tag, kind, value))
        in_flight = sum(1 for _, k, _v in pending if k == "task")
        stats.max_in_flight = max(stats.max_in_flight, in_flight)
        # ready fronts drain for free (order-preserving, keeps warm
        # payloads from piling up behind an in-flight task); a full
        # window blocks on the front task before admitting more work
        while pending and (
            pending[0][1] == "ready" or len(pending) >= current_limit()
        ):
            yield drain()
    while pending:
        yield drain()
