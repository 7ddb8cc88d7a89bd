"""A reusable warm worker pool for the study fan-outs.

Every fan-out — the pipeline's map phase, ``run_study``'s mining and
``generate_corpus(jobs=N)`` — runs the per-project units of
:mod:`repro.perf.parallel` on one of these pools.  A pool per call would
pay worker start-up again for every fan-out, and each fresh worker
would re-warm its in-memory parse cache from nothing; the units are
stateless module-level callables, so the processes are perfectly
reusable.

:func:`warm_pool` hands out a process-wide executor keyed on

* ``jobs`` — pools of different widths coexist (tests mix widths), and
* the current run context's ``worker_config`` — ``(trace, cache_dir)``,
  the settings each worker's initializer builds its own context from.
  Workers keep those settings for life, so a run with different ones
  (tracing on, another cache dir) gets its own pool rather than
  workers that silently drop its spans or write to a stale location.

The pools are deliberately process-wide, not part of a run context:
they outlive runs so that consecutive runs with the same settings
reuse warm workers.

Pools are retained LRU up to a small cap, a broken pool (a worker
died; the executor poisons itself permanently) is detected and
replaced transparently, and everything is shut down at interpreter
exit.  Reuse is invisible to correctness: workers hold only their
content-addressed parse caches, which return oracle-equivalent results
whether warm or cold.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor

from ..context import current

#: How many distinct (jobs, worker_config) pools to keep alive at once.
_MAX_POOLS = 4

_pools: dict[tuple, ProcessPoolExecutor] = {}


def warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared executor for ``jobs`` workers (created on first use).

    Callers use the returned executor *without* shutting it down (no
    ``with`` block): it stays warm for the next fan-out.  A pool whose
    workers died is replaced transparently, so callers never see a
    ``BrokenProcessPool`` left over from an earlier run's crash.
    """
    config = current().worker_config
    key = (jobs, config)
    pool = _pools.get(key)
    if pool is not None and getattr(pool, "_broken", False):
        _pools.pop(key, None)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        # imported here: parallel pulls in the whole mining/analysis
        # stack, which itself imports repro.perf at package init
        from .parallel import worker_init

        pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=worker_init, initargs=(config,)
        )
        _pools[key] = pool
    else:
        # LRU refresh: re-insert at the end of the dict order
        _pools.pop(key)
        _pools[key] = pool
    while len(_pools) > _MAX_POOLS:
        _, oldest = next(iter(_pools.items()))
        _evict(oldest)
    return pool


def _evict(target: ProcessPoolExecutor) -> None:
    for key, pool in list(_pools.items()):
        if pool is target:
            _pools.pop(key, None)
    target.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> int:
    """Shut down every live pool; returns how many were closed.

    Mostly for tests and the atexit hook — long-lived callers just keep
    the pools warm.
    """
    closed = 0
    for pool in list(_pools.values()):
        pool.shutdown(wait=False, cancel_futures=True)
        closed += 1
    _pools.clear()
    return closed


atexit.register(shutdown_pools)
