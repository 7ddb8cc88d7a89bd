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
* the active :data:`~repro.perf.cache.CACHE_DIR_ENV` value — workers
  capture the cache directory when their process starts, so changing
  the configured cache dir must retire the old workers rather than let
  them keep writing to the stale location.

Pools are retained LRU up to a small cap, a broken pool (a worker
died; the executor poisons itself permanently) is detected and
replaced transparently, and everything is shut down at interpreter
exit.  Reuse is invisible to correctness: workers hold only their
content-addressed parse caches, which return oracle-equivalent results
whether warm or cold.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor

from .cache import CACHE_DIR_ENV

#: How many distinct (jobs, cache_dir) pools to keep alive at once.
_MAX_POOLS = 4

_pools: dict[tuple[int, str], ProcessPoolExecutor] = {}


def _pool_key(jobs: int) -> tuple[int, str]:
    return (jobs, os.environ.get(CACHE_DIR_ENV) or "")


def warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared executor for ``jobs`` workers (created on first use).

    Callers use the returned executor *without* shutting it down (no
    ``with`` block): it stays warm for the next fan-out.  A pool whose
    workers died is replaced transparently, so callers never see a
    ``BrokenProcessPool`` left over from an earlier run's crash.
    """
    key = _pool_key(jobs)
    pool = _pools.get(key)
    if pool is not None and getattr(pool, "_broken", False):
        _pools.pop(key, None)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        # imported here: parallel pulls in the whole mining/analysis
        # stack, which itself imports repro.perf at package init
        from .parallel import worker_init

        pool = ProcessPoolExecutor(max_workers=jobs, initializer=worker_init)
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
