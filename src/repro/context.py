"""The run context: every piece of per-run state in one object.

A :class:`RunContext` owns what one study run observes and persists
through — the tracer, the warning recorder, the metrics registry, the
progress channel, the telemetry bus, the resource monitor, the parse
cache and the artifact store.  Code reaches them through
:func:`current` (``current().metrics.inc(...)``) instead of passing a
context through every signature.

A context is built from explicit settings (``trace``, ``store_dir``,
``cache_dir``) and builds each member lazily on first access, so a run
that never parses never imports the parser.  ``ctx.installed()``
makes it current for a block and restores the previous one on exit;
with none installed, :func:`current` installs a default context read
once from :data:`STORE_DIR_ENV` / :data:`CACHE_DIR_ENV`.

Pool workers never inherit a context: the driver ships
:attr:`RunContext.worker_config` to each worker's initializer, which
installs a fresh store-less context built from it (see
:func:`repro.perf.parallel.worker_init`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

#: Environment variable naming the default context's artifact store.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Environment variable naming the default context's parse-cache dir.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class RunContext:
    """The state of one run; see the module docstring."""

    def __init__(
        self,
        *,
        trace: bool = False,
        store_dir: str | Path | None = None,
        cache_dir: str | Path | None = None,
    ):
        if store_dir is not None and cache_dir is None:
            # one flag, both layers: parse results persist next to the
            # artifacts so a warm run is warm all the way down
            cache_dir = Path(store_dir) / "parse-cache"
        self.trace = trace
        self.store_dir = store_dir
        self.cache_dir = cache_dir

    @classmethod
    def from_environment(
        cls,
        *,
        trace: bool = False,
        store_dir: str | Path | None = None,
        cache_dir: str | Path | None = None,
    ) -> "RunContext":
        """A context whose unset directories default to the environment.

        An explicit ``store_dir`` also decides the parse-cache default
        (``<store>/parse-cache``), so the environment fills a layer
        only when neither directory was given for it.
        """
        if store_dir is None:
            store_dir = os.environ.get(STORE_DIR_ENV) or None
            if cache_dir is None:
                cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        return cls(trace=trace, store_dir=store_dir, cache_dir=cache_dir)

    @property
    def worker_config(self) -> tuple[bool, str | None]:
        """What a pool worker needs to rebuild this context's settings."""
        return (self.trace, str(self.cache_dir) if self.cache_dir else None)

    # -- members, each built on first access ---------------------------
    @cached_property
    def tracer(self):
        from .obs.trace import Tracer

        return Tracer(enabled=self.trace)

    @cached_property
    def recorder(self):
        from .obs.events import EventRecorder

        return EventRecorder()

    @cached_property
    def metrics(self):
        from .obs.metrics import MetricsRegistry

        return MetricsRegistry()

    @cached_property
    def progress(self):
        from .obs.progress import ProgressChannel

        return ProgressChannel()

    @cached_property
    def bus(self):
        from .obs.bus import TelemetryBus

        return TelemetryBus()

    @cached_property
    def monitor(self):
        from .obs.resources import ResourceMonitor

        return ResourceMonitor()

    @cached_property
    def cache(self):
        from .perf.cache import ParseCache

        return ParseCache(cache_dir=self.cache_dir)

    @cached_property
    def store(self):
        from .pipeline.store import DirStore, MemoryStore

        return DirStore(self.store_dir) if self.store_dir else MemoryStore()

    # -- installation --------------------------------------------------
    @contextmanager
    def installed(self):
        """Make this context current for a block; restore on exit."""
        previous = install(self)
        try:
            yield self
        finally:
            install(previous)


_current: RunContext | None = None


def install(context: RunContext | None) -> RunContext | None:
    """Make ``context`` current; returns the one it replaces."""
    global _current
    previous, _current = _current, context
    return previous


def current() -> RunContext:
    """The installed context (a default one from the environment if none)."""
    if _current is None:
        install(RunContext.from_environment())
    return _current
