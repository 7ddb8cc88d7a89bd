"""Run one ``repro`` CLI command with every layer's entry points timed.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python perfbench/trace_child.py OUT_DIR SPAWNED_AT -- report --out ...

The program is not edited: this process imports it, replaces each
layer's public functions with span-recording wrappers (every module
that imported a function by name gets the wrapper too), then calls
``repro.cli.main`` in-process.  Forked pool workers inherit the
wrappers; each worker writes its own ledger after every shard it runs,
and this process writes ``OUT_DIR/driver.json`` when the command
returns.  ``SPAWNED_AT`` is the parent's ``time.time()`` just before
the spawn, so interpreter start-up is measured too.
"""

import time

FIRST_LINE_AT = time.time()

import functools  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402

from ledger import Ledger  # noqa: E402

LEDGER = Ledger()
DRIVER_PID = os.getpid()
OUT_DIR = "."

#: (module, function) -> layer.  Self time of each layer is what the
#: per-layer metrics report; nested layers are subtracted.
FUNCTION_LAYERS = {
    ("repro.corpus.generator", "generate_project"): "corpus.generate",
    ("repro.vcs.gitlog", "parse_git_log"): "vcs.parse_git_log",
    ("repro.mining.miner", "mine_project"): "mining.mine",
    ("repro.sqlparser.segment", "segment_statements"): "sqlparser.segment",
    ("repro.perf.fragments", "parse_schema_fragmented"): "sqlparser.replay",
    ("repro.perf.fragments", "compile_fragment"): "sqlparser.parse",
    ("repro.sqlparser.parser", "parse_schema"): "sqlparser.parse",
    ("repro.diff.engine", "diff_schemas"): "diff.diff",
    ("repro.pipeline.codec", "encode_payload"): "codec.encode",
    ("repro.pipeline.codec", "decode_payload"): "codec.decode",
    ("repro.perf.parallel", "map_shard"): "parallel.worker",
    ("repro.pipeline.stages", "analyze_one"): "analysis.analyze",
    ("repro.pipeline.stages", "compute_aggregate"): "analysis.aggregate",
    ("repro.pipeline.stages", "compute_figures"): "analysis.figures",
    ("repro.pipeline.stages", "compute_statistics"): "stats.statistics",
    ("repro.pipeline.stages", "compute_report"): "report.render",
    ("repro.report.markdown", "build_study_report"): "report.render",
}

#: Work counted per call, keyed by function name: (calls, size).
COUNTERS = {
    "generate_project": ("corpus.projects", None),
    "parse_git_log": (
        "vcs.calls", lambda args, text: ("vcs.log_bytes", len(args[0])),
    ),
    "diff_schemas": (
        "diff.calls", lambda args, delta: ("diff.activity", len(delta)),
    ),
    "build_study_report": (
        "report.calls",
        lambda args, text: ("report.bytes", len(text.encode())),
    ),
}


def _flush_worker() -> None:
    if os.getpid() != DRIVER_PID and LEDGER.idle:
        LEDGER.dump(os.path.join(OUT_DIR, f"worker-{os.getpid()}.json"))


def _span(layer, fn, counters=None):
    """Wrap ``fn`` in a ``layer`` span.

    ``counters`` is ``(calls_name, size)``: the call is counted under
    ``calls_name`` and, when ``size`` is given, ``size(args, result)``
    returns a ``(name, amount)`` pair to add.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        LEDGER.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            LEDGER.exit()
        if counters is not None:
            calls, size = counters
            LEDGER.count(calls)
            if size is not None:
                LEDGER.count(*size(args, result))
        _flush_worker()
        return result

    return wrapper


def _span_generator(layer, fn):
    """Wrap a generator function: each ``next`` is one ``layer`` span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        source = fn(*args, **kwargs)
        while True:
            LEDGER.enter(layer)
            try:
                item = next(source)
            except StopIteration:
                return
            finally:
                LEDGER.exit()
            yield item

    return wrapper


def _sized(name, obj) -> None:
    """Count ``obj``'s pickled size; the pickling is trace overhead."""
    LEDGER.enter("trace.sizing")
    try:
        LEDGER.count(name, len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)))
    finally:
        LEDGER.exit()


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    """Wrap every traced layer's entry points in this process."""
    import importlib

    from repro.perf.cache import ParseCache
    from repro.perf.parallel import ShardResult, window_map
    from repro.pipeline.graph import Pipeline
    from repro.pipeline.stages import STAGES
    from repro.pipeline.store import DirStore

    for (module_name, attr), layer in FUNCTION_LAYERS.items():
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = _span(layer, original, COUNTERS.get(attr))
        _replace_everywhere(original, wrapper)
        for spec in STAGES.values():
            if spec.compute is original:
                object.__setattr__(spec, "compute", wrapper)

    # the parse cache: lookups, hit kinds and statement reuse per call
    cache_parse = ParseCache.parse

    @functools.wraps(cache_parse)
    def parse(self, text, *, dialect=None):
        before = self.stats
        LEDGER.enter("perf.cache.lookup")
        try:
            result = cache_parse(self, text, dialect=dialect)
        finally:
            LEDGER.exit()
        delta = self.stats - before
        LEDGER.count("sqlparser.versions")
        LEDGER.count("sqlparser.ddl_bytes", len(text))
        for field in ("hits", "misses", "disk_hits", "unit_hits",
                      "unit_misses"):
            LEDGER.count(f"perf.cache.{field}", getattr(delta, field))
        return result

    ParseCache.parse = parse
    ParseCache._load = _span("perf.cache.io", ParseCache._load)
    ParseCache._store = _span("perf.cache.io", ParseCache._store)

    # the artifact store; codec bytes are the envelopes that went
    # through the codec on the way in or out
    raw_get, raw_put = DirStore._raw_get, DirStore._raw_put

    def entry_size(store, key) -> int:
        try:
            return os.path.getsize(store._path_for(key))
        except (OSError, AssertionError):
            return 0

    @functools.wraps(raw_get)
    def get(self, key):
        decodes = LEDGER.calls.get("codec.decode", 0)
        LEDGER.enter("store.get")
        try:
            artifact = raw_get(self, key)
        finally:
            LEDGER.exit()
        LEDGER.count("store.gets")
        if artifact is not None:
            LEDGER.count("store.hits")
            if LEDGER.calls.get("codec.decode", 0) > decodes:
                LEDGER.count("codec.bytes", entry_size(self, key))
        return artifact

    @functools.wraps(raw_put)
    def put(self, artifact):
        LEDGER.enter("store.put")
        try:
            raw_put(self, artifact)
        finally:
            LEDGER.exit()
        size = entry_size(self, artifact.key)
        LEDGER.count("store.puts")
        LEDGER.count("store.bytes_written", size)
        if artifact.meta.get("codec") is not None:
            LEDGER.count("codec.bytes", size)

    DirStore._raw_get = get
    DirStore._raw_put = put

    # the fan-out: pickled task/result bytes when a pool is in use
    @functools.wraps(window_map)
    def traced_window_map(fn, items, *, executor=None, **kwargs):
        def sized_items():
            for item in items:
                if executor is not None and item[1] == "task":
                    _sized("parallel.task_bytes", item[2])
                yield item

        source = _span_generator("parallel.window", window_map)(
            fn, sized_items(), executor=executor, **kwargs
        )
        start = time.perf_counter()
        for tag, value in source:
            if executor is not None and isinstance(value, ShardResult):
                _sized("parallel.result_bytes", value)
            yield tag, value
        LEDGER.count("parallel.fanout_s", time.perf_counter() - start)

    _replace_everywhere(window_map, traced_window_map)
    Pipeline._iter_map_payloads = _span_generator(
        "pipeline.map", Pipeline._iter_map_payloads
    )


def main(argv: list[str]) -> int:
    global OUT_DIR
    OUT_DIR, spawned_at = argv[0], float(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    LEDGER.enter("import.load")
    import repro.cli
    import repro.pipeline.graph  # noqa: F401  (the report path's stack)
    LEDGER.exit()
    LEDGER.enter("trace.install")
    install()
    LEDGER.exit()
    # the catch-all: its self time is CLI work no layer's wrapper covers,
    # which the harness books to the residual, not to a layer
    LEDGER.enter("pipeline.driver")
    try:
        code = repro.cli.main(cli_args)
    finally:
        LEDGER.exit()
    LEDGER.dump(
        os.path.join(OUT_DIR, "driver.json"),
        startup_s=FIRST_LINE_AT - spawned_at,
        done_at=time.time(),
        exit_code=code,
        modules=sorted(n for n in sys.modules if n.startswith("repro")),
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
