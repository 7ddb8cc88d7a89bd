"""End-to-end benchmark of ``python -m repro report`` (see README.md).

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold --seed 1952023 --seconds 10 --trace 0

Each run spawns the real CLI, one command at a time, against a fresh
store under ``.perfbench/`` and removes that store afterwards.  With
``--trace 0`` it times the untraced command and prints the end-to-end
metrics; with ``--trace 1`` it also runs the command once under
``trace_child.py`` and prints the per-layer ledger.  Every command's
report is hashed and checked; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ledger import merge

#: The paper's corpus seed (``repro.corpus.DEFAULT_SEED``): 195 projects.
DEFAULT_SEED = 1952023
#: sha256 of the canonical Markdown report for DEFAULT_SEED.
PINNED_SHA256 = (
    "e97b650eabed27ffda036524c04cd079a94a9747cd40bac06e79afc1e401466e"
)

HERE = Path(__file__).resolve().parent
#: Workload names and reasons, metric names, units and bounds.
SPEC_PATH = HERE.parent / "BENCHMARK.json"
#: Seconds one command may take before it is killed and counted failed.
COMMAND_TIMEOUT_S = 120.0
#: A run starts no new repetition that could end after this many seconds.
RUN_BUDGET_S = 165.0
MIB = 1024 * 1024
#: The study's stages, as ``pipeline status`` lists them.
STAGES = ("generate", "mine", "analyze", "aggregate", "figures",
          "statistics", "report")


@dataclass(frozen=True)
class Workload:
    """How one user path through ``repro report`` is run.

    ``store`` is what set-up leaves in the store before the timed
    command: ``"empty"``, ``"filled"`` (a complete earlier run) or
    ``"remine"`` (a complete run after ``pipeline invalidate mine``).
    Set-up checks the store's state and each repetition checks the
    store traffic its command caused, so a workload that silently
    stopped exercising its path fails instead of measuring something
    else.
    """

    jobs: int
    store: str


#: Every workload BENCHMARK.json names, and how it runs.
WORKLOADS = {
    "cold": Workload(1, "empty"),
    "cold_jobs2": Workload(2, "empty"),
    "warm": Workload(1, "filled"),
    "remine": Workload(1, "remine"),
}


class HarnessError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and metrics this harness reports."""
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {SPEC_PATH}: {exc}") from exc


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints."""
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


class SetupFailed(Exception):
    """The program failed while preparing the workload's store."""


# ----------------------------------------------------------------------
# spawning and measuring one command


@dataclass
class Sample:
    """One reaped command: its clocks, its tree's rusage and exit code.

    ``children_cpu_s`` is the part of ``cpu_s`` spent in children the
    command reaped (its pool workers); ``left_behind`` counts processes
    still in the command's session after it was reaped.
    """

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    children_cpu_s: float
    left_behind: int
    exit_code: int
    log: Path


def child_env(root: Path) -> dict:
    """The environment of every spawned command.

    Every ``REPRO_*`` variable is scrubbed (among them
    ``REPRO_STORE_DIR``, ``REPRO_CACHE_DIR`` and ``REPRO_TRACE``), so
    the user's shell cannot redirect the store or turn on telemetry.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _proc_stat(pid: int) -> list[str]:
    """The fields of ``/proc/PID/stat`` after the command name."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def _children_cpu(pid: int) -> float:
    """CPU seconds of the children a zombie reaped, from /proc."""
    cutime, cstime = (int(x) for x in _proc_stat(pid)[13:15])
    return (cutime + cstime) / os.sysconf("SC_CLK_TCK")


def _group_members(pgid: int) -> int:
    """How many processes are in process group ``pgid``."""
    members = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            members += int(_proc_stat(int(entry))[2]) == pgid
        except (OSError, IndexError, ValueError):
            continue
    return members


def _stop_group(pgid: int) -> None:
    """Kill what is left of a command's session and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def spawn(argv: list[str], root: Path, log: Path,
          timeout: float = COMMAND_TIMEOUT_S) -> Sample:
    """Run ``argv`` to completion and measure it.

    Wall clock runs from just before the spawn to the moment the
    process exits.  The exit is observed with ``WNOWAIT``, so the
    zombie's reaped-children CPU can be read from /proc before ``wait4``
    collects the rusage of the whole tree: CPU of the command and of
    every process it reaped (pool workers included) and the largest
    resident set among them.  What is still in the command's session
    after that was not reaped by it; it is counted, then killed.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
    timer = threading.Timer(timeout, _stop_group, (proc.pid,))
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        children = _children_cpu(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    left_behind = _group_members(proc.pid)
    _stop_group(proc.pid)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        children_cpu_s=children,
        left_behind=left_behind,
        exit_code=proc.returncode,
        log=log,
    )


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def report_args(out: Path, store: Path, jobs: int, seed: int) -> list[str]:
    return ["report", "--out", str(out), "--store-dir", str(store),
            "--jobs", str(jobs), "--seed", str(seed)]


def store_usage(store: Path) -> tuple[int, int, int]:
    """(bytes, parse-cache files, parse-cache bytes) under a store."""
    total = cache_files = cache_bytes = 0
    cache = store / "parse-cache"
    for folder, _, files in os.walk(store):
        sizes = [os.path.getsize(os.path.join(folder, n)) for n in files]
        total += sum(sizes)
        if Path(folder) == cache:
            cache_files += len(files)
            cache_bytes += sum(sizes)
    return total, cache_files, cache_bytes


def sha256_of(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def last_record(store: Path) -> dict | None:
    """The run-registry record the command appended to its store."""
    try:
        lines = (store / "runs" / "history.jsonl").read_text().splitlines()
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None


def status_ok(store: str, status: dict | None) -> bool:
    """Whether ``pipeline status --json`` shows the expected store state."""
    if status is None:
        return False
    stages = {s["stage"]: s for s in status.get("stages", [])}
    if set(stages) != set(STAGES):
        return False
    if store == "empty":
        return not any(s["warm"] or s.get("warm_shards") for s in stages.values())
    if store == "filled":
        return all(s["warm"] for s in stages.values())
    return stages["generate"]["warm"] and not any(
        s["warm"] or s.get("warm_shards") for name, s in stages.items()
        if name != "generate"
    )


def traffic_ok(store: str, record: dict | None) -> bool:
    """Whether the timed command did the store work its workload names.

    Read from the run-registry record the command appended to its
    store: a cold run hits nothing, a warm one recomputes nothing, a
    re-mine hits every ``generate`` shard and recomputes every ``mine``
    shard.
    """
    if record is None:
        return False
    traffic = record.get("artifact_store", {})
    stages = traffic.get("stages", {})

    def count(stage, kind):
        return stages.get(stage, {}).get(kind, 0)

    if store == "empty":
        return traffic.get("hits") == 0 and traffic.get("recomputes", 0) > 0
    if store == "filled":
        return traffic.get("recomputes") == 0 and traffic.get("hits", 0) > 0
    projects = record.get("projects", 0)
    return (
        projects > 0
        and count("generate", "hits") == projects
        and count("generate", "recomputes") == 0
        and count("mine", "recomputes") == projects
    )


# ----------------------------------------------------------------------
# correctness


class Checker:
    """Report-hash and failure accounting for one benchmark run.

    The expected hash for a seed is the pinned one for DEFAULT_SEED,
    otherwise the first hash any workload recorded for the seed in this
    checkout (``.perfbench/report-sha256.json``), so the four workloads
    are held to one another across runs.  Every failure is kept with
    its reason and printed.
    """

    def __init__(self, work: Path, seed: int, workload: str):
        self.path = work / "report-sha256.json"
        self.seed = seed
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}
        if seed == DEFAULT_SEED:
            self.expected = PINNED_SHA256
        else:
            self.expected = self.known.get(str(seed), {}).get("sha256")

    def check(self, what: str, sample: Sample, digest: str | None,
              traffic_ok: bool = True) -> bool:
        self.attempted += 1
        reason = None
        if sample.exit_code != 0:
            reason = f"exit code {sample.exit_code}"
        elif digest is None:
            reason = "no report written"
        elif self.expected is None:
            self.expected = digest
            self.known[str(self.seed)] = {
                "sha256": digest, "workload": self.workload,
            }
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        elif digest != self.expected:
            reason = f"report sha256 {digest} != expected {self.expected}"
        if reason is None and not traffic_ok:
            reason = "artifact-store traffic does not match the workload"
        if reason is not None:
            tail = ""
            try:
                tail = sample.log.read_text(errors="replace")[-2000:]
            except OSError:
                pass
            self.failures.append(f"{what}: {reason}")
            print(f"FAILED {what}: {reason}\n{tail}", file=sys.stderr)
        return reason is None

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ----------------------------------------------------------------------
# one workload run


@dataclass
class Rep:
    """One timed repetition of a workload's command."""

    setup_s: float
    sample: Sample
    store_bytes: int
    cache_files: int
    cache_bytes: int
    ok: bool


@dataclass
class Bench:
    """One benchmark run: its work dir, set-up store and checker."""

    root: Path
    workload: str
    seed: int
    spec: Workload = field(init=False)

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise HarnessError(
                f"unknown workload {self.workload!r} "
                f"(one of: {', '.join(WORKLOADS)})"
            )
        if not (self.root / "src" / "repro" / "__init__.py").is_file():
            raise HarnessError(
                f"no program to benchmark: {self.root}/src/repro is missing "
                "(run from the root of a checkout)"
            )
        self.spec = WORKLOADS[self.workload]
        self.started = time.perf_counter()
        work = self.root / ".perfbench"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=work))
        self.checker = Checker(work, self.seed, self.workload)
        self.master: Path | None = None
        self.counter = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _paths(self) -> tuple[Path, Path, Path]:
        self.counter += 1
        n = self.counter
        return (self.dir / f"store-{n}", self.dir / f"report-{n}.md",
                self.dir / f"log-{n}.txt")

    def prepare(self) -> float:
        """The run's one-time set-up; returns the seconds it took.

        ``filled`` and ``remine`` stores are filled by a complete
        ``--jobs 2`` run (its report is checked like any other), and
        ``remine`` then runs ``pipeline invalidate mine``.  Every
        workload then checks with ``pipeline status`` that the store
        repetitions start from is in the state the workload names.
        This also loads the program's modules once, so the first timed
        repetition does not pay for compiling them.
        """
        start = time.perf_counter()
        store, out, log = self._paths()
        if self.spec.store != "empty":
            sample = spawn(
                repro_argv(*report_args(out, store, 2, self.seed)),
                self.root, log,
            )
            if not self.checker.check("set-up fill", sample, sha256_of(out)):
                raise SetupFailed(self.workload)
            self.master = store
        if self.spec.store == "remine":
            self._require("set-up invalidate", spawn(
                repro_argv("pipeline", "invalidate", "mine", "--store-dir",
                           str(store), "--seed", str(self.seed)),
                self.root, log,
            ).exit_code == 0)
        sample = spawn(
            repro_argv("pipeline", "status", "--json", "--store-dir",
                       str(store), "--seed", str(self.seed)),
            self.root, log,
        )
        try:
            status = json.loads(log.read_text())
        except (OSError, ValueError):
            status = None
        self._require("set-up status", sample.exit_code == 0
                      and status_ok(self.spec.store, status))
        if self.master is None:
            shutil.rmtree(store)
        return time.perf_counter() - start

    def _require(self, what: str, ok: bool) -> None:
        if not ok:
            self.checker.fail(what, f"{self.workload} store not as expected")
            raise SetupFailed(self.workload)

    def prepare_store(self, store: Path) -> float:
        """Give one repetition its fresh store; returns the seconds taken."""
        start = time.perf_counter()
        if self.master is None:
            store.mkdir()
        else:
            shutil.copytree(self.master, store)
        return time.perf_counter() - start

    def rep(self, argv_for=None) -> Rep:
        """Set up, run and check one repetition, then drop its store."""
        store, out, log = self._paths()
        setup = self.prepare_store(store)
        before = store_usage(store)
        args = report_args(out, store, self.spec.jobs, self.seed)
        argv = argv_for(args) if argv_for else repro_argv(*args)
        sample = spawn(argv, self.root, log)
        after = store_usage(store)
        ok = self.checker.check(
            f"rep {self.counter}", sample, sha256_of(out),
            traffic_ok(self.spec.store, last_record(store)),
        )
        shutil.rmtree(store, ignore_errors=True)
        written = [a - b for a, b in zip(after, before)]
        return Rep(setup, sample, *written, ok)

    def timed_reps(self, seconds: float) -> list[Rep]:
        """Repeat the command until ``seconds`` of measuring have passed."""
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            reps.append(self.rep())
            now = time.perf_counter()
            longest = max(r.setup_s + r.sample.wall_s for r in reps)
            if now - start >= seconds:
                break
            if now - self.started + 1.5 * longest > RUN_BUDGET_S:
                break
        return reps


def rusage_check(reps: list[Rep], jobs: int) -> tuple[bool, str]:
    """Does ``cpu_s`` include the pool workers' CPU?

    ``wait4`` reports the CPU of the command and of every child it
    reaped, so a worker the command did not reap is missing from
    ``cpu_s``.  Such a worker outlives the command in its session: the
    check fails if any process is left there.  With ``--jobs 2`` the
    reaped children's CPU must also be non-zero.
    """
    lines, ok = [], True
    for rep in reps:
        s = rep.sample
        good = s.left_behind == 0 and (jobs == 1 or s.children_cpu_s > 0)
        ok = ok and good
        lines.append(
            f"cpu_s {s.cpu_s:.3f} of which reaped workers "
            f"{s.children_cpu_s:.2f}, {s.left_behind} process(es) left "
            f"behind: {'ok' if good else 'FAILED'}"
        )
    return ok, "; ".join(lines)


median = statistics.median


def samples(reps: list[Rep], once_s: float) -> dict[str, list[float]]:
    """Every repetition's end-to-end values; set-up adds the one-time part."""
    return {
        "wall_s": [r.sample.wall_s for r in reps],
        "cpu_s": [r.sample.cpu_s for r in reps],
        "peak_rss_mb": [r.sample.peak_rss_mb for r in reps],
        "store_mb_written": [r.store_bytes / MIB for r in reps],
        "setup_s": [once_s + r.setup_s for r in reps],
    }


def end_to_end(reps: list[Rep], once_s: float) -> dict[str, float]:
    """Medians over the repetitions that passed their checks."""
    good = [r for r in reps if r.ok] or reps
    return {k: median(v) for k, v in samples(good, once_s).items()}


def print_summary(bench: Bench, reps: list[Rep], once_s: float,
                  spec: dict) -> None:
    """Human-readable lines: every end-to-end sample, not just medians."""
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == bench.workload)
    print(f"workload {bench.workload} (seed {bench.seed}, "
          f"jobs {bench.spec.jobs}): {why}")
    units = metric_units(spec, trace=False)
    for name, values in samples(reps, once_s).items():
        print(f"  {name:18s} median {median(values):10.4f} "
              f"{units[name]:4s} min {min(values):.4f} "
              f"max {max(values):.4f} n={len(values)}")
    print(f"  setup_s is {once_s:.4f} s once per run plus the median "
          "per-repetition store preparation")
    attempted = bench.checker.attempted
    print(f"  fail_rate          {bench.checker.failed}/{attempted} = "
          f"{bench.checker.failed / max(1, attempted):.3f}")


# ----------------------------------------------------------------------
# the traced run


#: One ``-X importtime`` line: self and cumulative microseconds, then
#: the spaces before the module name (one for a top-level import, two
#: more per level of nesting).
_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> tuple[float, float]:
    """(total, scipy) seconds from ``python -X importtime`` output.

    Total sums the cumulative time of top-level imports; scipy sums the
    cumulative time of each scipy import not nested in another one.
    """
    total = scipy = 0.0
    stack: list[tuple[int, str]] = []
    entries = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    # importtime prints children before their parent: walk backwards so
    # each entry's enclosing import is on the stack when it is seen
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 1:
            total += cumulative / 1e6
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(
            n == "scipy" or n.startswith("scipy.") for _, n in stack
        ):
            scipy += cumulative / 1e6
        stack.append((depth, name))
    return total, scipy


#: Driver spans that belong to no layer: the catch-all around
#: ``repro.cli.main``.  Its self time is driver work no wrapped function
#: covers; it is reported as ``pipeline.driver_s`` but left out of
#: ``ledger.layers_s``, so that it is part of ``residual_s``.
UNOWNED_SPANS = frozenset({"pipeline.driver"})


def layer_metrics(driver: dict, workers: list[dict], names: list[str], *,
                  jobs: int, spawned_at: float, untraced_wall: float,
                  traced_wall: float) -> dict:
    """The per-layer metrics ``names`` from the driver's and workers' ledgers.

    Layer seconds and counts are summed over every process.  The
    wall-clock ledger uses the driver alone: with a pool, the driver's
    ``parallel.window`` self time is where it waits for workers, and
    worker layer times overlap it.  ``ledger.layers_s`` is the self time
    of every driver span of a layer, the tracer's own spans
    (``trace.self_s``) included.  ``residual_s`` is the rest of the
    traced wall, owned by no layer: interpreter start-up and teardown,
    the CLI's own work outside every wrapped function, and gaps no span
    covers.  The untraced wall is ``traced wall - trace.overhead_s``, so
    the untraced remainder ``untraced wall - layers`` is ``residual_s -
    trace.overhead_s``.
    """
    total = merge([driver, *workers])
    self_s, counts = total["self_s"], total["counts"]
    # ledger layers and counters carry the metric names: layer X's self
    # time is metric X_s
    metrics = {
        name: float(counts.get(name, self_s.get(name.removesuffix("_s"), 0)))
        for name in names
    }
    unit_hits = counts.get("perf.cache.unit_hits", 0)
    units = unit_hits + counts.get("perf.cache.unit_misses", 0)
    metrics["perf.cache.stmt_reuse_rate"] = unit_hits / units if units else 0.0
    gets = counts.get("store.gets", 0)
    metrics["store.hit_rate"] = counts.get("store.hits", 0) / gets if gets else 0.0
    busy = total["incl_s"].get("parallel.worker", 0.0)
    metrics["parallel.worker_busy_s"] = busy
    # worker capacity the fan-out left idle: its wall times the pool
    # width, less the time workers spent inside shards
    fanout = driver["counts"].get("parallel.fanout_s", 0.0)
    metrics["parallel.dispatch_s"] = fanout * jobs - busy
    metrics["interp.startup_s"] = driver["startup_s"]
    # from the ledger's last write to the process's exit: pool
    # shutdown, atexit hooks and interpreter teardown
    metrics["interp.teardown_s"] = spawned_at + traced_wall - driver["done_at"]
    metrics["trace.self_s"] = sum(
        seconds for layer, seconds in driver["self_s"].items()
        if layer.startswith("trace.")
    )
    layers = sum(seconds for layer, seconds in driver["self_s"].items()
                 if layer not in UNOWNED_SPANS)
    metrics["ledger.layers_s"] = layers
    metrics["residual_s"] = traced_wall - layers
    metrics["residual_share"] = metrics["residual_s"] / traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def traced_run(bench: Bench, untraced: list[Rep], names: list[str]) -> dict:
    """One traced command plus an import-time profile of its modules."""
    ledger_dir = bench.dir / "ledger"
    ledger_dir.mkdir()
    spawned_at = []

    def traced_argv(args):
        spawned_at.append(time.time())
        return [sys.executable, str(HERE / "trace_child.py"),
                str(ledger_dir), repr(spawned_at[-1]), "--", *args]

    rep = bench.rep(traced_argv)
    try:
        driver_doc = json.loads((ledger_dir / "driver.json").read_text())
    except (OSError, ValueError):
        # the traced command failed (the checker has counted it)
        return dict.fromkeys(names, 0.0)
    workers = [
        json.loads(p.read_text()) for p in ledger_dir.glob("worker-*.json")
    ]
    untraced_wall = median([r.sample.wall_s for r in untraced])
    metrics = layer_metrics(
        driver_doc, workers, names, jobs=bench.spec.jobs,
        spawned_at=spawned_at[0],
        untraced_wall=untraced_wall, traced_wall=rep.sample.wall_s,
    )
    metrics["perf.cache.files_written"] = float(rep.cache_files)
    metrics["perf.cache.bytes_written"] = float(rep.cache_bytes)
    ok, _ = rusage_check(untraced, bench.spec.jobs)
    metrics["parallel.rusage_ok"] = 1.0 if ok else 0.0
    metrics["parallel.worker_cpu_s"] = median(
        [r.sample.children_cpu_s for r in untraced])
    modules = driver_doc.get("modules", [])
    log = bench.dir / "importtime.txt"
    spawn(
        [sys.executable, "-X", "importtime", "-c",
         "import " + ", ".join(modules)],
        bench.root, log,
    )
    metrics["import.total_s"], metrics["import.scipy_s"] = parse_importtime(
        log.read_text(errors="replace"))
    return metrics


# ----------------------------------------------------------------------
# entry point


def git_status(root: Path) -> str | None:
    """``git status`` of the checkout, or None when it is not a git one."""
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path | None = None) -> dict:
    """One benchmark run; returns the result object printed last."""
    root = (root or Path.cwd()).resolve()
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise HarnessError(f"{SPEC_PATH.name} names no workload {workload!r}")
    units = metric_units(spec, trace)
    status_before = git_status(root)
    bench = Bench(root, workload, seed)
    try:
        once_s = bench.prepare()
        reps = bench.timed_reps(seconds)
        print_summary(bench, reps, once_s, spec)
        rusage_ok, detail = rusage_check(reps, bench.spec.jobs)
        print(f"  rusage check: {'ok' if rusage_ok else 'FAILED'} ({detail})")
        if not rusage_ok:
            bench.checker.fail("rusage check", detail)
        if trace:
            values = traced_run(bench, reps, list(units))
        else:
            values = end_to_end(reps, once_s)
    except SetupFailed:
        values = dict.fromkeys(units, 0.0)
    finally:
        bench.close()
    if git_status(root) != status_before:
        bench.checker.fail("hermeticity", "the run changed `git status`")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    if trace:
        for name, metric in metrics.items():
            print(f"  {name:28s} {metric['value']:14.6f} {metric['unit']}")
    return {
        "correct": bench.checker.failed == 0,
        "attempted": bench.checker.attempted,
        "failed": bench.checker.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
