"""Tests of the benchmark harness itself (not of the program).

Run from the root of a checkout::

    python -m pytest perfbench/test_perfbench.py
"""

import json
import re
from pathlib import Path

import pytest

import run
import steady
from ledger import Ledger, merge

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_limits(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 2 <= len(spec["workloads"]) <= 8
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    # every workload the file names is one the harness knows how to run
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def _fake_clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_times_partition_the_outer_span():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds a again [6, 7]
    ledger = Ledger(clock=_fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    ledger.enter("outer")
    ledger.enter("a")
    ledger.exit()
    ledger.enter("b")
    ledger.enter("a")
    ledger.exit()
    ledger.exit()
    assert ledger.exit() == 10
    assert ledger.self_s == {"outer": 3, "a": 4, "b": 3}
    assert sum(ledger.self_s.values()) == 10
    assert ledger.incl_s["b"] == 4 and ledger.calls["a"] == 2


def _driver_doc(cli_self_s=0.25, done_after=7.9):
    return {
        "self_s": {"import.load": 1.5, "pipeline.driver": cli_self_s,
                   "store.put": 2.0,
                   "parallel.window": 3.0, "trace.sizing": 0.5,
                   "trace.install": 0.05},
        "incl_s": {"parallel.window": 3.5},
        "calls": {},
        "counts": {"parallel.fanout_s": 4.0, "store.gets": 4,
                   "store.hits": 3},
        "startup_s": 0.06,
        "done_at": 1000.0 + done_after,
    }


WORKER = {"self_s": {"corpus.generate": 3.0, "parallel.worker": 0.5},
          "incl_s": {"parallel.worker": 7.0}, "calls": {},
          "counts": {"corpus.projects": 195}}


def test_layers_plus_residual_equal_the_traced_wall(spec):
    names = [m["name"] for m in spec["per_layer"]]
    metrics = run.layer_metrics(
        _driver_doc(), [WORKER], names, jobs=2, spawned_at=1000.0,
        untraced_wall=7.5, traced_wall=8.0,
    )
    assert set(metrics) == set(names)
    # the driver's layer spans; the CLI catch-all, start-up, teardown and
    # the 0.54 s no span covers are no layer's
    layers = 1.5 + 2.0 + 3.0 + 0.5 + 0.05
    assert metrics["interp.teardown_s"] == pytest.approx(0.1)
    assert metrics["ledger.layers_s"] == pytest.approx(layers)
    assert metrics["ledger.layers_s"] + metrics["residual_s"] == (
        pytest.approx(8.0))
    assert metrics["residual_s"] == pytest.approx(0.06 + 0.25 + 0.1 + 0.54)
    assert metrics["pipeline.driver_s"] == 0.25
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["corpus.generate_s"] == 3.0
    assert metrics["import.load_s"] == 1.5
    assert metrics["corpus.projects"] == 195
    assert metrics["parallel.dispatch_s"] == pytest.approx(4.0 * 2 - 7.0)
    assert metrics["store.hit_rate"] == 0.75
    assert metrics["trace.self_s"] == pytest.approx(0.55)
    assert merge([WORKER, WORKER])["counts"]["corpus.projects"] == 390


def test_uncovered_driver_time_shows_in_the_residual(spec):
    names = [m["name"] for m in spec["per_layer"]]

    def ledger_for(cli_self_s, wall):
        return run.layer_metrics(
            _driver_doc(cli_self_s, done_after=wall - 0.1), [WORKER], names,
            jobs=2, spawned_at=1000.0, untraced_wall=7.5, traced_wall=wall,
        )

    # the same command with 2 s more CLI work that no wrapped function
    # covers: the layers stay, the residual grows by those 2 s
    base, slower = ledger_for(0.25, 8.0), ledger_for(2.25, 10.0)
    assert slower["ledger.layers_s"] == pytest.approx(base["ledger.layers_s"])
    assert slower["residual_s"] - base["residual_s"] == pytest.approx(2.0)
    assert slower["residual_share"] > base["residual_share"]

    # the same from a live ledger: a span around the CLI whose self time
    # is the part its wrapped calls do not cover
    ledger = Ledger(clock=_fake_clock([0, 1, 3, 6]))
    ledger.enter("pipeline.driver")
    ledger.enter("store.put")
    ledger.exit()
    ledger.exit()
    doc = {**ledger.as_dict(), "counts": {}, "startup_s": 0.0,
           "done_at": 1000.0 + 6}
    metrics = run.layer_metrics(doc, [], names, jobs=1, spawned_at=1000.0,
                                untraced_wall=6.0, traced_wall=6.0)
    assert metrics["ledger.layers_s"] == 2
    assert metrics["residual_s"] == 4


def _sample(tmp_path, exit_code=0):
    log = tmp_path / "log.txt"
    log.write_text("output of the command\n")
    return run.Sample(wall_s=1.0, cpu_s=1.0, peak_rss_mb=100.0,
                      children_cpu_s=0.0, left_behind=0,
                      exit_code=exit_code, log=log)


def test_rusage_check_fails_on_unreaped_workers(tmp_path):
    def rep(children_cpu_s, left_behind):
        sample = run.Sample(wall_s=1.0, cpu_s=3.0, peak_rss_mb=100.0,
                            children_cpu_s=children_cpu_s,
                            left_behind=left_behind, exit_code=0,
                            log=tmp_path / "log.txt")
        return run.Rep(0.0, sample, 1, 0, 0, True)

    assert run.rusage_check([rep(2.0, 0)], jobs=2)[0]
    assert run.rusage_check([rep(0.0, 0)], jobs=1)[0]
    # a worker still alive after the command exited was never reaped
    assert not run.rusage_check([rep(2.0, 0), rep(2.0, 1)], jobs=2)[0]
    assert not run.rusage_check([rep(0.0, 1)], jobs=1)[0]
    # with a pool, reaped workers must have spent some CPU
    assert not run.rusage_check([rep(0.0, 0)], jobs=2)[0]


def test_steadiness_is_two_sided_and_covers_every_spread():
    flat = [10.0] * 10
    assert steady.agree(flat, [10.5] * 10, 0.1)
    assert not steady.agree(flat, [12.0] * 10, 0.1)
    # a much faster second set disagrees too
    assert not steady.agree(flat, [8.0] * 10, 0.1)
    wide = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0]
    assert not steady.agree(flat, wide, 0.25)
    assert not steady.agree(wide, flat, 0.25)


def test_wrong_report_hash_raises_fail_rate(tmp_path, monkeypatch):
    checker = run.Checker(tmp_path, run.DEFAULT_SEED, "cold")
    assert checker.check("rep 1", _sample(tmp_path), run.PINNED_SHA256)
    assert checker.failed == 0
    monkeypatch.setattr(run, "PINNED_SHA256", "0" * 64)
    forced = run.Checker(tmp_path, run.DEFAULT_SEED, "cold")
    assert not forced.check("rep 1", _sample(tmp_path), "e" * 64)
    assert not forced.check("rep 2", _sample(tmp_path, exit_code=1), None)
    assert (forced.failed, forced.attempted) == (2, 2)


def test_other_seeds_are_held_to_the_first_recorded_hash(tmp_path):
    first = run.Checker(tmp_path, 7, "cold")
    assert first.check("rep 1", _sample(tmp_path), "a" * 64)
    later = run.Checker(tmp_path, 7, "warm")
    assert later.check("rep 1", _sample(tmp_path), "a" * 64)
    assert not later.check("rep 2", _sample(tmp_path), "b" * 64)
    assert later.failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    with pytest.raises(run.HarnessError):
        run.Bench(tmp_path, "cold", 1)
    with pytest.raises(run.HarnessError):
        run.Bench(ROOT, "no-such-workload", 1)


def test_child_environment_is_scrubbed(monkeypatch):
    for name in ("REPRO_STORE_DIR", "REPRO_CACHE_DIR", "REPRO_TRACE"):
        monkeypatch.setenv(name, "/elsewhere")
    env = run.child_env(ROOT)
    assert not any(key.startswith("REPRO_") for key in env)
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_store_state_checks():
    def stages(**warm):
        return {"stages": [
            {"stage": name, "warm": warm.get(name, False),
             "warm_shards": 195 if warm.get(name) else 0}
            for name in run.STAGES
        ]}

    assert run.status_ok("empty", stages())
    assert not run.status_ok("empty", stages(generate=True))
    assert run.status_ok("filled", stages(**{n: True for n in run.STAGES}))
    assert run.status_ok("remine", stages(generate=True))
    assert not run.status_ok("remine", stages(generate=True, mine=True))
    record = {"projects": 195, "artifact_store": {
        "hits": 195, "recomputes": 589,
        "stages": {"generate": {"hits": 195, "recomputes": 0},
                   "mine": {"hits": 0, "recomputes": 195}}}}
    assert run.traffic_ok("remine", record)
    assert not run.traffic_ok("filled", record)
    assert not run.traffic_ok("empty", None)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        900 |   scipy.stats",
        "import time:        50 |       1250 | repro.analysis",
        "import time:        10 |         10 | json",
    ])
    total, scipy = run.parse_importtime(text)
    assert total == pytest.approx(1260e-6)
    assert scipy == pytest.approx(1200e-6)
