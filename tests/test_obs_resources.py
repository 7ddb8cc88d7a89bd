"""Resource telemetry: the /proc-backed sampler, the monitor's window
protocol, and how per-scope footprints surface in timings payloads,
manifests, and worker results."""

import threading

import pytest

from repro.context import current
from repro.obs.resources import (
    ResourceMonitor,
    ResourceSample,
    current_rss_bytes,
    peak_rss_bytes,
    process_sample,
)
from repro.perf.timing import StudyTimings

MIB = 2**20


class TestSamplers:
    def test_rss_sources_report_plausible_bytes(self):
        # a live CPython process is at least a few MiB resident
        assert current_rss_bytes() > 4 * MIB
        assert peak_rss_bytes() >= current_rss_bytes() // 2

    def test_process_sample_shape(self):
        sample = process_sample()
        assert sample.peak_rss_bytes > 0
        assert sample.cpu_seconds >= 0
        assert sample.as_dict() == {
            "peak_rss_bytes": sample.peak_rss_bytes,
            "cpu_seconds": round(sample.cpu_seconds, 6),
        }

    def test_sample_is_immutable(self):
        sample = ResourceSample(1, 0.0, 0.0)
        with pytest.raises(AttributeError):
            sample.peak_rss_bytes = 2


class TestResourceMonitor:
    def test_window_captures_a_sample(self):
        monitor = ResourceMonitor()
        with monitor.window() as window:
            sum(range(10_000))
        sample = window.sample
        assert sample.peak_rss_bytes > 0
        assert sample.cpu_seconds >= 0

    def test_concurrent_windows_are_independent(self):
        monitor = ResourceMonitor()
        outer = monitor.open_window()
        inner = monitor.open_window()
        inner_sample = monitor.close_window(inner)
        outer_sample = monitor.close_window(outer)
        assert inner_sample.peak_rss_bytes > 0
        assert outer_sample.peak_rss_bytes >= inner_sample.peak_rss_bytes

    def test_global_monitor_is_a_singleton_with_a_daemon_thread(self):
        assert current().monitor is current().monitor
        with current().monitor.window() as window:
            pass
        assert window.sample.peak_rss_bytes > 0
        samplers = [
            t for t in threading.enumerate()
            if t.daemon and "resource" in t.name.lower()
        ]
        assert samplers


class TestTimingsResources:
    def test_record_resource_folds_peaks_and_sums_cpu(self):
        timings = StudyTimings()
        timings.record_resource(
            "workers", {"peak_rss_bytes": 100, "cpu_seconds": 1.0}
        )
        timings.record_resource(
            "workers", {"peak_rss_bytes": 50, "cpu_seconds": 2.0}
        )
        scope = timings.resources["workers"]
        assert scope["peak_rss_bytes"] == 100  # max, not sum
        assert scope["cpu_seconds"] == 3.0  # sum, not max

    def test_accepts_resource_samples_directly(self):
        timings = StudyTimings()
        timings.record_resource("driver", ResourceSample(7, 0.25, 0.25))
        assert timings.resources["driver"] == {
            "peak_rss_bytes": 7, "cpu_seconds": 0.5,
        }

    def test_all_zero_samples_are_dropped(self):
        timings = StudyTimings()
        timings.record_resource(
            "driver", {"peak_rss_bytes": 0, "cpu_seconds": 0.0}
        )
        assert timings.resources == {}

    def test_merge_folds_scopes(self):
        a, b = StudyTimings(), StudyTimings()
        a.record_resource("workers", {"peak_rss_bytes": 10,
                                      "cpu_seconds": 1.0})
        b.record_resource("workers", {"peak_rss_bytes": 20,
                                      "cpu_seconds": 1.0})
        b.record_resource("driver", {"peak_rss_bytes": 5,
                                     "cpu_seconds": 0.5})
        a.merge(b)
        assert a.resources["workers"]["peak_rss_bytes"] == 20
        assert a.resources["workers"]["cpu_seconds"] == 2.0
        assert a.resources["driver"]["peak_rss_bytes"] == 5

    def test_as_dict_surfaces_the_headline_peak(self):
        timings = StudyTimings()
        timings.record_resource("driver", {"peak_rss_bytes": 100,
                                           "cpu_seconds": 1.0})
        timings.record_resource("workers", {"peak_rss_bytes": 300,
                                            "cpu_seconds": 2.0})
        block = timings.as_dict()["resources"]
        assert block["peak_rss_bytes"] == 300
        assert set(block["scopes"]) == {"driver", "workers"}

    def test_no_telemetry_no_block(self):
        assert "resources" not in StudyTimings().as_dict()

    def test_render_mentions_peak_rss(self):
        timings = StudyTimings()
        timings.record_resource("driver", {"peak_rss_bytes": 64 * MIB,
                                           "cpu_seconds": 1.0})
        assert "peak RSS" in timings.render()
        assert "64 MiB" in timings.render()


class TestEndToEndTelemetry:
    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus.generator import generate_corpus
        from repro.corpus.profiles import scaled_profiles

        return generate_corpus(seed=77, profiles=scaled_profiles(32))

    def test_pipeline_study_records_driver_scope(self):
        from repro.pipeline import MemoryStore, Pipeline

        pipe = Pipeline(scale=32, seed=77, store=MemoryStore())
        pipe.study()
        resources = pipe.timings.resources
        assert "driver" in resources
        assert resources["driver"]["peak_rss_bytes"] > 10 * MIB
        payload = pipe.timings.as_dict()
        assert payload["resources"]["peak_rss_bytes"] > 10 * MIB

    def test_manifest_carries_the_resources_block(self, corpus):
        from repro.analysis.study import run_study
        from repro.obs.manifest import build_manifest

        study = run_study(corpus)
        manifest = build_manifest(
            command="study", status="ok", seed=77, study=study,
        )
        block = manifest["timings"]["resources"]
        assert block["peak_rss_bytes"] > 0
        assert "driver" in block["scopes"]

    def test_parallel_workers_ship_their_own_sample(self, corpus):
        from repro.analysis.study import run_study

        study = run_study(corpus, jobs=2)
        resources = study.timings.resources
        assert "workers" in resources
        assert resources["workers"]["peak_rss_bytes"] > 10 * MIB
        assert resources["workers"]["cpu_seconds"] > 0


def _burn_then_mine(project):
    """A pool task: burn 0.2 s of CPU, then mine ``project``.

    Returns the mined result and the CPU seconds the task itself used,
    read with the same clock the worker's resource sample uses.
    """
    from repro.obs.resources import cpu_times
    from repro.perf.parallel import mine_one

    start = sum(cpu_times())
    while sum(cpu_times()) - start < 0.2:
        pass
    mined = mine_one(project)
    return mined, sum(cpu_times()) - start


class TestWorkerCpuSamples:
    def test_two_tasks_on_one_worker_count_each_cpu_second_once(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.corpus.generator import generate_corpus
        from repro.corpus.profiles import scaled_profiles
        from repro.obs.metrics import MetricsSnapshot
        from repro.perf.parallel import fold_mined, worker_init

        project = generate_corpus(seed=77, profiles=scaled_profiles(195))[0]
        with ProcessPoolExecutor(
            max_workers=1,
            initializer=worker_init,
            initargs=(current().worker_config,),
        ) as pool:
            results = [
                pool.submit(_burn_then_mine, project).result(timeout=60)
                for _ in range(2)
            ]
        samples = [mined.resources for mined, _ in results]
        assert samples[0]["pid"] == samples[1]["pid"]
        timings = StudyTimings(jobs=2)
        metrics = MetricsSnapshot()
        for mined, _ in results:
            metrics = fold_mined(mined, timings, metrics, jobs=2)
        per_task = sum(seconds for _, seconds in results)
        assert per_task >= 0.4
        # each sample covers the CPU since the worker's previous one, so
        # the scope sums to the tasks' own CPU (plus a little transport
        # overhead between them), never a lifetime total per task
        assert timings.resources["workers"]["cpu_seconds"] == pytest.approx(
            per_task, abs=0.05
        )
