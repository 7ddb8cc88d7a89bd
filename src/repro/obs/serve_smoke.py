"""The ``make serve-smoke`` entry point: the live-telemetry contract.

``python -m repro.obs.serve_smoke`` runs the scaled study twice through
the real CLI — once unserved as the baseline, once with ``--serve 0``
(ephemeral port) and ``--serve-linger`` so the endpoints stay probeable
after the run — and checks the observability server end to end:

1. ``--serve`` announces the bound port on stderr before the study
   starts;
2. ``/healthz`` answers mid-run, and an SSE client connected from the
   start receives the first N envelopes with contiguous ids from 1;
3. after the run: ``/metrics`` passes the Prometheus exposition-grammar
   validator and carries the bus counters, ``/status`` shows every
   reduce stage warm (except the never-rendered report) with no version
   drift, and ``/runs`` lists the run the registry just recorded;
4. an SSE reconnect replaying from the ring (``?limit=N`` and
   ``Last-Event-ID``) yields the same ordered id sequence the live
   client saw;
5. serving changed nothing: the measures CSV is byte-identical to the
   unserved baseline, the artifact-store keys match, the manifest
   matches modulo its ``server`` block, and no bus-only kinds leaked
   into the JSONL event log;
6. shutdown is clean — the CLI thread exits 0 and the port refuses new
   connections.

Exit status 0 on success, 1 with a diagnosis per violation.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

SMOKE_SEED = 77
SMOKE_SCALE = 16
SMOKE_JOBS = 2
#: SSE envelopes the live client must receive before the run ends.
SSE_FIRST_N = 8

#: Wall-clock / scheduling fields stripped before comparison.
VOLATILE_EVENT_FIELDS = (
    "ts", "seconds", "eta_seconds", "slowest", "peak_rss_bytes",
    "cpu_seconds",
)


def _study_argv(out: Path, *, serve: bool) -> list[str]:
    argv = [
        "study", "--figure", "headline",
        "--seed", str(SMOKE_SEED), "--scale", str(SMOKE_SCALE),
        "--jobs", str(SMOKE_JOBS),
        "--store-dir", str(out / "store"),
        "--csv", str(out / "measures.csv"),
        "--log-json", str(out / "events.jsonl"),
        "--manifest", str(out / "manifest.json"),
    ]
    if serve:
        argv += ["--serve", "0", "--serve-linger"]
    return argv


def _normalized_events(path: Path) -> list[str]:
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        for field in VOLATILE_EVENT_FIELDS:
            record.pop(field, None)
        (record.get("attributes") or {}).pop("worker", None)
        records.append(json.dumps(record, sort_keys=True))
    return sorted(records)  # parallel completion order is not stable


def _normalized_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    for field in ("created_at", "timings", "outputs", "server"):
        manifest.pop(field, None)
    for block in ("cache", "store"):
        manifest[block].pop("dir", None)
        manifest[block].pop("env", None)
    metrics = manifest.get("metrics") or {}
    metrics.pop("histograms", None)
    metrics.pop("gauges", None)
    _fold_parse_cache_split(metrics.get("counters") or {})
    return manifest


def _fold_parse_cache_split(counters: dict) -> None:
    """Replace the parse-cache hit/miss split with its total.

    The split depends on which worker mined which project (fragment
    reuse is per-worker); only the totals are scheduling-invariant.
    """
    for prefix in ("", "statement_", "unit_"):
        hits = counters.pop(f"parse_cache.{prefix}hits", 0)
        misses = counters.pop(f"parse_cache.{prefix}misses", 0)
        counters[f"parse_cache.{prefix}lookups"] = hits + misses


def _store_keys(out: Path) -> list[str]:
    return sorted(p.name for p in (out / "store").glob("objects/*/*"))


def _get(url: str, timeout: float = 30, headers: dict | None = None):
    request = urllib.request.Request(url)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read().decode()


def main() -> int:  # noqa: C901 — one linear smoke script
    from repro.cli import main as cli_main

    from . import progress
    from . import server as server_mod
    from .export import validate_prometheus_text
    from .top import sse_events

    failures: list[str] = []
    # deterministic beats: every CLI run's channel starts at interval 0
    saved_interval = progress.DEFAULT_INTERVAL
    progress.DEFAULT_INTERVAL = 0.0
    try:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            tmp_path = Path(tmp)
            unserved = tmp_path / "unserved"
            served = tmp_path / "served"
            unserved.mkdir()
            served.mkdir()

            # baseline: the same study, no server attached
            if cli_main(_study_argv(unserved, serve=False)) != 0:
                print(
                    "serve-smoke FAIL: unserved baseline study failed",
                    file=sys.stderr,
                )
                return 1

            # served run: --serve 0 --serve-linger on a worker thread;
            # capture the server handle off .start() so the probes (and
            # the final stop) do not have to scrape the ephemeral port
            captured: dict = {}
            original_start = server_mod.ObservabilityServer.start

            def capturing_start(self):
                # publish only after the bind: a probe that races the
                # capture must find a listening socket
                result = original_start(self)
                captured["server"] = self
                return result

            server_mod.ObservabilityServer.start = capturing_start
            announce = io.StringIO()
            rc: dict = {}

            def run_served():
                rc["code"] = cli_main(_study_argv(served, serve=True))

            thread = threading.Thread(target=run_served, daemon=True)
            try:
                with contextlib.redirect_stderr(announce):
                    thread.start()
                    deadline = time.monotonic() + 30
                    while (
                        "server" not in captured
                        and time.monotonic() < deadline
                        and thread.is_alive()
                    ):
                        time.sleep(0.01)
                    if "server" not in captured:
                        print(
                            "serve-smoke FAIL: --serve 0 never started "
                            "a server",
                            file=sys.stderr,
                        )
                        return 1
                    srv = captured["server"]
                    url = srv.url

                    # mid-run: liveness + the live SSE stream
                    status, body = _get(url + "/healthz")
                    if status != 200 or json.loads(body)["status"] != "ok":
                        failures.append("/healthz not ok mid-run")
                    _, live_body = _get(f"{url}/events?limit={SSE_FIRST_N}")
                    live = list(
                        sse_events(live_body.splitlines(keepends=True))
                    )
                    live_ids = [e["id"] for e in live]
                    if live_ids != list(range(1, SSE_FIRST_N + 1)):
                        failures.append(
                            f"live SSE ids {live_ids}, expected "
                            f"1..{SSE_FIRST_N} contiguous"
                        )

                    # wait for the run to finish (the CLI thread parks
                    # in --serve-linger, so the endpoints stay up)
                    deadline = time.monotonic() + 300
                    while (
                        "still serving" not in announce.getvalue()
                        and time.monotonic() < deadline
                        and thread.is_alive()
                    ):
                        time.sleep(0.05)
                    if "still serving" not in announce.getvalue():
                        failures.append(
                            "served study never reached --serve-linger"
                        )

                    # post-run probes against the still-lingering server
                    _, page = _get(url + "/metrics")
                    problems = validate_prometheus_text(page)
                    if problems:
                        failures.append(
                            "/metrics fails the exposition grammar: "
                            f"{problems[0]}"
                        )
                    for required in (
                        "repro_bus_published_total",
                        "repro_bus_dropped_total",
                        "repro_server_requests_total",
                    ):
                        if required not in page:
                            failures.append(
                                f"/metrics is missing {required}"
                            )

                    _, body = _get(url + "/status")
                    payload = json.loads(body)
                    states = {
                        row["stage"]: row["state"]
                        for row in payload["stages"]
                    }
                    states.pop("report", None)  # never rendered by study
                    stale = {
                        stage: state for stage, state in states.items()
                        if state != "warm"
                    }
                    if stale:
                        failures.append(
                            f"/status not warm after the run: {stale}"
                        )
                    if payload.get("drift"):
                        failures.append(
                            f"/status reports drift: {payload['drift']}"
                        )

                    _, body = _get(url + "/runs")
                    if json.loads(body)["count"] < 1:
                        failures.append(
                            "/runs is empty after a recorded study run"
                        )

                    # reconnect: the ring replays the same ordered ids
                    _, replay_body = _get(
                        f"{url}/events?limit={SSE_FIRST_N}"
                    )
                    replay_ids = [
                        e["id"] for e in
                        sse_events(replay_body.splitlines(keepends=True))
                    ]
                    if replay_ids != live_ids:
                        failures.append(
                            f"ring replay ids {replay_ids} differ from "
                            f"the live stream {live_ids}"
                        )
                    _, resumed_body = _get(
                        f"{url}/events?limit={SSE_FIRST_N - 3}",
                        headers={"Last-Event-ID": "3"},
                    )
                    resumed_ids = [
                        e["id"] for e in
                        sse_events(resumed_body.splitlines(keepends=True))
                    ]
                    if resumed_ids != live_ids[3:]:
                        failures.append(
                            f"Last-Event-ID resume ids {resumed_ids}, "
                            f"expected {live_ids[3:]}"
                        )

                    port = srv.port
                    srv.stop()  # releases the linger wait()
                thread.join(timeout=60)
                if thread.is_alive():
                    failures.append("CLI thread never exited after stop")
                elif rc.get("code") != 0:
                    failures.append(
                        f"served study exited {rc.get('code')}"
                    )
                try:
                    socket.create_connection(
                        ("127.0.0.1", port), timeout=0.5
                    ).close()
                    failures.append(
                        "port still accepts connections after shutdown"
                    )
                except OSError:
                    pass  # clean shutdown: connection refused
            finally:
                server_mod.ObservabilityServer.start = original_start
                if "server" in captured:
                    captured["server"].stop()

            if "observability server listening on http://127.0.0.1:" \
                    not in announce.getvalue():
                failures.append(
                    "--serve did not announce its bound port on stderr"
                )

            # serving is observation only: byte-identical results
            if (
                (served / "measures.csv").read_bytes()
                != (unserved / "measures.csv").read_bytes()
            ):
                failures.append(
                    "served measures CSV differs from the unserved run"
                )
            if _store_keys(served) != _store_keys(unserved):
                failures.append(
                    "served artifact-store keys differ from unserved"
                )
            served_events = _normalized_events(served / "events.jsonl")
            if served_events != _normalized_events(
                unserved / "events.jsonl"
            ):
                failures.append(
                    "served event log differs from unserved "
                    "(modulo wall-clock fields)"
                )
            if any(
                json.loads(record).get("event") in ("artifact", "metrics")
                for record in served_events
            ):
                failures.append(
                    "bus-only kinds leaked into the JSONL event log"
                )
            served_manifest = json.loads(
                (served / "manifest.json").read_text()
            )
            if not str(
                (served_manifest.get("server") or {}).get("url", "")
            ).startswith("http://127.0.0.1:"):
                failures.append(
                    "served manifest is missing its server block"
                )
            if _normalized_manifest(
                served / "manifest.json"
            ) != _normalized_manifest(unserved / "manifest.json"):
                failures.append(
                    "manifests differ beyond the server block"
                )
    finally:
        progress.DEFAULT_INTERVAL = saved_interval

    if failures:
        for failure in failures:
            print(f"serve-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"serve-smoke ok: /healthz /metrics /status /runs live, "
        f"first {SSE_FIRST_N} SSE envelopes contiguous + ring replay "
        "matches, served run byte-identical to unserved, shutdown clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
