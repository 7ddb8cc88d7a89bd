"""The ``make scale-smoke`` entry point: the bounded-memory contract.

``python -m repro.pipeline.scale_smoke`` runs a sized-up study —
``REPRO_SCALE_SMOKE_PROJECTS`` projects, default 2000 — cold into a
temporary on-disk artifact store **under a memory cap**
(``REPRO_SCALE_SMOKE_LIMIT_MB``, default 512), then re-resolves it
warm, and checks the streaming-execution contract end to end:

1. the cold run finishes under ``--limit-memory`` without tripping the
   watchdog, and the driver's peak RSS recorded in the timings payload
   (what the run manifest carries) stays below the cap;
2. the backpressure window actually bounded the fan-out: the streaming
   block reports every shard submitted through the window and an
   in-flight high-water mark no larger than the initial window;
3. the aggregate accumulator spilled row batches to disk (the cap turns
   the spill on; at this corpus size at least one batch must hit disk)
   and the spilled fold still produced a well-formed study;
4. a warm rerun under the same cap is **byte-identical** to the cold
   run and recomputes nothing — streaming changed scheduling, never
   artifact bytes.

Exit status 0 on success, 1 with a diagnosis on the first violation.
The corpus size and cap are env-tunable so CI can dial the gate.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

#: Env overrides for the gate's corpus size and memory cap.
PROJECTS_ENV = "REPRO_SCALE_SMOKE_PROJECTS"
LIMIT_MB_ENV = "REPRO_SCALE_SMOKE_LIMIT_MB"

DEFAULT_PROJECTS = 2000
DEFAULT_LIMIT_MB = 512
SMOKE_SEED = 195_2023

#: Spill batches are 1024 rows; above this corpus size the cold
#: aggregate must have written at least one batch to disk.
SPILL_ASSERT_FLOOR = 1200


def main() -> int:
    from ..mining.aggregates import AggregateAccumulator
    from .graph import Pipeline
    from .store import DirStore

    n_projects = int(os.environ.get(PROJECTS_ENV, DEFAULT_PROJECTS))
    limit_mb = int(os.environ.get(LIMIT_MB_ENV, DEFAULT_LIMIT_MB))
    spill_batch = AggregateAccumulator().spill_batch

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory(prefix="repro-scale-smoke-") as tmp:
        store_dir = Path(tmp) / "artifacts"

        def pipeline() -> Pipeline:
            return Pipeline(
                seed=SMOKE_SEED,
                projects=n_projects,
                limit_memory_mb=limit_mb,
                store=DirStore(store_dir),
            )

        # 1. cold under the cap: finishes, and the manifest-visible
        # driver peak stays below the limit
        cold = pipeline()
        cold_text = cold.report()
        cold.study()
        payload = cold.timings.as_dict()
        check(
            cold.n_projects() == n_projects,
            f"sized corpus holds {cold.n_projects()} projects, "
            f"expected {n_projects}",
        )
        resources = payload.get("resources") or {}
        peak = resources.get("peak_rss_bytes")
        driver_peak = (
            (resources.get("scopes") or {})
            .get("driver", {})
            .get("peak_rss_bytes")
        )
        check(
            peak is not None and driver_peak is not None,
            "the cold run recorded no RSS telemetry",
        )
        cap_bytes = limit_mb * 2**20
        if driver_peak is not None:
            check(
                driver_peak < cap_bytes,
                f"driver peak RSS {driver_peak / 2**20:.0f} MiB breaches "
                f"the {limit_mb} MiB cap",
            )

        # 2. the window bounded the fan-out
        streaming = payload.get("streaming") or {}
        window = streaming.get("window")
        check(
            window is not None,
            "the cold run recorded no streaming window block",
        )
        if window is not None:
            check(
                window["submitted"] == n_projects,
                f"window submitted {window['submitted']} shards, "
                f"expected {n_projects}",
            )
            check(
                0 < window["max_in_flight"] <= window["initial"],
                f"in-flight high-water {window['max_in_flight']} exceeds "
                f"the initial window {window['initial']}",
            )
        check(
            "memory_watchdog" in streaming,
            "the capped run recorded no watchdog state",
        )

        # 3. the capped aggregate spilled at least one row batch
        if n_projects >= max(SPILL_ASSERT_FLOOR, spill_batch + 1):
            spill = streaming.get("aggregate_spill")
            check(
                spill is not None and spill["spilled_rows"] >= spill_batch,
                f"a {n_projects}-project capped fold should spill "
                f">= {spill_batch} rows, got {spill}",
            )
        study = cold._study
        check(
            study is not None
            and len(study.projects) + len(study.skipped) == n_projects,
            "the spilled fold lost or duplicated projects",
        )

        # 4. warm rerun under the same cap: byte-identical, zero work
        warm = pipeline()
        warm.study()
        check(
            warm.report() == cold_text,
            "the warm capped rerun is not byte-identical to the cold run",
        )
        check(
            warm.timings.artifact_totals.recomputes == 0,
            "the warm capped rerun recomputed a clean stage",
        )

    if failures:
        for failure in failures:
            print(f"scale-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    peak_mib = (peak or 0) / 2**20
    print(
        f"scale-smoke ok: {n_projects} projects under a {limit_mb} MiB "
        f"cap (peak RSS {peak_mib:.0f} MiB); window held "
        f"{window['max_in_flight']}/{window['initial']} in flight over "
        f"{window['submitted']} shards; aggregate spilled "
        f"{(streaming.get('aggregate_spill') or {}).get('spilled_rows', 0)} "
        "rows; warm rerun byte-identical with zero recomputes"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
