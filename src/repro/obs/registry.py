"""The append-only run-history registry under the artifact store.

Every ``repro study`` / ``repro report`` run against a directory store
appends one compact JSONL record to ``<store>/runs/history.jsonl``:
stage timings, cache and store hit rates, resource peaks, warning
count, environment, and the run's manifest digest.  The registry turns
the store from a pile of artifacts into a *trajectory* — ``repro obs
history`` tables it, ``repro obs timeline --stage mine`` plots a
cross-run trend with regression markers, and ``bench-check
--against-history N`` compares a candidate to the median of the last
``N`` records instead of one hand-kept BENCH file.

Records are deliberately shaped like ``BENCH_study.json`` payloads
(top-level ``stages`` / ``parse_cache`` / ``artifact_store`` /
``resources``), so :func:`repro.obs.regress.sample_from_dict`
normalises them without a special case.  The reader is tolerant:
malformed lines are skipped, never fatal — an append-only log must
survive a torn write.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from statistics import median

#: Format tag carried by every registry record.
REGISTRY_FORMAT = "repro-run-registry-v1"

#: Registry location relative to the artifact-store root.
REGISTRY_RELPATH = Path("runs") / "history.jsonl"


def manifest_digest(manifest: dict) -> str:
    """A stable content digest of one manifest document."""
    text = json.dumps(
        manifest, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(text.encode()).hexdigest()


class RunRegistry:
    """One store's run history: append records, read them back."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / REGISTRY_RELPATH

    def append(self, record: dict) -> dict:
        """Append one record (one line); creates the registry lazily."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def records(self, limit: int | None = None) -> list[dict]:
        """All records in append order (last ``limit`` when given).

        Torn or foreign lines are skipped — the registry outlives any
        single writer and must never make history unreadable.
        """
        if not self.path.exists():
            return []
        out: list[dict] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "stages" in record:
                out.append(record)
        return out[-limit:] if limit else out

    def __len__(self) -> int:
        return len(self.records())


def registry_for_store(store=None) -> RunRegistry | None:
    """The active store's registry, or ``None`` for in-memory stores.

    Only a directory store has a place for history; a ``MemoryStore``
    run leaves no registry record (matching its artifacts, which also
    die with the process).
    """
    if store is None:
        from ..context import current

        store = current().store
    root = getattr(store, "root", None)
    return RunRegistry(root) if root else None


def build_run_record(
    *,
    command: str,
    study,
    seed: int | None = None,
    scale: int | None = None,
    jobs: int | None = None,
    dialect: str | None = None,
    manifest: dict | None = None,
    fingerprints: dict | None = None,
) -> dict:
    """One registry record for a finished study/report run.

    ``dialect`` is recorded only for non-default workloads, so
    canonical records — and every record written before workloads
    existed — are shape-identical; readers fall back with
    ``record.get("dialect")``.
    """
    from .manifest import runtime_environment

    timings = study.timings.as_dict()
    recorded_at = round(time.time(), 3)
    digest = manifest_digest(manifest) if manifest else None
    run_id = hashlib.sha256(
        f"{recorded_at}:{command}:{digest}".encode()
    ).hexdigest()[:12]
    record: dict = {
        "format": REGISTRY_FORMAT,
        "run_id": run_id,
        "recorded_at": recorded_at,
        "command": command,
        "seed": seed,
        "scale": scale,
        "jobs": jobs if jobs is not None else timings.get("jobs"),
        "projects": len(study.projects),
        "skipped": len(study.skipped),
        "manifest_digest": digest,
        "stages": timings.get("stages") or {},
        "parse_cache": timings.get("parse_cache"),
        "warning_count": len(study.warnings),
        "environment": (
            manifest.get("environment")
            if manifest and manifest.get("environment")
            else runtime_environment()
        ),
    }
    if dialect is not None:
        record["dialect"] = dialect
    for block in ("artifact_store", "resources", "streaming"):
        if timings.get(block):
            record[block] = timings[block]
    if fingerprints:
        record["fingerprints"] = dict(fingerprints)
    return record


def record_from_payload(payload: dict, *, source: str = "import") -> dict:
    """Seed one registry record from a manifest or BENCH payload.

    The CI trend seed: ``repro obs history --import BENCH_study.json``
    turns the committed baseline into record zero so
    ``--against-history`` has something to chew on from the first run.
    """
    timings = (
        payload.get("timings")
        if isinstance(payload.get("timings"), dict)
        else payload
    )
    if not isinstance(timings.get("stages"), dict):
        raise ValueError(
            f"{source}: neither a run manifest nor a BENCH payload "
            "(no stages block)"
        )
    recorded_at = round(time.time(), 3)
    record: dict = {
        "format": REGISTRY_FORMAT,
        "run_id": hashlib.sha256(
            f"{recorded_at}:{source}".encode()
        ).hexdigest()[:12],
        "recorded_at": recorded_at,
        "command": f"import:{source}",
        "seed": payload.get("seed"),
        "scale": payload.get("scale"),
        "jobs": payload.get("jobs") or timings.get("jobs"),
        "projects": payload.get("projects"),
        "skipped": (
            len(payload["skipped"])
            if isinstance(payload.get("skipped"), list)
            else payload.get("skipped")
        ),
        "manifest_digest": None,
        "stages": dict(timings["stages"]),
        "parse_cache": timings.get("parse_cache"),
        "warning_count": payload.get("warning_count"),
        "environment": payload.get("environment"),
    }
    if payload.get("dialect"):
        record["dialect"] = payload["dialect"]
    for block in ("artifact_store", "resources", "streaming"):
        if timings.get(block):
            record[block] = timings[block]
    return record


def timeline_values(
    records: list[dict], stage: str
) -> tuple[list, str]:
    """One stage's value per record (``None`` where absent), plus unit.

    ``stage`` names a stage-seconds series from the ``stages`` block;
    the special name ``rss`` plots the peak-RSS trend in MiB instead.
    """
    if stage == "rss":
        series = [
            (record.get("resources") or {}).get("peak_rss_bytes")
            for record in records
        ]
        return [v / 2**20 if v else None for v in series], "MiB"
    return [
        (record.get("stages") or {}).get(stage) for record in records
    ], "s"


def render_timeline(
    records: list[dict], stage: str = "total", *, width: int = 32
) -> str:
    """Render one stage's cross-run trend as text bars.

    Degenerate histories render rather than crash: a single record
    plots one bar with no regression marker, an all-equal series plots
    full-width bars, and an all-zero series pins the bar scale to 1 so
    the bar arithmetic never divides by zero.  Raises ``ValueError``
    when the registry is empty or no record carries ``stage`` — the
    callers' error paths, never a partial plot.
    """
    if not records:
        raise ValueError("run registry is empty — nothing to plot")
    values, unit = timeline_values(records, stage)
    if not any(v is not None for v in values):
        raise ValueError(
            f"no record carries {stage!r} "
            "(see obs history --json for the available stages)"
        )
    peak = max(v for v in values if v is not None) or 1.0
    lines = [
        f"timeline: {stage} over {len(records)} run(s) "
        f"(bar = {peak:.2f} {unit}; ! marks a >25% jump)"
    ]
    previous = None
    for record, value in zip(records, values):
        when = time.strftime(
            "%m-%d %H:%M",
            time.localtime(record.get("recorded_at") or 0),
        )
        run_id = str(record.get("run_id", "?"))[:13]
        if value is None:
            lines.append(f"  {run_id:<13} {when:<12} {'-':>10}")
            continue
        bar = "#" * max(1, round(value / peak * width))
        marker = ""
        if previous is not None and previous > 0:
            if (value - previous) / previous > 0.25:
                marker = "  ! regression"
        lines.append(
            f"  {run_id:<13} {when:<12} {value:>9.2f}{unit} "
            f"{bar}{marker}"
        )
        previous = value
    return "\n".join(lines)


def _median_merge(values: list):
    """Element-wise median over parallel JSON fragments.

    Dicts merge recursively over the union of keys (each key's median
    is taken over the records that carry it), numbers take the median,
    anything else takes the latest value — good enough for the
    identity-ish fields (environment, format tags) a median cannot
    average.
    """
    present = [v for v in values if v is not None]
    if not present:
        return None
    if all(isinstance(v, dict) for v in present):
        keys: list = []
        for fragment in present:
            for key in fragment:
                if key not in keys:
                    keys.append(key)
        return {
            key: _median_merge(
                [fragment.get(key) for fragment in present]
            )
            for key in keys
        }
    numeric = [
        v for v in present
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if numeric:
        value = median(numeric)
        return round(value, 6) if isinstance(value, float) else value
    return present[-1]


def history_baseline(records: list[dict]) -> dict:
    """The median-of-history baseline payload for ``bench-check``.

    Folds the given records (typically the last *N*) element-wise by
    median into one BENCH-shaped payload; ``sample_from_dict``
    normalises it like any other baseline.  Raises on an empty history
    — a missing registry must fail loudly, not pass vacuously.
    """
    if not records:
        raise ValueError("run registry is empty — nothing to compare against")
    merged = _median_merge(list(records))
    merged["format"] = REGISTRY_FORMAT
    merged["command"] = f"history-median[{len(records)}]"
    # medians of identity fields are meaningless — pin the latest;
    # `dialect` rides along via .get() so pre-dialect records (which
    # simply lack the key) never fail the merge
    latest = records[-1]
    for key in (
        "run_id", "recorded_at", "environment", "manifest_digest",
        "dialect",
    ):
        merged[key] = latest.get(key)
    return merged
