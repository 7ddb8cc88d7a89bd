"""Steadiness check: do two sets of runs of the same code agree?

Run from the root of a checkout::

    python3 perfbench/steady.py [--runs 10]

Each of the two sets runs ``run.py --trace 0`` with seeds 1..``--runs``
on every workload of ``BENCHMARK.json``, for its ``run_seconds``.  For
every (end-to-end metric, workload) pair it prints each set's median
and quartiles, the spread (interquartile range as a share of the
median), and whether the pair agrees within the metric's bound: both
spreads within it, and the two medians apart by no more than it, in
either direction.  Exits 1 when a pair does not agree or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(line for line in proc.stderr.splitlines()
                        if line.startswith("FAILED")), file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(first quartile, median, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def agree(first: list[float], second: list[float], bound: float) -> bool:
    """Both spreads within ``bound``, and the medians within it of each other."""
    *_, med1, _, rel1 = spread(first)
    *_, med2, _, rel2 = spread(second)
    change = abs(med2 - med1) / med1 if med1 else float("inf")
    return rel1 <= bound and rel2 <= bound and change <= bound


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    results: dict[str, list[list[dict]]] = {}
    failed = False
    for set_no in range(SETS):
        for workload in spec["workloads"]:
            name = workload["name"]
            for seed in range(1, args.runs + 1):
                result = run_once(name, seed, spec["run_seconds"])
                failed |= not result["correct"]
                results.setdefault(name, [[] for _ in range(SETS)])
                results[name][set_no].append(result)
                print(f"set {set_no + 1} {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4f}"
                    for k, v in result["metrics"].items()), flush=True)

    steady = True
    print(f"\n{'workload':11s} {'metric':17s} {'bound':>5s}  "
          + "  ".join(f"set{n + 1} q1/median/q3 (spread)"
                      for n in range(SETS)) + "  change  verdict")
    for workload, sets in results.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs]
                      for runs in sets]
            cells = []
            for series in values:
                q1, med, q3, rel = spread(series)
                cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g} ({rel:.3f})")
            first, second = (statistics.median(v) for v in values)
            ok = agree(*values, bound)
            steady &= ok
            print(f"{workload:11s} {name:17s} {bound:5.2f}  "
                  + "  ".join(cells)
                  + f"  {(second - first) / first:+.3f}"
                  + f"  {'ok' if ok else 'NOT STEADY'}")
    if failed:
        print("some runs reported incorrect results")
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
