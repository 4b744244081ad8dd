"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the root of a checkout):

    python3 bench/steady.py --runs 10 [--workloads a,b]

Runs ``bench/run.py --trace 0`` ``--runs`` times in each of two sets
and for each workload, with seeds 1, 2, ... in the first set and 1001,
1002, ... in the second, alternating the sets. For every end-to-end
metric in BENCHMARK.json it reports each set's median and spread (the
distance between the first and third quartile, as a share of the
median) and whether

* each spread is within the metric's bound,
* each spread is below a third of the bound (the target), and
* the second set's median is no worse than the first's by more than the bound.

The summary is printed and written to ``bench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: First seed of each of the two sets.
SET_SEEDS = (1, 1001)
NOTE = ("noise is controlled only by repeats and medians; the machine's settings "
        "(frequency scaling, other tenants, affinity) were not changed")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg_start": os.getloadavg(), "note": NOTE, "runs_per_set": args.runs,
               "seconds": spec["run_seconds"], "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        seeds = [[first + i for i in range(args.runs)] for first in SET_SEEDS]
        values = [[], []]
        for i in range(args.runs):
            for s in (0, 1):
                values[s].append(one_run(workload, seeds[s][i], spec["run_seconds"]))
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[v[name] for v in vs] for vs in values]
            row = {"bound": bound, "better": metric["better"],
                   "medians": [statistics.median(x) for x in sets],
                   "spreads": [spread(x) for x in sets], "values": sets}
            row["spread_ok"] = all(sp <= bound for sp in row["spreads"])
            row["steady"] = all(sp < bound / 3 for sp in row["spreads"])
            row["worse_by"] = worse_by(*row["medians"], metric["better"])
            row["agree"] = row["spread_ok"] and row["worse_by"] <= bound
            all_ok &= row["agree"]
            rows[name] = row
            print(f"{workload:24s} {name:18s} medians "
                  + " ".join(f"{m:.6g}" for m in row["medians"])
                  + " spreads " + " ".join(f"{sp:.4f}" for sp in row["spreads"])
                  + f" bound {bound} {'steady' if row['steady'] else 'NOT steady'}"
                  + f" {'agree' if row['agree'] else 'DISAGREE'}", flush=True)
        summary["workloads"][workload] = {"seeds": seeds, "metrics": rows}
    summary["all_agree"] = all_ok
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({"all_agree": all_ok}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
