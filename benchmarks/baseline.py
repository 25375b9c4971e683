#!/usr/bin/env python3
"""Run the benchmark on two sets of seeds per workload and record the baseline.

For each workload in BENCHMARK.json, two sets of untraced runs (seeds 1-10
and 11-20, each `run_seconds` long) give the median, quartiles and spread
(interquartile range over median) of every end-to-end metric, and three
traced runs give the medians of the per-layer metrics. Two tests are made
against each metric's bound from BENCHMARK.json: steady, when each set's
spread is below a third of the bound; agreeing, when the second set's median
is not worse than the first's by more than the bound. The result is written
to benchmarks/baseline.json.

    python3 benchmarks/baseline.py

Runs one benchmark process at a time; exits 1 if any run fails or reports
a failed check, 0 otherwise (unsteady or disagreeing metrics are printed).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"
SEED_SETS = (range(1, 11), range(11, 21))
TRACED_SEEDS = range(1, 4)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: failed checks\n{proc.stdout[-2000:]}")
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seed_sets": [[s.start, s.stop - 1] for s in SEED_SETS],
              "workloads": {}}
    steady = agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            sets = [[one_run(workload, seed, seconds, 0) for seed in seeds] for seeds in SEED_SETS]
            traced = [one_run(workload, seed, seconds, 1) for seed in TRACED_SEEDS]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        e2e = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            worse = worse_by(rows[0]["median"], rows[1]["median"], metric["better"])
            is_steady = all(row["spread"] < bound / 3 for row in rows)
            agrees = worse <= bound
            steady &= is_steady
            agree &= agrees
            e2e[name] = {"unit": metric["unit"], "bound": bound, "sets": rows,
                         "second_worse_by": worse}
            print(f"{workload:<14} {name:<16} median {rows[0]['median']:<12.6g} "
                  f"{metric['unit']:<6} spreads {rows[0]['spread']:.4f} {rows[1]['spread']:.4f} "
                  f"second worse by {worse:+.4f} (bound {bound})"
                  f"{'' if is_steady else '  NOT STEADY'}{'' if agrees else '  DISAGREES'}",
                  flush=True)
        layers = {name: {"median": statistics.median(r["metrics"][name]["value"] for r in traced),
                         "unit": traced[0]["metrics"][name]["unit"]}
                  for name in traced[0]["metrics"]}
        report["workloads"][workload] = {"end_to_end": e2e, "per_layer": layers}
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print("every spread is below a third of its bound" if steady
          else "some spreads are not below a third of their bound")
    print("the second set agrees with the first within every bound" if agree
          else "the second set is worse than the first by more than a bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
