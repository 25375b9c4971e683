#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

Runs each workload's invocation on a small scene and checks that clean
outputs pass; then feeds the same accounting a truncated program and traces
with one flipped (swapped) row and checks that each is counted as a failure,
so the output gate is shown to bite. It also traces one invocation per
workload and checks that the self times add up to its wall time.

    python3 benchmarks/smoke.py

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import run
import tracing

TINY = {
    "compile_dense": dataclasses.replace(run.WORKLOADS["compile_dense"], segments=24),
    "seam_dense": dataclasses.replace(run.WORKLOADS["seam_dense"], segments=24),
    "force_long": dataclasses.replace(run.WORKLOADS["force_long"], segments=12),
}


def truncate_program(data: bytes) -> bytes:
    return b"\n".join(data.split(b"\n")[:-4]) + b"\n"


def flip_row(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[2], lines[3] = lines[3], lines[2]
    return b"\n".join(lines)


CORRUPTIONS = {
    "compile_dense": ("truncated program", truncate_program),
    "seam_dense": ("seam trace with a flipped row", flip_row),
    "force_long": ("force trace with a flipped row", flip_row),
}


def main() -> int:
    if not (run.SRC / "robopath" / "__init__.py").is_file():
        print(f"error: no robopath sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = []
    (run.BENCH / "_work").mkdir(exist_ok=True)
    for name, wl in TINY.items():
        with tempfile.TemporaryDirectory(dir=run.BENCH / "_work") as tmp:
            inputs = run.set_up(wl, seed=1, work=Path(tmp))
            runner = run.Runner(wl, inputs)
            tracer = tracing.Tracer()
            wall = runner.invoke(tracer)
            runner.invoke()
            clean_failed = runner.failed
            total = sum(tracer.self_times()[1].values())
            if abs(total - wall) > 1e-9:
                problems.append(f"{name}: self times sum to {total}, wall is {wall}")

            label, corrupt = CORRUPTIONS[name]
            clean = inputs.out.read_bytes()
            inputs.out.write_bytes(corrupt(clean))
            runner.record(0, "")  # against the run's first output
            fresh = run.Runner(wl, inputs)
            fresh.record(0, "")  # against the references alone
            counted = runner.failed - clean_failed, fresh.failed
            print(f"{name}: clean outputs failed {clean_failed}/2; {label} counted "
                  f"{counted[0]}/1 against the first output and {counted[1]}/1 against "
                  f"the references ({(fresh.errors or ['not caught'])[0]})")
            if clean_failed:
                problems.append(f"{name}: clean output failed: {runner.errors[0]}")
            if counted != (1, 1):
                problems.append(f"{name}: {label} was not counted as a failure")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
