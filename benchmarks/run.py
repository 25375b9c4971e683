#!/usr/bin/env python3
"""robopath benchmark.

Drives the public CLI entry `robopath.cli.main` in-process as a closed loop:
one client, one invocation at a time, one process, no extra threads. Inputs
are seeded serpentine weld scenes (see scenes.py) built from `--seed`, and
every output is checked against references the benchmark computes itself
(see checks.py).

    python3 benchmarks/run.py --workload compile_dense --seed 1 --seconds 30 --trace 0

Workloads:
  compile_dense  `compile` of a ~2000-segment scene into ~6.4k targets
  seam_dense     `simulate --scenario seam` on a ~6.4k-waypoint program
  force_long     `simulate --scenario force` (fuzzy PI) over ~3.7k ticks

`--trace 0` reports the end-to-end metrics; `--trace 1` is a separate run
that alternates untraced and traced invocations and reports the per-layer
metrics from spans around the library calls `robopath.cli` makes (see
tracing.py), plus the tracing overhead. Spans go to
benchmarks/_out/spans-<workload>-seed<seed>.json. A human-readable report
precedes the last stdout line, which is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Every time is given in seconds at a reference speed (see `Timing`); the
report also prints the host seconds of the median invocation.

The program is imported from `src/` of the checkout this file sits in; the
run exits with code 2 when that tree is missing.
"""

from __future__ import annotations

import os

# one process, one thread: keep numpy's BLAS from starting a pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenes  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 11
MIN_SAMPLES = 21  # enough for a tail percentile with ten samples beyond it
TAIL_BEYOND = 10
FORCE_SETTLE_S = 5.0
FORCE_SETPOINT_N = 20.0
# Times are reported at a reference speed: the host's speed drifts by tens of
# percent over seconds, so each timed span is scaled by a calibration loop run
# just before and after it. REFERENCE_CAL_S is the calibration's time at the
# reference speed.
CAL_ITERS = 5000
REFERENCE_CAL_S = 0.03


@dataclass(frozen=True)
class Workload:
    segments: int
    seg_mm: float
    interp_dt: float
    scenario: Optional[str] = None  # None: the timed call is `compile`
    rate_hz: float = 0.0
    duration_s: float = math.inf
    cell: tuple[str, ...] = ()  # perturbation and controller options

    def compile_argv(self, scene: Path, program: Path) -> list[str]:
        return ["compile", "--scene", str(scene), "--base", "B",
                "--interp-dt", str(self.interp_dt), "--out", str(program)]

    def simulate_argv(self, program: Path, trace: Path) -> list[str]:
        argv = ["simulate", "--program", str(program), "--scenario", self.scenario,
                "--rate", str(self.rate_hz), *self.cell, "--out", str(trace)]
        if math.isfinite(self.duration_s):
            argv += ["--duration", str(self.duration_s)]
        return argv


# Why each workload: compile_dense puts nearly all work in scene, planner and
# codegen at the large (6.4k-pose) size and is the emit side of the program
# grammar. seam_dense puts nearly all work in simulate: the closest-point
# search scans every waypoint on every tick, and the program load is the read
# side of the grammar; its early U-turn shows the path-frame correction
# defect in track_err_rms_mm. force_long uses simulate per tick (controller,
# path profile, CSV rows) with no closest-point search, so a seam-search fix
# leaves it unchanged while a profile cursor or a faster to_csv moves it.
WORKLOADS = {
    "compile_dense": Workload(2000, 5.0, 0.06),
    "seam_dense": Workload(2000, 5.0, 0.06, "seam", 5.0, 3.0,
                           ("--offset-y", "1.0", "--rot-z-deg", "0.05")),
    "force_long": Workload(200, 20.0, 1.0, "force", 20.0, math.inf,
                           ("--controller", "fuzzy", "--roughness", "0.05", "--seed", "7",
                            "--offset-z", "2.0", "--setpoint", str(FORCE_SETPOINT_N))),
}


class SetupError(Exception):
    pass


@dataclass
class Inputs:
    """What one set-up builds: the freshly imported CLI and the timed call."""

    cli: object
    sim_trace: type
    argv: list[str]
    out: Path  # what the timed call writes
    program: Path  # the program it emits or loads
    scene: scenes.Generated
    compile_stderr: str


def _import_robopath():
    for name in [m for m in sys.modules if m == "robopath" or m.startswith("robopath.")]:
        del sys.modules[name]
    cli = importlib.import_module("robopath.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"robopath was imported from {cli.__file__}, not from {SRC}")
    return cli


def call_main(cli, argv) -> tuple[int, str]:
    """One CLI invocation with its output captured; (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed invocation, not a crash of the run
            traceback.print_exc()
            rc = -1
    return rc, err.getvalue()


def set_up(wl: Workload, seed: int, work: Path) -> Inputs:
    """Import robopath, generate the scene, validate it with parse_scene and,
    for the simulate workloads, compile the input program."""
    cli = _import_robopath()
    gen = scenes.serpentine(wl.segments, seed, wl.seg_mm)
    scene_path, program = work / "scene.json", work / "program.prog"
    scene_path.write_text(gen.text)
    importlib.import_module("robopath.scene").parse_scene(gen.text)
    sim_trace = importlib.import_module("robopath.simulate").SimTrace
    if wl.scenario is None:
        return Inputs(cli, sim_trace, wl.compile_argv(scene_path, program), program, program,
                      gen, "")
    rc, err = call_main(cli, wl.compile_argv(scene_path, program))
    if rc != 0:
        raise SetupError(f"compiling the input program exited {rc}: {err.strip()}")
    trace = work / "trace.csv"
    return Inputs(cli, sim_trace, wl.simulate_argv(program, trace), trace, program, gen, err)


class Runner:
    """Runs and checks invocations; every attempt and failure is counted."""

    def __init__(self, wl: Workload, inputs: Inputs):
        self.wl = wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: Optional[bytes] = None
        self.quality = 0.0
        self.to_base = checks.base_inverse(inputs.scene.base_rotation, inputs.scene.base_origin)
        self.program: Optional[checks.Program] = None
        if wl.scenario is not None:
            self.program = self._check_program(inputs.program.read_text(), inputs.compile_stderr)

    def _check_program(self, text: str, stderr: str) -> checks.Program:
        return checks.check_compiled(text, stderr, self.to_base, self.inputs.scene.points_u)

    def _full_check(self, text: str, stderr: str) -> None:
        wl = self.wl
        if wl.scenario is None:
            self.program = self._check_program(text, stderr)
        elif wl.scenario == "seam":
            self.quality = checks.check_seam(text, self.program, wl.rate_hz, wl.duration_s)
        else:
            self.quality = checks.check_force(text, self.program, wl.rate_hz,
                                              FORCE_SETPOINT_N, FORCE_SETTLE_S)

    def record(self, rc: int, stderr: str) -> None:
        """Check the output of the invocation that just ran."""
        self.attempted += 1
        try:
            if rc != 0:
                raise checks.CheckFailed(f"exit code {rc}: {stderr.strip()[-200:]}")
            data = self.inputs.out.read_bytes()
            if self.reference is None:
                self._full_check(data.decode(), stderr)
                self.reference = data
            elif data != self.reference:
                raise checks.CheckFailed("output is not byte-identical to the run's first")
        except (checks.CheckFailed, OSError, UnicodeDecodeError) as exc:
            self.failed += 1
            self.errors.append(str(exc))

    def invoke(self, tracer: Optional[tracing.Tracer] = None) -> float:
        """Run, time and check one invocation; returns its wall time."""
        cli = self.inputs.cli
        gc.collect()  # collect the previous invocation's garbage outside the timing
        if tracer is None:
            t0 = time.perf_counter()
            rc, err = call_main(cli, self.inputs.argv)
            wall = time.perf_counter() - t0
        else:
            with tracer.invocation(cli, self.inputs.sim_trace) as root:
                rc, err = call_main(cli, self.inputs.argv)
            wall = root.end - root.start
        self.record(rc, err)
        return wall


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(walls)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter loops, small-array numpy,
    float maths and number formatting and parsing: the kind of work robopath
    does in its geometry, its tick loops and its program and CSV text. On a
    contended host the numpy half alone tracked force_long's speed less well
    than the two halves together."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        v = np.array([i * 0.5, 1.0, -2.0])
        acc += float(np.linalg.norm(v - acc * 1e-9))
        acc = float(f"{acc:.4f}")
    rows = []
    for i in range(CAL_ITERS):
        x = i * 0.37
        acc += math.sin(x) * 0.5 + x % 3.0
        rows.append(",".join(f"{v:.6f}" for v in (x, acc, -x)))
    "\n".join(rows)
    return time.perf_counter() - t0


@dataclass
class Timing:
    """Host seconds and the calibration seconds around them."""

    host_s: float
    cal_s: float

    @property
    def s(self) -> float:
        """Seconds at the reference speed: host seconds scaled by how much
        slower than REFERENCE_CAL_S the calibration ran around them."""
        return self.host_s * REFERENCE_CAL_S / self.cal_s


def timed(fn, *args):
    """(result, Timing) of fn(*args), calibrated before and after."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn(*args)
    host_s = time.perf_counter() - t0
    return result, Timing(host_s, (before + calibrate()) / 2.0)


def measure(runner: Runner, seconds: float, tracer: Optional[tracing.Tracer]):
    """Timings of untraced invocations and, when tracing, of traced ones
    alternating with them."""
    runner.invoke()  # warm-up: lazy imports and caches, checked but not timed
    plain: list[Timing] = []
    traced: list[Timing] = []
    before = calibrate()
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds or len(plain) < MIN_SAMPLES
           or (tracer is not None and len(traced) < MIN_SAMPLES)):
        use = tracer if tracer is not None and i % 2 == 1 else None
        host_s = runner.invoke(use)
        after = calibrate()
        (plain if use is None else traced).append(Timing(host_s, (before + after) / 2.0))
        before = after
        i += 1
    return plain, traced


def end_to_end(wl, runner, setups: list[Timing], walls: list[Timing]) -> dict:
    p50 = statistics.median(t.s for t in walls)
    tail_s, tail_pct = tail([t.s for t in walls])
    program = runner.program
    if wl.scenario is None:
        robot_s = program.duration_s()
    else:
        robot_s = min(wl.duration_s, program.duration_s())
        robot_s = math.floor(robot_s * wl.rate_hz + 1e-6) / wl.rate_hz
    ok = runner.attempted - runner.failed
    host = statistics.median(t.host_s for t in walls)
    return {
        "setup_s": (statistics.median(t.s for t in setups), "s",
                    f"median of {len(setups)} set-ups"),
        "wall_s_p50": (p50, "s", f"median of {len(walls)} invocations ({host:.4f} host s)"),
        "wall_s_tail": (tail_s, "s", f"p{tail_pct:.1f} of {len(walls)} samples, "
                                     f"{TAIL_BEYOND} beyond"),
        "poses_per_s": (len(program.points) / p50, "1/s",
                        f"{len(program.points)} targets per call"),
        "realtime_factor": (robot_s / p50, "s/s", f"{robot_s:.4f} robot s per call"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        "ops_ok_frac": (ok / runner.attempted, "ratio",
                        f"ops_failed_frac {runner.failed / runner.attempted:.4f}"),
        "program_bytes": (float(runner.inputs.program.stat().st_size), "bytes", ""),
    }


def per_layer(wl, runner, tracer, plain: list[Timing], traced: list[Timing]) -> dict:
    """Medians over the traced invocations; a layer the workload's invocation
    never calls reads 0."""
    selfs = tracer.self_times()
    invocations = sorted(selfs)  # ids 1..n, in the order of `traced`
    for inv, timing in zip(invocations, traced):
        if abs(sum(selfs[inv].values()) - timing.host_s) > 1e-9:
            runner.failed += 1
            runner.errors.append(f"invocation {inv}: self times do not add up to its wall")

    def med(key, scaled):
        return statistics.median(
            selfs[inv].get(key, 0.0) * (t.s / t.host_s) if scaled else
            tracer.counts[inv].get(key, 0)
            for inv, t in zip(invocations, traced))

    out = {name: (med(name, True), "s", "") for name in tracing.SPAN_NAMES}
    for key in tracing.COUNTS:
        out[key] = (med(key, False), "count", "")
    ticks, waypoints = out["simulate.ticks"][0], out["simulate.waypoints"][0]
    seam_s, force_s = out["simulate.run_seam_s"][0], out["simulate.run_force_s"][0]
    out["simulate.ns_per_tick_waypoint"] = (
        1e9 * seam_s / (ticks * waypoints) if seam_s else 0.0, "ns", "")
    out["simulate.us_per_tick"] = (1e6 * force_s / ticks if force_s else 0.0, "us", "")
    untraced = statistics.median(t.s for t in plain)
    out["trace.overhead_frac"] = (
        (statistics.median(t.s for t in traced) - untraced) / untraced, "ratio",
        f"traced vs untraced median of {len(traced)}/{len(plain)}")
    out["track_err_rms_mm"] = (runner.quality if wl.scenario == "seam" else 0.0, "mm", "")
    out["force_err_rms_n"] = (runner.quality if wl.scenario == "force" else 0.0, "N",
                              f"after {FORCE_SETTLE_S} s settle" if wl.scenario == "force" else "")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "robopath" / "__init__.py").is_file():
        print(f"error: no robopath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[workload]
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
        setups = []
        try:
            for _ in range(1 if trace else SETUP_REPEATS):
                gc.collect()  # the previous set-up's garbage is not this one's work
                inputs, timing = timed(set_up, wl, seed, Path(tmp))
                setups.append(timing)
            runner = Runner(wl, inputs)
        except (SetupError, checks.CheckFailed, ValueError, OSError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        tracer = tracing.Tracer() if trace else None
        plain, traced = measure(runner, seconds, tracer)
        if runner.reference is None:
            print(f"error: no invocation passed the checks: {runner.errors[:1]}", file=sys.stderr)
            return 1
        if trace:
            metrics = per_layer(wl, runner, tracer, plain, traced)
            (BENCH / "_out").mkdir(exist_ok=True)
            spans_path = BENCH / "_out" / f"spans-{workload}-seed{seed}.json"
            tracer.write(spans_path)
        else:
            metrics = end_to_end(wl, runner, setups, plain)

    print(f"# {workload} seed {seed}: {runner.attempted} invocations, {runner.failed} failed"
          + (f"; spans in {spans_path.relative_to(BENCH.parent)}" if trace else ""))
    for message in runner.errors[:5]:
        print(f"#   failure: {message}")
    for name, (value, unit, note) in metrics.items():
        print(f"#   {name:<30} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
