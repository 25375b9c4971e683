"""In-memory spans around the library calls that robopath.cli makes.

The tracer replaces the names `robopath.cli` binds (and `SimTrace.to_csv`)
with wrappers for the duration of one traced invocation and puts the
originals back afterwards, so untraced invocations run the library
untouched. Each span records its name, start, end, parent span and
invocation id; counts are taken from the arguments and results at the same
boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    invocation: int


def _segments(args, scene):
    return {"scene.segments": sum(len(p.segments) for p in scene.paths)}


def _poses(args, plan):
    return {"planner.poses_in": len(args[0].poses), "planner.poses_out": len(plan.poses)}


def _targets(args, program):
    return {"codegen.targets": len(program.targets)}


def _bytes(args, text):
    return {"codegen.bytes_out": len(text.encode())}


def _waypoints(args, program):
    return {"simulate.waypoints": sum(len(ins.targets) for ins in program.instructions)}


def _ticks(args, trace):
    return {"simulate.ticks": len(trace.rows)}


def _rows(args, text):
    return {"simulate.rows_out": text.count("\n") - 1}


# wrapped name in robopath.cli -> (span / per-layer time metric, counter)
CLI_CALLS = {
    "parse_scene": ("scene.parse_s", _segments),
    "rebase": ("planner.rebase_s", None),
    "assign_orientations": ("planner.assign_s", None),
    "interpolate_risk": ("planner.interpolate_s", _poses),
    "lower": ("codegen.lower_s", _targets),
    "workspace_lint": ("codegen.lint_s", None),
    "emit": ("codegen.emit_s", _bytes),
    "load_program": ("simulate.load_s", _waypoints),
    "run_seam": ("simulate.run_seam_s", _ticks),
    "run_force": ("simulate.run_force_s", _ticks),
}
TO_CSV = ("simulate.to_csv_s", _rows)
ROOT = "cli.self_s"
SPAN_NAMES = [ROOT] + [name for name, _ in CLI_CALLS.values()] + [TO_CSV[0]]
COUNTS = ("scene.segments", "planner.poses_in", "planner.poses_out", "codegen.targets",
          "codegen.bytes_out", "simulate.waypoints", "simulate.ticks", "simulate.rows_out")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._invocation = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._invocation))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts[self._invocation].update(counter(args, result))
            return result

        return traced

    @contextmanager
    def invocation(self, cli_module, sim_trace):
        """Trace one invocation of `cli_module.main`: install wrappers (on
        `sim_trace`, the SimTrace class, too), open the root span, and
        restore the library on the way out. Yields the root span."""
        self._invocation += 1
        originals = {name: getattr(cli_module, name) for name in CLI_CALLS}
        to_csv = sim_trace.to_csv
        for name, (span, counter) in CLI_CALLS.items():
            setattr(cli_module, name, self._wrap(span, originals[name], counter))
        sim_trace.to_csv = self._wrap(TO_CSV[0], to_csv, TO_CSV[1])
        index = self._open(ROOT)
        try:
            yield self.spans[index]
        finally:
            self._close(index)
            for name, fn in originals.items():
                setattr(cli_module, name, fn)
            sim_trace.to_csv = to_csv

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per invocation, each span name's summed self time: its duration
        minus the durations of its child spans (spans nest strictly)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            duration = span.end - span.start
            out[span.invocation][span.name] += duration
            if span.parent is not None:
                out[span.invocation][self.spans[span.parent].name] -= duration
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": {str(k): v for k, v in self.counts.items()}}, fh)
