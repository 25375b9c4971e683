"""Turn a scene into ordered target poses: rebase into the calibration frame,
attach tool orientations, and densify risk-flagged regions.

A `PlannedPath` holds its poses as columns (positions, quaternions, motion
kinds, speeds, interpolated flags, source segments), the same table a
`RobotProgram` takes; no stage builds an object per pose. A motion kind is
held as its `MotionKind` code, an integer; the member name is its spelling.

Risk smoothing subdivides each straight section of a flagged region into
equally spaced points (the count set by the design speed and sampling width)
and sweeps the orientation from the region's entry quaternion to its exit
quaternion by spherical interpolation over cumulative arc length, so abrupt
tool reorientations become gradual.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from enum import IntEnum
from functools import cached_property, partial
from itertools import product

import numpy as np

from .geometry import (
    ArrayRecord,
    Quaternion,
    RobopathError,
    RowView,
    Transform,
    apply,
    code_column,
    compose,
    dot_rows,
    invert,
    rotation_to_quaternion,
    row_norms,
    slerp,
    vec3,
)
from .scene import UNIVERSE, Frame, Scene, Workspace

# Consecutive poses must differ by more than one of these.
POSITION_TOL = 1e-6  # mm
ANGLE_TOL = 1e-7  # rad

# Most poses risk interpolation may generate for one path, about 30 times the
# largest benchmark program; a finer sampling width is refused before any
# pose is built.
MAX_INTERPOLATED_POSES = 200_000


class PlanningError(RobopathError):
    """A scene cannot be planned (unknown frame, degenerate geometry, bad config)."""


class MotionKind(IntEnum):
    """Numbered so that the kind of an opcode's first operand is the
    opcode's own code (`codegen.Opcode`)."""

    JOINT = 0
    LINEAR = 1
    CIRCULAR_VIA = 2
    SPLINE_VIA = 3
    CIRCULAR_END = 4


_MOTION_KINDS = tuple(MotionKind)  # the member of each code


class TargetPose(ArrayRecord):
    """One motion endpoint: position plus unit quaternion in the calibration frame."""

    position: np.ndarray
    orientation: Quaternion
    motion_kind: MotionKind
    speed: float
    interpolated: bool = False

    def __post_init__(self):
        self._store(position=vec3(self.position))
        if not (self.speed > 0.0 and math.isfinite(self.speed)):
            raise PlanningError(f"target speed must be positive and finite, got {self.speed}")


class PlannedPath(ArrayRecord):
    """Ordered poses of one path as columns: row i of `positions` (n, 3),
    `orientations` (n, 4; w, x, y, z in canonical sign), `kinds` (MotionKind
    codes), `speeds`, `interpolated` and `source_segments` (never decreasing)
    is pose i. The arrays are kept without a copy and made read-only;
    `poses` views the rows as TargetPose objects. `segment_risk` carries
    each source segment's risk flag; interpolation consumes the flags, so a
    smoothed path holds all-False entries.
    """

    name: str
    positions: np.ndarray
    orientations: np.ndarray
    kinds: np.ndarray
    speeds: np.ndarray
    interpolated: np.ndarray
    source_segments: np.ndarray
    segment_risk: tuple[bool, ...]

    def __post_init__(self):
        self._store(
            positions=np.asarray(self.positions), orientations=np.asarray(self.orientations),
            kinds=code_column(self.kinds, MotionKind, PlanningError, f"path {self.name!r}: kind"),
            speeds=np.asarray(self.speeds), interpolated=np.asarray(self.interpolated),
            source_segments=np.asarray(self.source_segments),
        )
        q = self.orientations
        angle = np.arccos(np.minimum(1.0, np.abs(dot_rows(q[:-1], q[1:]))))
        same = (_section_lengths(self.positions) <= POSITION_TOL) & (angle <= ANGLE_TOL)
        if same.any():
            i = int(same.argmax()) + 1
            raise PlanningError(f"path {self.name!r}: poses {i - 1} and {i} are identical")

    @cached_property
    def poses(self) -> Sequence[TargetPose]:
        return pose_rows(
            self.positions, self.orientations, self.kinds, self.speeds, self.interpolated
        )


def pose_rows(positions, orientations, kinds, speeds, interpolated) -> Sequence[TargetPose]:
    """Pose columns, kinds as MotionKind codes, as a RowView that builds a
    TargetPose per lookup."""
    return RowView(len(kinds), partial(_pose, positions, orientations, kinds, speeds, interpolated))


def _pose(positions, orientations, kinds, speeds, interpolated, i: int) -> TargetPose:
    """Row i of pose columns; a module function, so that a view of them pickles."""
    return TargetPose(
        positions[i],
        Quaternion(*orientations[i].tolist()),
        _MOTION_KINDS[kinds[i]],
        float(speeds[i]),
        bool(interpolated[i]),
    )


def _section_lengths(positions: np.ndarray) -> np.ndarray:
    """Distance from each pose to the next; a distance that overflows is
    inf, without a warning."""
    with np.errstate(over="ignore"):
        return row_norms(np.diff(positions, axis=0))


# ---------------------------------------------------------------------------
# rebase
# ---------------------------------------------------------------------------


def rebase(scene: Scene, base: str) -> Scene:
    """Re-express every frame and path point relative to the named base frame.

    The base frame itself becomes the identity; the universe name rebases
    onto the scene's own coordinates (a no-op). Finite scene numbers can
    overflow when mapped, so a path whose rebased points are not all finite
    raises PlanningError (a workspace, SceneValidationError).
    """
    if base == UNIVERSE:
        base_to_universe = Transform.identity()
    else:
        frame = scene.frame_map().get(base)
        if frame is None:
            raise PlanningError(f"unknown base frame {base!r}")
        base_to_universe = frame.transform
    universe_to_base = invert(base_to_universe)

    frames = tuple(
        Frame(f.name, compose(universe_to_base, f.transform)) for f in scene.frames
    )
    paths = []
    for path in scene.paths:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            points = apply(universe_to_base, path.points)
        if not np.isfinite(points).all():
            raise PlanningError(f"path {path.name!r}: rebased points are not finite")
        paths.append(dataclasses.replace(path, points=points))

    workspace = scene.workspace
    if workspace is not None:
        corners = np.array(list(product(*zip(workspace.lo, workspace.hi))))
        with np.errstate(over="ignore", invalid="ignore"):  # Workspace checks the result
            corners = apply(universe_to_base, corners)
        # rotated box re-boxed as its enclosing axis-aligned hull
        workspace = Workspace(corners.min(axis=0), corners.max(axis=0))

    return Scene(frames, tuple(paths), workspace)


# ---------------------------------------------------------------------------
# orientation assignment
# ---------------------------------------------------------------------------

# The motion kind of a segment's last point and of each of its via points
# (those between its first and last), by kind code: line, arc, spline. A
# valid line has no via point; one built in code without validation moves
# linearly to each.
_END_KINDS = np.array([MotionKind.LINEAR, MotionKind.CIRCULAR_END, MotionKind.SPLINE_VIA])
_VIA_KINDS = np.array([MotionKind.LINEAR, MotionKind.CIRCULAR_VIA, MotionKind.SPLINE_VIA])


def assign_orientations(scene: Scene) -> list[PlannedPath]:
    """Build one PlannedPath per scene path.

    Each pose takes the quaternion of its segment's tool frame; at a segment
    boundary the pose is oriented for the segment it enters, so the tool is
    already set up when the new segment's work begins. The first pose of a
    path is a joint-interpolated approach move; every other pose's motion
    kind and speed come from the segment traversed to reach it. A join point
    is one pose, the end of the segment before it.
    """
    frame_rows = {f.name: row for row, f in enumerate(scene.frames)}
    quats = np.array(
        [rotation_to_quaternion(f.transform.rotation).as_array() for f in scene.frames]
    ).reshape(-1, 4)
    for path in scene.paths:
        for tool in path.tool_frames:
            if tool not in frame_rows:
                raise PlanningError(
                    f"path {path.name!r}: tool frame {tool!r} is not declared"
                )

    planned = []
    for path in scene.paths:
        starts, n_segments = path.starts, len(path.kinds)
        segment = np.repeat(np.arange(n_segments), np.diff(starts))  # of each point
        last = np.zeros(len(segment), dtype=bool)
        last[starts[1:] - 1] = True
        kinds = np.where(last, _END_KINDS[path.kinds[segment]], _VIA_KINDS[path.kinds[segment]])
        kinds[0] = MotionKind.JOINT
        # the segment whose tool frame orients each point: its own, or at a
        # segment's last point the next one's
        tool = np.where(last, np.minimum(segment + 1, n_segments - 1), segment)
        tool_rows = np.array([frame_rows[name] for name in path.tool_frames], dtype=np.intp)
        pose = np.ones(len(segment), dtype=bool)
        pose[starts[1:-1]] = False  # a join point as the first point of a segment
        planned.append(
            PlannedPath(
                path.name,
                path.points[pose],
                quats[tool_rows[tool[pose]]],
                kinds[pose],
                path.speeds[segment[pose]],
                np.zeros(int(pose.sum()), dtype=bool),
                segment[pose],
                path.risk,
            )
        )
    return planned


# ---------------------------------------------------------------------------
# risk interpolation
# ---------------------------------------------------------------------------


def interpolate_risk(path: PlannedPath, dt: float) -> PlannedPath:
    """Densify risk-flagged regions of a planned path.

    The design speed v is the smallest speed among the poses of risk-flagged
    segments, that is, the smallest risk segment speed. Every maximal run of
    risk segments is rebuilt: each straight section of the run is split into
    n = max(1, round(length / (v * dt))) equal steps with exact endpoints,
    and orientations sweep from the run's entry quaternion to its exit
    quaternion, parameterized by cumulative arc length. Generated poses are
    linear moves flagged ``interpolated``, with their section end's speed and
    source. Non-risk poses pass through untouched; paths without risk flags
    are returned unchanged. If the sections would take more than
    MAX_INTERPOLATED_POSES steps in all (counted before rounding),
    PlanningError is raised before any pose is generated.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise PlanningError(f"sampling width must be positive and finite, got {dt}")
    risk = np.array(path.segment_risk, dtype=bool)
    if not risk.any():
        return path
    sources = path.source_segments
    v_mag = float(path.speeds[risk[sources]].min())

    # each maximal risk run, from the last pose before its first segment (or
    # the path's first pose) to the last pose of its last segment
    edges = np.diff(risk.astype(int), prepend=0, append=0)
    entries = np.maximum(0, np.searchsorted(sources, np.flatnonzero(edges == 1)) - 1)
    exits = np.searchsorted(sources, np.flatnonzero(edges == -1) - 1, side="right") - 1

    # every section of every run, by the pose it starts at; runs are disjoint
    # and in path order
    n_sections = exits - entries
    run = np.repeat(np.arange(len(entries)), n_sections)  # the run of each section
    first = np.cumsum(n_sections) - n_sections  # each run's first section
    start = np.arange(len(run)) - first[run] + entries[run]
    lengths = _section_lengths(path.positions)[start]
    short = lengths < POSITION_TOL
    if short.any():
        raise PlanningError(
            f"path {path.name!r}: zero-length section at pose {int(start[short.argmax()])} "
            f"inside a risk region"
        )
    # an overflowing count is over the budget, and so is the inf that a step
    # length underflowing to 0.0 gives
    with np.errstate(over="ignore", divide="ignore"):
        steps = lengths / (v_mag * dt)  # unrounded step counts
    last = first + n_sections - 1  # each run's last section
    total_steps = float(np.cumsum(_run_cumsum(steps, n_sections)[last])[-1])
    if not total_steps <= MAX_INTERPOLATED_POSES:
        raise PlanningError(
            f"path {path.name!r}: sampling width {dt} s at {v_mag} mm/s would generate "
            f"about {total_steps:.3g} poses, more than {MAX_INTERPOLATED_POSES}"
        )

    counts = np.maximum(1, np.rint(steps)).astype(int)  # rint rounds half to even, like round
    s = np.repeat(np.arange(len(counts)), counts)  # the section of each generated pose
    ends = np.cumsum(counts) - 1  # the pose that ends each section
    frac = (np.arange(len(s)) - ends[s] + counts[s]) / counts[s]  # j / n of step j of n
    p0 = path.positions[start[s]]
    new_positions = p0 + (path.positions[start[s] + 1] - p0) * frac[:, None]
    new_positions[ends] = path.positions[start + 1]
    walked = _run_cumsum(lengths, n_sections)  # through each section's end
    total = walked[last]
    walked = np.concatenate([[0.0], walked[:-1]])  # to each section's start
    walked[first] = 0.0
    t = np.minimum(1.0, (walked[s] + lengths[s] * frac) / total[run[s]])
    t[ends[last]] = 1.0  # each run's exit pose takes q_exit exactly
    new_orientations = slerp(
        path.orientations[entries], path.orientations[exits], t, run[s]
    )

    # output rows: every input row once, except that each section's end pose
    # stands for the section's generated poses, which take its speed and source
    rebuilt = np.zeros(len(path.kinds), dtype=bool)
    rebuilt[start + 1] = True
    reps = np.ones(len(path.kinds), dtype=int)
    reps[start + 1] = counts
    rows = np.repeat(np.arange(len(path.kinds)), reps)
    generated = np.repeat(rebuilt, reps)
    positions = path.positions[rows]
    positions[generated] = new_positions
    orientations = path.orientations[rows]
    orientations[generated] = new_orientations
    kinds = path.kinds[rows]
    kinds[generated] = MotionKind.LINEAR
    return PlannedPath(
        path.name,
        positions,
        orientations,
        kinds,
        path.speeds[rows],
        path.interpolated[rows] | generated,
        sources[rows],
        (False,) * len(path.segment_risk),
    )


def _run_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sums of `values` within each of its consecutive runs of
    `counts` (each at least 1) entries, added one after the other from the
    run's first entry, as a Python loop adds them: np.cumsum along the rows
    of one runs x length table per distinct run length.
    """
    out = np.empty(len(values))
    length = np.repeat(counts, counts)  # the length of each entry's run
    for n in np.flatnonzero(np.bincount(counts)).tolist():  # np.unique would import numpy.ma
        group = length == n
        out[group] = np.cumsum(values[group].reshape(-1, n), axis=1).ravel()
    return out
