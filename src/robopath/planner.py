"""Turn a scene into ordered target poses: rebase into the calibration frame,
attach tool orientations, and densify risk-flagged regions.

A `PlannedPath` holds its poses as columns (positions, quaternions, motion
kinds, speeds, interpolated flags, source segments), the same table a
`RobotProgram` takes; no stage builds an object per pose.

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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

import numpy as np

from .geometry import (
    Quaternion,
    Transform,
    compose,
    invert,
    rotation_to_quaternion,
    slerp,
    vec3,
)
from .scene import Frame, Scene, SegmentKind, UNIVERSE, Workspace

# Consecutive poses must differ by more than one of these.
POSITION_TOL = 1e-6  # mm
ANGLE_TOL = 1e-7  # rad

# Most poses risk interpolation may generate for one path, about 30 times the
# largest benchmark program; a finer sampling width is refused before any
# pose is built.
MAX_INTERPOLATED_POSES = 200_000


class PlanningError(ValueError):
    """A scene cannot be planned (unknown frame, degenerate geometry, bad config)."""


class MotionKind(str, Enum):
    JOINT = "joint"
    LINEAR = "linear"
    CIRCULAR_VIA = "circular_via"
    CIRCULAR_END = "circular_end"
    SPLINE_VIA = "spline_via"


@dataclass(frozen=True, eq=False)
class TargetPose:
    """One motion endpoint: position plus unit quaternion in the calibration frame."""

    position: np.ndarray
    orientation: Quaternion
    motion_kind: MotionKind
    speed: float
    interpolated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "position", vec3(self.position))
        if not (self.speed > 0.0 and math.isfinite(self.speed)):
            raise PlanningError(f"target speed must be positive and finite, got {self.speed}")

    def __eq__(self, other):
        if not isinstance(other, TargetPose):
            return NotImplemented
        return (
            np.array_equal(self.position, other.position)
            and self.orientation == other.orientation
            and self.motion_kind == other.motion_kind
            and self.speed == other.speed
            and self.interpolated == other.interpolated
        )


@dataclass(frozen=True, eq=False)
class PlannedPath:
    """Ordered poses of one path as columns: row i of `positions` (n, 3),
    `orientations` (n, 4; w, x, y, z in canonical sign), `kinds`, `speeds`,
    `interpolated` and `source_segments` (never decreasing) is pose i. The
    arrays are kept without a copy and made read-only; `poses` views the rows
    as TargetPose objects. `segment_risk` carries each source segment's risk
    flag; interpolation consumes the flags, so a smoothed path holds
    all-False entries.
    """

    name: str
    positions: np.ndarray
    orientations: np.ndarray
    kinds: tuple[MotionKind, ...]
    speeds: np.ndarray
    interpolated: np.ndarray
    source_segments: np.ndarray
    segment_risk: tuple[bool, ...]

    def __post_init__(self):
        for attr in ("positions", "orientations", "speeds", "interpolated", "source_segments"):
            column = np.asarray(getattr(self, attr))
            column.setflags(write=False)
            object.__setattr__(self, attr, column)
        q = self.orientations
        angle = np.arccos(np.minimum(1.0, np.abs(np.vecdot(q[:-1], q[1:]))))
        same = (_section_lengths(self.positions) <= POSITION_TOL) & (angle <= ANGLE_TOL)
        if same.any():
            i = int(same.argmax()) + 1
            raise PlanningError(f"path {self.name!r}: poses {i - 1} and {i} are identical")

    @cached_property
    def poses(self) -> Sequence[TargetPose]:
        return PoseView(
            self.positions, self.orientations, self.kinds, self.speeds, self.interpolated
        )


class PoseView(Sequence):
    """Read-only view of pose columns that builds a TargetPose per lookup."""

    def __init__(self, positions, orientations, kinds, speeds, interpolated):
        self._columns = (positions, orientations, kinds, speeds, interpolated)

    def __getitem__(self, i: int) -> TargetPose:
        positions, orientations, kinds, speeds, interpolated = self._columns
        return TargetPose(
            positions[i],
            Quaternion(*orientations[i].tolist()),
            kinds[i],
            float(speeds[i]),
            bool(interpolated[i]),
        )

    def __len__(self) -> int:
        return len(self._columns[2])


def _section_lengths(positions: np.ndarray) -> np.ndarray:
    """Distance from each pose to the next, with np.linalg.norm's bits."""
    d = np.diff(positions, axis=0)
    return np.sqrt(np.vecdot(d, d))


# ---------------------------------------------------------------------------
# rebase
# ---------------------------------------------------------------------------


def rebase(scene: Scene, base: str) -> Scene:
    """Re-express every frame and path point relative to the named base frame.

    The base frame itself becomes the identity; the universe name rebases
    onto the scene's own coordinates (a no-op).
    """
    if base == UNIVERSE:
        base_to_universe = Transform.identity()
    else:
        frame = scene.frame_map().get(base)
        if frame is None:
            raise PlanningError(f"unknown base frame {base!r}")
        base_to_universe = frame.transform
    universe_to_base = invert(base_to_universe)
    rot_t, origin = universe_to_base.rotation.T, universe_to_base.origin

    frames = tuple(
        Frame(f.name, compose(universe_to_base, f.transform)) for f in scene.frames
    )
    paths = tuple(
        dataclasses.replace(
            path,
            segments=tuple(
                dataclasses.replace(seg, points=seg.points @ rot_t + origin)
                for seg in path.segments
            ),
        )
        for path in scene.paths
    )

    workspace = scene.workspace
    if workspace is not None:
        corners = np.array(list(product(*zip(workspace.lo, workspace.hi)))) @ rot_t + origin
        # rotated box re-boxed as its enclosing axis-aligned hull
        workspace = Workspace(corners.min(axis=0), corners.max(axis=0))

    return Scene(frames, paths, workspace, scene.units)


# ---------------------------------------------------------------------------
# orientation assignment
# ---------------------------------------------------------------------------

_END_KIND = {
    SegmentKind.LINE: MotionKind.LINEAR,
    SegmentKind.ARC: MotionKind.CIRCULAR_END,
    SegmentKind.SPLINE: MotionKind.SPLINE_VIA,
}
_VIA_KIND = {
    SegmentKind.ARC: MotionKind.CIRCULAR_VIA,
    SegmentKind.SPLINE: MotionKind.SPLINE_VIA,
}


def assign_orientations(scene: Scene) -> list[PlannedPath]:
    """Build one PlannedPath per scene path.

    Each pose takes the quaternion of its segment's tool frame; at a segment
    boundary the pose is oriented for the segment it enters, so the tool is
    already set up when the new segment's work begins. The first pose of a
    path is a joint-interpolated approach move; every other pose's motion
    kind and speed come from the segment traversed to reach it.
    """
    quats = {f.name: rotation_to_quaternion(f.transform.rotation).as_array() for f in scene.frames}
    for path in scene.paths:
        for seg in path.segments:
            if seg.tool_frame not in quats:
                raise PlanningError(
                    f"path {path.name!r}: tool frame {seg.tool_frame!r} is not declared"
                )

    planned = []
    for path in scene.paths:
        segs = path.segments
        kinds = [MotionKind.JOINT]
        sources = [0]  # the segment each pose belongs to
        tools = [0]  # the segment whose tool frame orients each pose
        for i, seg in enumerate(segs):
            vias = len(seg.points) - 2  # none on a line
            kinds += [_VIA_KIND.get(seg.kind)] * vias + [_END_KIND[seg.kind]]
            sources += [i] * (vias + 1)
            tools += [i] * vias + [min(i + 1, len(segs) - 1)]
        planned.append(
            PlannedPath(
                path.name,
                np.concatenate([segs[0].points[:1]] + [seg.points[1:] for seg in segs]),
                np.array([quats[seg.tool_frame] for seg in segs])[tools],
                tuple(kinds),
                np.array([seg.speed for seg in segs])[sources],
                np.zeros(len(kinds), dtype=bool),
                sources,
                tuple(seg.risk for seg in segs),
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

    all_lengths = _section_lengths(path.positions)
    step_mm = v_mag * dt
    sections = []  # (entry, exit, section lengths, unrounded step counts) of each run
    total_steps = 0.0
    for entry, exit_ in zip(entries.tolist(), exits.tolist()):
        lengths = all_lengths[entry:exit_].tolist()
        for i, length in enumerate(lengths, start=entry):
            if length < POSITION_TOL:
                raise PlanningError(
                    f"path {path.name!r}: zero-length section at pose {i} inside a "
                    f"risk region"
                )
        # an underflowing step length has no finite count
        steps = [length / step_mm if step_mm > 0.0 else math.inf for length in lengths]
        total_steps += sum(steps)
        sections.append((entry, exit_, lengths, steps))
    if not total_steps <= MAX_INTERPOLATED_POSES:
        raise PlanningError(
            f"path {path.name!r}: sampling width {dt} s at {v_mag} mm/s would generate "
            f"about {total_steps:.3g} poses, more than {MAX_INTERPOLATED_POSES}"
        )

    rows = []  # blocks of the input rows output poses copy, or take speed and source from
    new_positions, new_orientations = [], []  # of the generated poses
    cursor = 0
    for entry, exit_, lengths, steps in sections:
        counts = np.maximum(1, np.rint(steps)).astype(int)  # rint rounds half to even, like round
        s = np.repeat(np.arange(len(counts)), counts)  # the section of each step
        ends = np.cumsum(counts) - 1  # the step that ends each section
        frac = (np.arange(len(s)) - ends[s] + counts[s]) / counts[s]  # j / n of step j of n

        start = path.positions[entry + s]
        positions = start + (path.positions[entry + s + 1] - start) * frac[:, None]
        positions[ends] = path.positions[entry + 1 : exit_ + 1]
        walked = np.cumsum([0.0] + lengths[:-1])  # sequential sums
        t = np.minimum(1.0, (walked[s] + all_lengths[entry + s] * frac) / sum(lengths))
        t[-1] = 1.0  # the run's exit pose takes q_exit exactly
        new_positions.append(positions)
        new_orientations.append(slerp(path.orientations[entry], path.orientations[exit_], t))

        rows += [np.arange(cursor, entry + 1), entry + s + 1]  # passed through, generated
        cursor = exit_ + 1
    rows.append(np.arange(cursor, len(path.kinds)))

    generated = np.repeat(np.arange(len(rows)) % 2 == 1, [len(block) for block in rows])
    rows = np.concatenate(rows)
    positions = path.positions[rows]
    positions[generated] = np.concatenate(new_positions)
    orientations = path.orientations[rows]
    orientations[generated] = np.concatenate(new_orientations)
    kinds = np.array(path.kinds, dtype=object)[rows]
    kinds[generated] = MotionKind.LINEAR
    return PlannedPath(
        path.name,
        positions,
        orientations,
        tuple(kinds),
        path.speeds[rows],
        path.interpolated[rows] | generated,
        sources[rows],
        (False,) * len(path.segment_risk),
    )
