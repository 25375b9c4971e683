"""Turn a scene into ordered target poses: rebase into the calibration frame,
attach tool orientations, and densify risk-flagged regions.

Risk smoothing subdivides each straight section of a flagged region into
equally spaced points (the count set by the design speed and sampling width)
and sweeps the orientation from the region's entry quaternion to its exit
quaternion by spherical interpolation over cumulative arc length, so abrupt
tool reorientations become gradual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    Quaternion,
    Transform,
    angle_between,
    apply,
    compose,
    invert,
    rotation_to_quaternion,
    slerp,
    vec3,
)
from .scene import Frame, Scene, ScenePath, SegmentKind, UNIVERSE, Workspace

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


@dataclass(frozen=True)
class PlannedPath:
    """Ordered pose sequence for one path, with per-pose source segment indices.

    `segment_risk` carries each source segment's risk flag; interpolation
    consumes the flags, so a smoothed path holds all-False entries.
    """

    name: str
    poses: tuple[TargetPose, ...]
    source_segments: tuple[int, ...]
    segment_risk: tuple[bool, ...]

    def __post_init__(self):
        if not self.poses:
            raise PlanningError(f"planned path {self.name!r} is empty")
        if len(self.poses) != len(self.source_segments):
            raise PlanningError("pose and source-segment lists differ in length")
        for i in range(1, len(self.poses)):
            a, b = self.poses[i - 1], self.poses[i]
            dist = float(np.linalg.norm(a.position - b.position))
            angle = angle_between(a.orientation, b.orientation)
            if dist <= POSITION_TOL and angle <= ANGLE_TOL:
                raise PlanningError(
                    f"path {self.name!r}: poses {i - 1} and {i} are identical"
                )


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

    frames = tuple(
        Frame(f.name, compose(universe_to_base, f.transform)) for f in scene.frames
    )
    paths = []
    for path in scene.paths:
        segments = []
        for seg in path.segments:
            pts = np.array([apply(universe_to_base, p) for p in seg.points])
            segments.append(
                type(seg)(seg.kind, pts, seg.tool_frame, seg.risk, seg.speed)
            )
        paths.append(ScenePath(path.name, tuple(segments)))

    workspace = scene.workspace
    if workspace is not None:
        corners = np.array(
            [
                apply(universe_to_base, [x, y, z])
                for x in (workspace.lo[0], workspace.hi[0])
                for y in (workspace.lo[1], workspace.hi[1])
                for z in (workspace.lo[2], workspace.hi[2])
            ]
        )
        # rotated box re-boxed as its enclosing axis-aligned hull
        workspace = Workspace(corners.min(axis=0), corners.max(axis=0))

    return Scene(frames, tuple(paths), workspace, scene.units)


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
    frames = scene.frame_map()
    quats: dict[str, Quaternion] = {}
    for path in scene.paths:
        for seg in path.segments:
            if seg.tool_frame not in frames:
                raise PlanningError(
                    f"path {path.name!r}: tool frame {seg.tool_frame!r} is not declared"
                )
            if seg.tool_frame not in quats:
                quats[seg.tool_frame] = rotation_to_quaternion(
                    frames[seg.tool_frame].transform.rotation
                )

    planned = []
    for path in scene.paths:
        poses: list[TargetPose] = []
        sources: list[int] = []
        n = len(path.segments)
        for i, seg in enumerate(path.segments):
            quat = quats[seg.tool_frame]
            if i == 0:
                poses.append(
                    TargetPose(seg.points[0], quat, MotionKind.JOINT, seg.speed)
                )
                sources.append(0)
            for p in seg.points[1:-1]:
                poses.append(TargetPose(p, quat, _VIA_KIND[seg.kind], seg.speed))
                sources.append(i)
            end_quat = quats[path.segments[i + 1].tool_frame] if i + 1 < n else quat
            poses.append(
                TargetPose(seg.points[-1], end_quat, _END_KIND[seg.kind], seg.speed)
            )
            sources.append(i)
        planned.append(
            PlannedPath(
                path.name,
                tuple(poses),
                tuple(sources),
                tuple(seg.risk for seg in path.segments),
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
    linear moves flagged ``interpolated``. Non-risk poses pass through
    untouched; paths without risk flags are returned unchanged. If the
    sections would take more than MAX_INTERPOLATED_POSES steps in all
    (counted before rounding), PlanningError is raised before any pose is
    generated.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise PlanningError(f"sampling width must be positive and finite, got {dt}")
    if not any(path.segment_risk):
        return path
    v_mag = min(
        pose.speed
        for pose, src in zip(path.poses, path.source_segments)
        if path.segment_risk[src]
    )

    last_pose_of_segment: dict[int, int] = {}
    for idx, src in enumerate(path.source_segments):
        last_pose_of_segment[src] = idx

    runs = []  # (first_segment, last_segment) of each maximal risk run
    start = None
    for i, flag in enumerate(path.segment_risk):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(path.segment_risk) - 1))

    step_mm = v_mag * dt
    sections = []  # (entry, exit, section lengths, unrounded step counts) of each run
    total_steps = 0.0
    for seg_a, seg_b in runs:
        entry = 0 if seg_a == 0 else last_pose_of_segment[seg_a - 1]
        exit_ = last_pose_of_segment[seg_b]
        lengths = []
        for i in range(entry, exit_):
            length = float(
                np.linalg.norm(path.poses[i + 1].position - path.poses[i].position)
            )
            if length < POSITION_TOL:
                raise PlanningError(
                    f"path {path.name!r}: zero-length section at pose {i} inside a "
                    f"risk region"
                )
            lengths.append(length)
        # an underflowing step length has no finite count
        steps = [length / step_mm if step_mm > 0.0 else math.inf for length in lengths]
        total_steps += sum(steps)
        sections.append((entry, exit_, lengths, steps))
    if not total_steps <= MAX_INTERPOLATED_POSES:
        raise PlanningError(
            f"path {path.name!r}: sampling width {dt} s at {v_mag} mm/s would generate "
            f"about {total_steps:.3g} poses, more than {MAX_INTERPOLATED_POSES}"
        )

    new_poses: list[TargetPose] = []
    new_sources: list[int] = []
    cursor = 0
    for entry, exit_, section_lengths, steps in sections:
        new_poses.extend(path.poses[cursor : entry + 1])
        new_sources.extend(path.source_segments[cursor : entry + 1])
        cursor = exit_ + 1
        total = sum(section_lengths)

        q_entry = path.poses[entry].orientation
        q_exit = path.poses[exit_].orientation
        walked = 0.0
        for s, length in enumerate(section_lengths):
            pa = path.poses[entry + s]
            pb = path.poses[entry + s + 1]
            direction = pb.position - pa.position
            n = max(1, round(steps[s]))
            for j in range(1, n + 1):
                if j == n:
                    position = pb.position
                else:
                    position = pa.position + direction * (j / n)
                if s == len(section_lengths) - 1 and j == n:
                    quat = q_exit
                else:
                    t = min(1.0, (walked + length * (j / n)) / total)
                    quat = slerp(q_entry, q_exit, t)
                new_poses.append(
                    TargetPose(position, quat, MotionKind.LINEAR, pb.speed, True)
                )
                new_sources.append(path.source_segments[entry + s + 1])
            walked += length

    new_poses.extend(path.poses[cursor:])
    new_sources.extend(path.source_segments[cursor:])
    return PlannedPath(
        path.name,
        tuple(new_poses),
        tuple(new_sources),
        (False,) * len(path.segment_risk),
    )
