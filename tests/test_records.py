"""ArrayRecord equality and RowView rows against the code they replaced.

The `reference_*_eq` functions are the `__eq__` methods that Transform,
Workspace, ScenePath, TargetPose and RobotProgram each wrote out before they
shared `geometry.ArrayRecord`, and the same field-by-field equality written
out for PathSegment and PlannedPath, which compared by identity before they
took ArrayRecord's. The property checks that `==` and `!=` agree
with them on pairs of records that are equal or differ in one field. The
row tests check the `RowView` behind `ScenePath.segments`,
`PlannedPath.poses` and `RobotProgram.targets` against rows built one by one.
The store test builds one record of every ArrayRecord type from writable
arrays and checks that each array field, derived and code columns too, is
read-only afterwards.
"""

import copy
import dataclasses
import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES, axis_angle_quaternion, finite, plan_of, quaternions, transforms
from robopath.codegen import Opcode, RobotProgram, lower
from robopath.geometry import ArrayRecord, Quaternion, RowView, Transform
from robopath.planner import MotionKind, PlannedPath, TargetPose, assign_orientations
from robopath.scene import PathSegment, ScenePath, SegmentKind, Workspace, parse_scene
from robopath.simulate import SEAM_COLUMNS, SimTrace


def reference_transform_eq(self, other):
    if not isinstance(other, Transform):
        return NotImplemented
    return np.array_equal(self.rotation, other.rotation) and np.array_equal(
        self.origin, other.origin
    )


def reference_workspace_eq(self, other):
    if not isinstance(other, Workspace):
        return NotImplemented
    return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)


def reference_scene_path_eq(self, other):
    if not isinstance(other, ScenePath):
        return NotImplemented
    columns = ("points", "starts", "kinds", "speeds")
    return (self.name, self.tool_frames, self.risk) == (
        other.name, other.tool_frames, other.risk
    ) and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)


def reference_path_segment_eq(self, other):
    if not isinstance(other, PathSegment):
        return NotImplemented
    return (
        (self.kind, self.tool_frame, self.risk) == (other.kind, other.tool_frame, other.risk)
        and np.array_equal(self.points, other.points)
        and self.speed == other.speed
    )


def reference_planned_path_eq(self, other):
    if not isinstance(other, PlannedPath):
        return NotImplemented
    columns = ("positions", "orientations", "kinds", "speeds", "interpolated", "source_segments")
    return (self.name, self.segment_risk) == (other.name, other.segment_risk) and all(
        np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
    )


def reference_target_pose_eq(self, other):
    if not isinstance(other, TargetPose):
        return NotImplemented
    return (
        np.array_equal(self.position, other.position)
        and self.orientation == other.orientation
        and self.motion_kind == other.motion_kind
        and self.speed == other.speed
        and self.interpolated == other.interpolated
    )


def reference_program_eq(self, other):
    if not isinstance(other, RobotProgram):
        return NotImplemented
    columns = ("positions", "orientations", "opcodes", "speeds")
    return (self.name, self.target_names) == (other.name, other.target_names) and all(
        np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
    )


REFERENCE_EQ = {
    Transform: reference_transform_eq,
    Workspace: reference_workspace_eq,
    ScenePath: reference_scene_path_eq,
    PathSegment: reference_path_segment_eq,
    PlannedPath: reference_planned_path_eq,
    TargetPose: reference_target_pose_eq,
    RobotProgram: reference_program_eq,
}


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def points(n):
    return st.lists(st.tuples(*[finite(-100, 100)] * 3), min_size=n, max_size=n)


@st.composite
def workspaces(draw):
    lo = np.array(draw(points(1))[0])
    return Workspace(lo, lo + np.array(draw(points(1))[0]) ** 2)


@st.composite
def path_segments(draw):
    return PathSegment(
        draw(st.sampled_from(SegmentKind)),
        np.array(draw(points(draw(st.integers(0, 4))))).reshape(-1, 3),
        draw(st.sampled_from(["B", "C"])),
        draw(st.booleans()),
        draw(finite(0.1, 50)),
    )


@st.composite
def scene_paths(draw):
    segments = draw(st.lists(path_segments(), max_size=3))
    return ScenePath.from_segments(draw(st.sampled_from(["p", "q"])), segments)


@st.composite
def target_poses(draw):
    return TargetPose(
        draw(points(1))[0],
        draw(quaternions()),
        draw(st.sampled_from(MotionKind)),
        draw(finite(0.1, 50)),
        draw(st.booleans()),
    )


@st.composite
def planned_paths(draw):
    n = draw(st.integers(1, 4))
    # points 1000 mm apart, so that no two consecutive poses are identical
    positions = np.array(draw(points(n))) + 1000.0 * np.arange(n)[:, None]
    return PlannedPath(
        draw(st.sampled_from(["p", "q"])),
        positions,
        np.array([draw(quaternions()).as_array() for _ in range(n)]),
        tuple(draw(st.sampled_from(MotionKind)) for _ in range(n)),
        np.array([draw(finite(0.1, 50)) for _ in range(n)]),
        np.array([draw(st.booleans()) for _ in range(n)]),
        np.arange(n),
        tuple(draw(st.booleans()) for _ in range(n)),
    )


@st.composite
def programs(draw):
    opcodes = draw(st.lists(st.sampled_from(Opcode), max_size=4))
    n = sum(2 if op is Opcode.MOVEC else 1 for op in opcodes)
    return RobotProgram(
        draw(st.sampled_from(["p", "q"])),
        tuple(f"t{i}" for i in range(1, n + 1)),
        np.array(draw(points(n))).reshape(-1, 3),
        np.array([draw(quaternions()).as_array() for _ in range(n)]).reshape(-1, 4),
        tuple(opcodes),
        [draw(finite(0.1, 50)) for _ in opcodes],
    )


def records():
    return st.one_of(transforms(), workspaces(), scene_paths(), path_segments(),
                     planned_paths(), target_poses(), programs())


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------

CHANGES = ("none", "value", "shape", "dtype", "zero_sign", "nan", "nan_both")


def field_pair(value, change):
    """The values one field takes in two records: `value` in both, or two
    values that differ as `change` says. A change that does not apply to the
    field's type changes its value instead; "nan_both" puts the same NaN in
    both, which array equality still calls unequal."""
    if change == "none":
        return value, value
    if isinstance(value, np.ndarray):
        if change == "shape" or value.size == 0:
            return value, value[None]
        if change == "dtype":
            return value, value.astype(np.float32 if value.dtype.kind == "f" else float)
        a, b = value.astype(float), value.astype(float)
        if change == "zero_sign":
            a.flat[0], b.flat[0] = 0.0, -0.0
        elif change in ("nan", "nan_both"):
            b.flat[0] = math.nan
            a = b if change == "nan_both" else a
        else:
            b.flat[0] += 1.0
        return a, b
    if isinstance(value, Enum):
        members = list(type(value))
        return value, members[(members.index(value) + 1) % len(members)]
    if isinstance(value, tuple):
        if change == "shape" or not value:
            return value, value + value[:1] if value else ("x",)
        return value, (field_pair(value[0], "value")[1],) + value[1:]
    if isinstance(value, bool):
        return value, not value
    if isinstance(value, float):
        if change == "dtype":
            return value, np.float32(value)
        if change == "zero_sign":
            return 0.0, -0.0
        if change in ("nan", "nan_both"):
            return math.nan, math.nan if change == "nan_both" else value
        return value, value + 1.0
    if isinstance(value, Quaternion):
        if change == "zero_sign":
            return Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(1.0, -0.0, 0.0, 0.0)
        turned = axis_angle_quaternion([0.0, 0.0, 1.0], 0.5)
        return value, turned if value != turned else Quaternion.identity()
    assert isinstance(value, str), value
    return value, value + "x"


def with_field(record, name, value):
    out = copy.copy(record)
    object.__setattr__(out, name, value)
    return out


@given(records(), st.sampled_from(CHANGES))
def test_equality_agrees_with_the_removed_eq_methods(record, change):
    reference = REFERENCE_EQ[type(record)]
    # every field in turn, derived RobotProgram columns included
    for f in dataclasses.fields(record):
        left, right = field_pair(getattr(record, f.name), change)
        a, b = with_field(record, f.name, left), with_field(record, f.name, right)
        for x, y in ((a, b), (b, a), (a, a)):
            want = bool(reference(x, y))
            assert (x == y) is want
            assert (x != y) is (not want)


def origin_pose():
    return TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 1.0)


def test_records_of_different_types_are_unequal():
    transform, pose = Transform.identity(), origin_pose()
    assert transform != pose and not transform == pose
    assert transform != (transform.rotation, transform.origin)
    assert Transform.identity() == transform


@given(records())
def test_records_stay_unhashable(record):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_planned_paths_and_segments_compare_by_value():
    text = (FIXTURES / "butt_joint.scene.json").read_text()
    first, second = parse_scene(text), parse_scene(text)
    assert first.paths[0].segments[0] == second.paths[0].segments[0]
    assert first.paths[0].segments[0] != first.paths[0].segments[1]
    assert assign_orientations(first) == assign_orientations(second)
    path = plan_of("p", [origin_pose()], (0,), (False,))
    assert path == copy.copy(path) and path != dataclasses.replace(path, name="q")


# ---------------------------------------------------------------------------
# store rule
# ---------------------------------------------------------------------------

# ArrayRecord types whose arrays stay as given, each with its reason
UNSTORED = {
    PathSegment: "a plain row record: it keeps its points as given, and "
                 "ScenePath.from_segments copies them into the path's table",
}


def writable_records():
    """One record of every other ArrayRecord type, each array passed in a
    new writable array, code columns as intp so that they are kept without
    a copy."""
    line = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
    return [
        Transform(np.eye(3), np.zeros(3)),
        Workspace(np.zeros(3), np.ones(3)),
        ScenePath("p", line.copy(), np.array([0, 2]), np.array([0], dtype=np.intp), ("B",),
                  (False,), np.array([1.0])),
        TargetPose(np.zeros(3), Quaternion.identity(), MotionKind.JOINT, 1.0),
        PlannedPath("p", line.copy(), quats.copy(), np.array([0, 1], dtype=np.intp),
                    np.ones(2), np.zeros(2, dtype=bool), np.zeros(2, dtype=np.intp), (False,)),
        RobotProgram("p", ("t1", "t2"), line.copy(), quats.copy(),
                     np.array([Opcode.MOVEJ, Opcode.MOVEL], dtype=np.intp), np.ones(2)),
        SimTrace(SEAM_COLUMNS, np.zeros((2, len(SEAM_COLUMNS))), "OK"),
    ]


def test_every_array_record_stores_its_arrays_read_only():
    records = writable_records()
    assert {type(r) for r in records} == set(ArrayRecord.__subclasses__()) - set(UNSTORED)
    for record in records:
        arrays = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
                  if f.type == "np.ndarray"}
        # every field declared an array holds one, RobotProgram's derived
        # arities and target_speeds included
        assert all(isinstance(a, np.ndarray) for a in arrays.values()), type(record)
        for name, array in arrays.items():
            assert not array.flags.writeable, f"{type(record).__name__}.{name}"


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------


def test_row_view_builds_a_row_per_lookup():
    calls = []
    view = RowView(3, lambda i: calls.append(i) or 10 * i)
    assert len(view) == 3 and calls == []
    assert (view[-1], view[0]) == (20, 0) and calls == [2, 0]
    assert list(view) == [0, 10, 20] and list(reversed(view)) == [20, 10, 0]
    del calls[:]
    assert view[::-2] == [20, 0] and calls == [2, 0]  # a slice builds its rows when looked up
    assert view[5:] == [] and calls == [2, 0]
    for i in (3, -4):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = 1


# what each slice of a view must give: the list of rows `list(view)[s]` gives
SLICES = (slice(1, None), slice(None, None, -1), slice(-2, None), slice(5, None))


def check_rows(view, want, same):
    """`view` holds the rows of `want` in order, with negative indices and
    slices, and raises IndexError just past either end."""
    n = len(want)
    assert len(view) == n
    for i in range(-n, n):
        assert same(view[i], want[i])
    assert all(same(got, row) for got, row in zip(view, want, strict=True))
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for s in SLICES:
        rows = view[s]
        assert type(rows) is list
        assert all(same(got, row) for got, row in zip(rows, want[s], strict=True))


def same_segment(a, b):
    fields = ("kind", "tool_frame", "risk", "speed")
    return all(getattr(a, f) == getattr(b, f) for f in fields) and np.array_equal(a.points, b.points)


@given(st.lists(st.integers(0, 4), max_size=4))
def test_segments_are_rows_of_the_path(counts):
    segments = [
        PathSegment(
            SegmentKind.SPLINE, np.arange(3.0 * n).reshape(n, 3) + j, f"T{j}", j % 2 == 0, 1.0 + j
        )
        for j, n in enumerate(counts)
    ]
    check_rows(ScenePath.from_segments("p", segments).segments, segments, same_segment)


def test_poses_and_targets_are_rows_of_their_columns():
    quats = [Quaternion.identity(), axis_angle_quaternion([0, 0, 1], 0.3)]
    poses = [
        TargetPose([0, 0, 0], quats[0], MotionKind.JOINT, 5.0),
        TargetPose([1, 0, 0], quats[1], MotionKind.CIRCULAR_VIA, 7.0),
        TargetPose([2, 1, 0], quats[0], MotionKind.CIRCULAR_END, 7.0),
        TargetPose([3, 1, 0], quats[1], MotionKind.LINEAR, 6.0, interpolated=True),
    ]
    path = plan_of("p", poses, (0, 0, 0, 1), (False, True))
    check_rows(path.poses, poses, lambda a, b: a == b)
    program = lower(path)
    targets = program.targets
    assert list(targets) == ["t1", "t2", "t3", "t4"] and len(targets) == 4
    # a program keeps no interpolated flag
    want = [dataclasses.replace(p, interpolated=False) for p in poses]
    assert list(targets.values()) == want
    check_rows(targets._poses, want, lambda a, b: a == b)
    assert isinstance(path.poses, RowView) and isinstance(targets._poses, RowView)

