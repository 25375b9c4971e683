"""Records against the code they replaced.

`Record` gives every record the methods that `@dataclass(frozen=True)`
generated for each one before. The property checks each record's binding,
repr, equality, hash, signature, `replace` and `asdict` against a reference
twin: a `dataclass(frozen=True)` over the same fields, as each record was
declared before. The guard test keeps every record on `Record`, with no
method of its own that would bring the generated code back, and the
docstring test keeps each record's docstring in its own class body, which
spares `dataclass` building one from the signature.

The `reference_*_eq` functions are the `__eq__` methods that Transform,
Workspace, ScenePath, TargetPose and RobotProgram each wrote out before they
shared `geometry.ArrayRecord`, and the same field-by-field equality written
out for PathSegment and PlannedPath, which compared by identity before they
took ArrayRecord's. The property checks that `==` and `!=` agree
with them on pairs of records that are equal or differ in one field. The
row tests check the `RowView` behind `ScenePath.segments`,
`PlannedPath.poses` and `RobotProgram.targets` against rows built one by one.
The store test builds one record of every ArrayRecord type from writable
arrays and checks that each array it holds, derived and code columns too, is
read-only afterwards.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, strategies as st

import robopath
from conftest import FIXTURES, axis_angle_quaternion, finite, plan_of, quaternions, transforms
from robopath.codegen import Instruction, LintFinding, Opcode, RobotProgram, lower, workspace_lint
from robopath.geometry import ArrayRecord, Quaternion, Record, RowView, Transform
from robopath.planner import MotionKind, PlannedPath, TargetPose, assign_orientations
from robopath.scene import (
    Diagnostic, Frame, PathSegment, Scene, ScenePath, SegmentKind, Workspace, parse_scene,
)
from robopath.simulate import SEAM_COLUMNS, Environment, ForceConfig, SeamConfig, SimTrace


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
    # every field in turn
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
        # every array the record holds, RobotProgram's derived arities and
        # target_speeds included; every field declared an array holds one
        arrays = {name: v for name, v in vars(record).items() if isinstance(v, np.ndarray)}
        declared = {f.name for f in dataclasses.fields(record) if f.type == "np.ndarray"}
        assert declared <= arrays.keys(), type(record)
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



# ---------------------------------------------------------------------------
# the record base
# ---------------------------------------------------------------------------


def robopath_classes():
    """Every class defined in a robopath module."""
    for info in pkgutil.iter_modules(robopath.__path__):
        module = importlib.import_module(f"robopath.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


RECORDS = (Quaternion, Transform, Frame, PathSegment, ScenePath, Workspace, Scene, Diagnostic,
           TargetPose, PlannedPath, Instruction, RobotProgram, LintFinding, Environment,
           SeamConfig, ForceConfig, SimTrace)

# what Record gives every record, which none may write for itself
RECORD_METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def test_every_record_takes_its_methods_from_record():
    dataclass_types = {cls for cls in robopath_classes() if dataclasses.is_dataclass(cls)}
    assert dataclass_types == set(RECORDS) | {ArrayRecord}
    for cls in dataclass_types:
        assert issubclass(cls, Record), cls.__name__
        own = set(RECORD_METHODS) & set(vars(cls))
        if cls is ArrayRecord:
            # its array equality, and the unhashability Python gives a
            # class that defines __eq__ alone
            assert own == {"__eq__", "__hash__"} and ArrayRecord.__hash__ is None
        else:
            assert own == set(), f"{cls.__name__} defines {sorted(own)}"


def test_every_record_has_its_own_docstring():
    for cls in (Record, ArrayRecord) + RECORDS:
        tree = ast.parse(inspect.getsource(cls))
        (node,) = tree.body
        assert node.name == cls.__name__
        doc = ast.get_docstring(node, clean=False)
        assert doc is not None, f"{cls.__name__} has no docstring"
        assert vars(cls)["__doc__"] == doc


class ReferenceArrayRecord:
    """`ArrayRecord` as it was before it derived from `Record`: the base of
    records declared `@dataclass(frozen=True, eq=False)`."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in dataclasses.fields(self):
            if f.compare:
                a, b = getattr(self, f.name), getattr(other, f.name)
                if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                    return False
        return True


def reference_twin(cls):
    """`cls` as `@dataclass(frozen=True)` built it, over the same fields and
    with no `__post_init__`; on ReferenceArrayRecord and with `eq=False`
    for an array record."""
    namespace = {"__annotations__": {}, "__qualname__": cls.__qualname__, "__module__": __name__}
    for f in dataclasses.fields(cls):
        namespace["__annotations__"][f.name] = f.type
        namespace[f.name] = dataclasses.field(
            default=f.default, default_factory=f.default_factory, init=f.init, repr=f.repr,
            compare=f.compare,
        )
    array = issubclass(cls, ArrayRecord)
    bases = (ReferenceArrayRecord,) if array else ()
    return dataclasses.dataclass(type(cls.__name__, bases, namespace), frozen=True, eq=not array)


def unchecked(cls):
    """`cls` without its `__post_init__`, so that it binds any values."""
    return type(cls.__name__, (cls,), {"__post_init__": Record.__post_init__,
                                       "__qualname__": cls.__qualname__, "__doc__": cls.__doc__})


# each record class as (the record without its checks, its reference twin)
PAIRS = {cls: (unchecked(cls), reference_twin(cls)) for cls in RECORDS}
ABSENT = object()


def outcome(call, *args, **kwargs):
    """What `call` returns, or the type of the error it raises."""
    try:
        return call(*args, **kwargs)
    except (TypeError, ValueError, AttributeError) as exc:
        return type(exc)


def bound(record):
    """A record's field values by name, or the type of error it was refused with."""
    if isinstance(record, type):
        return record
    return {f.name: getattr(record, f.name, ABSENT) for f in dataclasses.fields(record)}


def init_names(cls):
    return [f.name for f in dataclasses.fields(cls) if f.init]


values = st.integers(0, 2)


@st.composite
def calls(draw):
    """A record class and a call to it: some init fields passed by position
    and some by keyword, others left out, and perhaps a positional past the
    last field, a repeated or an unknown argument."""
    cls = draw(st.sampled_from(RECORDS))
    names = init_names(cls)
    faults = draw(st.sets(st.sampled_from(["extra", "repeated", "unknown"])))
    k = len(names) if "extra" in faults else draw(st.integers(0, len(names)))
    args = [draw(values) for _ in names[:k]]
    kwargs = {name: draw(values) for name in names[k:] if draw(st.booleans())}
    if "extra" in faults:
        args.append(draw(values))
    if "repeated" in faults and k:
        kwargs[names[draw(st.integers(0, k - 1))]] = draw(values)
    if "unknown" in faults:
        kwargs["unknown"] = draw(values)
    return cls, tuple(args), kwargs


@given(calls())
def test_records_bind_their_arguments_as_their_twins(call):
    cls, args, kwargs = call
    record_type, twin_type = PAIRS[cls]
    record, twin = outcome(record_type, *args, **kwargs), outcome(twin_type, *args, **kwargs)
    assert bound(record) == bound(twin)
    if not isinstance(twin, type):
        assert repr(record) == repr(twin)
        assert repr(outcome(dataclasses.asdict, record)) == repr(outcome(dataclasses.asdict, twin))


@given(st.sampled_from(RECORDS), st.data())
def test_records_compare_hash_and_replace_as_their_twins(cls, data):
    record_type, twin_type = PAIRS[cls]
    names = init_names(cls)
    first = [data.draw(values) for _ in names]
    second = [v + data.draw(st.sampled_from([0, 0, 1])) for v in first]
    a, b = record_type(*first), record_type(*second)
    ta, tb = twin_type(*first), twin_type(*second)
    for x, y, tx, ty in ((a, b, ta, tb), (a, a, ta, ta), (b, a, tb, ta)):
        assert (x == y) is (tx == ty) and (x != y) is (tx != ty)
    assert (a == ta) is False and a != ta
    assert outcome(hash, a) == outcome(hash, ta)
    assert outcome(hash, a) == outcome(hash, record_type(*first))
    changes = {name: data.draw(values) for name in [f.name for f in dataclasses.fields(cls)]
               + ["unknown"] if data.draw(st.booleans())}
    assert bound(outcome(dataclasses.replace, a, **changes)) == bound(
        outcome(dataclasses.replace, ta, **changes))


def parameters(call):
    return [(p.name, p.kind, repr(p.default), p.annotation)
            for p in inspect.signature(call).parameters.values()]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_have_their_twins_signatures(cls):
    twin = PAIRS[cls][1]
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert parameters(cls) == parameters(twin)
    assert cls.__match_args__ == twin.__match_args__ == tuple(init_names(cls))


def one_of_each_record():
    """A checked record of every record class."""
    scene = parse_scene((FIXTURES / "butt_joint.scene.json").read_text())
    path = assign_orientations(scene)[0]
    program = lower(path)
    box = Workspace(np.zeros(3), np.ones(3))
    return [
        Quaternion.identity(), Transform.identity(), scene.frames[0],
        scene.paths[0].segments[0], scene.paths[0], box, scene, Diagnostic("chain", "gap", "p", 1),
        origin_pose(), path, program.instructions[0], program,
        workspace_lint(program, box)[0], Environment(), SeamConfig(), ForceConfig(),
        SimTrace(SEAM_COLUMNS, np.zeros((2, len(SEAM_COLUMNS))), "OK"),
    ]


def test_records_are_frozen_and_copy_and_pickle_equal():
    records = one_of_each_record()
    assert [type(r) for r in records] == list(RECORDS)
    scene, path, program = records[6], records[9], records[11]
    # a row of each row view, read first: poses and targets cache their view
    # on the record, which the round trips then carry
    assert scene.paths[0].segments[0] == records[3]
    pose, target = path.poses[0], program.targets["t1"]
    for record in records:
        name = dataclasses.fields(record)[0].name
        for attr in (name, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, attr, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, attr)
        for again in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(again) is type(record) and again == record
            if record is path:
                assert again.poses[0] == pose
            if record is program:
                assert again.targets["t1"] == target
        # the twin of the same values, the fields set by __post_init__ too
        twin = PAIRS[type(record)][1](**{name: getattr(record, name)
                                          for name in init_names(type(record))})
        for f in dataclasses.fields(record):
            if not f.init:
                object.__setattr__(twin, f.name, getattr(record, f.name))
        assert repr(record) == repr(twin)
        assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(twin))
