"""Scene paths as tables against the per-segment code they replaced.

`reference_build_scene`, `reference_rebase` and `reference_assign` are the
per-segment `_build_scene`, `rebase` and `assign_orientations` that held a
path as a tuple of PathSegment records, each with its own points array. The
properties check that the column code gives the same scene, the same
planned columns bit for bit, and the same error and diagnostic texts.
"""

import dataclasses
import json
from dataclasses import dataclass
from itertools import product

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from conftest import FIXTURES, finite, rotations
from test_scene import code_built_paths, reference_validate_chain, steps
from robopath.geometry import GeometryError, Transform, compose, invert, rotation_to_quaternion
from robopath.planner import (
    MotionKind,
    PlannedPath,
    PlanningError,
    assign_orientations,
    rebase,
)
from robopath.scene import (
    UNIVERSE,
    Frame,
    PathSegment,
    Scene,
    SceneError,
    ScenePath,
    SceneValidationError,
    SegmentKind,
    Workspace,
    _expect_keys,
    _name,
    _number,
    _point,
    _reject_constant,
    _rotation,
    parse_scene,
    serialize_scene,
)


@dataclass(frozen=True)
class RefPath:
    """A path as the per-segment code held it."""

    name: str
    segments: tuple[PathSegment, ...]


def reference_parse(text):
    data = json.loads(text, parse_constant=_reject_constant, parse_int=float)
    scene = reference_build_scene(data)
    problems = reference_validate_chain(scene)
    if problems:
        raise SceneValidationError("; ".join(d.message for d in problems))
    return scene


def reference_build_scene(data):
    _expect_keys(data, ["units", "frames", "paths"], ["workspace"], "scene")
    if data["units"] != "mm":
        raise SceneValidationError(f'units must be "mm", got {data["units"]!r}')

    if not isinstance(data["frames"], list):
        raise SceneValidationError("frames: expected a list")
    frames = []
    for i, entry in enumerate(data["frames"]):
        where = f"frames[{i}]"
        _expect_keys(entry, ["name", "rotation", "origin"], [], where)
        name = _name(entry["name"], where)
        if name == UNIVERSE:
            raise SceneValidationError(
                f'{where}: frame name "{UNIVERSE}" is reserved for the universe frame'
            )
        rotation = _rotation(entry["rotation"], f"{where}.rotation")
        origin = _point(entry["origin"], f"{where}.origin")
        try:
            frames.append(Frame(name, Transform(rotation, origin)))
        except GeometryError as exc:
            raise SceneValidationError(f"{where}: {exc}") from exc

    workspace = None
    if "workspace" in data:
        _expect_keys(data["workspace"], ["min", "max"], [], "workspace")
        workspace = Workspace(
            _point(data["workspace"]["min"], "workspace.min"),
            _point(data["workspace"]["max"], "workspace.max"),
        )

    if not isinstance(data["paths"], list):
        raise SceneValidationError("paths: expected a list")
    paths = []
    seen_paths = set()
    for i, entry in enumerate(data["paths"]):
        where = f"paths[{i}]"
        _expect_keys(entry, ["name", "segments"], [], where)
        name = _name(entry["name"], where)
        if name in seen_paths:
            raise SceneValidationError(f"duplicate path name {name!r}")
        seen_paths.add(name)
        if not isinstance(entry["segments"], list):
            raise SceneValidationError(f"{where}.segments: expected a list")
        segments = []
        for j, seg in enumerate(entry["segments"]):
            sw = f"{where}.segments[{j}]"
            _expect_keys(seg, ["kind", "points", "tool_frame", "risk", "speed"], [], sw)
            try:
                kind = SegmentKind(seg["kind"])
            except ValueError:
                raise SceneValidationError(
                    f"{sw}: kind must be one of line/arc/spline, got {seg['kind']!r}"
                ) from None
            if not isinstance(seg["points"], list):
                raise SceneValidationError(f"{sw}.points: expected a list of points")
            points = [_point(p, f"{sw}.points[{k}]") for k, p in enumerate(seg["points"])]
            if len(points) < 2:
                raise SceneValidationError(f"{sw}: needs at least two points")
            if not isinstance(seg["risk"], bool):
                raise SceneValidationError(f"{sw}.risk: expected true/false")
            segments.append(
                PathSegment(
                    kind=kind,
                    points=np.array(points),
                    tool_frame=_name(seg["tool_frame"], f"{sw}.tool_frame"),
                    risk=seg["risk"],
                    speed=_number(seg["speed"], f"{sw}.speed"),
                )
            )
        paths.append(RefPath(name, tuple(segments)))

    return Scene(tuple(frames), tuple(paths), workspace)


def reference_rebase(scene, base):
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
    paths = []
    for path in scene.paths:
        segs = path.segments
        points = np.concatenate([seg.points for seg in segs] or [np.empty((0, 3))])
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            points = points @ rot_t + origin
        if not np.isfinite(points).all():
            raise PlanningError(f"path {path.name!r}: rebased points are not finite")
        split = np.split(points, np.cumsum([len(seg.points) for seg in segs[:-1]]))
        segments = tuple(dataclasses.replace(seg, points=p) for seg, p in zip(segs, split))
        paths.append(dataclasses.replace(path, segments=segments))

    workspace = scene.workspace
    if workspace is not None:
        corners = np.array(list(product(*zip(workspace.lo, workspace.hi))))
        with np.errstate(over="ignore", invalid="ignore"):  # Workspace checks the result
            corners = corners @ rot_t + origin
        workspace = Workspace(corners.min(axis=0), corners.max(axis=0))

    return Scene(frames, tuple(paths), workspace)


_END_KIND = {
    SegmentKind.LINE: MotionKind.LINEAR,
    SegmentKind.ARC: MotionKind.CIRCULAR_END,
    SegmentKind.SPLINE: MotionKind.SPLINE_VIA,
}
_VIA_KIND = {  # a line built in code may have via points
    SegmentKind.LINE: MotionKind.LINEAR,
    SegmentKind.ARC: MotionKind.CIRCULAR_VIA,
    SegmentKind.SPLINE: MotionKind.SPLINE_VIA,
}


def reference_assign(scene):
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
            vias = len(seg.points) - 2  # none on a parsed line
            kinds += [_VIA_KIND[seg.kind]] * vias + [_END_KIND[seg.kind]]
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
# comparisons
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """(result, None), or (None, (error type, text)) for a scene or
    planning error."""
    try:
        return fn(*args), None
    except (SceneError, PlanningError) as exc:
        return None, (type(exc), str(exc))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_paths(scene, reference):
    """Every column of `scene` holds the bits of the reference's segments."""
    assert len(scene.paths) == len(reference.paths)
    for path, ref in zip(scene.paths, reference.paths):
        assert path.name == ref.name
        segs = ref.segments
        assert same_bits(
            path.points, np.concatenate([s.points for s in segs] or [np.empty((0, 3))])
        )
        assert path.starts.tolist() == np.cumsum([0] + [len(s.points) for s in segs]).tolist()
        assert path.tool_frames == tuple(s.tool_frame for s in segs)
        assert path.risk == tuple(s.risk for s in segs)
        assert all(type(r) is bool for r in path.risk)
        assert same_bits(path.speeds, np.array([s.speed for s in segs], dtype=float))
        assert len(path.segments) == len(segs)
        for got, want in zip(path.segments, segs):  # field by field: a speed may be nan
            assert (got.kind, got.tool_frame, got.risk) == (want.kind, want.tool_frame, want.risk)
            assert same_bits(got.points, want.points)
            assert same_bits(got.speed, float(want.speed))


def assert_same_plan(plan, ref):
    assert plan.name == ref.name
    for column in ("positions", "orientations", "kinds", "speeds", "interpolated",
                   "source_segments"):
        assert same_bits(getattr(plan, column), getattr(ref, column)), column
    assert plan.segment_risk == ref.segment_risk
    assert all(type(r) is bool for r in plan.segment_risk)


def assert_same_planning(scene, reference, base):
    """rebase and assign_orientations agree with the references: the same
    error text, or the same rebased points and planned columns."""
    rebased, error = outcome(rebase, scene, base)
    ref_rebased, ref_error = outcome(reference_rebase, reference, base)
    assert error == ref_error
    if ref_error is not None:
        return
    assert rebased.frames == ref_rebased.frames
    assert rebased.workspace == ref_rebased.workspace
    assert_same_paths(rebased, ref_rebased)
    if any(len(s.points) < 2 for p in reference.paths for s in p.segments) or any(
        not p.segments for p in reference.paths
    ):
        return  # the per-segment assign has no defined result
    plans, error = outcome(assign_orientations, rebased)
    ref_plans, ref_error = outcome(reference_assign, ref_rebased)
    assert error == ref_error
    if ref_error is None:
        assert len(plans) == len(ref_plans)
        for plan, ref in zip(plans, ref_plans):
            assert_same_plan(plan, ref)


# ---------------------------------------------------------------------------
# parsed scenes
# ---------------------------------------------------------------------------

_HUGE = 1.2345e300  # written as the overflowing literal 1e400
_POINTS_AFTER_START = {"line": st.just(1), "arc": st.just(2), "spline": st.integers(2, 4)}


@st.composite
def long_steps(draw):
    direction = np.array([draw(finite(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(direction) > 0.1)
    return direction / np.linalg.norm(direction) * draw(finite(0.01, 100.0))


@st.composite
def scene_documents(draw):
    """A scene document with up to three frames and two paths of chained
    segments; the steps between points are all longer than CHAIN_TOL, or
    for some documents drawn around it."""
    frames = []
    for i in range(draw(st.integers(1, 3))):
        frames.append({
            "name": f"F{i}",
            "rotation": draw(rotations()).tolist(),
            "origin": [draw(finite(-500, 500)) for _ in range(3)],
        })
    step = steps() if draw(st.integers(0, 3)) == 0 else long_steps()
    paths = []
    for i in range(draw(st.integers(1, 2))):
        point = np.array([draw(finite(-100, 100)) for _ in range(3)])
        segments = []
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(sorted(_POINTS_AFTER_START)))
            points = [point]
            for _ in range(draw(_POINTS_AFTER_START[kind])):
                point = point + draw(step)
                points.append(point)
            segments.append({
                "kind": kind,
                "points": [p.tolist() for p in points],
                "tool_frame": f"F{draw(st.integers(0, len(frames) - 1))}",
                "risk": draw(st.booleans()),
                "speed": draw(st.sampled_from([5.0, 12.5])),
            })
        paths.append({"name": f"p{i}", "segments": segments})
    doc = {"units": "mm", "frames": frames, "paths": paths}
    if draw(st.booleans()):
        doc["workspace"] = {"min": [-1000.0] * 3, "max": [1000.0] * 3}
    return doc


# values a segment's entries may be replaced with
_SEGMENT_EDITS = {
    "kind": ["helix", 1.0, None, ["line"], True],
    "points": ["p", [], [[0.0, 0.0, 0.0]], None],
    "point": [[1.0, 2.0], "p", None, [1.0, 2.0, "3"], [1.0, True, 2.0], [1.0, 2.0, _HUGE],
              [[1.0], 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]],
    "tool_frame": ["X", "F0\n", 3.0, ["F0"], "U"],
    "risk": ["yes", 1.0, None],
    "speed": [-1.0, 0.0, "5", True, None, _HUGE],
}


@st.composite
def scene_texts(draw):
    """Scene text, valid or with up to three edits: a segment key dropped,
    added or given another value, a segment moved off its chain, a path
    renamed or repeated, or a frame dropped."""
    doc = draw(scene_documents())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(doc["paths"]))
        seg = draw(st.sampled_from(path["segments"]))
        edit = draw(st.sampled_from(
            ["drop_key", "extra_key", "gap", "path_name", "repeat_path", "drop_frame",
             *_SEGMENT_EDITS]
        ))
        if edit == "drop_key":
            del seg[draw(st.sampled_from(sorted(seg)))]
        elif edit == "extra_key":
            seg["colour"] = 1.0
        elif edit == "gap" and isinstance(seg.get("points"), list) and seg["points"]:
            first = seg["points"][0]
            if isinstance(first, list):  # _HUGE + 0.5 is _HUGE
                seg["points"][0] = [v + 0.5 if type(v) is float else v for v in first]
        elif edit == "path_name":
            path["name"] = draw(st.sampled_from(["p 1", "", "p0"]))
        elif edit == "repeat_path":
            doc["paths"].append(path)
        elif edit == "drop_frame" and len(doc["frames"]) > 1:
            doc["frames"].pop()
        elif edit == "point" and isinstance(seg.get("points"), list) and seg["points"]:
            k = draw(st.integers(0, len(seg["points"]) - 1))
            seg["points"][k] = draw(st.sampled_from(_SEGMENT_EDITS["point"]))
        elif edit in _SEGMENT_EDITS and edit != "point":
            seg[edit] = draw(st.sampled_from(_SEGMENT_EDITS[edit]))
    return json.dumps(doc).replace(repr(_HUGE), "1e400")


_FIXTURE_TEXTS = [
    (FIXTURES / name).read_text()
    for name in ("butt_joint.scene.json", "profile.scene.json", "straight_seam.scene.json")
]


@settings(deadline=None, max_examples=200)
@given(scene_texts(), st.sampled_from(["F0", "F1", "B", UNIVERSE, "nope"]))
@example(_FIXTURE_TEXTS[0], "B")
@example(_FIXTURE_TEXTS[1], "B")
@example(_FIXTURE_TEXTS[2], "B")
def test_parsed_scene_tables_match_per_segment_references(text, base):
    scene, error = outcome(parse_scene, text)
    reference, ref_error = outcome(reference_parse, text)
    assert error == ref_error
    if ref_error is not None:
        return
    assert scene.frames == reference.frames
    assert scene.workspace == reference.workspace
    assert_same_paths(scene, reference)
    # a round trip through the text gives the same scene, risk as JSON bools
    serialized = serialize_scene(scene)
    assert parse_scene(serialized) == scene
    for path in json.loads(serialized)["paths"]:
        assert all(type(seg["risk"]) is bool for seg in path["segments"])
    assert_same_planning(scene, reference, base)


@settings(deadline=None)
@given(code_built_paths(), st.sampled_from(["B", "C", UNIVERSE, "nope"]))
def test_code_built_scene_tables_match_per_segment_references(built, base):
    frames, paths = built
    scene = Scene(frames, tuple(ScenePath.from_segments(name, segs) for name, segs in paths))
    reference = Scene(frames, tuple(RefPath(name, segs) for name, segs in paths))
    assert_same_paths(scene, reference)
    assert_same_planning(scene, reference, base)
