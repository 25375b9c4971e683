import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import FIXTURES, finite, random_transform, rotations
from robopath.scene import (
    _POINT_COUNT,
    _rotation,
    CHAIN_TOL,
    MIN_SPLINE_POINTS,
    Diagnostic,
    Frame,
    PathSegment,
    Scene,
    ScenePath,
    SceneError,
    SceneParseError,
    SceneValidationError,
    SegmentKind,
    Workspace,
    parse_scene,
    serialize_scene,
    validate_chain,
)
from robopath.geometry import Transform


MINIMAL = {
    "units": "mm",
    "frames": [
        {
            "name": "B",
            "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "origin": [0.0, 0.0, 0.0],
        }
    ],
    "paths": [
        {
            "name": "p",
            "segments": [
                {
                    "kind": "line",
                    "points": [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
                    "tool_frame": "B",
                    "risk": False,
                    "speed": 5.0,
                }
            ],
        }
    ],
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def test_parse_minimal_scene():
    scene = parse_scene(json.dumps(MINIMAL))
    assert len(scene.paths) == 1
    assert len(scene.paths[0].segments) == 1
    seg = scene.paths[0].segments[0]
    assert seg.kind == SegmentKind.LINE
    np.testing.assert_array_equal(seg.points, [[0, 0, 0], [10, 0, 0]])
    assert scene.frame_map()["B"].transform == Transform.identity()


def test_syntax_error_reports_position():
    with pytest.raises(SceneParseError) as err:
        parse_scene('{"units": "mm",\n  broken')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_duplicate_frame_name_rejected():
    d = doc()
    d["frames"].append(d["frames"][0])
    with pytest.raises(SceneValidationError, match="'B'"):
        parse_scene(json.dumps(d))


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"units": "mm"', '"units": "mm", "units": "mm"', "units"),
        ('"kind": "line"', '"kind": "arc", "kind": "line"', "kind"),
        ('"risk": false', '"risk": false, "risk": false', "risk"),
    ],
    ids=["scene", "segment_later_value", "segment_same_value"],
)
def test_duplicate_json_key_rejected(old, new, key):
    text = json.dumps(MINIMAL)
    assert old in text
    with pytest.raises(SceneParseError) as err:
        parse_scene(text.replace(old, new))
    assert str(err.value) == f"duplicate key {key!r} in a JSON object"


def test_unknown_key_rejected():
    d = doc()
    d["extra"] = 1
    with pytest.raises(SceneValidationError, match="unknown keys"):
        parse_scene(json.dumps(d))


def test_units_must_be_mm():
    with pytest.raises(SceneValidationError, match="mm"):
        parse_scene(json.dumps(doc(units="inch")))


def test_universe_frame_name_reserved():
    d = doc()
    d["frames"][0]["name"] = "U"
    with pytest.raises(SceneValidationError, match="reserved"):
        parse_scene(json.dumps(d))


def test_dangling_tool_frame_rejected():
    d = doc()
    d["paths"][0]["segments"][0]["tool_frame"] = "missing"
    with pytest.raises(SceneValidationError, match="missing"):
        parse_scene(json.dumps(d))


@pytest.mark.parametrize("where", ["frame", "path", "tool_frame"])
def test_name_with_trailing_newline_rejected(where):
    # `$` also matches before a final newline; a name must match in full
    d = doc()
    if where == "frame":  # renamed together with the tool frame that names it
        d["frames"][0]["name"] = "B\n"
        d["paths"][0]["segments"][0]["tool_frame"] = "B\n"
    elif where == "path":
        d["paths"][0]["name"] = "p\n"
    else:
        d["paths"][0]["segments"][0]["tool_frame"] = "B\n"
    with pytest.raises(SceneValidationError, match="must match"):
        parse_scene(json.dumps(d))


def test_scene_without_paths_rejected():
    with pytest.raises(SceneValidationError, match="no path"):
        parse_scene(json.dumps(doc(paths=[])))
    assert [d.code for d in validate_chain(Scene((frame_b(),), ()))] == ["no_paths"]


def test_quaternion_rotation_input():
    d = doc()
    s = math.sin(math.pi / 4)
    d["frames"][0]["rotation"] = {"quat": [math.cos(math.pi / 4), 0.0, 0.0, s]}
    scene = parse_scene(json.dumps(d))
    r = scene.frames[0].transform.rotation
    np.testing.assert_allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)


def test_rounded_matrix_is_snapped_to_nearest_rotation():
    d = doc()
    d["frames"][0]["rotation"] = [
        [0.7071, -0.7071, 0.0],
        [0.7071, 0.7071, 0.0],
        [0.0, 0.0, 1.0],
    ]
    scene = parse_scene(json.dumps(d))
    r = scene.frames[0].transform.rotation
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12


def test_garbage_matrix_rejected():
    d = doc()
    d["frames"][0]["rotation"] = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(SceneValidationError, match="not a rotation"):
        parse_scene(json.dumps(d))


@given(
    (rotations() | st.just(np.eye(3))),
    st.sampled_from([0.0, 1e-10, 4.9e-10, 1e-9, 1e-6, 1e-3, 2e-3, 1.0, 1e200]),
    st.lists(finite(-1, 1), min_size=9, max_size=9),
)
@example(np.eye(3), 4.9e-10, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])  # det off, rows not
@example(np.eye(3), 1e200, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # overflows
def test_every_matrix_a_scene_does_not_refuse_builds_a_transform(rotation, scale, noise):
    matrix = rotation + scale * np.reshape(noise, (3, 3))
    try:
        snapped = _rotation(matrix.tolist(), "frames[0].rotation")
    except SceneValidationError:
        return
    Transform(snapped, [0.0, 0.0, 0.0])


def test_matrix_too_large_to_square_is_rejected_without_a_warning():
    d = doc()
    d["frames"][0]["rotation"] = [[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SceneValidationError, match=r"^frames\[0\]\.rotation: matrix is not a "
                       r"rotation \(orthonormality deviation inf, det 1\d{200}\.0000\)$"):
        parse_scene(json.dumps(d))


def test_rejected_file_raises_without_partial_scene():
    d = doc()
    d["paths"][0]["segments"][0]["speed"] = -1
    with pytest.raises(SceneValidationError):
        parse_scene(json.dumps(d))


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_json_constant_rejected(constant):
    text = json.dumps(MINIMAL).replace('"speed": 5.0', f'"speed": {constant}')
    assert constant in text
    with pytest.raises(SceneParseError, match=f"non-finite number {constant}"):
        parse_scene(text)


@pytest.mark.parametrize(
    "literal", ["1e400", "-1e400", "1" * 5000], ids=["1e400", "-1e400", "5000_digits"]
)
def test_overflowing_number_literal_rejected(literal):
    text = json.dumps(MINIMAL).replace("[10.0, 0.0, 0.0]", f"[{literal}, 0.0, 0.0]")
    assert literal in text
    with pytest.raises(SceneValidationError, match="non-finite number"):
        parse_scene(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(st.text() | json_values.map(json.dumps))
@example("[" * 1000 + "]" * 1000)
@example('{"a": ' * 1000 + "0" + "}" * 1000)
@example("[" * 100000)
def test_parse_scene_raises_only_scene_errors(text):
    try:
        parse_scene(text)
    except SceneError:
        pass


# ---------------------------------------------------------------------------
# validate_chain
# ---------------------------------------------------------------------------


def seg(kind, points, risk=False, speed=5.0, tool="B"):
    return PathSegment(SegmentKind(kind), np.array(points, dtype=float), tool, risk, speed)


def frame_b():
    return Frame("B", Transform.identity())


def test_chained_path_has_no_diagnostics():
    scene = Scene(
        (frame_b(),),
        (
            ScenePath.from_segments(
                "p",
                (
                    seg("line", [[0, 0, 0], [10, 0, 0]]),
                    seg("line", [[10, 0, 0], [20, 0, 0]]),
                ),
            ),
        ),
    )
    assert validate_chain(scene) == []


def test_chain_gap_is_diagnosed_with_indices():
    scene = Scene(
        (frame_b(),),
        (
            ScenePath.from_segments(
                "p",
                (
                    seg("line", [[0, 0, 0], [10, 0, 0]]),
                    seg("line", [[10.5, 0, 0], [20, 0, 0]]),
                ),
            ),
        ),
    )
    diags = validate_chain(scene)
    assert len(diags) == 1
    assert diags[0].code == "chain_break"
    assert diags[0].path == "p"
    assert diags[0].segment == 1
    assert "0 and 1" in diags[0].message


def test_arc_with_two_points_is_diagnosed():
    scene = Scene(
        (frame_b(),),
        (ScenePath.from_segments("p", (seg("arc", [[0, 0, 0], [10, 0, 0]]),)),),
    )
    diags = validate_chain(scene)
    assert [d.code for d in diags] == ["point_count"]
    assert diags[0].segment == 0


def test_coincident_points_diagnosed():
    scene = Scene(
        (frame_b(),),
        (ScenePath.from_segments("p", (seg("line", [[0, 0, 0], [0, 0, 0]]),)),),
    )
    assert "coincident_points" in [d.code for d in validate_chain(scene)]


def test_empty_path_and_missing_frames_diagnosed():
    scene = Scene((), (ScenePath.from_segments("p", ()),))
    codes = {d.code for d in validate_chain(scene)}
    assert codes == {"no_frames", "empty_path"}


def no_points(j):
    """The diagnostic of line segment j of path p when it has no points."""
    return Diagnostic("point_count", f"path 'p' segment {j}: line needs 2 points, got 0", "p", j)


EMPTY_LINE = seg("line", np.empty((0, 3)))


@pytest.mark.parametrize(
    "segments, want",
    [
        ([EMPTY_LINE, seg("line", [[0, 0, 0], [1, 0, 0]])], [no_points(0)]),  # first
        (
            [seg("line", [[0, 0, 0], [1, 0, 0]]), EMPTY_LINE, seg("line", [[1, 0, 0], [2, 0, 0]])],
            [no_points(1)],
        ),  # middle
        ([seg("line", [[0, 0, 0], [1, 0, 0]]), EMPTY_LINE], [no_points(1)]),  # last
        ([EMPTY_LINE], [no_points(0)]),  # only
        ([EMPTY_LINE, EMPTY_LINE], [no_points(0), no_points(1)]),
    ],
)
def test_segment_without_points_is_diagnosed_only_by_its_point_count(segments, want):
    scene = Scene((frame_b(),), (ScenePath.from_segments("p", segments),))
    assert validate_chain(scene) == want


def line_path(name):
    return ScenePath.from_segments(name, (seg("line", [[0, 0, 0], [10, 0, 0]]),))


@pytest.mark.parametrize("name", ["a;b", "", "1p", "t\u00e4"])
def test_path_name_outside_grammar_is_diagnosed(name):
    diags = validate_chain(Scene((frame_b(),), (line_path(name),)))
    assert [(d.code, d.path) for d in diags] == [("bad_name", name)]
    assert diags[0].message.startswith(f"path name {name!r} must match")


@pytest.mark.parametrize("name", ["B;", "", "B C"])
def test_frame_name_outside_grammar_is_diagnosed(name):
    scene = Scene((frame_b(), Frame(name, Transform.identity())), (line_path("p"),))
    diags = validate_chain(scene)
    assert [d.code for d in diags] == ["bad_name"]
    assert diags[0].message.startswith(f"frame name {name!r} must match")


def test_frame_named_universe_is_diagnosed():
    scene = Scene((frame_b(), Frame("U", Transform.identity())), (line_path("p"),))
    assert validate_chain(scene) == [
        Diagnostic("reserved_frame", 'frame name "U" is reserved for the universe frame')
    ]


def test_repeated_path_name_is_diagnosed():
    scene = Scene((frame_b(),), (line_path("p"), line_path("q"), line_path("p")))
    assert validate_chain(scene) == [
        Diagnostic("duplicate_path", "duplicate path name 'p'", "p")
    ]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite point gives inf or nan steps
def reference_validate_chain(scene):
    """validate_chain with two norm calls per segment: the reference the
    one-pass version must match diagnostic for diagnostic."""
    out = []
    names = set()
    for frame in scene.frames:
        if frame.name in names:
            out.append(Diagnostic("duplicate_frame", f"duplicate frame name {frame.name!r}"))
        names.add(frame.name)
    if not names:
        out.append(
            Diagnostic("no_frames", "scene declares no frame besides the universe")
        )
    if not scene.paths:
        out.append(Diagnostic("no_paths", "scene declares no path"))

    for path in scene.paths:
        if not path.segments:
            out.append(Diagnostic("empty_path", f"path {path.name!r} has no segments", path.name))
            continue
        for j, seg in enumerate(path.segments):
            expected = _POINT_COUNT[seg.kind]
            n = len(seg.points)
            if expected is not None and n != expected:
                out.append(
                    Diagnostic(
                        "point_count",
                        f"path {path.name!r} segment {j}: {seg.kind.value} needs "
                        f"{expected} points, got {n}",
                        path.name,
                        j,
                    )
                )
            elif expected is None and n < MIN_SPLINE_POINTS:
                out.append(
                    Diagnostic(
                        "point_count",
                        f"path {path.name!r} segment {j}: spline needs at least "
                        f"{MIN_SPLINE_POINTS} points, got {n}",
                        path.name,
                        j,
                    )
                )
            if not np.isfinite(seg.points).all():
                out.append(
                    Diagnostic(
                        "non_finite_points",
                        f"path {path.name!r} segment {j}: points have non-finite coordinates",
                        path.name,
                        j,
                    )
                )
            gaps = np.linalg.norm(np.diff(seg.points, axis=0), axis=1)
            if np.any(gaps <= CHAIN_TOL):
                out.append(
                    Diagnostic(
                        "coincident_points",
                        f"path {path.name!r} segment {j}: consecutive points closer "
                        f"than {CHAIN_TOL} mm",
                        path.name,
                        j,
                    )
                )
            if seg.tool_frame not in names:
                out.append(
                    Diagnostic(
                        "unknown_tool_frame",
                        f"path {path.name!r} segment {j}: tool frame "
                        f"{seg.tool_frame!r} is not declared",
                        path.name,
                        j,
                    )
                )
            if not seg.speed > 0.0:
                out.append(
                    Diagnostic(
                        "bad_speed",
                        f"path {path.name!r} segment {j}: speed must be positive, "
                        f"got {seg.speed}",
                        path.name,
                        j,
                    )
                )
            if seg.speed == math.inf:
                out.append(
                    Diagnostic(
                        "non_finite_speed",
                        f"path {path.name!r} segment {j}: speed must be finite, got inf",
                        path.name,
                        j,
                    )
                )
            if j > 0:
                gap = float(
                    np.linalg.norm(seg.points[0] - path.segments[j - 1].points[-1])
                )
                if gap > CHAIN_TOL:
                    out.append(
                        Diagnostic(
                            "chain_break",
                            f"path {path.name!r}: segments {j - 1} and {j} do not "
                            f"chain (gap {gap:.6g} mm)",
                            path.name,
                            j,
                        )
                    )
    return out


# steps between consecutive points and across joins: none, either side of
# CHAIN_TOL, and ordinary lengths; an axis step of exactly CHAIN_TOL from the
# origin keeps the distance exact
STEP_LENGTHS = [f * CHAIN_TOL for f in (0.0, 0.5, 0.999, 1.0, 1.001, 3.0)]


@st.composite
def steps(draw):
    direction = draw(
        st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.0, -1.0)])
        | st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    )
    direction = np.array(direction)
    assume(np.linalg.norm(direction) > 0.1)
    length = draw(st.sampled_from(STEP_LENGTHS) | st.floats(0.01, 100.0))
    return direction / np.linalg.norm(direction) * length


@st.composite
def code_built_paths(draw):
    """Frames and (name, segments) pairs for a scene built in code, with
    duplicate or missing frames, empty paths, wrong point counts, close
    points, chain breaks, undeclared tool frames and non-positive speeds."""
    names = draw(st.lists(st.sampled_from(["B", "C"]), max_size=3))
    frames = tuple(Frame(name, Transform.identity()) for name in names)
    paths = []
    for i in range(draw(st.integers(0, 3))):
        start = st.just((0.0, 0.0, 0.0)) | st.tuples(*[st.floats(-500.0, 500.0)] * 3)
        point = np.array(draw(start))
        segments = []
        for j in range(draw(st.integers(0, 4))):
            if j > 0 and draw(st.booleans()):  # otherwise the segments chain exactly
                point = point + draw(steps())
            points = [point]
            for _ in range(draw(st.integers(1, 5)) - 1):
                point = point + draw(steps())
                points.append(point)
            segments.append(
                PathSegment(
                    draw(st.sampled_from(SegmentKind)),
                    np.array(points),
                    draw(st.sampled_from(["B", "C", "X"])),
                    draw(st.booleans()),
                    draw(st.sampled_from([5.0, 0.0, -2.0, math.nan])),
                )
            )
        paths.append((f"p{i}", tuple(segments)))
    return frames, paths


@st.composite
def code_built_scenes(draw):
    """Scenes of code_built_paths, at times with a non-finite coordinate or
    an infinite speed in some segment."""
    frames, paths = draw(code_built_paths())
    segments = [(i, j) for i, (_, segs) in enumerate(paths) for j in range(len(segs))]
    for _ in range(draw(st.integers(0, 2)) if segments else 0):
        i, j = draw(st.sampled_from(segments))
        name, segs = paths[i]
        seg = segs[j]
        if draw(st.booleans()):
            points = seg.points.copy()
            points[draw(st.integers(0, len(points) - 1)), draw(st.integers(0, 2))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
            seg = dataclasses.replace(seg, points=points)
        else:
            seg = dataclasses.replace(seg, speed=draw(st.sampled_from([math.inf, -math.inf])))
        paths[i] = (name, segs[:j] + (seg,) + segs[j + 1:])
    return Scene(frames, tuple(ScenePath.from_segments(name, segs) for name, segs in paths))


@given(code_built_scenes())
def test_validate_chain_matches_per_segment_reference(scene):
    assert validate_chain(scene) == reference_validate_chain(scene)


@pytest.mark.parametrize(
    "point, speed, message",
    [
        ((math.nan, 0.0, 0.0), 5.0, "points have non-finite coordinates"),
        ((0.0, -math.inf, 0.0), 5.0, "points have non-finite coordinates"),
        ((1.0, 0.0, 0.0), math.inf, "speed must be finite, got inf"),
    ],
    ids=["nan_point", "inf_point", "inf_speed"],
)
def test_validate_chain_refuses_what_a_file_cannot_hold(point, speed, message):
    """parse_scene refuses these numbers in a file; a scene built in code
    gets a diagnostic for them instead."""
    segment = PathSegment(SegmentKind.LINE, np.array([(0.0, 0.0, 0.0), point]), "B", False, speed)
    scene = Scene((Frame("B", Transform.identity()),),
                  (ScenePath.from_segments("p", [segment]),))
    assert [d.message for d in validate_chain(scene)] == [f"path 'p' segment 0: {message}"]


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip_exact():
    rng = np.random.default_rng(7)
    frames = [Frame("B", random_transform(rng)), Frame("C", random_transform(rng))]
    pts = rng.uniform(-100, 100, size=(4, 3))
    path = ScenePath.from_segments(
        "p",
        (
            seg("line", [pts[0], pts[1]], risk=True, tool="C"),
            seg("arc", [pts[1], pts[2], pts[3]], speed=2.5),
        ),
    )
    scene = Scene(tuple(frames), (path,), Workspace([-200, -200, -200], [200, 200, 200]))
    again = parse_scene(serialize_scene(scene))
    assert again.frames == scene.frames
    assert again.paths == scene.paths
    assert again.workspace == scene.workspace
    assert json.loads(serialize_scene(scene))["units"] == "mm"


def test_a_scene_has_no_unit_but_mm():
    """Only "mm" parses, so a scene holds no unit that serialize_scene could
    write and parse_scene then refuse."""
    scene = parse_scene(json.dumps(doc()))
    with pytest.raises(TypeError):
        dataclasses.replace(scene, units="in")


@pytest.mark.parametrize(
    "kinds, message",
    [([0.7], "kinds must be integer codes, got dtype float64"),
     ([-1], "kind code -1 is not a SegmentKind"),
     ([len(SegmentKind)], f"kind code {len(SegmentKind)} is not a SegmentKind")],
)
def test_scene_path_refuses_a_kind_column_outside_segment_kind(kinds, message):
    with pytest.raises(SceneValidationError, match=f"^path 'p': {message}$"):
        ScenePath("p", [[0, 0, 0], [1, 0, 0]], [0, 2], kinds, ("U",), (False,), [1.0])


def test_parse_preserves_declaration_order():
    d = doc()
    d["frames"].append(
        {"name": "A", "rotation": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], "origin": [1.0, 0, 0]}
    )
    d["paths"].append(
        {
            "name": "second",
            "segments": [
                {
                    "kind": "line",
                    "points": [[0, 0, 0], [1.0, 0, 0]],
                    "tool_frame": "A",
                    "risk": False,
                    "speed": 1.0,
                }
            ],
        }
    )
    scene = parse_scene(json.dumps(d))
    assert [f.name for f in scene.frames] == ["B", "A"]
    assert [p.name for p in scene.paths] == ["p", "second"]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["butt_joint.scene.json", "profile.scene.json", "straight_seam.scene.json"]
)
def test_fixture_scenes_parse_clean(name):
    scene = parse_scene((FIXTURES / name).read_text())
    assert validate_chain(scene) == []


def test_butt_joint_fixture_shape():
    scene = parse_scene((FIXTURES / "butt_joint.scene.json").read_text())
    assert {f.name for f in scene.frames} == {"B", "C", "D"}
    (path,) = scene.paths
    assert [s.risk for s in path.segments] == [False, True, True, False]
    assert scene.workspace is not None


@pytest.mark.parametrize("lo, hi", [([0, 0], [1, 1]), ([0, 0, 0], [1, 1, 1, 1]), (0.0, [1, 1, 1])])
def test_workspace_refuses_bounds_of_other_than_3_components(lo, hi):
    with pytest.raises(SceneValidationError, match="^workspace bounds must have 3 components"):
        Workspace(lo, hi)
