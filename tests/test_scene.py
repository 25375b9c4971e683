import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import FIXTURES, random_transform
from robopath.scene import (
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
            ScenePath(
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
            ScenePath(
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
        (ScenePath("p", (seg("arc", [[0, 0, 0], [10, 0, 0]]),)),),
    )
    diags = validate_chain(scene)
    assert [d.code for d in diags] == ["point_count"]
    assert diags[0].segment == 0


def test_coincident_points_diagnosed():
    scene = Scene(
        (frame_b(),),
        (ScenePath("p", (seg("line", [[0, 0, 0], [0, 0, 0]]),)),),
    )
    assert "coincident_points" in [d.code for d in validate_chain(scene)]


def test_empty_path_and_missing_frames_diagnosed():
    scene = Scene((), (ScenePath("p", ()),))
    codes = {d.code for d in validate_chain(scene)}
    assert codes == {"no_frames", "empty_path"}


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip_exact():
    rng = np.random.default_rng(7)
    frames = [Frame("B", random_transform(rng)), Frame("C", random_transform(rng))]
    pts = rng.uniform(-100, 100, size=(4, 3))
    path = ScenePath(
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
    assert again.units == scene.units


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
