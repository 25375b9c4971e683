import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    FIXTURES,
    angle_between,
    axis_angle_quaternion,
    finite,
    plan_of,
    random_transform,
    reference_dot,
    reference_slerp,
    rodrigues,
)
from robopath import planner
from robopath.geometry import (
    Quaternion,
    Transform,
    apply,
    quaternion_to_rotation,
    rotation_to_quaternion,
)
from robopath.planner import (
    MotionKind,
    PlannedPath,
    PlanningError,
    TargetPose,
    assign_orientations,
    interpolate_risk,
    rebase,
)
from robopath.scene import (
    Frame,
    PathSegment,
    Scene,
    ScenePath,
    SegmentKind,
    parse_scene,
)


def rotz(deg):
    return rodrigues([0, 0, 1], math.radians(deg))


def line(a, b, tool="B", risk=False, speed=10.0):
    return PathSegment(SegmentKind.LINE, np.array([a, b], dtype=float), tool, risk, speed)


def chain_scene(points, frames=None, risks=None, tools=None, speed=10.0):
    """Scene with one path whose line segments chain through `points`."""
    n = len(points) - 1
    risks = risks or [False] * n
    tools = tools or ["B"] * n
    frames = frames or (Frame("B", Transform.identity()),)
    segs = tuple(
        line(points[i], points[i + 1], tools[i], risks[i], speed) for i in range(n)
    )
    return Scene(tuple(frames), (ScenePath.from_segments("p", segs),))


def random_chain_scene(rng, n_frames=3, n_points=5):
    frames = [Frame(f"F{i}", random_transform(rng, span=500)) for i in range(n_frames)]
    pts = rng.uniform(-300, 300, size=(n_points, 3))
    tools = [f"F{rng.integers(n_frames)}" for _ in range(n_points - 1)]
    return chain_scene(list(pts), frames=tuple(frames), tools=tools)


# ---------------------------------------------------------------------------
# rebase
# ---------------------------------------------------------------------------


def test_rebase_to_universe_is_identity():
    scene = chain_scene([[0, 0, 0], [10, 0, 0]])
    out = rebase(scene, "U")
    assert out.frames == scene.frames
    assert out.paths == scene.paths


def test_rebase_point_example():
    # base frame rotated 90 degrees about z at (100, 0, 0); the universe point
    # (100, 10, 0) must land at (10, 0, 0) in base coordinates.
    b = Frame("B", Transform(rotz(90), [100.0, 0.0, 0.0]))
    scene = chain_scene([[100.0, 10.0, 0.0], [100.0, 50.0, 0.0]], frames=(b,))
    out = rebase(scene, "B")
    got = out.paths[0].segments[0].points[0]
    # oracle: invert the 4x4 homogeneous matrix and multiply
    m = np.eye(4)
    m[:3, :3] = rotz(90)
    m[:3, 3] = [100.0, 0.0, 0.0]
    expected = (np.linalg.inv(m) @ [100.0, 10.0, 0.0, 1.0])[:3]
    np.testing.assert_allclose(got, expected, atol=1e-9)
    np.testing.assert_allclose(got, [10.0, 0.0, 0.0], atol=1e-9)
    assert out.frame_map()["B"].transform == Transform.identity() or np.allclose(
        out.frame_map()["B"].transform.rotation, np.eye(3), atol=1e-12
    )


def test_rebase_round_trip_restores_universe_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scene = random_chain_scene(rng)
        base = scene.frames[0].name
        t_base = scene.frame_map()[base].transform
        out = rebase(scene, base)
        for orig_path, new_path in zip(scene.paths, out.paths):
            for orig_seg, new_seg in zip(orig_path.segments, new_path.segments):
                for p_orig, p_new in zip(orig_seg.points, new_seg.points):
                    np.testing.assert_allclose(apply(t_base, p_new), p_orig, atol=1e-9)


def test_rebase_preserves_rigid_structure():
    rng = np.random.default_rng(4)
    scene = random_chain_scene(rng)
    out = rebase(scene, scene.frames[1].name)
    orig_pts = np.concatenate([s.points for s in scene.paths[0].segments])
    new_pts = np.concatenate([s.points for s in out.paths[0].segments])
    orig_d = np.linalg.norm(orig_pts[:, None] - orig_pts[None, :], axis=-1)
    new_d = np.linalg.norm(new_pts[:, None] - new_pts[None, :], axis=-1)
    np.testing.assert_allclose(new_d, orig_d, atol=1e-9)
    # relative rotations between frames survive
    for a in scene.frames:
        for b in scene.frames:
            orig_rel = a.transform.rotation.T @ b.transform.rotation
            new_a = out.frame_map()[a.name].transform.rotation
            new_b = out.frame_map()[b.name].transform.rotation
            np.testing.assert_allclose(new_a.T @ new_b, orig_rel, atol=1e-9)


def test_rebase_unknown_frame():
    scene = chain_scene([[0, 0, 0], [10, 0, 0]])
    with pytest.raises(PlanningError, match="nope"):
        rebase(scene, "nope")


def test_rebase_keeps_a_path_without_segments():
    b = Frame("B", Transform(rotz(30), [5.0, 0.0, 0.0]))
    scene = chain_scene([[0, 0, 0], [10, 0, 0]], frames=(b,))
    scene = Scene(scene.frames, scene.paths + (ScenePath.from_segments("empty", ()),))
    out = rebase(scene, "B")
    assert out.paths[1] == ScenePath.from_segments("empty", ())
    assert out.paths[0].segments[0].points.shape == (2, 3)


# ---------------------------------------------------------------------------
# assign_orientations
# ---------------------------------------------------------------------------


def test_single_segment_two_poses():
    c = Frame("C", Transform(rotz(30), [0.0, 0.0, 50.0]))
    scene = chain_scene([[0, 0, 0], [10, 0, 0]], frames=(c,), tools=["C"])
    (plan,) = assign_orientations(scene)
    assert len(plan.poses) == 2
    assert [p.motion_kind for p in plan.poses] == [MotionKind.JOINT, MotionKind.LINEAR]
    expected = rotation_to_quaternion(rotz(30))
    for pose in plan.poses:
        assert angle_between(pose.orientation, expected) < 1e-12
    assert plan.source_segments.tolist() == [0, 0]


def test_boundary_pose_takes_next_segments_tool():
    c = Frame("C", Transform.identity())
    d = Frame("D", Transform(rotz(90), [0.0, 0.0, 0.0]))
    scene = chain_scene(
        [[0, 0, 0], [10, 0, 0], [20, 0, 0]], frames=(c, d), tools=["C", "D"]
    )
    (plan,) = assign_orientations(scene)
    assert len(plan.poses) == 3
    quat_d = rotation_to_quaternion(rotz(90))
    assert angle_between(plan.poses[0].orientation, Quaternion.identity()) < 1e-12
    assert angle_between(plan.poses[1].orientation, quat_d) < 1e-12
    assert angle_between(plan.poses[2].orientation, quat_d) < 1e-12


def test_arc_kinds():
    b = Frame("B", Transform.identity())
    arc = PathSegment(
        SegmentKind.ARC,
        np.array([[0, 0, 0], [10, 5, 0], [20, 0, 0]], dtype=float),
        "B",
        False,
        10.0,
    )
    scene = Scene((b,), (ScenePath.from_segments("p", (arc,)),))
    (plan,) = assign_orientations(scene)
    assert [p.motion_kind for p in plan.poses] == [
        MotionKind.JOINT,
        MotionKind.CIRCULAR_VIA,
        MotionKind.CIRCULAR_END,
    ]


def test_spline_kinds_and_sources():
    b = Frame("B", Transform.identity())
    spline = PathSegment(
        SegmentKind.SPLINE,
        np.array([[0, 0, 0], [10, 2, 0], [20, -2, 0], [30, 0, 0]], dtype=float),
        "B",
        False,
        10.0,
    )
    scene = Scene((b,), (ScenePath.from_segments("p", (spline,)),))
    (plan,) = assign_orientations(scene)
    assert [p.motion_kind for p in plan.poses] == [
        MotionKind.JOINT,
        MotionKind.SPLINE_VIA,
        MotionKind.SPLINE_VIA,
        MotionKind.SPLINE_VIA,
    ]
    assert plan.source_segments.tolist() == [0, 0, 0, 0]


def test_dangling_tool_frame_errors():
    scene = chain_scene([[0, 0, 0], [10, 0, 0]], tools=["ghost"])
    with pytest.raises(PlanningError, match="ghost"):
        assign_orientations(scene)


# ---------------------------------------------------------------------------
# interpolate_risk
# ---------------------------------------------------------------------------


def risk_plan(entry_quat, exit_quat, points, speed=10.0):
    """Single risk run covering the whole path; first pose joint."""
    poses = [TargetPose(points[0], entry_quat, MotionKind.JOINT, speed)]
    sources = [0]
    for i, p in enumerate(points[1:], start=1):
        quat = exit_quat if i == len(points) - 1 else entry_quat
        poses.append(TargetPose(p, quat, MotionKind.LINEAR, speed))
        sources.append(i - 1)
    return plan_of("p", tuple(poses), tuple(sources), (True,) * (len(points) - 1))


def test_uniform_spacing_example():
    plan = risk_plan(
        Quaternion.identity(),
        axis_angle_quaternion([0, 0, 1], math.radians(90)),
        [np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
    )
    out = interpolate_risk(plan, dt=0.25)
    xs = [p.position[0] for p in out.poses]
    np.testing.assert_allclose(xs, [0.0, 2.5, 5.0, 7.5, 10.0], atol=1e-12)
    assert len(out.poses) == 4 + 1
    assert [p.interpolated for p in out.poses] == [False, True, True, True, True]
    assert out.poses[-1].position[0] == 10.0  # endpoint exact


def test_orientation_sweep_midpoint_example():
    q90 = axis_angle_quaternion([0, 0, 1], math.radians(90))
    plan = risk_plan(
        Quaternion.identity(),
        q90,
        [np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
    )
    out = interpolate_risk(plan, dt=0.25)
    mid = out.poses[2]  # at x = 5.0, half the run length
    np.testing.assert_allclose(
        [mid.orientation.w, mid.orientation.x, mid.orientation.y, mid.orientation.z],
        [0.92388, 0.0, 0.0, 0.38268],
        atol=1e-5,
    )
    assert out.poses[-1].orientation == q90  # exit quaternion exact


def test_no_risk_is_identity():
    pose_a = TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 10.0)
    pose_b = TargetPose([10, 0, 0], Quaternion.identity(), MotionKind.LINEAR, 10.0)
    plan = plan_of("p", (pose_a, pose_b), (0, 0), (False,))
    assert interpolate_risk(plan, 0.1) is plan


def test_rerunning_after_consumption_is_identity():
    plan = risk_plan(
        Quaternion.identity(),
        axis_angle_quaternion([0, 0, 1], 1.0),
        [np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
    )
    once = interpolate_risk(plan, 0.25)
    assert not any(once.segment_risk)
    assert interpolate_risk(once, 0.25) is once


def test_sections_equidistant_collinear_and_monotone():
    rng = np.random.default_rng(11)
    q_exit = axis_angle_quaternion([1, 1, 0], 1.2)
    for _ in range(25):
        pts = [rng.uniform(-200, 200, size=3)]
        for _ in range(3):
            pts.append(pts[-1] + rng.uniform(5, 80, size=3) * rng.choice([-1, 1], 3))
        v, dt = float(rng.uniform(1, 30)), float(rng.uniform(0.05, 1.0))
        plan = risk_plan(Quaternion.identity(), q_exit, pts, speed=v)
        out = interpolate_risk(plan, dt)

        # per-section spacing uniform and collinear with the section
        run_lengths = [np.linalg.norm(pts[i + 1] - pts[i]) for i in range(len(pts) - 1)]
        total = sum(run_lengths)
        idx = 1
        for s in range(len(pts) - 1):
            w = pts[s + 1] - pts[s]
            n = max(1, round(run_lengths[s] / (v * dt)))
            section = [pts[s]] + [out.poses[idx + j].position for j in range(n)]
            idx += n
            steps = np.diff(np.array(section), axis=0)
            norms = np.linalg.norm(steps, axis=1)
            assert np.abs(norms - norms[0]).max() < 1e-9
            for p in section[1:]:
                assert np.linalg.norm(np.cross(p - pts[s], w)) < 1e-6
        np.testing.assert_allclose(out.poses[-1].position, pts[-1], atol=0)

        # orientation angle grows linearly with cumulative arc length
        theta = angle_between(Quaternion.identity(), q_exit)
        walked = 0.0
        idx = 1
        for s in range(len(pts) - 1):
            n = max(1, round(run_lengths[s] / (v * dt)))
            for j in range(1, n + 1):
                arc = walked + run_lengths[s] * (j / n)
                got = angle_between(Quaternion.identity(), out.poses[idx].orientation)
                assert abs(got - (arc / total) * theta) < 1e-7
                idx += 1
            walked += run_lengths[s]


def test_pose_count_matches_subdivision_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        pts = [np.zeros(3)]
        for _ in range(k):
            step = rng.uniform(-60, 60, size=3)
            while np.linalg.norm(step) < 1.0:
                step = rng.uniform(-60, 60, size=3)
            pts.append(pts[-1] + step)
        v, dt = float(rng.uniform(1, 20)), float(rng.uniform(0.05, 0.8))
        plan = risk_plan(
            Quaternion.identity(), axis_angle_quaternion([0, 1, 0], 0.7), pts, speed=v
        )
        out = interpolate_risk(plan, dt)
        expected = 1 + sum(
            max(1, round(float(np.linalg.norm(pts[i + 1] - pts[i])) / (v * dt)))
            for i in range(k)
        )
        assert len(out.poses) == expected


def test_non_risk_poses_untouched():
    q = axis_angle_quaternion([0, 0, 1], 0.5)
    poses = (
        TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 10.0),
        TargetPose([10, 0, 0], Quaternion.identity(), MotionKind.LINEAR, 10.0),
        TargetPose([20, 0, 0], q, MotionKind.LINEAR, 10.0),
        TargetPose([30, 0, 0], q, MotionKind.LINEAR, 10.0),
    )
    plan = plan_of("p", poses, (0, 0, 1, 2), (False, True, False))
    out = interpolate_risk(plan, 0.5)
    assert out.poses[0] == poses[0]
    assert out.poses[1] == poses[1]  # run entry pose passes through untouched
    assert out.poses[-1] == poses[3]
    generated = list(out.poses)[2:-1]
    assert all(p.interpolated for p in generated)
    assert len(generated) == 2  # 10 mm section at 5 mm steps


def test_design_speed_is_slowest_risk_segment():
    # a slow plain segment, then risk segments at 20 and 5 mm/s: spacing is
    # 5 mm/s * 0.5 s, so each 10 mm section splits into 4 steps
    kinds = [MotionKind.JOINT] + [MotionKind.LINEAR] * 3
    speeds = (1.0, 1.0, 20.0, 5.0)
    poses = tuple(
        TargetPose([10.0 * i, 0, 0], Quaternion.identity(), kinds[i], v)
        for i, v in enumerate(speeds)
    )
    plan = plan_of("p", poses, (0, 0, 1, 2), (False, True, True))
    out = interpolate_risk(plan, 0.5)
    xs = [p.position[0] for p in out.poses]
    np.testing.assert_allclose(xs, [0.0, 10.0] + [10.0 + 2.5 * k for k in range(1, 9)])
    assert [p.speed for p in out.poses][2:] == [20.0] * 4 + [5.0] * 4


def test_zero_length_risk_section_errors():
    # identical positions with different orientations are a legal pose pair
    # but cannot be subdivided
    q = axis_angle_quaternion([0, 0, 1], 0.5)
    poses = (
        TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 10.0),
        TargetPose([0, 0, 0], q, MotionKind.LINEAR, 10.0),
    )
    plan = plan_of("p", poses, (0, 0), (True,))
    with pytest.raises(PlanningError, match="zero-length"):
        interpolate_risk(plan, 0.1)


def test_bad_interpolation_config_errors():
    plan = risk_plan(
        Quaternion.identity(),
        axis_angle_quaternion([0, 0, 1], 1.0),
        [np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
    )
    for dt in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PlanningError, match="sampling width"):
            interpolate_risk(plan, dt)


def test_pose_budget_refuses_fine_sampling(monkeypatch):
    monkeypatch.setattr(planner, "MAX_INTERPOLATED_POSES", 10)
    plan = risk_plan(
        Quaternion.identity(),
        axis_angle_quaternion([0, 0, 1], 1.0),
        [np.array([0.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
    )
    assert len(interpolate_risk(plan, 0.1).poses) == 1 + 10  # two 5-step sections
    with pytest.raises(PlanningError, match="more than 10"):
        interpolate_risk(plan, 0.09)  # 2 x 5.6 steps
    slow = risk_plan(
        Quaternion.identity(),
        axis_angle_quaternion([0, 0, 1], 1.0),
        [np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
        speed=1e-3,
    )
    with pytest.raises(PlanningError, match="more than 10"):
        interpolate_risk(slow, 5e-324)  # the step length underflows to 0


def test_pose_budget_refuses_a_step_length_that_underflows():
    plan = risk_plan(
        Quaternion.identity(),
        axis_angle_quaternion([0, 0, 1], 1.0),
        [np.array([0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0])],
        speed=1e-300,
    )
    assert 1e-300 * 1e-30 == 0.0
    with pytest.raises(PlanningError, match="about inf poses"):
        interpolate_risk(plan, 1e-30)


def sequential_sum(values):
    """The values added one after the other, as the builtin sum adds floats
    before Python 3.12 (from 3.12 it compensates rounding)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_interpolate_risk(path, dt):
    """The per-pose interpolate_risk the columnar one replaced, kept as a
    brute-force reference: one TargetPose per pose and one slerp per
    generated pose."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise PlanningError(f"sampling width must be positive and finite, got {dt}")
    if not any(path.segment_risk):
        return path
    poses = list(path.poses)
    source_segments = path.source_segments.tolist()
    v_mag = min(
        pose.speed
        for pose, src in zip(poses, source_segments)
        if path.segment_risk[src]
    )

    last_pose_of_segment = {}
    for idx, src in enumerate(source_segments):
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
    sections = []
    total_steps = 0.0
    for seg_a, seg_b in runs:
        entry = 0 if seg_a == 0 else last_pose_of_segment[seg_a - 1]
        exit_ = last_pose_of_segment[seg_b]
        lengths = []
        for i in range(entry, exit_):
            step = poses[i + 1].position - poses[i].position
            length = math.sqrt(reference_dot(step, step))
            if length < planner.POSITION_TOL:
                raise PlanningError(
                    f"path {path.name!r}: zero-length section at pose {i} inside a "
                    f"risk region"
                )
            lengths.append(length)
        steps = [length / step_mm if step_mm > 0.0 else math.inf for length in lengths]
        total_steps += sequential_sum(steps)
        sections.append((entry, exit_, lengths, steps))
    if not total_steps <= planner.MAX_INTERPOLATED_POSES:
        raise PlanningError(
            f"path {path.name!r}: sampling width {dt} s at {v_mag} mm/s would generate "
            f"about {total_steps:.3g} poses, more than {planner.MAX_INTERPOLATED_POSES}"
        )

    new_poses = []
    new_sources = []
    cursor = 0
    for entry, exit_, section_lengths, steps in sections:
        new_poses.extend(poses[cursor : entry + 1])
        new_sources.extend(source_segments[cursor : entry + 1])
        cursor = exit_ + 1
        total = sequential_sum(section_lengths)

        q_entry = poses[entry].orientation
        q_exit = poses[exit_].orientation
        walked = 0.0
        for s, length in enumerate(section_lengths):
            pa = poses[entry + s]
            pb = poses[entry + s + 1]
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
                    quat = reference_slerp(q_entry, q_exit, t)
                new_poses.append(
                    TargetPose(position, quat, MotionKind.LINEAR, pb.speed, True)
                )
                new_sources.append(source_segments[entry + s + 1])
            walked += length

    new_poses.extend(poses[cursor:])
    new_sources.extend(source_segments[cursor:])
    return plan_of(path.name, new_poses, new_sources, (False,) * len(path.segment_risk))


# Tool orientations for the reference property: Q1 is within SLERP_MIN_ANGLE
# of Q0, Q2 . Q3 < 0 in canonical sign, and Q5 as the planner holds it has a
# w*w + x*x + y*y + z*z other than exactly 1, so normalizing it changes its bits.
_TOOL_QUATS = (
    Quaternion.identity(),
    axis_angle_quaternion([0, 0, 1], 1e-7),
    Quaternion(0.5, 0.5, 0.5, 0.5),
    Quaternion(0.5, -0.5, -0.5, -0.5),
    axis_angle_quaternion([1, 1, 0], 1.2),
    axis_angle_quaternion([1, 2, 3], 1.86),
)
_TOOL_FRAMES = tuple(
    Frame(f"Q{i}", Transform(quaternion_to_rotation(q), [0.0, 0.0, 0.0]))
    for i, q in enumerate(_TOOL_QUATS)
)
_POINT_COUNTS = {"line": 1, "arc": 2, "spline": 3}  # points after the start


def plan_of_segments(start, segments):
    """The planned path of segments chained from `start`; each segment is
    (kind, points after its start, tool index, risk, speed)."""
    segs = []
    for kind, points, tool, risk, speed in segments:
        segs.append(
            PathSegment(SegmentKind(kind), np.array([start, *points], dtype=float),
                        f"Q{tool}", risk, speed)
        )
        start = points[-1]
    (plan,) = assign_orientations(Scene(_TOOL_FRAMES, (ScenePath.from_segments("p", tuple(segs)),)))
    return plan


@st.composite
def risk_plans(draw):
    point = st.lists(finite(-50, 50), min_size=3, max_size=3)
    segments = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(sorted(_POINT_COUNTS)))
        segments.append((
            kind,
            [draw(point) for _ in range(_POINT_COUNTS[kind])],
            draw(st.integers(0, len(_TOOL_QUATS) - 1)),
            draw(st.booleans()),
            draw(finite(2, 20)),
        ))
    try:
        return plan_of_segments(draw(point), segments)
    except PlanningError:  # consecutive identical poses
        assume(False)


@settings(deadline=None)
@given(risk_plans(), finite(0.2, 2.0))
@example(  # t reaches 1.0 by rounding before the run's last pose
    plan_of_segments([1e11, 0, 0], [("line", [[0, 0, 0]], 0, True, 1e6),
                                    ("line", [[2e-6, 0, 0]], 5, True, 1e6)]), 100.0)
@example(  # a run of ten sections, whose pairwise and sequential sums differ
    plan_of_segments([0, 0, 0], [("line", [[2 * k, k * k, k % 5]], k % 6, True, 5.0)
                                 for k in range(1, 11)]), 0.5)
@example(  # theta below SLERP_MIN_ANGLE
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 0, False, 5.0),
                                 ("line", [[20, 0, 0]], 0, True, 5.0),
                                 ("line", [[30, 0, 0]], 1, False, 5.0)]), 0.3)
@example(  # q_entry . q_exit < 0
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 2, True, 5.0),
                                 ("line", [[10, 7, 0]], 3, False, 5.0)]), 0.3)
@example(  # runs at the path's start and end, an arc just before the second
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 4, True, 5.0),
                                 ("arc", [[15, 5, 0], [20, 0, 0]], 2, False, 9.0),
                                 ("spline", [[25, 1, 0], [30, -1, 0], [35, 0, 0]], 0, True, 7.0),
                                 ("line", [[40, 0, 0]], 3, True, 3.0)]), 0.5)
@example(  # several runs
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 0, False, 5.0),
                                 ("line", [[20, 0, 0]], 4, True, 5.0),
                                 ("line", [[30, 0, 0]], 2, False, 5.0),
                                 ("line", [[30, 10, 0]], 3, True, 2.5),
                                 ("line", [[30, 20, 0]], 0, False, 5.0)]), 0.7)
@example(  # zero-length section inside a run
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 0, True, 5.0),
                                 ("line", [[10, 0, 0]], 4, True, 5.0),
                                 ("line", [[20, 0, 0]], 0, False, 5.0)]), 0.5)
@example(  # over the pose budget
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 0, True, 5.0)]), 1e-9)
@example(  # a run with theta below SLERP_MIN_ANGLE, then a run with q_entry . q_exit < 0
    plan_of_segments([0, 0, 0], [("line", [[10, 0, 0]], 0, False, 5.0),
                                 ("line", [[20, 0, 0]], 0, True, 5.0),
                                 ("spline", [[25, 2, 0], [30, -1, 0], [35, 0, 0]], 0, True, 4.0),
                                 ("line", [[35, 10, 0]], 1, False, 5.0),
                                 ("arc", [[40, 15, 0], [45, 10, 0]], 2, True, 6.0),
                                 ("line", [[45, 0, 0]], 2, True, 5.0),
                                 ("line", [[55, 0, 0]], 3, False, 5.0)]), 0.4)
@example(  # exactly one section in every run
    plan_of_segments([0, 0, 0], [("line", [[10 * k + 10, k % 3, 0]], k % 6, k % 3 == 1, 5.0)
                                 for k in range(24)]), 0.3)
def test_interpolate_risk_matches_per_pose_reference(plan, dt):
    try:
        want = reference_interpolate_risk(plan, dt)
    except PlanningError as exc:
        with pytest.raises(PlanningError) as got:
            interpolate_risk(plan, dt)
        assert str(got.value) == str(exc)
        return
    got = interpolate_risk(plan, dt)
    for attr in ("positions", "orientations", "kinds", "speeds", "interpolated",
                 "source_segments"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), attr
    assert got.segment_risk == want.segment_risk


def test_pose_budget_adds_step_counts_in_path_order(monkeypatch):
    # a run of ten sections, whose unrounded step counts sum to different
    # bits pairwise and one after the other; the budget takes the latter
    plan = plan_of_segments([0, 0, 0], [("line", [[2 * k, k * k, k % 5]], k % 6, True, 5.0)
                                        for k in range(1, 11)])
    steps = np.linalg.norm(np.diff(plan.positions, axis=0), axis=1) / (5.0 * 0.5)
    total = sequential_sum(steps.tolist())
    assert float(np.sum(steps)) != total
    monkeypatch.setattr(planner, "MAX_INTERPOLATED_POSES", total)
    interpolate_risk(plan, 0.5)
    monkeypatch.setattr(planner, "MAX_INTERPOLATED_POSES", float(np.nextafter(total, 0.0)))
    with pytest.raises(PlanningError, match="more than"):
        interpolate_risk(plan, 0.5)


@given(st.lists(st.lists(finite(0, 1e6), min_size=1, max_size=40), min_size=1, max_size=30))
@example([[0.1] * 1000] + [[0.3, 0.7]] * 5 + [[1e6, 1e-6, 1.0]])
def test_run_cumsum_adds_each_run_in_order(runs):
    values = np.array([v for run in runs for v in run])
    want = []
    for run in runs:
        total = 0.0
        for v in run:
            total += v
            want.append(total)
    got = planner._run_cumsum(values, np.array([len(run) for run in runs]))
    assert got.tolist() == want


def test_plan_columns_are_read_only_and_poses_a_lazy_view(monkeypatch):
    (plan,) = assign_orientations(chain_scene([[0, 0, 0], [10, 0, 0], [20, 0, 0]]))
    for column in (plan.positions, plan.orientations, plan.speeds, plan.interpolated,
                   plan.source_segments):
        with pytest.raises(ValueError):
            column[0] = 0
    built = []
    monkeypatch.setattr(planner, "TargetPose", lambda *a: built.append(a) or TargetPose(*a))
    assert len(plan.poses) == 3 and not built
    pose = plan.poses[1]
    assert len(built) == 1
    monkeypatch.undo()
    assert pose == TargetPose([10, 0, 0], Quaternion.identity(), MotionKind.LINEAR, 10.0)


@pytest.mark.parametrize("speed", [0.0, -1.0, math.inf, math.nan])
def test_target_speed_must_be_positive_and_finite(speed):
    with pytest.raises(PlanningError, match="positive and finite"):
        TargetPose([0.0, 0.0, 0.0], Quaternion.identity(), MotionKind.LINEAR, speed)


def test_consecutive_identical_poses_forbidden():
    pose = TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 10.0)
    with pytest.raises(PlanningError, match="identical"):
        plan_of("p", (pose, pose), (0, 0), (False,))


@pytest.mark.parametrize("kinds, dtype", [([1.7, 1.0], "float64"), (["JOINT", "LINEAR"], "<U6")])
def test_planned_path_refuses_a_kind_column_that_is_not_integer(kinds, dtype):
    columns = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]] * 2
    with pytest.raises(PlanningError, match=f"^path 'p': kinds must be integer codes, got dtype "
                                            f"{dtype}$"):
        PlannedPath("p", *columns, kinds, [5.0, 5.0], [False] * 2, [0, 0], (False,))
    empty = PlannedPath("p", np.empty((0, 3)), np.empty((0, 4)), [], [], [], [], ())
    assert empty.kinds.dtype == np.intp and empty.kinds.shape == (0,)


@pytest.mark.parametrize("code", [-1, len(MotionKind), 7])
def test_planned_path_refuses_a_kind_code_outside_motion_kind(code):
    columns = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]] * 2
    with pytest.raises(PlanningError, match=f"^path 'p': kind code {code} is not a MotionKind$"):
        PlannedPath("p", *columns, [0, code], [5.0, 5.0], [False] * 2, [0, 0], (False,))


# ---------------------------------------------------------------------------
# fixture end-to-end sanity
# ---------------------------------------------------------------------------


def test_butt_joint_plan_smooths_orientation_change():
    scene = parse_scene((FIXTURES / "butt_joint.scene.json").read_text())
    rebased = rebase(scene, "B")
    (plan,) = assign_orientations(rebased)
    out = interpolate_risk(plan, dt=0.5)
    assert not any(out.segment_risk)
    # orientation change is now gradual: max per-step angle well below the
    # single abrupt change in the raw plan
    raw_steps = [
        angle_between(plan.poses[i].orientation, plan.poses[i + 1].orientation)
        for i in range(len(plan.poses) - 1)
    ]
    smooth_steps = [
        angle_between(out.poses[i].orientation, out.poses[i + 1].orientation)
        for i in range(len(out.poses) - 1)
    ]
    assert max(smooth_steps) < max(raw_steps) / 4
