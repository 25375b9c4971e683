"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints its own PASS line (visible with pytest -s / -rP); a failure
surfaces as a normal assertion error.
"""

import math
import time

import numpy as np
import pytest

from conftest import FIXTURES, plan_of, random_transform
from robopath.cli import main as cli_main
from robopath.codegen import emit, load_program, lower
from robopath.geometry import (
    Quaternion,
    Transform,
    angle_between,
    apply,
    compose,
    invert,
    slerp,
)
from robopath.planner import (
    MotionKind,
    TargetPose,
    assign_orientations,
    interpolate_risk,
    rebase,
)
from robopath.scene import Frame, PathSegment, Scene, ScenePath, SegmentKind, parse_scene
from robopath.simulate import (
    ControllerKind,
    Environment,
    ForceConfig,
    FuzzyPIController,
    SeamConfig,
    fuzzy_pi_step,
    run_force,
    run_seam,
)


def ok(n, label):
    print(f"criterion {n} ({label}): PASS")


def straight_program(length=100.0, speed=10.0):
    poses = (
        TargetPose([0.0, 0.0, 0.0], Quaternion.identity(), MotionKind.JOINT, speed),
        TargetPose([length, 0.0, 0.0], Quaternion.identity(), MotionKind.LINEAR, speed),
    )
    return lower(plan_of("seam", poses, (0, 0), (False,)))


# ---------------------------------------------------------------------------


def test_criterion_1_transform_algebra():
    rng = np.random.default_rng(100)
    frames = [random_transform(rng) for _ in range(1000)]
    points = rng.uniform(-500, 500, size=(1000, 3))
    started = time.perf_counter()
    identity = np.eye(3)
    for t, p in zip(frames, points):
        r = compose(t, invert(t))
        assert np.abs(r.rotation - identity).max() < 1e-9
        assert np.abs(r.origin).max() < 1e-9
        assert np.abs(apply(invert(t), apply(t, p)) - p).max() < 1e-9
    for a, b, c in zip(frames[:333], frames[333:666], frames[666:999]):
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.abs(left.rotation - right.rotation).max() < 1e-9
        assert np.abs(left.origin - right.origin).max() < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"algebra suite took {elapsed:.2f} s"
    ok(1, "transform algebra, 1000 random frames, < 1 s")


def test_criterion_2_rebase_round_trip():
    rng = np.random.default_rng(200)
    for _ in range(100):
        frames = tuple(
            Frame(f"F{i}", random_transform(rng, span=500))
            for i in range(int(rng.integers(1, 4)))
        )
        pts = rng.uniform(-300, 300, size=(int(rng.integers(2, 7)), 3))
        segments = tuple(
            PathSegment(
                SegmentKind.LINE,
                np.array([pts[i], pts[i + 1]]),
                frames[0].name,
                False,
                10.0,
            )
            for i in range(len(pts) - 1)
        )
        scene = Scene(frames, (ScenePath.from_segments("p", segments),))
        base = frames[int(rng.integers(len(frames)))].name
        base_to_universe = scene.frame_map()[base].transform
        out = rebase(scene, base)
        for orig, new in zip(scene.paths[0].segments, out.paths[0].segments):
            for p_orig, p_new in zip(orig.points, new.points):
                assert np.abs(apply(base_to_universe, p_new) - p_orig).max() < 1e-9
    ok(2, "rebase + map-back reproduces universe points within 1e-9")


def test_criterion_3_interpolation():
    rng = np.random.default_rng(300)
    q_entry = Quaternion.identity()
    for _ in range(100):
        a = rng.uniform(-200, 200, size=3)
        b = a + rng.uniform(5, 150, size=3) * rng.choice([-1.0, 1.0], size=3)
        q_exit = Quaternion.from_axis_angle(rng.normal(size=3), rng.uniform(0.2, 2.5))
        v, dt = float(rng.uniform(1, 30)), float(rng.uniform(0.05, 1.0))
        poses = (
            TargetPose(a, q_entry, MotionKind.JOINT, v),
            TargetPose(b, q_exit, MotionKind.LINEAR, v),
        )
        plan = plan_of("p", poses, (0, 0), (True,))
        out = interpolate_risk(plan, dt)

        w = b - a
        length = float(np.linalg.norm(w))
        positions = np.array([p.position for p in out.poses])
        steps = np.diff(positions, axis=0)
        norms = np.linalg.norm(steps, axis=1)
        assert np.abs(norms - norms[0]).max() < 1e-6  # equidistant
        for p in positions[1:]:
            assert np.linalg.norm(np.cross(p - a, w)) < 1e-6  # collinear
        assert np.array_equal(positions[0], a) and np.array_equal(positions[-1], b)

        theta = angle_between(q_entry, q_exit)
        for k, pose in enumerate(out.poses):
            t = k / (len(out.poses) - 1)
            assert abs(angle_between(q_entry, pose.orientation) - t * theta) < 1e-7

    (mid,) = slerp(
        Quaternion.identity().as_array(),
        Quaternion.from_axis_angle([0, 0, 1], math.radians(90)).as_array(),
        [0.5],
    )
    assert np.abs(mid - np.array([0.92388, 0.0, 0.0, 0.38268])).max() < 1e-5
    ok(3, "risk interpolation spacing/collinearity/slerp linearity + 45-degree midpoint")


def test_criterion_4_codegen_goldens(tmp_path, capsys):
    for scene_name, golden, extra in (
        ("butt_joint.scene.json", "butt_joint.prog", ["--interp-dt", "0.5"]),
        ("profile.scene.json", "profile.prog", []),
    ):
        out = tmp_path / golden
        code = cli_main(
            ["compile", "--scene", str(FIXTURES / scene_name), "--base", "B",
             "--out", str(out), *extra]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == (FIXTURES / golden).read_bytes(), golden

        # emit -> load round trip within 5e-5 on every value
        scene = rebase(parse_scene((FIXTURES / scene_name).read_text()), "B")
        (plan,) = assign_orientations(scene)
        if any(plan.segment_risk):
            plan = interpolate_risk(plan, 0.5)
        program = lower(plan)
        loaded = load_program(emit(program))
        for name, original in program.targets.items():
            got = loaded.targets[name]
            assert np.abs(got.position - original.position).max() <= 5e-5
            assert np.abs(
                got.orientation.as_array() - original.orientation.as_array()
            ).max() <= 5e-5
            assert abs(got.speed - original.speed) <= 5e-5
    ok(4, "golden programs byte-identical; emit->load within 5e-5")


def test_criterion_5_seam_loop():
    started = time.perf_counter()
    env = Environment(offset=Transform(np.eye(3), [0.0, 1.0, 0.0]))
    cfg = SeamConfig(rate_hz=5.0, resolution_mm=0.01, gain_y=1.0, gain_z=1.0)
    trace = run_seam(straight_program(length=100.0, speed=10.0), env, cfg)
    data = trace.data

    settled = data[data[:, 0] >= 2.0, 6]
    assert settled.size > 0
    assert np.abs(settled - 1.0).max() <= 0.01 + 1e-12  # 1.00 +/- 0.01 within 2 s

    multiples = data[:, 6] / 0.01
    assert np.abs(multiples - np.round(multiples)).max() < 1e-9

    # row-for-row against the scripted discrete loop
    corr_y = 0.0
    for k, row in enumerate(trace.rows):
        err_y = 1.0 - corr_y
        step = min(0.5, max(-0.5, 1.0 * err_y))
        corr_y = round((corr_y + step) / 0.01) * 0.01
        assert row[0] == k / 5.0
        assert row[4] == err_y
        assert row[6] == corr_y

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"seam loop took {elapsed:.2f} s"
    ok(5, "seam loop at 5 Hz / 0.01 mm / 10 mm/s: converges, quantized, oracle match")


def test_criterion_6_force_loop():
    env = Environment(offset=Transform(np.eye(3), [0.0, 0.0, 2.0]))
    for controller in (ControllerKind.PI, ControllerKind.FUZZY_PI):
        cfg = ForceConfig(rate_hz=20.0, setpoint_n=20.0, controller=controller)
        assert env.stiffness_n_per_mm == 10.0
        trace = run_force(straight_program(), env, cfg)
        data = trace.data
        late = data[data[:, 0] >= 5.0]
        assert late.size > 0
        assert np.abs(late[:, 4] - 20.0).max() <= 0.5, controller

    rough = Environment(
        offset=Transform(np.eye(3), [0.0, 0.0, 2.0]), roughness_mm=0.05, seed=3
    )
    trace = run_force(straight_program(), rough, ForceConfig())
    late = trace.data[trace.data[:, 0] >= 5.0]
    assert np.var(late[:, 4]) > 0.0

    # odd symmetry of the fuzzy step on a 21 x 21 (error, error-rate) grid,
    # exact equality required
    dt = 0.05
    errors = np.linspace(-30.0, 30.0, 21)
    rates = np.linspace(-400.0, 400.0, 21)
    for e in errors:
        for de in rates:
            prev = e - de * dt
            pos = FuzzyPIController(0.05, 0.01, 0.1)
            neg = FuzzyPIController(0.05, 0.01, 0.1)
            fuzzy_pi_step(pos, prev, dt)
            fuzzy_pi_step(neg, -prev, dt)
            assert fuzzy_pi_step(neg, -e, dt) == -fuzzy_pi_step(pos, e, dt)
    ok(6, "force loop at 20 Hz: PI + fuzzy steady state <= 0.5 N, fluctuation, symmetry")


def test_criterion_7_zero_perturbation_null():
    program = straight_program()
    trace = run_seam(program, Environment(), SeamConfig())
    assert np.all(trace.data[:, 4:8] == 0.0)
    for controller in (ControllerKind.PI, ControllerKind.FUZZY_PI):
        trace = run_force(program, Environment(), ForceConfig(controller=controller))
        assert np.all(trace.data[:, 6] == 0.0)
        assert np.all(trace.data[:, 4] == 20.0)
    ok(7, "zero-perturbation runs produce identically zero corrections")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    prog = tmp_path / "p.prog"
    trace = tmp_path / "t.csv"

    def run_all():
        assert cli_main(
            ["compile", "--scene", str(FIXTURES / "butt_joint.scene.json"),
             "--base", "B", "--interp-dt", "0.5", "--out", str(prog)]
        ) == 0
        assert cli_main(
            ["simulate", "--program", str(prog), "--scenario", "force",
             "--offset-z", "1.5", "--roughness", "0.05", "--seed", "9",
             "--out", str(trace)]
        ) == 0
        capsys.readouterr()
        return (
            prog.read_bytes(),
            (tmp_path / "p.prog.manifest.json").read_bytes(),
            trace.read_bytes(),
            (tmp_path / "t.csv.manifest.json").read_bytes(),
        )

    assert run_all() == run_all()
    ok(8, "repeated CLI invocations byte-identical: program, trace, manifests")
