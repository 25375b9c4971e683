import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import FIXTURES, axes, finite, plan_of, reference_dot, rodrigues, transforms
from robopath import simulate
from robopath.codegen import (
    Opcode,
    ProgramParseError,
    RobotProgram,
    emit,
    load_program,
    lower,
)
from robopath.geometry import Quaternion, Transform, apply, invert
from robopath.planner import MotionKind, TargetPose
from robopath.simulate import (
    FORCE_COLUMNS,
    MAX_TICKS,
    SEAM_COLUMNS,
    ControllerKind,
    Environment,
    ForceConfig,
    SeamConfig,
    SimTrace,
    SimulationError,
    _CELLS,
    _CENTERS,
    _PathProfile,
    _leg_frames,
    _path_frames,
    _fuzzy_increment,
    _tick_count,
    fuzzy_pi_controller,
    pi_controller,
    quantize,
    run_force,
    run_seam,
)


def straight_program(length=100.0, speed=10.0, name="seam"):
    poses = (
        TargetPose([0.0, 0.0, 0.0], Quaternion.identity(), MotionKind.JOINT, speed),
        TargetPose([length, 0.0, 0.0], Quaternion.identity(), MotionKind.LINEAR, speed),
    )
    return lower(plan_of(name, poses, (0, 0), (False,)))


def offset_env(x=0.0, y=0.0, z=0.0, rot_z_deg=0.0, **kwargs):
    c, s = math.cos(math.radians(rot_z_deg)), math.sin(math.radians(rot_z_deg))
    rot = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    return Environment(offset=Transform(rot, [x, y, z]), **kwargs)


# ---------------------------------------------------------------------------
# load_program
# ---------------------------------------------------------------------------


def test_load_inverts_emit():
    program = straight_program()
    loaded = load_program(emit(program))
    assert loaded.name == program.name
    assert len(loaded.targets) == 2
    assert [i.opcode.name for i in loaded.instructions] == ["MOVEJ", "MOVEL"]


def test_load_reports_unknown_opcode_with_line():
    text = "PROGRAM p\nTARGET t1 = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]\nHOVER t1 SPEED 5.0\nEND\n"
    with pytest.raises(ProgramParseError, match="line 3.*HOVER"):
        load_program(text)


def test_load_structural_errors():
    with pytest.raises(ProgramParseError, match="PROGRAM"):
        load_program("MOVEJ t1 SPEED 1.0\nEND\n")
    with pytest.raises(ProgramParseError, match="missing END"):
        load_program("PROGRAM p\n")
    with pytest.raises(ProgramParseError, match="undeclared"):
        load_program("PROGRAM p\nMOVEJ t9 SPEED 1.0\nEND\n")
    with pytest.raises(ProgramParseError, match="after END"):
        load_program("PROGRAM p\nEND\nMOVEJ t1 SPEED 1.0\n")
    target = "TARGET {} = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]\n"
    header = "PROGRAM p\n" + target.format("t1") + target.format("t2")
    with pytest.raises(ProgramParseError, match="line 4: target 't1' referenced twice"):
        load_program(header + "MOVEC t1 t1 SPEED 1.0\nEND\n")
    with pytest.raises(ProgramParseError, match="line 5: target 't1' referenced twice"):
        load_program(header + "MOVEJ t1 SPEED 1.0\nMOVEL t1 SPEED 1.0\nEND\n")


# ---------------------------------------------------------------------------
# seam sensor
# ---------------------------------------------------------------------------


def straight_seam_run(**offset):
    """A seam replay of a 100 mm straight program along +x, whose path frame
    has y and z along world y and z; its first row is sensed at the origin."""
    return run_seam(straight_program(), offset_env(**offset), SeamConfig())


def test_sensor_zero_on_seam():
    assert straight_seam_run().rows[0][4:6] == (0.0, 0.0)


def test_sensor_reads_lateral_offset():
    assert straight_seam_run(y=1.0).rows[0][4:6] == (1.0, 0.0)


def test_sensor_reads_vertical_offset():
    assert straight_seam_run(z=-2.0).rows[0][4:6] == (0.0, -2.0)


def test_sensor_loses_distant_seam():
    trace = straight_seam_run(y=60.0)
    assert trace.aborted and len(trace.rows) == 1
    assert trace.rows[0][4:] == (60.0, 0.0, 0.0, 0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the seam search takes the nearest point "
                   "on every leg, so the hairpin's return leg tracks the outbound seam")
def test_hairpin_return_leg_ends_on_the_true_seam():
    # legs 8 mm apart moved 5 mm in y: on the return leg (nominal y = 8) the
    # moved outbound seam (y = 5) is nearer than the true return seam (y = 13)
    program = polyline_program([(0, 0, 0), (100, 0, 0), (100, 8, 0), (0, 8, 0)], [10.0] * 3)
    cfg = SeamConfig()
    trace = run_seam(program, offset_env(y=5.0), cfg)
    _, nominals, frames, _ = simulate._ticks(program, cfg.rate_hz, None)
    err_y, _, corr_y, corr_z = trace.data[-1, 4:].tolist()
    tool = nominals[-1] + corr_y * frames[-1, 1] + corr_z * frames[-1, 2]
    assert trace.status == "OK" and len(trace.data) == len(nominals)
    assert abs(tool[1] - 13.0) <= cfg.resolution_mm
    assert abs(err_y) <= cfg.resolution_mm


def closest_by_loop(points, p):
    """Per-segment scan of a polyline, the geometric reference for the seam
    search: a segment with |w|^2 < 1e-24 is its start point, frac is clamped
    to [0, 1], and only a strictly smaller distance replaces the best, so the
    first minimum wins."""
    px, py, pz = p
    best, best_d = None, math.inf
    for (ax, ay, az), (bx, by, bz) in zip(points[:-1], points[1:]):
        wx, wy, wz = bx - ax, by - ay, bz - az
        denom = wx * wx + wy * wy + wz * wz
        if denom < 1e-24:
            candidate = (ax, ay, az)
        else:
            frac = ((px - ax) * wx + (py - ay) * wy + (pz - az) * wz) / denom
            frac = min(1.0, max(0.0, frac))
            candidate = (ax + frac * wx, ay + frac * wy, az + frac * wz)
        gx, gy, gz = candidate[0] - px, candidate[1] - py, candidate[2] - pz
        d = math.sqrt(gx * gx + gy * gy + gz * gz)
        if d < best_d:
            best, best_d = candidate, d
    return best, best_d


def closest_by_leg_loop(profile, q):
    """Per-leg scan of a path profile's legs, the reference for
    `_PathProfile.closest`: the distance along each leg is clamped to
    [0, length], and only a strictly smaller distance replaces the best, so
    the first minimum wins."""
    qx, qy, qz = q
    best, best_d = None, math.inf
    legs = zip(profile.starts.tolist(), profile.directions.tolist(), profile.lengths.tolist())
    for (sx, sy, sz), (dx, dy, dz), length in legs:
        along = min(length, max(0.0, (qx - sx) * dx + (qy - sy) * dy + (qz - sz) * dz))
        candidate = (sx + dx * along, sy + dy * along, sz + dz * along)
        gx, gy, gz = candidate[0] - qx, candidate[1] - qy, candidate[2] - qz
        d = math.sqrt(gx * gx + gy * gy + gz * gz)
        if d < best_d:
            best, best_d = candidate, d
    return best, best_d


# Small integer grids repeat points (zero-length segments) and put many
# segments at exactly the same distance (ties); sub-picometre steps make
# segments below the 1e-12 mm cut-off that are not exactly zero; free
# floats cover the rest.
grid_coord = st.integers(-3, 3).map(float)
tiny_coord = st.sampled_from([1e-13, -4e-13])
free_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
coords = st.one_of(grid_coord, tiny_coord, free_coord)
points3 = st.tuples(coords, coords, coords)


def leg_profile(points):
    """The path profile of `points` at 1 mm/s, for a polyline with at least
    one leg of 1e-12 mm or more (summed as the profile sums it)."""
    spans = [[b - a for a, b in zip(p, q)] for p, q in zip(points, points[1:])]
    assume(any(math.sqrt(x * x + y * y + z * z) >= 1e-12 for x, y, z in spans))
    return _PathProfile(np.array(points, dtype=float), np.ones(len(points) - 1))


@given(st.lists(points3, min_size=2, max_size=12), points3)
@example([(0.0, 0.0, 0.0), (1e-13, 0.0, 0.0), (1.0, 0.0, 0.0)], (-5.0, 0.0, 0.0))
def test_closest_point_matches_per_leg_loop(points, q):
    profile = leg_profile(points)
    point, dist = profile.closest(np.array(q))
    ref_point, ref_dist = closest_by_leg_loop(profile, q)
    assert tuple(point.tolist()) == ref_point
    assert dist == ref_dist


def test_closest_point_first_minimum_wins():
    # a square around the origin: every side is 1 mm away
    square = [[-1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, -1.0, 0.0]]
    for points, nearest in ((square, (0.0, 1.0, 0.0)), (square[::-1], (0.0, -1.0, 0.0))):
        profile = _PathProfile(np.array(points), np.ones(3))
        point, dist = profile.closest(np.zeros(3))
        assert (tuple(point.tolist()), dist) == (nearest, 1.0)
        assert closest_by_leg_loop(profile, (0.0, 0.0, 0.0)) == (nearest, 1.0)


@given(st.lists(points3, min_size=2, max_size=12), points3, transforms())
def test_workpiece_frame_search_matches_world_frame_search(points, p, offset):
    # the seam is the polyline moved by `offset`; the tool sits at p moved
    # the same way
    seam = [apply(offset, point).tolist() for point in points]
    tool = apply(offset, p)
    _, dist = leg_profile(points).closest(apply(invert(offset), tool))
    _, world_dist = closest_by_loop(seam, tool.tolist())
    scale = max(map(abs, [*np.ravel(points), *np.ravel(seam), *p, *tool]))
    assert abs(dist - world_dist) <= 1e-9 * (1.0 + scale)


def at_by_rescan(points, speeds, t, tol):
    """Linear rescan, the reference for `_PathProfile.schedule`: skip legs
    shorter than 1e-12 mm, then walk the legs subtracting each duration from
    t until the remainder exceeds a leg's duration by at most `tol`, so a
    time within rounding of a leg boundary stays on the leg that ends there;
    past the end, hold the last leg's end. Returns the leg's index among the
    moving legs and the position."""
    legs = []
    for a, b, speed in zip(points[:-1], points[1:], speeds):
        span = b - a
        length = math.sqrt(span[0] * span[0] + span[1] * span[1] + span[2] * span[2])
        if length >= 1e-12:
            legs.append((a, span / length, length, length / speed))
    remaining = t
    for i, (start, direction, length, duration) in enumerate(legs):
        if remaining <= duration + tol:
            return i, start + direction * (length * min(1.0, remaining / duration))
        remaining -= duration
    start, direction, length, _ = legs[-1]
    return len(legs) - 1, start + direction * length


def check_schedule_against_rescan(points, speeds, profile, times):
    legs, positions = profile.schedule(np.array(times))
    for t, got_leg, got_position in zip(times, legs, positions):
        tol = profile._tie_tol * max(t, profile.total_time)
        leg, position = at_by_rescan(points, speeds, t, tol)
        assert got_leg == leg, t
        assert np.array_equal(profile.directions[got_leg], profile.directions[leg]), t
        assert np.abs(got_position - position).max() <= 1e-9, t


leg_points = st.lists(st.tuples(grid_coord, grid_coord, grid_coord), min_size=2, max_size=10)


@given(leg_points, st.data())
def test_path_profile_matches_linear_rescan(points, data):
    points = np.array(points)
    speeds = np.array(
        data.draw(st.lists(st.sampled_from([0.3, 1.0, 2.5, 7.0, 10.0]),
                           min_size=len(points) - 1, max_size=len(points) - 1))
    )
    try:
        profile = _PathProfile(points, speeds)
    except SimulationError:
        return  # every leg has zero length
    times = [0.0, data.draw(st.floats(0.0, profile.total_time)), profile.total_time * 1.5]
    for boundary in profile.ends.tolist():  # each leg boundary and its neighbouring floats
        times += [boundary, math.nextafter(boundary, math.inf), math.nextafter(boundary, -math.inf)]
    check_schedule_against_rescan(points, speeds, profile, times)


def test_path_profile_leg_choice_where_summation_order_matters():
    # 0.1 + 0.2 rounds up to the second leg's end time, while the running
    # remainder t - 0.1 = 0.20000000000000004 exceeds that leg's duration:
    # a search of the end times alone keeps t on the second leg, and
    # subtracting the durations one by one passes it to the third. Within
    # rounding of the boundary, t stays on the leg that ends there
    # whichever way the durations are summed.
    points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.1, 0.2, 0.0], [0.1, 0.2, 1.0]])
    profile = _PathProfile(points, np.ones(3))
    t = profile.ends[1]
    assert t == 0.1 + 0.2 and t - profile.ends[0] > profile.durations[1]
    times = [0.1 + 0.2, 0.2 + 0.1, 0.3, math.nextafter(t, math.inf)]
    legs, _ = profile.schedule(np.array(times))
    assert legs.tolist() == [1] * len(times)
    assert profile.directions[1].tolist() == [0.0, 1.0, 0.0]
    check_schedule_against_rescan(points, np.ones(3), profile, times)


def test_golden_program_loads_with_expected_targets():
    program = load_program((FIXTURES / "butt_joint.prog").read_text())
    assert program.name == "weld_seam"
    assert len(program.targets) == 23  # 3 raw poses + 20 risk-interpolated
    assert len(program.instructions) == 23


# ---------------------------------------------------------------------------
# seam loop
# ---------------------------------------------------------------------------


def test_seam_zero_perturbation_zero_corrections():
    trace = run_seam(straight_program(), Environment(), SeamConfig())
    data = trace.data
    assert trace.status == "OK"
    assert np.all(data[:, 4:8] == 0.0)


def seam_loop_oracle(n_ticks, offset_y, gain, max_step, resolution, rate, speed, length):
    """Scripted first-order discrete loop, independent of the simulator."""
    corr_y = 0.0
    corr_z = 0.0
    rows = []
    for k in range(n_ticks):
        t = k / rate
        x = length * ((t / (length / speed)))
        err_y = offset_y - corr_y
        err_z = 0.0 - corr_z
        step_y = min(max_step, max(-max_step, gain * err_y))
        step_z = min(max_step, max(-max_step, gain * err_z))
        corr_y = round((corr_y + step_y) / resolution) * resolution
        corr_z = round((corr_z + step_z) / resolution) * resolution
        rows.append((t, x, err_y, err_z, corr_y, corr_z))
    return rows


def test_seam_constant_offset_matches_loop_oracle_row_for_row():
    cfg = SeamConfig()  # 5 Hz, 0.01 mm, gain 1.0, step 0.5
    trace = run_seam(straight_program(), offset_env(y=1.0), cfg)
    expected = seam_loop_oracle(
        n_ticks=51,
        offset_y=1.0,
        gain=1.0,
        max_step=0.5,
        resolution=0.01,
        rate=5.0,
        speed=10.0,
        length=100.0,
    )
    assert len(trace.rows) == 51
    for row, (t, x, err_y, err_z, corr_y, corr_z) in zip(trace.rows, expected):
        assert row[0] == t
        assert row[1] == x
        assert row[4] == err_y
        assert row[5] == err_z
        assert row[6] == corr_y
        assert row[7] == corr_z


def test_seam_converges_and_quantizes():
    trace = run_seam(straight_program(), offset_env(y=1.0), SeamConfig())
    data = trace.data
    settled = data[data[:, 0] >= 2.0]  # within 2 s simulated
    assert np.all(np.abs(settled[:, 6] - 1.0) <= 0.01 + 1e-12)
    multiples = data[:, 6] / 0.01
    assert np.abs(multiples - np.round(multiples)).max() < 1e-9
    # time grid is exactly k / rate
    for k, row in enumerate(trace.rows):
        assert row[0] == k / 5.0


def test_seam_ramp_offset_builds_monotone_staircase():
    # a small rotation about z turns into a linearly growing lateral offset
    theta = math.degrees(math.asin(2.0 / 100.0))
    trace = run_seam(straight_program(), offset_env(rot_z_deg=theta), SeamConfig())
    corr = trace.data[:, 6]
    assert np.all(np.diff(corr) >= -1e-12)  # monotone
    steps = np.diff(corr)
    assert np.abs(steps / 0.01 - np.round(steps / 0.01)).max() < 1e-9
    assert 1.8 <= corr[-1] <= 2.1


# A path with legs at 45 degrees in the xy plane and one that climbs in z
FORTY_FIVE_DEGREE_PATH = [(0, 0, 0), (10, 0, 0), (15, 5, 0), (25, 5, 0), (30, 0, 0), (40, 0, 2)]


@pytest.mark.parametrize("offset", [dict(y=1.0), dict(x=0.3, y=-0.7, z=0.2, rot_z_deg=0.5),
                                    dict(x=1.0, y=1.0, rot_z_deg=-2.0),
                                    dict(y=2.5, z=-0.4, rot_z_deg=3.0)])
def test_seam_correction_is_whole_resolution_steps_on_45_degree_legs(offset):
    """Each correction is a whole number of resolution steps on every leg,
    within the 1e-6 of a step that the benchmark's seam check allows."""
    program = polyline_program(FORTY_FIVE_DEGREE_PATH, [10.0] * 6)
    cfg = SeamConfig()
    trace = run_seam(program, offset_env(**offset), cfg)
    assert not trace.aborted
    steps = trace.data[:, 6:8] / cfg.resolution_mm
    assert np.abs(steps - np.round(steps)).max() <= 1e-6


def test_seam_steady_state_on_offset_gain_grid():
    """Accumulated correction approaches the offset for any gain in (0, 1].

    The quantizer has a deadband: a step smaller than half the resolution
    rounds away, so the reachable error is resolution / (2 * gain); at gain 1
    this collapses to the resolution itself. The geometric decay term covers
    slow transients. Each run is also checked row-for-row against the
    scripted loop.
    """
    for d in (0.3, 1.0, 2.5):
        for g in (0.25, 0.5, 1.0):
            cfg = SeamConfig(gain_y=g, gain_z=g)
            trace = run_seam(straight_program(), offset_env(y=d), cfg)
            corr_y = 0.0
            for row in trace.rows:
                err = d - corr_y
                step = min(0.5, max(-0.5, g * err))
                corr_y = round((corr_y + step) / 0.01) * 0.01
                assert row[4] == err
                assert row[6] == corr_y
            ticks = len(trace.rows)
            bound = max(0.01, 0.01 / (2 * g)) + d * (1 - g) ** ticks
            assert abs(trace.rows[-1][6] - d) <= bound + 1e-12


def test_seam_lost_aborts_with_partial_trace():
    trace = run_seam(straight_program(), offset_env(y=60.0), SeamConfig())
    assert trace.aborted
    assert len(trace.rows) == 1
    assert trace.to_csv().strip().splitlines()[-1].endswith("ABORTED")


def test_seam_duration_cap():
    trace = run_seam(straight_program(), Environment(), SeamConfig(), duration_s=2.0)
    assert len(trace.rows) == 11  # 2 s at 5 Hz, inclusive of t = 0


# ---------------------------------------------------------------------------
# controllers
# ---------------------------------------------------------------------------


def test_pi_zero_error_zero_output():
    step = pi_controller(1.0, 0.5, math.inf, 0.05)
    for _ in range(10):
        assert step(0.0) == 0.0


def test_pi_pure_proportional():
    step = pi_controller(1.0, 0.0, math.inf, 0.05)
    assert step(2.0) == 2.0


def test_pi_integrator_grows_linearly_until_clamp():
    step = pi_controller(0.0, 1.0, 1.0, 0.1)
    outputs = [step(2.0) for _ in range(10)]
    # u_k = Ki * k * e * dt = 0.2 k until the clamp at 1.0
    for k, u in enumerate(outputs, start=1):
        assert u == pytest.approx(min(1.0, 0.2 * k), abs=1e-12)
    assert outputs[-1] == 1.0
    # anti-windup: the integrator is held at the clamp level, so with Kp = 0
    # a zero error outputs Ki times it
    # a zero error outputs Ki times it, and an error of -0.5 takes it to 0.95
    # inside the clamp, where a wound-up integral of 2.0 would still clamp to 1.0
    assert step(0.0) == pytest.approx(1.0, abs=1e-12)
    assert step(-0.5) == pytest.approx(0.95, abs=1e-12)


@pytest.mark.parametrize("dt", [0.0, -0.05, math.nan])
def test_controllers_refuse_a_tick_period_that_is_not_positive(dt):
    with pytest.raises(SimulationError, match="^dt must be > 0$"):
        pi_controller(0.02, 0.5, 25.0, dt)
    with pytest.raises(SimulationError, match="^dt must be > 0$"):
        fuzzy_pi_controller(0.05, 0.01, 0.1, 25.0, dt)


def test_fuzzy_zero_inputs_zero_increment():
    assert _fuzzy_increment(0.0, 0.0) == 0.0
    step = fuzzy_pi_controller(0.05, 0.01, 0.1, math.inf, 0.05)
    assert step(0.0) == 0.0


def test_fuzzy_positive_saturation_steps_by_output_scale():
    step = fuzzy_pi_controller(0.05, 0.0, 0.1, math.inf, 0.05)
    # saturated error, zero error-rate: the PB rule fires alone
    assert step(100.0) == pytest.approx(0.1, abs=1e-15)


def test_fuzzy_increment_odd_symmetry_exact_on_grid():
    grid = np.linspace(-1.0, 1.0, 21)
    for e in grid:
        for de in grid:
            assert _fuzzy_increment(-e, -de) == -_fuzzy_increment(e, de)


def test_fuzzy_step_odd_symmetry():
    dt = 0.05
    for e0, e1 in [(3.0, 7.0), (-12.0, 5.0), (40.0, 38.5)]:
        a = fuzzy_pi_controller(0.05, 0.01, 0.1, math.inf, dt)
        b = fuzzy_pi_controller(0.05, 0.01, 0.1, math.inf, dt)
        a(e0)
        b(-e0)
        assert b(-e1) == -a(e1)


def test_fuzzy_increment_bounded():
    rng = np.random.default_rng(9)
    for _ in range(500):
        e, de = rng.uniform(-1, 1, size=2)
        assert abs(_fuzzy_increment(float(e), float(de))) <= 1.0


# ---------------------------------------------------------------------------
# force loop
# ---------------------------------------------------------------------------


def test_force_zero_perturbation_zero_corrections():
    for controller in (ControllerKind.PI, ControllerKind.FUZZY_PI):
        trace = run_force(
            straight_program(), Environment(), ForceConfig(controller=controller)
        )
        data = trace.data
        assert np.all(data[:, 4] == 20.0)  # force pinned at the setpoint
        assert np.all(data[:, 6] == 0.0)  # displacement identically zero


def force_loop_oracle(n_ticks, shift, stiffness, setpoint, kp, ki, rate):
    """Scripted discrete PI loop against the unilateral spring."""
    dt = 1.0 / rate
    integral = 0.0
    disp = 0.0
    rows = []
    for k in range(n_ticks):
        force = max(0.0, setpoint + stiffness * (shift + disp))
        error = setpoint - force
        integral += error * dt
        disp = kp * error + ki * integral
        rows.append((k / rate, force, disp))
    return rows


def test_force_pi_matches_loop_oracle_row_for_row():
    env = offset_env(z=2.0)
    cfg = ForceConfig()  # PI, 20 Hz, kp 0.02, ki 0.5, k 10, setpoint 20
    trace = run_force(straight_program(), env, cfg)
    expected = force_loop_oracle(
        n_ticks=len(trace.rows), shift=2.0, stiffness=10.0, setpoint=20.0,
        kp=0.02, ki=0.5, rate=20.0,
    )
    for row, (t, force, disp) in zip(trace.rows, expected):
        assert row[0] == t
        assert abs(row[4] - force) < 1e-12
        assert abs(row[6] - disp) < 1e-12


@pytest.mark.parametrize("controller", [ControllerKind.PI, ControllerKind.FUZZY_PI])
def test_force_converges_to_setpoint_penetration(controller):
    env = offset_env(z=2.0)  # nominal path pressed 2 mm deeper than programmed
    trace = run_force(straight_program(), env, ForceConfig(controller=controller))
    data = trace.data
    late = data[data[:, 0] >= 5.0]
    assert late.size > 0
    assert np.abs(late[:, 4] - 20.0).max() <= 0.5
    # equilibrium penetration = setpoint / stiffness = 2 mm, so the controller
    # backs the tool off by the full environment shift
    assert late[-1, 6] == pytest.approx(-2.0, abs=0.05)


def test_force_roughness_causes_fluctuation():
    env = offset_env(z=2.0, roughness_mm=0.05, seed=42)
    trace = run_force(straight_program(), env, ForceConfig())
    late = trace.data[trace.data[:, 0] >= 5.0]
    assert np.var(late[:, 4]) > 0.0


def test_force_deterministic_for_fixed_seed():
    env = offset_env(z=1.0, roughness_mm=0.1, seed=7)
    a = run_force(straight_program(), env, ForceConfig())
    b = run_force(straight_program(), env, ForceConfig())
    assert a.to_csv() == b.to_csv()
    c = run_force(straight_program(), offset_env(z=1.0, roughness_mm=0.1, seed=8), ForceConfig())
    assert a.to_csv() != c.to_csv()


def test_force_contact_loss_aborts():
    env = offset_env(z=-5.0)  # surface retracted far below the programmed path
    cfg = ForceConfig(kp=0.001, ki=0.0, contact_timeout_s=0.2)
    trace = run_force(straight_program(), env, cfg)
    assert trace.aborted
    assert trace.to_csv().strip().splitlines()[-1].endswith("ABORTED")
    assert len(trace.rows) < 20


@pytest.mark.parametrize("controller", list(ControllerKind))
@pytest.mark.parametrize(
    "rate, timeout_s, rows", [(16.0, 1.0, 17), (20.0, 1.0, 21), (33.0, 1.0, 34), (100.0, 0.29, 30)]
)
def test_force_contact_loss_aborts_after_the_timeout_in_ticks(rate, timeout_s, rows, controller):
    # the surface 40 mm below the path, beyond the 25 mm output limit: no
    # contact from tick 0 on. The run aborts on the first lost tick past the
    # timeout at every rate; a sum of tick periods aborted one tick early
    # at 20 Hz, where 20 * 0.05 s sums to more than 1.0 s, and so would a
    # bare product at 100 Hz, where 0.29 * 100 rounds to just under 29.
    cfg = ForceConfig(rate_hz=rate, controller=controller, contact_timeout_s=timeout_s)
    trace = run_force(straight_program(), offset_env(z=-40.0), cfg)
    assert trace.aborted
    assert np.all(trace.data[:, 4] == 0.0)
    assert len(trace.data) == rows


def test_force_never_negative():
    # unilateral contact: separation means zero force, in every regime
    for env in (
        offset_env(z=-5.0),
        offset_env(z=2.0, roughness_mm=0.5, seed=13),
        offset_env(z=-1.0, rot_z_deg=2.0),
    ):
        trace = run_force(straight_program(), env, ForceConfig(contact_timeout_s=100.0))
        assert np.all(trace.data[:, 4] >= 0.0)


@pytest.mark.parametrize("field, what", [("output_limit_mm", "output limit"),
                                         ("contact_timeout_s", "contact timeout")])
def test_force_config_refuses_a_negative_limit_or_timeout(field, what):
    # a negative output limit used to pin every output to +-1 mm from tick 0
    with pytest.raises(SimulationError, match=f"^{what} must be >= 0, got -1.0$"):
        ForceConfig(**{field: -1.0})
    assert getattr(ForceConfig(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("controller", list(ControllerKind))
def test_force_zero_output_limit_makes_no_correction(controller):
    cfg = ForceConfig(controller=controller, output_limit_mm=0.0)
    trace = run_force(straight_program(), offset_env(z=1.0), cfg)
    assert trace.status == "OK"
    assert np.all(trace.data[:, 6] == 0.0)
    assert np.all(trace.data[:, 4] == 30.0)  # the 1 mm shift is never taken back


# ---------------------------------------------------------------------------
# trace format
# ---------------------------------------------------------------------------


def test_trace_csv_format():
    trace = run_seam(straight_program(), offset_env(y=1.0), SeamConfig(), duration_s=0.4)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t_s,x_mm,y_mm,z_mm,err_y_mm,err_z_mm,corr_y_mm,corr_z_mm,status"
    assert lines[1] == "0.0000,0.0000,0.0000,0.0000,1.0000,0.0000,0.5000,0.0000,OK"
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] in ("OK", "ABORTED")
        assert all("." in f and len(f.split(".")[1]) == 4 for f in fields[:-1])


def test_force_trace_header():
    trace = run_force(straight_program(), Environment(), ForceConfig(), duration_s=0.2)
    assert trace.to_csv().splitlines()[0] == "t_s,x_mm,y_mm,z_mm,force_N,setpoint_N,disp_mm,status"


@pytest.mark.parametrize("run, cfg", [(run_seam, SeamConfig()), (run_force, ForceConfig())])
def test_trace_is_one_read_only_table(run, cfg):
    program = straight_program()
    trace = run(program, offset_env(y=1.0, z=0.5), cfg, duration_s=1.0)
    n = round(cfg.rate_hz) + 1
    assert trace.data.shape == (n, len(trace.columns)) and trace.data.dtype == float
    with pytest.raises(ValueError):
        trace.data[0, 0] = 1.0
    # t, x, y and z are the tick table's bits, and rows read the table as tuples
    times, nominals, _, _ = simulate._ticks(program, cfg.rate_hz, 1.0)
    assert trace.data[:, :4].tobytes() == np.column_stack((times, nominals)).tobytes()
    assert isinstance(trace.rows, tuple) and trace.rows[0] == tuple(trace.data[0].tolist())
    assert SimTrace(trace.columns, trace.rows, trace.status) == trace


def test_trace_takes_rows_of_its_width_only():
    assert SimTrace(FORCE_COLUMNS, (), "OK").data.shape == (0, 7)
    with pytest.raises(ValueError):  # one row of 14 numbers, as many as two rows of 7
        SimTrace(FORCE_COLUMNS, ((0.0,) * 14,), "OK")


@pytest.mark.parametrize("columns, data", [(("a", "b"), [[1, 2, 3]]), (("a",), 1.0),
                                           (FORCE_COLUMNS, np.zeros((2, 3, 7)))])
def test_trace_refuses_data_that_is_not_rows_of_its_width(columns, data):
    with pytest.raises(SimulationError, match=r"^trace data of shape \(.*\) is not rows of \d+ "):
        SimTrace(columns, data, "OK")


@pytest.mark.parametrize("columns, data, status, cause", [
    (FORCE_COLUMNS, (), "OK", "no rows"),
    (SEAM_COLUMNS, (), "ABORTED", "no rows"),
    (("a",), [[1.0]], "OK", "columns ('a',)"),
    (("t_s", "x"), [[0.0, 1.0]], "OK", "columns ('t_s', 'x')"),
])
def test_trace_without_a_summary_refuses_to_summarize(columns, data, status, cause):
    trace = SimTrace(columns, data, status)
    with pytest.raises(SimulationError) as err:
        trace.summary()
    assert str(err.value) == f"a trace of {cause} has no summary"
    if not len(data):  # it still builds and writes its header
        assert trace.to_csv() == ",".join(columns + ("status",)) + "\n"


@pytest.mark.parametrize("status", ["BAD", "ok", "", None])
def test_trace_refuses_a_status_other_than_ok_or_aborted(status):
    with pytest.raises(SimulationError, match="^trace status must be OK or ABORTED, got "):
        SimTrace(("a",), [[1.0]], status)


def test_quantize_multiples():
    assert quantize(0.504, 0.01) == pytest.approx(0.5, abs=1e-15)
    assert quantize(-0.017, 0.01) == pytest.approx(-0.02, abs=1e-15)


def test_tick_budget_admits_max_ticks_and_refuses_more():
    program = straight_program()
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    assert profile.total_time == 10.0
    assert _tick_count(profile, (MAX_TICKS - 1) / 10.0, None) == MAX_TICKS
    with pytest.raises(SimulationError, match=f"more than {MAX_TICKS} ticks"):
        _tick_count(profile, MAX_TICKS / 10.0, None)


def test_path_profile_refuses_a_path_with_no_finite_total_time():
    # each leg takes 1e308 s, a finite duration; together they overflow
    points = np.array([[0.0, 0.0, 0.0], [1e150, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(SimulationError, match="^program path has no finite total time$"):
        _PathProfile(points, np.array([1e-158, 1e-158]))


@pytest.mark.parametrize("run, cfg", [(run_seam, SeamConfig()), (run_force, ForceConfig())])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_names_a_target_with_non_finite_coordinates(run, cfg, bad):
    """A program built in code may hold a coordinate the loader would
    refuse; the run names the target rather than calling its leg too long."""
    points = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]]
    points[1][2] = bad
    with pytest.raises(SimulationError, match="^target 2 has non-finite coordinates$"):
        run(polyline_program(points, [10.0, 10.0]), Environment(), cfg)


def test_run_requires_two_targets():
    pose = TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 5.0)
    single = lower(plan_of("p", (pose,), (0,), (False,)))
    with pytest.raises(SimulationError, match="two targets"):
        run_seam(single, Environment(), SeamConfig())


# ---------------------------------------------------------------------------
# batched replay against the per-tick references
# ---------------------------------------------------------------------------


def reference_memberships(v):
    return [max(0.0, 1.0 - abs(v - c) * 2.0) for c in _CENTERS]


# The anti-diagonal rule table: output set clip(i + j - 2, 0, 4) for error
# set i and error-rate set j.
REFERENCE_RULE = tuple(tuple(min(4, max(0, i + j - 2)) for j in range(5)) for i in range(5))

# The rules grouped into mirror pairs (i, j) <-> (4 - i, 4 - j), in table
# order, each entry holding both rules' set indices and output centers.
REFERENCE_MIRROR_RULES = tuple(
    (i, j, 4 - i, 4 - j, _CENTERS[REFERENCE_RULE[i][j]], _CENTERS[REFERENCE_RULE[4 - i][4 - j]])
    for i in range(5)
    for j in range(5)
    if (i, j) < (4 - i, 4 - j)
)


def reference_cell(ke, kd):
    """A cell of `_CELLS` built from the mirror pairs: its live non-center
    rules in pair order, and the weight index of the center rule."""
    live = {(ke + a, kd + b): 2 * a + b for a in (0, 1) for b in (0, 1)}
    rules = [
        (live[rule], c)
        for i, j, mi, mj, c1, c2 in REFERENCE_MIRROR_RULES
        for rule, c in (((i, j), c1), ((mi, mj), c2))
        if rule in live
    ]
    return tuple(rules), live.get((2, 2))


def test_cells_match_the_mirror_pair_table():
    assert _CELLS == tuple(tuple(reference_cell(ke, kd) for kd in range(4)) for ke in range(4))


def reference_fuzzy_increment(e, de):
    """The all-pairs `_fuzzy_increment` that the 2 x 2 cell of live rules
    replaced: memberships in all five sets, and all twelve mirror pairs
    summed in table order, dead rules included."""
    me = reference_memberships(e)
    md = reference_memberships(de)
    num = 0.0
    den = 0.0
    for i, j, mi, mj, c1, c2 in REFERENCE_MIRROR_RULES:
        w1 = min(me[i], md[j])
        w2 = min(me[mi], md[mj])
        den += w1 + w2
        num += w1 * c1 + w2 * c2
    den += min(me[2], md[2])  # self-mirrored center rule, output ZE
    if den == 0.0:
        return 0.0
    return num / den


# The controller records and per-tick step functions that the step closures
# `pi_controller` and `fuzzy_pi_controller` replaced. `fuzzy_pi_step` calls
# the all-pairs increment, which gives the bits of the 2 x 2 cell one.


@dataclass
class PIController:
    """Position-form PI with back-calculation anti-windup."""

    kp: float
    ki: float
    output_limit: float = math.inf
    integral: float = 0.0


def pi_step(state: PIController, error: float, dt: float) -> float:
    """u = Kp*e + Ki * integral(e dt), rectangular integration."""
    if not dt > 0.0:
        raise SimulationError("dt must be > 0")
    state.integral += error * dt
    u = state.kp * error + state.ki * state.integral
    if abs(u) > state.output_limit:
        u = math.copysign(state.output_limit, u)
        if state.ki > 0.0:
            state.integral = (u - state.kp * error) / state.ki
    return u


@dataclass
class FuzzyPIController:
    """Incremental fuzzy PI: du from the rule table, accumulated into u."""

    error_scale: float
    derror_scale: float
    output_scale: float
    output_limit: float = math.inf
    prev_error: Optional[float] = None
    output: float = 0.0


def fuzzy_pi_step(state: FuzzyPIController, error: float, dt: float) -> float:
    if not dt > 0.0:
        raise SimulationError("dt must be > 0")
    derror = 0.0 if state.prev_error is None else (error - state.prev_error) / dt
    state.prev_error = error
    e = min(1.0, max(-1.0, error * state.error_scale))
    de = min(1.0, max(-1.0, derror * state.derror_scale))
    u = state.output + state.output_scale * reference_fuzzy_increment(e, de)
    if abs(u) > state.output_limit:
        u = math.copysign(state.output_limit, u)
    state.output = u
    return u


def reference_at(profile, t):
    """The per-time `_PathProfile.at` that `schedule` replaced, under the
    boundary rule: bisection over the end times, with a time within
    rounding of a leg boundary on the leg that ends there. Returns the
    nominal position and the travel direction."""
    ends = profile.ends.tolist()
    tol = profile._tie_tol * max(t, profile.total_time)
    i = bisect_left(ends, t - tol)
    if i == len(ends):
        return profile.starts[-1] + profile.directions[-1] * profile.lengths[-1], profile.directions[-1]
    remaining = t - (ends[i - 1] if i else 0.0)
    frac = min(1.0, remaining / profile.durations[i])
    return profile.starts[i] + profile.directions[i] * (profile.lengths[i] * frac), profile.directions[i]


def reference_path_frame(direction):
    """The per-leg `_path_frame` that `_path_frames` replaced: right-handed
    (X=travel, Y=lateral, Z=vertical-ish) axes of one travel direction."""
    x = direction / math.sqrt(reference_dot(direction, direction))
    up = np.array([0.0, 0.0, 1.0])
    if abs(reference_dot(x, up)) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    y = np.cross(up, x)
    y = y / math.sqrt(reference_dot(y, y))
    z = np.cross(x, y)
    return x, y, z


def reference_run_seam(program, env, cfg, duration_s=None):
    """The per-tick `run_seam`: leg, nominal point and frame found each tick,
    and the seam sensed by a per-leg scan of the path profile in the
    workpiece frame."""
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    to_workpiece = invert(env.offset)
    corr_y = corr_z = 0.0
    rows = []
    status = "OK"
    for k in range(_tick_count(profile, cfg.rate_hz, duration_s)):
        t = k / cfg.rate_hz
        nominal, direction = reference_at(profile, t)
        _, y_axis, z_axis = reference_path_frame(direction)
        tool = nominal + corr_y * y_axis + corr_z * z_axis
        closest, dist = closest_by_leg_loop(profile, apply(to_workpiece, tool).tolist())
        offset = apply(env.offset, closest) - tool
        err_y, err_z = reference_dot(offset, y_axis), reference_dot(offset, z_axis)
        if dist > cfg.sensing_range_mm:
            rows.append((t, *nominal, err_y, err_z, corr_y, corr_z))
            status = "ABORTED"
            break
        step_y = min(cfg.max_step_mm, max(-cfg.max_step_mm, cfg.gain_y * err_y))
        step_z = min(cfg.max_step_mm, max(-cfg.max_step_mm, cfg.gain_z * err_z))
        corr_y = quantize(corr_y + step_y, cfg.resolution_mm)
        corr_z = quantize(corr_z + step_z, cfg.resolution_mm)
        rows.append((t, *nominal, err_y, err_z, corr_y, corr_z))
    return SimTrace(SEAM_COLUMNS, tuple(rows), status)


def reference_run_force(program, env, cfg, duration_s=None):
    """The per-tick `run_force`: leg, nominal point, frame, surface shift
    and roughness draw found each tick, and the controller a record stepped
    by its own function. The run aborts on the lost tick that takes the
    count past contact_timeout_s * rate_hz, less rounding."""
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    dt = 1.0 / cfg.rate_hz
    rng = np.random.default_rng(env.seed)
    if cfg.controller is ControllerKind.PI:
        controller = PIController(cfg.kp, cfg.ki, cfg.output_limit_mm)
        step = pi_step
    else:
        controller = FuzzyPIController(
            cfg.error_scale, cfg.derror_scale, cfg.output_scale, cfg.output_limit_mm
        )
        step = fuzzy_pi_step
    disp = 0.0
    lost = 0
    rows = []
    status = "OK"
    for k in range(_tick_count(profile, cfg.rate_hz, duration_s)):
        t = k / cfg.rate_hz
        nominal, direction = reference_at(profile, t)
        _, _, z_axis = reference_path_frame(direction)
        surface_shift = reference_dot(apply(env.offset, nominal) - nominal, z_axis)
        if env.roughness_mm > 0.0:
            surface_shift += env.roughness_mm * float(rng.standard_normal())
        force = max(0.0, cfg.setpoint_n + env.stiffness_n_per_mm * (surface_shift + disp))
        error = cfg.setpoint_n - force
        disp = step(controller, error, dt)
        rows.append((t, *nominal, force, cfg.setpoint_n, disp))
        if force == 0.0:
            lost += 1
            if lost > cfg.contact_timeout_s * cfg.rate_hz + 1e-9:
                status = "ABORTED"
                break
        else:
            lost = 0
    return SimTrace(FORCE_COLUMNS, tuple(rows), status)


def polyline_program(points, speeds):
    """A program that joint-moves to the first point and moves linearly
    through the rest, reaching point i + 1 at speeds[i]."""
    names = tuple(f"t{i + 1}" for i in range(len(points)))
    opcodes = (Opcode.MOVEJ,) + (Opcode.MOVEL,) * (len(points) - 1)
    orientations = np.tile([1.0, 0.0, 0.0, 0.0], (len(points), 1))
    return RobotProgram(
        "poly", names, np.array(points, dtype=float), orientations, opcodes,
        [speeds[0], *speeds[: len(points) - 1]],
    )


# Fuzzy inputs on and next to the set centres, where memberships tie or vanish
# and the 2 x 2 cell of live rules flips: each centre, one ulp either side of
# it, and offsets down to the smallest subnormal, plus -0.0.
fuzzy_edges = [
    *(c + d for c in _CENTERS for d in (0.0, 1e-12, -1e-12, 1e-17, -1e-17, 5e-324, -5e-324)),
    *(math.nextafter(c, toward) for c in _CENTERS for toward in (-math.inf, math.inf)),
    -0.0,
]
fuzzy_inputs = st.one_of(st.sampled_from(fuzzy_edges), finite(-1.0, 1.0))


@given(fuzzy_inputs, fuzzy_inputs)
def test_fuzzy_increment_matches_reference_bitwise(e, de):
    assert _fuzzy_increment(e, de).hex() == reference_fuzzy_increment(e, de).hex()


def test_fuzzy_increment_matches_reference_on_every_edge_pair():
    pairs = [(e, de) for e in fuzzy_edges for de in fuzzy_edges]
    assert len(pairs) > 2000
    for e, de in pairs:
        assert _fuzzy_increment(e, de).hex() == reference_fuzzy_increment(e, de).hex(), (e, de)


# Controller errors: multiples of 1/16, so that with the power-of-two scales
# and tick periods below the scaled error and error rate land exactly on the
# set centres and on +-1 and past them; any finite value; and now and then a
# non-finite one.
controller_errors = st.one_of(
    st.integers(-1024, 1024).map(lambda k: k / 16.0),
    finite(-1e3, 1e3),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
)
# 5e-324 s makes an error rate infinite, and with a zero rate scale nan
controller_dts = st.sampled_from([0.0625, 0.05, 1.0, 5e-324])
controller_limits = st.sampled_from([0.0, 0.25, 1.0, 25.0, math.inf])


@given(st.lists(controller_errors, min_size=1, max_size=30), st.sampled_from([0.0, 0.02, 1.0]),
       st.sampled_from([0.0, 0.5, 4.0]), controller_limits, controller_dts)
@example([2.0] * 12, 0.0, 1.0, 1.0, 0.0625)  # the integral winds up into the clamp
@example([40.0, -40.0, 3.0], 1.0, 0.0, 25.0, 0.05)  # proportional only, clamped both ways
def test_pi_controller_matches_record_step_bitwise(errors, kp, ki, limit, dt):
    step, state = pi_controller(kp, ki, limit, dt), PIController(kp, ki, limit)
    for error in errors:
        assert step(error).hex() == pi_step(state, error, dt).hex()


@given(st.lists(controller_errors, min_size=1, max_size=30), st.sampled_from([0.0625, 0.05, 1.0]),
       st.sampled_from([1 / 256, 0.01, 0.0]), st.sampled_from([0.1, 1.0]), controller_limits,
       controller_dts)
# scaled errors at -1, +1 and past them, error rates of -2 and +2.5
@example([16.0, -16.0, 24.0, -8.0], 0.0625, 1 / 256, 0.1, 25.0, 0.0625)
@example([5.0, 2.0, -4.0, -1e3], 0.05, 0.0, 1.0, 1.0, 5e-324)  # rates inf * 0: nan
def test_fuzzy_pi_controller_matches_record_step_bitwise(
    errors, error_scale, derror_scale, output_scale, limit, dt
):
    step = fuzzy_pi_controller(error_scale, derror_scale, output_scale, limit, dt)
    state = FuzzyPIController(error_scale, derror_scale, output_scale, limit)
    for error in errors:
        assert step(error).hex() == fuzzy_pi_step(state, error, dt).hex()


replay_points = st.lists(
    st.tuples(grid_coord, grid_coord, grid_coord).map(lambda p: tuple(4.0 * c for c in p)),
    min_size=2,
    max_size=8,
)


@st.composite
def replay_cases(draw):
    """A random polyline program and a cell rotated about any axis."""
    points = draw(replay_points)
    speeds = draw(st.lists(st.sampled_from([5.0, 7.0, 10.0, 25.0]),
                           min_size=len(points) - 1, max_size=len(points) - 1))
    if not any(a != b for a, b in zip(points, points[1:])):
        points.append(tuple(c + 1.0 for c in points[-1]))  # at least one moving leg
        speeds.append(5.0)
    angle = draw(st.sampled_from([0.0, 0.01, 0.3, 3.0]))
    offset = Transform(
        rodrigues(draw(axes()), angle),
        [draw(st.sampled_from([0.0, 0.7, -2.0, 6.0])) for _ in range(3)],
    )
    env = Environment(
        offset=offset,
        roughness_mm=draw(st.sampled_from([0.0, 0.05, 1.0])),
        seed=draw(st.integers(0, 3)),
    )
    return polyline_program(points, speeds), env, draw(st.sampled_from([1.0, 5.0, 20.0, 33.0]))


@settings(max_examples=60, deadline=None)  # the per-tick reference is slow
@given(replay_cases(), st.sampled_from(list(ControllerKind)), st.sampled_from([0.05, 0.5, 100.0]))
@example(  # the surface drops 4 mm away from the path: contact is lost for good
    (polyline_program([(0, 0, 0), (0, 10, 0), (10, 10, 3)], [5.0, 5.0]), offset_env(z=-4.0), 20.0),
    ControllerKind.PI,
    0.05,
)
def test_force_replay_matches_per_tick_reference(case, controller, timeout_s):
    program, env, rate = case
    cfg = ForceConfig(rate_hz=rate, controller=controller, contact_timeout_s=timeout_s)
    trace, reference = run_force(program, env, cfg), reference_run_force(program, env, cfg)
    assert trace.to_csv() == reference.to_csv()
    # run_force sums the surface shift x + y + z and the reference takes a
    # BLAS dot, so a row may differ in the last bits, never more.
    assert np.abs(trace.data - reference.data).max() <= 1e-9


def test_long_rough_fuzzy_replay_matches_per_tick_reference(monkeypatch):
    # about 3.1k ticks on a 15-leg zigzag in a rotated cell, rough enough that
    # the fuzzy step visits every 2 x 2 cell of its rule table
    points = [(40.0 * i, 12.0 * (i % 2), 0.5 * i) for i in range(16)]
    program = polyline_program(points, [4.0] * 15)
    offset = Transform(rodrigues([0.3, -0.2, 0.93], 0.01), [0.5, -0.7, 1.5])
    env = Environment(offset=offset, roughness_mm=0.8, seed=3)
    cfg = ForceConfig(controller=ControllerKind.FUZZY_PI, contact_timeout_s=100.0)
    cells = set()

    def recording_increment(e, de):
        cells.add((min(3, bisect_right(_CENTERS, e) - 1), min(3, bisect_right(_CENTERS, de) - 1)))
        return _fuzzy_increment(e, de)

    monkeypatch.setattr(simulate, "_fuzzy_increment", recording_increment)
    trace = run_force(program, env, cfg)
    reference = reference_run_force(program, env, cfg)
    assert len(trace.rows) >= 3000 and trace.status == "OK"
    assert len(cells) == 16
    assert trace.to_csv() == reference.to_csv()
    assert np.abs(trace.data - reference.data).max() <= 1e-9


@settings(max_examples=60, deadline=None)  # the per-tick reference is slow
@given(replay_cases(), st.sampled_from([1.0, 4.0, 50.0]))
def test_seam_replay_matches_per_tick_reference(case, sensing_range_mm):
    program, env, rate = case
    cfg = SeamConfig(rate_hz=rate, sensing_range_mm=sensing_range_mm)
    trace, reference = run_seam(program, env, cfg), reference_run_seam(program, env, cfg)
    assert trace.rows == reference.rows
    assert trace.to_csv() == reference.to_csv()


def test_path_frames_scale_with_ticks_not_program_legs(monkeypatch):
    framed = []

    def counting_frames(directions):
        framed.append(len(directions))
        return _path_frames(directions)

    monkeypatch.setattr(simulate, "_path_frames", counting_frames)
    # a 2000-leg zigzag of legs over 5 mm long, replayed for 2 s at 10 mm/s,
    # which reaches at most 5 of its legs
    points = [(5.0 * i, 2.0 * (i % 2), 0.0) for i in range(2001)]
    program = polyline_program(points, [10.0] * 2000)
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    for run, cfg in ((run_seam, SeamConfig(rate_hz=5.0)), (run_force, ForceConfig(rate_hz=20.0))):
        framed.clear()
        trace = run(program, offset_env(z=0.5), cfg, duration_s=2.0)
        assert len(trace.rows) > 5
        legs, _ = profile.schedule(trace.data[:, 0])
        # one call, one frame per leg reached, never one per tick or per program leg
        assert framed == [len(set(legs.tolist()))]
        assert 1 < framed[0] <= 5


# unit rows whose x axis has |z| one ulp below, at and one ulp above 0.99,
# where the frame switches its "up" from z to y
_VERTICAL_EDGE = (np.nextafter(0.99, 0.0), 0.99, np.nextafter(0.99, 1.0))
FRAME_EDGE_ROWS = [(math.sqrt(1.0 - z * z), 0.0, s * z) for z in _VERTICAL_EDGE for s in (1.0, -1.0)]


def test_frame_edge_rows_reach_the_vertical_switch():
    got = [reference_path_frame(np.array(row))[0][2] for row in FRAME_EDGE_ROWS]
    assert got == [s * z for z in _VERTICAL_EDGE for s in (1.0, -1.0)]


# components from 1e-12 to 1e12 in magnitude, of either sign, or zero
frame_components = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, s: s * m * 10.0**e,
              st.floats(1.0, 9.999), st.integers(-12, 11), st.sampled_from([1.0, -1.0])),
)
frame_rows = st.one_of(
    st.tuples(frame_components, frame_components, frame_components),
    st.sampled_from(FRAME_EDGE_ROWS + [(0.0, 0.0, 1.0), (0.0, 0.0, -1e-12), (0.0, 0.0, 1e12)]),
).filter(any)


@given(st.lists(frame_rows, min_size=1, max_size=20))
@example(FRAME_EDGE_ROWS + [(0.0, 0.0, 1.0), (0.0, 0.0, -1e-12)])
def test_path_frames_match_per_leg_reference_bitwise(rows):
    directions = np.array(rows)
    reference = np.array([reference_path_frame(d) for d in directions])
    assert _path_frames(directions).tobytes() == reference.tobytes()


def check_leg_frames(directions, legs):
    directions, legs = np.array(directions), np.array(legs)
    assert _leg_frames(directions, legs).tobytes() == _path_frames(directions[legs]).tobytes()


@given(st.lists(frame_rows, min_size=1, max_size=8).flatmap(
    lambda rows: st.tuples(st.just(rows), st.lists(
        st.integers(0, len(rows) - 1), min_size=1, max_size=40).map(sorted))))
@example((FRAME_EDGE_ROWS, [0] * 7))  # a single leg
@example((FRAME_EDGE_ROWS, list(range(len(FRAME_EDGE_ROWS)))))  # a new leg every tick
@example((FRAME_EDGE_ROWS, [0, 0, 1, 3, 3, 3, 4, 5, 5]))
def test_leg_frames_match_framing_every_tick_bitwise(case):
    check_leg_frames(*case)


def test_ticks_past_the_path_end_keep_the_last_legs_frame():
    # legs along the frame edge rows, and ticks until half again the path's time
    points = np.cumsum([(0.0, 0.0, 0.0)] + FRAME_EDGE_ROWS, axis=0) * 10.0
    profile = _PathProfile(points, np.full(len(FRAME_EDGE_ROWS), 3.0))
    legs, _ = profile.schedule(np.linspace(0.0, 1.5 * profile.total_time, 60))
    assert legs[0] == 0 and (legs == len(FRAME_EDGE_ROWS) - 1).sum() > 20
    check_leg_frames(profile.directions, legs)


@pytest.mark.parametrize("program", ["straight_seam", "butt_joint", "profile"])
def test_tick_frames_match_framing_every_tick_bitwise(program):
    program = load_program((FIXTURES / f"{program}.prog").read_text())
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    times, _, frames, _ = simulate._ticks(program, 20.0, None)
    legs, _ = profile.schedule(times)
    assert frames.tobytes() == _path_frames(profile.directions[legs]).tobytes()


def test_aborted_seam_row_holds_the_sensor_offsets():
    # the true seam turns 30 degrees away from the straight program, so the
    # correction follows it for a while and then loses it
    program, env = straight_program(), offset_env(rot_z_deg=30.0)
    cfg = SeamConfig(sensing_range_mm=4.0)
    trace = run_seam(program, env, cfg)
    assert trace.aborted
    t, x, y, z, err_y, err_z, corr_y, corr_z = trace.rows[-1]
    assert corr_y != 0.0
    # travel along +x frames the correction and the offsets as world y and z
    tool = (x, y + corr_y, z + corr_z)
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    closest, dist = closest_by_leg_loop(profile, apply(invert(env.offset), tool).tolist())
    assert dist > cfg.sensing_range_mm
    seam_point = apply(env.offset, closest)
    assert (err_y, err_z) == (seam_point[1] - tool[1], seam_point[2] - tool[2])
