import math
import re
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import axes, finite, plan_of, rodrigues
from robopath import simulate
from robopath.codegen import (
    Opcode,
    ProgramParseError,
    RobotProgram,
    emit,
    load_program,
    lower,
)
from robopath.geometry import Quaternion, Transform, apply
from robopath.planner import MotionKind, TargetPose
from robopath.simulate import (
    FORCE_COLUMNS,
    MAX_TICKS,
    SEAM_COLUMNS,
    ControllerKind,
    Environment,
    ForceConfig,
    FuzzyPIController,
    PIController,
    SeamConfig,
    SeamLost,
    SimTrace,
    SimulationError,
    _CENTERS,
    _RULE,
    _PathProfile,
    _path_frames,
    _Polyline,
    _fuzzy_increment,
    _tick_count,
    fuzzy_pi_step,
    pi_step,
    program_waypoints,
    quantize,
    run_force,
    run_seam,
    seam_sensor,
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
    assert [i.opcode.value for i in loaded.instructions] == ["MOVEJ", "MOVEL"]


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

SEAM_X = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])


def test_sensor_zero_on_seam():
    assert seam_sensor(SEAM_X, np.array([50.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])) == (
        0.0,
        0.0,
    )


def test_sensor_reads_lateral_offset():
    seam = SEAM_X + np.array([0.0, 1.0, 0.0])
    ey, ez = seam_sensor(seam, np.array([50.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert (ey, ez) == (1.0, 0.0)


def test_sensor_reads_vertical_offset():
    seam = SEAM_X + np.array([0.0, 0.0, -2.0])
    ey, ez = seam_sensor(seam, np.array([50.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert (ey, ez) == (0.0, -2.0)


def test_sensor_loses_distant_seam():
    seam = SEAM_X + np.array([0.0, 60.0, 0.0])
    with pytest.raises(SeamLost) as lost:
        seam_sensor(seam, np.array([50.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert (lost.value.err_y, lost.value.err_z) == (60.0, 0.0)


@pytest.mark.parametrize(
    "travel", [[0.0, 0.0, 0.0], [math.nan, 1.0, 0.0], [math.inf, 0.0, 0.0], [1e-300, 0.0, 0.0]]
)
def test_sensor_refuses_travel_without_frame(travel):
    with pytest.raises(SimulationError, match="has no path frame"):
        seam_sensor(SEAM_X, np.array([50.0, 0.0, 0.0]), np.array(travel))


@pytest.mark.parametrize(
    "seam, tool, travel, message",
    [
        (SEAM_X[:1], [50, 0, 0], [1, 0, 0], "true seam must be an (n >= 2, 3) array of points, "
                                             "got shape (1, 3)"),
        (SEAM_X[:, :2], [50, 0, 0], [1, 0, 0], "got shape (2, 2)"),
        (SEAM_X.ravel(), [50, 0, 0], [1, 0, 0], "got shape (6,)"),
        (SEAM_X, [50, 0], [1, 0, 0], "tool must be a 3-vector, got shape (2,)"),
        (SEAM_X, [[50, 0, 0]], [1, 0, 0], "tool must be a 3-vector, got shape (1, 3)"),
        (SEAM_X, [50, 0, 0], [1, 0], "travel must be a 3-vector, got shape (2,)"),
        (SEAM_X, [50, 0, 0], [], "travel must be a 3-vector, got shape (0,)"),
        (SEAM_X, [50, 0, 0], [[1], [0], [0]], "travel must be a 3-vector, got shape (3, 1)"),
    ],
)
def test_sensor_refuses_malformed_input(seam, tool, travel, message):
    with pytest.raises(SimulationError, match=re.escape(message)):
        seam_sensor(seam, tool, travel)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["seam", "tool"])
def test_sensor_refuses_non_finite_seam_or_tool(where, value):
    seam, tool = SEAM_X.copy(), np.array([50.0, 0.0, 0.0])
    (seam[1] if where == "seam" else tool)[1] = value
    label = "true seam" if where == "seam" else "tool"
    # refused before any arithmetic, so with no numpy warning either
    with pytest.raises(SimulationError, match=f"^{label} has non-finite coordinates$"):
        seam_sensor(seam, tool, np.array([1.0, 0.0, 0.0]))


def closest_by_loop(points, p):
    """Per-segment scan, the reference for `_Polyline.closest`: a segment
    with |w|^2 < 1e-24 is its start point, frac is clamped to [0, 1], and only
    a strictly smaller distance replaces the best, so the first minimum wins."""
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


# Small integer grids repeat points (zero-length segments) and put many
# segments at exactly the same distance (ties); sub-picometre steps make
# segments below the 1e-24 mm^2 cut-off that are not exactly zero; free
# floats cover the rest.
grid_coord = st.integers(-3, 3).map(float)
tiny_coord = st.sampled_from([1e-13, -4e-13])
free_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
coords = st.one_of(grid_coord, tiny_coord, free_coord)
points3 = st.tuples(coords, coords, coords)


@given(st.lists(points3, min_size=2, max_size=12), points3)
@example([(0.0, 0.0, 0.0), (1e-13, 0.0, 0.0)], (5.0, 0.0, 0.0))
def test_closest_point_matches_per_segment_loop(points, p):
    point, dist = _Polyline(np.array(points)).closest(np.array(p))
    ref_point, ref_dist = closest_by_loop(points, p)
    assert tuple(point.tolist()) == ref_point
    assert dist == ref_dist


def test_closest_point_first_minimum_wins():
    # a square around the origin: every side is 1 mm away
    square = np.array([[-1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, -1.0, 0.0]])
    point, dist = _Polyline(square).closest(np.zeros(3))
    assert point.tolist() == [0.0, 1.0, 0.0] and dist == 1.0
    point, _ = _Polyline(square[::-1].copy()).closest(np.zeros(3))
    assert point.tolist() == [0.0, -1.0, 0.0]


def at_by_rescan(points, speeds, t):
    """Linear rescan, the reference for `_PathProfile.schedule`: skip legs
    shorter than 1e-12 mm, then walk the legs subtracting each duration from
    t until the remainder fits in a leg; past the end, hold the last leg's
    end. Returns the leg's index among the moving legs and the position."""
    legs = []
    for a, b, speed in zip(points[:-1], points[1:], speeds):
        span = b - a
        length = math.sqrt(span[0] * span[0] + span[1] * span[1] + span[2] * span[2])
        if length >= 1e-12:
            legs.append((a, span / length, length, length / speed))
    remaining = t
    for i, (start, direction, length, duration) in enumerate(legs):
        if remaining <= duration:
            return i, start + direction * (length * min(1.0, remaining / duration))
        remaining -= duration
    start, direction, length, _ = legs[-1]
    return len(legs) - 1, start + direction * length


def check_schedule_against_rescan(points, speeds, profile, times):
    legs, positions = profile.schedule(np.array(times))
    for t, got_leg, got_position in zip(times, legs, positions):
        leg, position = at_by_rescan(points, speeds, t)
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
    # 0.1 + 0.2 rounds up, so searching the cumulative end times alone would
    # put t = 0.1 + 0.2 on the second leg, while the running remainder
    # (t - 0.1 = 0.20000000000000004 > 0.2) puts it on the third
    points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.1, 0.2, 0.0], [0.1, 0.2, 1.0]])
    profile = _PathProfile(points, np.ones(3))
    t = profile.ends[1]
    assert t == 0.1 + 0.2 and t - profile.ends[0] > profile.durations[1]
    assert at_by_rescan(points, np.ones(3), t)[0] == 2
    legs, _ = profile.schedule(np.array([t]))
    assert profile.directions[legs[0]].tolist() == [0.0, 0.0, 1.0]
    check_schedule_against_rescan(points, np.ones(3), profile, [t])


def test_golden_program_loads_with_expected_targets():
    from conftest import FIXTURES

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
    state = PIController(kp=1.0, ki=0.5)
    for _ in range(10):
        assert pi_step(state, 0.0, 0.05) == 0.0


def test_pi_pure_proportional():
    state = PIController(kp=1.0, ki=0.0)
    assert pi_step(state, 2.0, 0.05) == 2.0


def test_pi_integrator_grows_linearly_until_clamp():
    state = PIController(kp=0.0, ki=1.0, output_limit=1.0)
    outputs = [pi_step(state, 2.0, 0.1) for _ in range(10)]
    # u_k = Ki * k * e * dt = 0.2 k until the clamp at 1.0
    for k, u in enumerate(outputs, start=1):
        assert u == pytest.approx(min(1.0, 0.2 * k), abs=1e-12)
    assert outputs[-1] == 1.0
    # anti-windup: integrator held at the clamp level
    assert state.integral == pytest.approx(1.0, abs=1e-12)


def test_fuzzy_zero_inputs_zero_increment():
    assert _fuzzy_increment(0.0, 0.0) == 0.0
    state = FuzzyPIController(0.05, 0.01, 0.1)
    assert fuzzy_pi_step(state, 0.0, 0.05) == 0.0


def test_fuzzy_positive_saturation_steps_by_output_scale():
    state = FuzzyPIController(error_scale=0.05, derror_scale=0.0, output_scale=0.1)
    # saturated error, zero error-rate: the PB rule fires alone
    assert fuzzy_pi_step(state, 100.0, 0.05) == pytest.approx(0.1, abs=1e-15)


def test_fuzzy_increment_odd_symmetry_exact_on_grid():
    grid = np.linspace(-1.0, 1.0, 21)
    for e in grid:
        for de in grid:
            assert _fuzzy_increment(-e, -de) == -_fuzzy_increment(e, de)


def test_fuzzy_step_odd_symmetry():
    dt = 0.05
    for e0, e1 in [(3.0, 7.0), (-12.0, 5.0), (40.0, 38.5)]:
        a = FuzzyPIController(0.05, 0.01, 0.1)
        b = FuzzyPIController(0.05, 0.01, 0.1)
        fuzzy_pi_step(a, e0, dt)
        fuzzy_pi_step(b, -e0, dt)
        assert fuzzy_pi_step(b, -e1, dt) == -fuzzy_pi_step(a, e1, dt)


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


def test_force_never_negative():
    # unilateral contact: separation means zero force, in every regime
    for env in (
        offset_env(z=-5.0),
        offset_env(z=2.0, roughness_mm=0.5, seed=13),
        offset_env(z=-1.0, rot_z_deg=2.0),
    ):
        trace = run_force(straight_program(), env, ForceConfig(contact_timeout_s=100.0))
        assert np.all(trace.data[:, 4] >= 0.0)


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


def test_quantize_multiples():
    assert quantize(0.504, 0.01) == pytest.approx(0.5, abs=1e-15)
    assert quantize(-0.017, 0.01) == pytest.approx(-0.02, abs=1e-15)


def test_tick_budget_admits_max_ticks_and_refuses_more():
    profile = _PathProfile(*program_waypoints(straight_program()))
    assert profile.total_time == 10.0
    assert _tick_count(profile, (MAX_TICKS - 1) / 10.0, None) == MAX_TICKS
    with pytest.raises(SimulationError, match=f"more than {MAX_TICKS} ticks"):
        _tick_count(profile, MAX_TICKS / 10.0, None)


def test_run_requires_two_targets():
    pose = TargetPose([0, 0, 0], Quaternion.identity(), MotionKind.JOINT, 5.0)
    single = lower(plan_of("p", (pose,), (0,), (False,)))
    with pytest.raises(SimulationError, match="two targets"):
        run_seam(single, Environment(), SeamConfig())


# ---------------------------------------------------------------------------
# batched replay against the per-tick references
# ---------------------------------------------------------------------------


def reference_memberships(v):
    return tuple(max(0.0, 1.0 - abs(v - c) * 2.0) for c in _CENTERS)


REFERENCE_MIRROR_PAIRS = tuple(
    ((i, j), (4 - i, 4 - j)) for i in range(5) for j in range(5) if (i, j) < (4 - i, 4 - j)
)


def reference_fuzzy_increment(e, de):
    """The `_fuzzy_increment` that the flat rule table replaced: rule pairs
    looked up through the nested rule table, summed in mirror-pair order."""
    me = reference_memberships(e)
    md = reference_memberships(de)
    num = 0.0
    den = 0.0
    for (i, j), (mi, mj) in REFERENCE_MIRROR_PAIRS:
        w1 = min(me[i], md[j])
        w2 = min(me[mi], md[mj])
        den += w1 + w2
        num += w1 * _CENTERS[_RULE[i][j]] + w2 * _CENTERS[_RULE[mi][mj]]
    den += min(me[2], md[2])
    if den == 0.0:
        return 0.0
    return num / den


def reference_at(profile, t):
    """The per-time `_PathProfile.at` that `schedule` replaced: bisection
    over the end times, with the running subtraction deciding near a leg
    boundary. Returns the nominal position and the travel direction."""
    ends = profile.ends.tolist()
    i = bisect_left(ends, t)
    tol = profile._tie_tol * max(t, profile.total_time)
    if (i < len(ends) and ends[i] - t <= tol) or (i > 0 and t - ends[i - 1] <= tol):
        left = np.subtract.accumulate(np.concatenate(([t], profile.durations)))
        hits = np.flatnonzero(left[:-1] <= profile.durations)
        i = int(hits[0]) if hits.size else len(ends)
        remaining = float(left[i])
    else:
        remaining = t - (ends[i - 1] if i else 0.0)
    if i == len(ends):
        return profile.starts[-1] + profile.directions[-1] * profile.lengths[-1], profile.directions[-1]
    frac = min(1.0, remaining / profile.durations[i])
    return profile.starts[i] + profile.directions[i] * (profile.lengths[i] * frac), profile.directions[i]


def reference_path_frame(direction):
    """The per-leg `_path_frame` that `_path_frames` replaced: right-handed
    (X=travel, Y=lateral, Z=vertical-ish) axes of one travel direction."""
    x = direction / np.linalg.norm(direction)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(x @ up)) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    y = np.cross(up, x)
    y = y / np.linalg.norm(y)
    z = np.cross(x, y)
    return x, y, z


def reference_run_seam(program, env, cfg, duration_s=None):
    """The per-tick `run_seam`: leg, nominal point and frame found each tick."""
    points, leg_speeds = program_waypoints(program)
    profile = _PathProfile(points, leg_speeds)
    true_seam = points @ env.offset.rotation.T + env.offset.origin
    corr_y = corr_z = 0.0
    rows = []
    status = "OK"
    for k in range(_tick_count(profile, cfg.rate_hz, duration_s)):
        t = k / cfg.rate_hz
        nominal, direction = reference_at(profile, t)
        _, y_axis, z_axis = reference_path_frame(direction)
        tool = nominal + corr_y * y_axis + corr_z * z_axis
        try:
            err_y, err_z = seam_sensor(true_seam, tool, direction, cfg.sensing_range_mm)
        except SeamLost as lost:
            rows.append((t, *nominal, lost.err_y, lost.err_z, corr_y, corr_z))
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
    and roughness draw found each tick."""
    points, leg_speeds = program_waypoints(program)
    profile = _PathProfile(points, leg_speeds)
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
    lost_for = 0.0
    rows = []
    status = "OK"
    for k in range(_tick_count(profile, cfg.rate_hz, duration_s)):
        t = k / cfg.rate_hz
        nominal, direction = reference_at(profile, t)
        _, _, z_axis = reference_path_frame(direction)
        surface_shift = float((apply(env.offset, nominal) - nominal) @ z_axis)
        if env.roughness_mm > 0.0:
            surface_shift += env.roughness_mm * float(rng.standard_normal())
        force = max(0.0, cfg.setpoint_n + env.stiffness_n_per_mm * (surface_shift + disp))
        error = cfg.setpoint_n - force
        disp = step(controller, error, dt)
        rows.append((t, *nominal, force, cfg.setpoint_n, disp))
        if force == 0.0:
            lost_for += dt
            if lost_for > cfg.contact_timeout_s:
                status = "ABORTED"
                break
        else:
            lost_for = 0.0
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


# Fuzzy inputs on and next to the set centres, where memberships tie or vanish.
fuzzy_edges = [c + d for c in (-1.0, -0.5, 0.0, 0.5, 1.0) for d in (0.0, 1e-12, -1e-12)]
fuzzy_inputs = st.one_of(st.sampled_from(fuzzy_edges + [-0.0]), finite(-1.0, 1.0))


@given(fuzzy_inputs, fuzzy_inputs)
def test_fuzzy_increment_matches_reference_bitwise(e, de):
    assert _fuzzy_increment(e, de).hex() == reference_fuzzy_increment(e, de).hex()


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
    for run, cfg in ((run_seam, SeamConfig(rate_hz=5.0)), (run_force, ForceConfig(rate_hz=20.0))):
        framed.clear()
        trace = run(program, offset_env(z=0.5), cfg, duration_s=2.0)
        assert len(trace.rows) > 5
        # one array pass over the ticks, never over the program's legs
        assert len(framed) == 1
        assert 0 < framed[0] <= len(trace.rows) < 2000


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


def test_aborted_seam_row_holds_the_sensor_offsets():
    # the true seam turns 30 degrees away from the straight program, so the
    # correction follows it for a while and then loses it
    program, env = straight_program(), offset_env(rot_z_deg=30.0)
    cfg = SeamConfig(sensing_range_mm=4.0)
    trace = run_seam(program, env, cfg)
    assert trace.aborted
    t, x, y, z, err_y, err_z, corr_y, corr_z = trace.rows[-1]
    assert corr_y != 0.0
    # travel along +x frames the correction as world y and z
    tool = np.array([x, y + corr_y, z + corr_z])
    true_seam = program.positions @ env.offset.rotation.T + env.offset.origin
    with pytest.raises(SeamLost) as lost:
        seam_sensor(true_seam, tool, np.array([1.0, 0.0, 0.0]), cfg.sensing_range_mm)
    assert (lost.value.err_y, lost.value.err_z) == (err_y, err_z)
