"""Replay an emitted program inside a perturbed virtual cell and close the loop.

Two scenarios are modeled:

* seam: the tool advances along the programmed path while a virtual seam
  sensor measures the lateral (Y) and vertical (Z) deviation to the true,
  rigidly displaced seam. Every tick the accumulated correction moves by
  gain * error per axis, clamped to a per-tick step limit and quantized to
  the robot's resolution.

* force: the tool follows the programmed profile pressing onto a surface
  modeled as a unilateral linear spring (force = stiffness * penetration,
  zero when separated). A PI or fuzzy-PI controller turns the force error
  into a normal-direction displacement. Surface roughness is seeded
  zero-mean Gaussian height noise, drawn as one block with one value per
  tick (the same stream as one draw per tick).

Each run builds one tick table: every tick's time and nominal point, and its
path frame, framed in one array pass over the ticks. Only the closed loop
itself steps tick by tick.

Runs are fully deterministic for a given program, environment, and config.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .codegen import RobotProgram, fixed_point
from .geometry import RobopathError, Transform

# Most ticks one run may take, about 50 times the longest benchmark run; a
# longer run is refused before any tick runs, since each tick adds a trace row.
MAX_TICKS = 200_000


class SimulationError(RobopathError):
    """A run cannot start (bad program geometry or configuration)."""


class SeamLost(Exception):
    """The seam sensor found no joint within its sensing range; `err_y` and
    `err_z` are the path-frame offsets to the closest seam point."""

    def __init__(self, message: str, err_y: float, err_z: float):
        super().__init__(message)
        self.err_y = err_y
        self.err_z = err_z


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _check_finite(config) -> None:
    """Every float field of a configuration must be finite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise SimulationError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Environment:
    """The perturbed 'real' cell: a rigid miscalibration offset, optional
    surface roughness, and the contact stiffness (force scenario)."""

    offset: Transform = field(default_factory=Transform.identity)
    roughness_mm: float = 0.0
    seed: int = 0
    stiffness_n_per_mm: float = 10.0

    def __post_init__(self):
        _check_finite(self)
        if self.roughness_mm < 0.0:
            raise SimulationError("roughness amplitude must be >= 0")
        if self.seed < 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed}")
        if not self.stiffness_n_per_mm > 0.0:
            raise SimulationError("surface stiffness must be > 0")


@dataclass(frozen=True)
class SeamConfig:
    rate_hz: float = 5.0
    resolution_mm: float = 0.01
    gain_y: float = 1.0
    gain_z: float = 1.0
    max_step_mm: float = 0.5
    sensing_range_mm: float = 50.0

    def __post_init__(self):
        _check_finite(self)
        if not self.rate_hz > 0.0 or not self.resolution_mm > 0.0:
            raise SimulationError("rate and resolution must be > 0")
        if self.gain_y < 0.0 or self.gain_z < 0.0:
            raise SimulationError("gains must be >= 0")
        if not self.max_step_mm > 0.0 or not self.sensing_range_mm > 0.0:
            raise SimulationError("step limit and sensing range must be > 0")
        # the largest correction a run can reach, in resolution steps, must
        # be finite for quantize to round it
        if not math.isfinite(MAX_TICKS * self.max_step_mm / self.resolution_mm):
            raise SimulationError(
                f"resolution {self.resolution_mm} mm is too fine for a "
                f"{self.max_step_mm} mm step limit"
            )


class ControllerKind(str, Enum):
    PI = "pi"
    FUZZY_PI = "fuzzy"


@dataclass(frozen=True)
class ForceConfig:
    rate_hz: float = 20.0
    setpoint_n: float = 20.0
    controller: ControllerKind = ControllerKind.PI
    kp: float = 0.02
    ki: float = 0.5
    error_scale: float = 0.05
    derror_scale: float = 0.01
    output_scale: float = 0.1
    output_limit_mm: float = 25.0
    contact_timeout_s: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if not self.rate_hz > 0.0:
            raise SimulationError("rate must be > 0")
        if not math.isfinite(1.0 / self.rate_hz):
            raise SimulationError(f"rate {self.rate_hz} Hz has no finite tick period")
        if not self.setpoint_n > 0.0:
            raise SimulationError("force setpoint must be > 0")
        if min(self.kp, self.ki, self.error_scale, self.derror_scale, self.output_scale) < 0.0:
            raise SimulationError("controller gains and scales must be >= 0")


# ---------------------------------------------------------------------------
# controllers
# ---------------------------------------------------------------------------


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


# Five symmetric triangular sets on [-1, 1]: NB NS ZE PS PB.
_CENTERS = (-1.0, -0.5, 0.0, 0.5, 1.0)

# Anti-diagonal rule table: output set index = clip(i + j - 2, 0, 4) for
# error set i and error-rate set j, so e and de of opposite sign cancel.
_RULE = tuple(tuple(min(4, max(0, i + j - 2)) for j in range(5)) for i in range(5))

# Rules grouped into mirror pairs (i, j) <-> (4-i, 4-j); summing each pair
# before accumulating keeps the defuzzified output exactly odd-symmetric.
# Each entry holds both rules' set indices and output centers.
_MIRROR_RULES = tuple(
    (i, j, 4 - i, 4 - j, _CENTERS[_RULE[i][j]], _CENTERS[_RULE[4 - i][4 - j]])
    for i in range(5)
    for j in range(5)
    if (i, j) < (4 - i, 4 - j)
)


def _memberships(v: float) -> list[float]:
    return [max(0.0, 1.0 - abs(v - c) * 2.0) for c in _CENTERS]


def _fuzzy_increment(e: float, de: float) -> float:
    """Center-of-gravity defuzzification of the rule table, in [-1, 1]."""
    me = _memberships(e)
    md = _memberships(de)
    num = 0.0
    den = 0.0
    for i, j, mi, mj, c1, c2 in _MIRROR_RULES:
        w1 = min(me[i], md[j])
        w2 = min(me[mi], md[mj])
        den += w1 + w2
        num += w1 * c1 + w2 * c2
    den += min(me[2], md[2])  # self-mirrored center rule, output ZE
    if den == 0.0:
        return 0.0
    return num / den


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
    u = state.output + state.output_scale * _fuzzy_increment(e, de)
    if abs(u) > state.output_limit:
        u = math.copysign(state.output_limit, u)
    state.output = u
    return u


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

SEAM_COLUMNS = ("t_s", "x_mm", "y_mm", "z_mm", "err_y_mm", "err_z_mm", "corr_y_mm", "corr_z_mm")
FORCE_COLUMNS = ("t_s", "x_mm", "y_mm", "z_mm", "force_N", "setpoint_N", "disp_mm")


@dataclass(frozen=True)
class SimTrace:
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    status: str  # OK | ABORTED

    @property
    def aborted(self) -> bool:
        return self.status == "ABORTED"

    @property
    def data(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def to_csv(self) -> str:
        """Header, then each row fixed-point with its status: OK, or ABORTED
        on the last row of an aborted run."""
        data = self.data.reshape(len(self.rows), len(self.columns))
        numbers = ",".join(["%.4f"] * len(self.columns))
        ok = len(data) - self.aborted
        return "".join(chain(
            [",".join(self.columns + ("status",)) + "\n"],
            fixed_point(numbers + ",OK\n", data[:ok]),
            fixed_point(numbers + ",ABORTED\n", data[ok:]),
        ))


# ---------------------------------------------------------------------------
# path traversal
# ---------------------------------------------------------------------------


def program_waypoints(program: RobotProgram) -> tuple[np.ndarray, np.ndarray]:
    """Ordered motion waypoints and per-leg speeds. Every target is
    referenced once, in column order, so the waypoints are the position
    column itself; a leg runs at the speed of the move that reaches it."""
    if len(program.positions) < 2:
        raise SimulationError("program needs at least two targets to traverse")
    return program.positions, program.target_speeds[1:]


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (n, 3) arrays, summed x + y + z."""
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


class _PathProfile:
    """Time-parameterized traversal of a waypoint polyline at per-leg speeds."""

    def __init__(self, points: np.ndarray, leg_speeds: np.ndarray):
        span = points[1:] - points[:-1]
        lengths = np.sqrt(_dot_rows(span, span))
        moves = lengths >= 1e-12  # a shorter leg reorients in place, no travel time
        if not moves.any():
            raise SimulationError("program path has zero length")
        self.lengths = lengths[moves]
        self.starts = points[:-1][moves]
        self.directions = span[moves] / self.lengths[:, None]
        self.durations = self.lengths / leg_speeds[moves]
        # cumulative end times, summed left to right
        self.ends = np.cumsum(self.durations)
        self.total_time = float(self.ends[-1])
        # The rounding in `ends` and in a running remainder of `schedule`
        # together stays below this bound times max(t, total_time).
        self._tie_tol = 2.0 * len(self.ends) * sys.float_info.epsilon

    def schedule(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leg index and nominal position at each of `times` (clamped).

        A time's leg is the first whose running remainder
        `t - d0 - ... - d(i-1)` is at most its duration d(i). A search over
        the cumulative end times finds it unless t lies within rounding of a
        leg boundary, where the running subtraction itself decides, one time
        at a time, so the chosen leg (and with it the travel direction) does
        not depend on summation order.
        """
        ends, durations = self.ends, self.durations
        n = len(ends)
        legs = np.searchsorted(ends, times)  # ends[i - 1] < t <= ends[i]
        remaining = times - np.where(legs > 0, ends[np.maximum(legs - 1, 0)], 0.0)
        tol = self._tie_tol * np.maximum(times, self.total_time)
        tie = ((legs < n) & (ends[np.minimum(legs, n - 1)] - times <= tol)) | (
            (legs > 0) & (remaining <= tol)
        )
        for k in np.flatnonzero(tie):
            left = np.subtract.accumulate(np.concatenate(([times[k]], durations)))
            hits = np.flatnonzero(left[:-1] <= durations)
            legs[k] = hits[0] if hits.size else n
            remaining[k] = left[legs[k]]
        past = legs == n  # past the end: hold the last leg's end point
        legs[past] = n - 1
        frac = np.minimum(1.0, remaining / durations[legs])
        frac[past] = 1.0
        along = self.lengths[legs] * frac
        return legs, self.starts[legs] + self.directions[legs] * along[:, None]


def _path_frames(directions: np.ndarray) -> np.ndarray:
    """Right-handed (X=travel, Y=lateral, Z=vertical-ish) frames of (n, 3)
    travel directions, as an (n, 3, 3) array of x, y and z axes; a nearly
    vertical travel takes y rather than z as "up"."""
    x = directions / np.sqrt(np.vecdot(directions, directions))[:, None]
    up = np.where((np.abs(x[:, 2]) > 0.99)[:, None], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    y = np.cross(up, x)
    y = y / np.sqrt(np.vecdot(y, y))[:, None]
    return np.stack((x, y, np.cross(x, y)), axis=1)


class _Polyline:
    """A polyline's segments as arrays, built once for many closest-point
    queries: start points `a`, spans `w = b - a` and `w . w`."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        self.a = points[:-1]
        self.w = points[1:] - self.a
        ww = _dot_rows(self.w, self.w)
        self.degenerate = ww < 1e-24  # a zero-length segment is its start point
        self.ww = np.where(self.degenerate, 1.0, ww)

    def closest(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        """Closest point to p over all segments and its distance; on a tie
        the first segment wins."""
        with np.errstate(over="ignore"):  # an infinite distance is out of range
            frac = np.clip(_dot_rows(p - self.a, self.w) / self.ww, 0.0, 1.0)
            frac[self.degenerate] = 0.0
            candidates = self.a + frac[:, None] * self.w
            gap = candidates - p
            dist = np.sqrt(_dot_rows(gap, gap))
        i = int(np.argmin(dist))
        return candidates[i], float(dist[i])


def _tick_count(profile: _PathProfile, rate_hz: float, duration_s: Optional[float]) -> int:
    if duration_s is not None and not (duration_s >= 0.0 and math.isfinite(duration_s)):
        raise SimulationError(f"duration must be finite and >= 0, got {duration_s}")
    span = profile.total_time if duration_s is None else min(duration_s, profile.total_time)
    ticks = span * rate_hz + 1e-9
    if not ticks < MAX_TICKS:  # also refuses inf and nan
        raise SimulationError(f"{span} s at {rate_hz} Hz is more than {MAX_TICKS} ticks")
    return math.floor(ticks) + 1


def _ticks(
    program: RobotProgram, rate_hz: float, duration_s: Optional[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each tick's time, nominal point and path frame."""
    profile = _PathProfile(*program_waypoints(program))
    times = np.arange(_tick_count(profile, rate_hz, duration_s)) / rate_hz
    legs, nominals = profile.schedule(times)
    return times, nominals, _path_frames(profile.directions[legs])


def quantize(value: float, resolution: float) -> float:
    """Snap to the nearest resolution multiple (ties to even)."""
    return round(value / resolution) * resolution


# ---------------------------------------------------------------------------
# seam scenario
# ---------------------------------------------------------------------------


def seam_sensor(
    true_seam: np.ndarray,
    tool: np.ndarray,
    travel: np.ndarray,
    sensing_range_mm: float = 50.0,
) -> tuple[float, float]:
    """Signed Y/Z offsets from the tool point to the closest point of the
    true seam (an (n, 3) array of points), in the path frame of the travel
    direction.

    Raises SeamLost, carrying those offsets, when the seam is farther than
    the sensing range, and SimulationError for a seam that is not an
    (n >= 2, 3) array, a tool or travel that is not a 3-vector, a seam point
    or tool coordinate that is not finite, or a travel direction with no
    finite path frame (zero, say, or not finite).
    """
    true_seam, tool, travel = (np.asarray(a, dtype=float) for a in (true_seam, tool, travel))
    if true_seam.ndim != 2 or true_seam.shape[0] < 2 or true_seam.shape[1] != 3:
        raise SimulationError(
            f"true seam must be an (n >= 2, 3) array of points, got shape {true_seam.shape}"
        )
    for label, vector in (("tool", tool), ("travel", travel)):
        if vector.shape != (3,):
            raise SimulationError(f"{label} must be a 3-vector, got shape {vector.shape}")
    for label, points in (("true seam", true_seam), ("tool", tool)):
        if not np.isfinite(points).all():
            raise SimulationError(f"{label} has non-finite coordinates")
    with np.errstate(all="ignore"):  # a travel with no frame is refused below
        frame = _path_frames(travel.reshape(1, 3))[0]
    if not np.isfinite(frame).all():
        raise SimulationError(f"travel direction {travel.tolist()} has no path frame")
    err_y, err_z, dist = _sense(_Polyline(true_seam), tool, frame)
    if dist > sensing_range_mm:
        raise SeamLost(f"closest seam point is {dist:.1f} mm away", err_y, err_z)
    return err_y, err_z


def _sense(
    true_seam: _Polyline, tool: np.ndarray, frame: np.ndarray
) -> tuple[float, float, float]:
    """Y/Z offsets from the tool point to the closest seam point in a path
    frame, and that point's distance."""
    closest, dist = true_seam.closest(tool)
    d = closest - tool
    return float(d @ frame[1]), float(d @ frame[2]), dist


def run_seam(
    program: RobotProgram,
    env: Environment,
    cfg: SeamConfig,
    duration_s: Optional[float] = None,
) -> SimTrace:
    """Closed-loop seam-tracking replay.

    The tool advances along the programmed path at the programmed speeds;
    each tick the sensed Y/Z deviation moves the accumulated correction by
    gain * error, clamped to max_step_mm and quantized to resolution_mm.
    Losing the seam aborts the run with a last row of the offsets to the
    closest seam point; the partial trace is flagged.
    """
    times, nominals, frames = _ticks(program, cfg.rate_hz, duration_s)
    true_seam = _Polyline(program.positions @ env.offset.rotation.T + env.offset.origin)

    corr_y = 0.0
    corr_z = 0.0
    rows = []
    status = "OK"
    for t, nominal, frame in zip(times.tolist(), nominals, frames):
        tool = nominal + corr_y * frame[1] + corr_z * frame[2]
        err_y, err_z, dist = _sense(true_seam, tool, frame)
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


# ---------------------------------------------------------------------------
# force scenario
# ---------------------------------------------------------------------------


def run_force(
    program: RobotProgram,
    env: Environment,
    cfg: ForceConfig,
    duration_s: Optional[float] = None,
) -> SimTrace:
    """Closed-loop force-controlled profile following.

    The programmed path is assumed to produce the setpoint force in the
    unperturbed cell; the environment offset (projected on the local normal)
    and the roughness noise move the true surface. Contact is a unilateral
    spring; the controller displaces the tool along the normal (positive
    into the surface). Losing contact for longer than the timeout aborts.
    """
    times, nominals, frames = _ticks(program, cfg.rate_hz, duration_s)
    # the offset surface's shift along each tick's normal, plus roughness
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        shifted = nominals @ env.offset.rotation.T + env.offset.origin
        shifts = _dot_rows(shifted - nominals, frames[:, 2])
        if env.roughness_mm > 0.0:
            rng = np.random.default_rng(env.seed)
            shifts += env.roughness_mm * rng.standard_normal(len(times))
    finite = np.isfinite(shifts)
    if not finite.all():
        raise SimulationError(f"surface shift at t = {times[finite.argmin()]} s is not finite")
    # both controllers clamp |disp| to the output limit, so this bounds every tick's force
    max_shift = float(np.abs(shifts).max())
    if not math.isfinite(
        cfg.setpoint_n + env.stiffness_n_per_mm * (max_shift + cfg.output_limit_mm)
    ):
        raise SimulationError(
            f"contact force bound {cfg.setpoint_n} N + {env.stiffness_n_per_mm} N/mm * "
            f"({max_shift} mm shift + {cfg.output_limit_mm} mm output limit) is not finite"
        )
    dt = 1.0 / cfg.rate_hz

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
    for t, x, y, z, surface_shift in zip(times.tolist(), *nominals.T.tolist(), shifts.tolist()):
        force = max(0.0, cfg.setpoint_n + env.stiffness_n_per_mm * (surface_shift + disp))
        error = cfg.setpoint_n - force
        disp = step(controller, error, dt)
        rows.append((t, x, y, z, force, cfg.setpoint_n, disp))
        if force == 0.0:
            lost_for += dt
            if lost_for > cfg.contact_timeout_s:
                status = "ABORTED"
                break
        else:
            lost_for = 0.0
    return SimTrace(FORCE_COLUMNS, tuple(rows), status)
