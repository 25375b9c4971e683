"""Replay an emitted program inside a perturbed virtual cell and close the loop.

Two scenarios are modeled:

* seam: the tool advances along the programmed path while a virtual seam
  sensor measures the lateral (Y) and vertical (Z) deviation to the true,
  rigidly displaced seam. The accumulated correction is one vector in the
  cell frame, so a turn of the path does not move it in the world. Every
  tick it moves by gain * error along the tick frame's Y and Z axes,
  clamped to a per-tick step limit, and its Y and Z parts are quantized to
  the robot's resolution.

* force: the tool follows the programmed profile pressing onto a surface
  modeled as a unilateral linear spring (force = stiffness * penetration,
  zero when separated). A PI or fuzzy-PI controller turns the force error
  into a normal-direction displacement; each is a step closure, built once
  per run, that keeps its own state. Surface roughness is seeded
  zero-mean Gaussian height noise, drawn as one block with one value per
  tick (the same stream as one draw per tick).

Each run builds one tick table: every tick's time, nominal point and leg, and its
path frame. The frames are built in one array pass over the legs in use,
one per leg, and repeated over each leg's ticks. Only the closed loop itself
steps tick by tick, and it keeps only the columns it computes. The trace is
one float table, with the tick table's time and nominal point stacked once
beside them, and words its own one-line verdict (`SimTrace.summary`).
`run_seam`, the one code path that senses the seam, searches it in the
workpiece frame over a window of the legs the ticks were scheduled on: those
within sensing range, along the path, of the tick's leg. One search over
the legs' path lengths finds every tick's window, so a tick costs the same
however long the program is.

Runs are fully deterministic for a given program, environment, and config.
"""

from __future__ import annotations

import math
import sys
from dataclasses import field, fields
from enum import Enum
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .codegen import RobotProgram, fixed_point
from .geometry import (
    ArrayRecord,
    GeometryError,
    Record,
    RobopathError,
    Transform,
    apply,
    dot_rows,
    invert,
    row_norms,
)

# Most ticks one run may take, about 50 times the longest benchmark run; a
# longer run is refused before any tick runs, since each tick adds a trace row.
MAX_TICKS = 200_000


class SimulationError(RobopathError):
    """A run cannot start (bad program geometry or configuration)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _check_finite(config) -> None:
    """Every float field of a configuration must be finite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise SimulationError(f"{f.name} must be finite, got {value}")


def _check_sign(config, *, strict: bool, **labels: str) -> None:
    """Each field named in `labels` must be > 0 when `strict`, else >= 0;
    the first that is not is refused with its label and value."""
    for name, label in labels.items():
        value = getattr(config, name)
        if not (value > 0.0 if strict else value >= 0.0):
            raise SimulationError(f"{label} must be {'>' if strict else '>='} 0, got {value}")


class Environment(Record):
    """The perturbed 'real' cell: a rigid miscalibration offset, optional
    surface roughness, and the contact stiffness (force scenario)."""

    offset: Transform = field(default_factory=Transform.identity)
    roughness_mm: float = 0.0
    seed: int = 0
    stiffness_n_per_mm: float = 10.0

    def __post_init__(self):
        _check_finite(self)
        _check_sign(self, strict=False, roughness_mm="roughness amplitude", seed="seed")
        _check_sign(self, strict=True, stiffness_n_per_mm="surface stiffness")


class SeamConfig(Record):
    """The seam sensor and correction loop: `rate_hz` ticks per second, the
    `resolution_mm` step of the robot's correction, the unitless `gain_y`
    and `gain_z` of the error that each tick corrects, the `max_step_mm`
    limit of one tick's step, and the `sensing_range_mm` beyond which the
    sensor loses the seam and the run aborts."""

    rate_hz: float = 5.0
    resolution_mm: float = 0.01
    gain_y: float = 1.0
    gain_z: float = 1.0
    max_step_mm: float = 0.5
    sensing_range_mm: float = 50.0

    def __post_init__(self):
        _check_finite(self)
        _check_sign(self, strict=True, rate_hz="rate", resolution_mm="resolution")
        _check_sign(self, strict=False, gain_y="gain y", gain_z="gain z")
        _check_sign(self, strict=True, max_step_mm="step limit", sensing_range_mm="sensing range")
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


class ForceConfig(Record):
    """The force loop: `rate_hz` ticks per second toward `setpoint_n` (N) of
    contact force, through the PI controller (`kp` in mm/N, `ki` in
    mm/(N s)) or the fuzzy PI one (`error_scale` in 1/N and `derror_scale`
    in s/N map the error and its rate onto the rule table, whose output
    moves the tool up to `output_scale` mm per tick). Either output is a
    normal displacement limited to `output_limit_mm`; a run aborts once the
    tool has been out of contact for longer than `contact_timeout_s` seconds."""

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
        _check_sign(self, strict=True, rate_hz="rate")
        if not math.isfinite(1.0 / self.rate_hz):
            raise SimulationError(f"rate {self.rate_hz} Hz has no finite tick period")
        _check_sign(self, strict=True, setpoint_n="force setpoint")
        _check_sign(self, strict=False, kp="kp", ki="ki", error_scale="error scale",
                    derror_scale="derror scale", output_scale="output scale",
                    output_limit_mm="output limit", contact_timeout_s="contact timeout")


# ---------------------------------------------------------------------------
# controllers
# ---------------------------------------------------------------------------


def pi_controller(
    kp: float, ki: float, output_limit: float, dt: float
) -> Callable[[float], float]:
    """Position-form PI with back-calculation anti-windup, as a step function
    error -> u with u = Kp*e + Ki * integral(e dt), rectangular integration
    and |u| clamped to output_limit; the integral lives in the closure."""
    if not dt > 0.0:
        raise SimulationError("dt must be > 0")
    integral = 0.0

    def step(error: float) -> float:
        nonlocal integral
        integral += error * dt
        u = kp * error + ki * integral
        if abs(u) > output_limit:
            u = math.copysign(output_limit, u)
            if ki > 0.0:
                integral = (u - kp * error) / ki
        return u

    return step


# Five symmetric triangular sets on [-1, 1]: NB NS ZE PS PB. An input v with
# _CENTERS[k] <= v < _CENTERS[k + 1] (k = 3 at v = 1) lies in sets k and k + 1
# only: for every other set the float difference |v - c| rounds to >= 0.5
# (subtraction is monotone), so its membership is exactly 0.0. So only the
# 2 x 2 cell of rules (ke..ke + 1, kd..kd + 1) can fire, and _fuzzy_increment
# evaluates that cell alone.
_CENTERS = (-1.0, -0.5, 0.0, 0.5, 1.0)

# The rule table is anti-diagonal: rule (i, j), for error set i and
# error-rate set j, outputs set clip(i + j - 2, 0, 4), so e and de of opposite
# sign cancel. Rules are summed in mirror pairs (i, j) <-> (4 - i, 4 - j),
# each pair keyed by its smaller member, which comes first; accumulating in
# pair order keeps the defuzzified output exactly odd-symmetric.
#
# _CELLS[ke][kd]: the cell's non-center rules as (weight index 2a + b of rule
# (ke + a, kd + b), output center) in the order of their mirror pairs, and the
# weight index of the center rule (2, 2), or None outside the cell. Summing
# only these keeps the bits of summing all twelve pairs, dead rules included:
# no two rules of one cell share a pair, so each live weight meets only exact
# zeros in its pair's sum, and adding an exact zero to num or den leaves its
# bits unchanged (both start at +0.0 and are never -0.0).
def _cell(ke: int, kd: int) -> tuple[tuple[tuple[int, float], ...], Optional[int]]:
    live = {(ke + a, kd + b): 2 * a + b for a in (0, 1) for b in (0, 1)}
    pairs = sorted((min((i, j), (4 - i, 4 - j)), (i, j)) for i, j in live if (i, j) != (2, 2))
    rules = tuple((live[i, j], _CENTERS[min(4, max(0, i + j - 2))]) for _, (i, j) in pairs)
    return rules, live.get((2, 2))


_CELLS = tuple(tuple(_cell(ke, kd) for kd in range(4)) for ke in range(4))


def _fuzzy_increment(e: float, de: float) -> float:
    """Center-of-gravity defuzzification of the rule table, in [-1, 1]."""
    ke = 0 if e < -0.5 else 1 if e < 0.0 else 2 if e < 0.5 else 3
    kd = 0 if de < -0.5 else 1 if de < 0.0 else 2 if de < 0.5 else 3
    # max(0.0, m) and min(a, b) as conditionals, with the builtins' bits
    e0 = 1.0 - abs(e - _CENTERS[ke]) * 2.0
    e0 = e0 if e0 > 0.0 else 0.0
    e1 = 1.0 - abs(e - _CENTERS[ke + 1]) * 2.0
    e1 = e1 if e1 > 0.0 else 0.0
    d0 = 1.0 - abs(de - _CENTERS[kd]) * 2.0
    d0 = d0 if d0 > 0.0 else 0.0
    d1 = 1.0 - abs(de - _CENTERS[kd + 1]) * 2.0
    d1 = d1 if d1 > 0.0 else 0.0
    weights = (d0 if d0 < e0 else e0, d1 if d1 < e0 else e0,
               d0 if d0 < e1 else e1, d1 if d1 < e1 else e1)
    rules, center = _CELLS[ke][kd]
    num = 0.0
    den = 0.0
    for k, c in rules:
        w = weights[k]
        den += w
        num += w * c
    if center is not None:
        den += weights[center]  # self-mirrored center rule, output ZE
    # den > 0: max(e0, e1) and max(d0, d1) are at least 0.5, and so is the
    # weight of the rule (ke or ke + 1, kd or kd + 1) that pairs the larger two
    return num / den


def fuzzy_pi_controller(
    error_scale: float, derror_scale: float, output_scale: float, output_limit: float, dt: float
) -> Callable[[float], float]:
    """Incremental fuzzy PI as a step function error -> u: du from the rule
    table on the scaled error and error rate (0 on the first step), each
    clamped to [-1, 1], accumulated into u with |u| clamped to output_limit;
    the previous error and u live in the closure."""
    if not dt > 0.0:
        raise SimulationError("dt must be > 0")
    prev = None
    u = 0.0

    def step(error: float) -> float:
        nonlocal prev, u
        derror = 0.0 if prev is None else (error - prev) / dt
        prev = error
        # min(1.0, max(-1.0, x)) with the same bits, nan -> -1.0 included
        e = error * error_scale
        e = (e if e < 1.0 else 1.0) if e > -1.0 else -1.0
        de = derror * derror_scale
        de = (de if de < 1.0 else 1.0) if de > -1.0 else -1.0
        u += output_scale * _fuzzy_increment(e, de)
        if abs(u) > output_limit:
            u = math.copysign(output_limit, u)
        return u

    return step


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

SEAM_COLUMNS = ("t_s", "x_mm", "y_mm", "z_mm", "err_y_mm", "err_z_mm", "corr_y_mm", "corr_z_mm")
FORCE_COLUMNS = ("t_s", "x_mm", "y_mm", "z_mm", "force_N", "setpoint_N", "disp_mm")


class SimTrace(ArrayRecord):
    """A run as one float table: a row per tick and a column per name in
    `columns`. `data` takes anything numpy reads as (n, len(columns)) and is
    kept read-only."""

    columns: tuple[str, ...]
    data: np.ndarray
    status: str  # OK | ABORTED

    def __post_init__(self):
        if self.status not in ("OK", "ABORTED"):
            raise SimulationError(f"trace status must be OK or ABORTED, got {self.status!r}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 0 or data.size != len(data) * len(self.columns):
            raise SimulationError(
                f"trace data of shape {data.shape} is not rows of {len(self.columns)} columns"
            )
        self._store(data=data.reshape(len(data), len(self.columns)))

    @property
    def aborted(self) -> bool:
        return self.status == "ABORTED"

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.data.tolist()))

    def summary(self) -> str:
        """One line on the run: its final seam correction or final-second
        force error. A trace of other columns than a seam or a force run's,
        or of no rows, has none and raises SimulationError."""
        if self.columns not in (SEAM_COLUMNS, FORCE_COLUMNS):
            raise SimulationError(f"a trace of columns {self.columns} has no summary")
        if not len(self.data):
            raise SimulationError("a trace of no rows has no summary")
        t, last = self.data[:, 0], self.data[-1]
        if self.columns == SEAM_COLUMNS:
            return (f"seam run {self.status}: final correction y={last[6]:.4f} mm "
                    f"z={last[7]:.4f} mm over {t[-1]:.2f} s")
        final = self.data[t >= t[-1] - 1.0]
        err = np.abs(final[:, 4] - final[:, 5]).max()
        return (f"force run {self.status}: steady-state |F - setpoint| = {err:.4f} N "
                f"over the final second ({t[-1]:.2f} s simulated)")

    def to_csv(self) -> str:
        """Header, then each row fixed-point with its status: OK, or ABORTED
        on the last row of an aborted run."""
        numbers = ",".join(["%.4f"] * len(self.columns))
        ok = len(self.data) - self.aborted
        return "".join([
            ",".join(self.columns + ("status",)) + "\n",
            *fixed_point(numbers + ",OK\n", self.data[:ok]),
            *fixed_point(numbers + ",ABORTED\n", self.data[ok:]),
        ])


# ---------------------------------------------------------------------------
# path traversal
# ---------------------------------------------------------------------------


class _PathProfile:
    """Time-parameterized traversal of a waypoint polyline at per-leg speeds;
    leg i runs from point i to point i + 1 at `leg_speeds[i]`.

    Raises SimulationError, before any tick, for fewer than two points, a
    point with a non-finite coordinate, a leg whose length or duration is
    not finite, or a path of zero length or with no finite total time.
    """

    def __init__(self, points: np.ndarray, leg_speeds: np.ndarray):
        if len(points) < 2:
            raise SimulationError("program needs at least two targets to traverse")
        unplaced = ~np.isfinite(points).all(axis=1)
        if unplaced.any():
            raise SimulationError(f"target {unplaced.argmax() + 1} has non-finite coordinates")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            span = points[1:] - points[:-1]
            lengths = row_norms(span)
            durations = lengths / leg_speeds
        bad = ~np.isfinite(durations)
        if bad.any():
            i = int(bad.argmax())
            leg = f"leg {i + 1} (targets {i + 1} to {i + 2})"
            if not math.isfinite(lengths[i]):
                raise SimulationError(f"{leg} is too long to replay")
            raise SimulationError(
                f"{leg} of {lengths[i]} mm at {leg_speeds[i]} mm/s has no finite duration"
            )
        moves = lengths >= 1e-12  # a shorter leg reorients in place, no travel time
        if not moves.any():
            raise SimulationError("program path has zero length")
        self.lengths = lengths[moves]
        self.starts = points[:-1][moves]
        self.directions = span[moves] / self.lengths[:, None]
        self.durations = durations[moves]
        # cumulative end times, summed left to right
        with np.errstate(over="ignore"):  # refused below
            self.ends = np.cumsum(self.durations)
        self.total_time = float(self.ends[-1])
        if not math.isfinite(self.total_time):
            raise SimulationError("program path has no finite total time")
        # The rounding in `ends` stays below this bound times
        # max(t, total_time), so a time this near a leg end counts as on it.
        self._tie_tol = 2.0 * len(self.ends) * sys.float_info.epsilon
        # path length at each leg's end and start, summed left to right
        self.path_ends = np.cumsum(self.lengths)
        self.path_starts = np.concatenate(([0.0], self.path_ends[:-1]))

    def schedule(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leg index and nominal position at each of `times` (clamped).

        A time's leg is the first whose end time is at least t - tol, with
        tol the rounding bound of the end times: a time within rounding of a
        leg boundary counts as on it and takes the leg that ends there, so
        the leg (and with it the travel direction) does not depend on the
        order in which leg durations are summed.
        """
        ends = self.ends
        n = len(ends)
        tol = self._tie_tol * np.maximum(times, self.total_time)
        legs = np.searchsorted(ends, times - tol)  # ends[i - 1] < t - tol <= ends[i]
        remaining = times - np.where(legs > 0, ends[np.maximum(legs - 1, 0)], 0.0)
        past = legs == n  # past the end: hold the last leg's end point
        legs[past] = n - 1
        frac = np.minimum(1.0, remaining / self.durations[legs])
        frac[past] = 1.0
        along = self.lengths[legs] * frac
        return legs, self.starts[legs] + self.directions[legs] * along[:, None]

    def windows(self, legs: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
        """The window of each of `legs`: the first leg and one past the last
        whose stretch of path length comes within `reach` of the leg's own,
        so that every point within `reach` along the path of a point on the
        leg lies on a leg of its window."""
        lo = np.searchsorted(self.path_ends, self.path_starts[legs] - reach)
        hi = np.searchsorted(self.path_starts, self.path_ends[legs] + reach, side="right")
        return lo, hi

    def closest(self, q: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, float]:
        """Closest point to q over legs lo to hi - 1 and its distance; on a
        tie the first leg wins."""
        starts, directions = self.starts[lo:hi], self.directions[lo:hi]
        with np.errstate(over="ignore"):  # an infinite distance is out of range
            along = np.clip(dot_rows(q - starts, directions), 0.0, self.lengths[lo:hi])
            candidates = starts + directions * along[:, None]
            dist = row_norms(candidates - q)
        i = int(np.argmin(dist))
        return candidates[i], float(dist[i])


def _path_frames(directions: np.ndarray) -> np.ndarray:
    """Right-handed (X=travel, Y=lateral, Z=vertical-ish) frames of (n, 3)
    travel directions, as an (n, 3, 3) array of x, y and z axes; a nearly
    vertical travel takes y rather than z as "up"."""
    x = directions / row_norms(directions)[:, None]
    up = np.where((np.abs(x[:, 2]) > 0.99)[:, None], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    y = np.cross(up, x)
    y = y / row_norms(y)[:, None]
    return np.stack((x, y, np.cross(x, y)), axis=1)


def _leg_frames(directions: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """`_path_frames(directions[legs])`, framing each run of equal legs once
    and repeating its frame over the run. `_path_frames` works row by row, so
    the bits are the same; a schedule's legs never decrease, so each leg in
    use is framed once."""
    new = np.diff(legs, prepend=-1) != 0
    return _path_frames(directions[legs[new]])[np.cumsum(new) - 1]


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, _PathProfile]:
    """Each tick's time, nominal point, path frame and leg, and the path
    profile they were read from; the frames are built per leg in use, not
    per tick."""
    # every target is referenced once, in column order, so the waypoints are
    # the position column itself; a leg runs at the speed of the move that
    # reaches it
    profile = _PathProfile(program.positions, program.target_speeds[1:])
    times = np.arange(_tick_count(profile, rate_hz, duration_s)) / rate_hz
    legs, nominals = profile.schedule(times)
    return times, nominals, _leg_frames(profile.directions, legs), legs, profile


def quantize(value: float, resolution: float) -> float:
    """Snap to the nearest resolution multiple (ties to even)."""
    return round(value / resolution) * resolution


# ---------------------------------------------------------------------------
# seam scenario
# ---------------------------------------------------------------------------


def run_seam(
    program: RobotProgram,
    env: Environment,
    cfg: SeamConfig,
    duration_s: Optional[float] = None,
) -> SimTrace:
    """Closed-loop seam-tracking replay.

    The tool advances along the programmed path at the programmed speeds,
    displaced by a correction held in the cell frame, so that it stays put
    in the world when the path turns. Each tick the sensed Y/Z deviation
    moves the correction by gain * error along the tick frame's y and z
    axes, clamped to max_step_mm; its parts along those axes are quantized
    to resolution_mm and written as corr_y and corr_z, and its part along
    the travel is kept. The seam is sensed in the workpiece frame, on the
    legs within sensing range of the tick's leg along the path (its window),
    so a stretch of seam farther along the path is not taken for the one
    being tracked, however near it passes. Losing the seam aborts the run
    with a last row of the offsets to the closest seam point in the window;
    the partial trace is flagged.
    """
    times, nominals, frames, legs, profile = _ticks(program, cfg.rate_hz, duration_s)
    try:
        with np.errstate(over="ignore"):  # an inverse origin past the float range is refused
            to_workpiece = invert(env.offset)
    except GeometryError:
        raise SimulationError(
            f"workpiece offset {env.offset.origin.tolist()} mm has no finite inverse"
        ) from None
    lo, hi = profile.windows(legs, cfg.sensing_range_mm)

    corr = np.zeros(3)  # the correction, in the cell frame
    loop = []  # err_y, err_z, corr_y, corr_z of each tick
    status = "OK"
    for nominal, frame, first, stop in zip(nominals, frames, lo.tolist(), hi.tolist()):
        tool = nominal + corr
        closest, dist = profile.closest(apply(to_workpiece, tool), first, stop)
        d = apply(env.offset, closest) - tool
        err_y, err_z = dot_rows(d, frame[1:]).tolist()
        along, corr_y, corr_z = dot_rows(frame, corr).tolist()
        if dist > cfg.sensing_range_mm:
            loop.append((err_y, err_z, corr_y, corr_z))
            status = "ABORTED"
            break
        step_y = min(cfg.max_step_mm, max(-cfg.max_step_mm, cfg.gain_y * err_y))
        step_z = min(cfg.max_step_mm, max(-cfg.max_step_mm, cfg.gain_z * err_z))
        corr_y = quantize(corr_y + step_y, cfg.resolution_mm)
        corr_z = quantize(corr_z + step_z, cfg.resolution_mm)
        corr = along * frame[0] + corr_y * frame[1] + corr_z * frame[2]
        loop.append((err_y, err_z, corr_y, corr_z))
    n = len(loop)
    return SimTrace(SEAM_COLUMNS, np.column_stack((times[:n], nominals[:n], loop)), status)


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
    into the surface). Losing contact for longer than the timeout aborts:
    the run stops on the lost tick, counted in a row, whose count exceeds
    contact_timeout_s * rate_hz (a product that rounds to just under a whole
    count, as 0.29 * 100 does, counts as that whole), so at 20 Hz and 1 s on
    the 21st, and at 100 Hz and 0.29 s on the 30th.
    """
    times, nominals, frames, _, _ = _ticks(program, cfg.rate_hz, duration_s)
    # the offset surface's shift along each tick's normal, plus roughness
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        shifts = dot_rows(apply(env.offset, nominals) - nominals, frames[:, 2])
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
        step = pi_controller(cfg.kp, cfg.ki, cfg.output_limit_mm, dt)
    else:
        step = fuzzy_pi_controller(
            cfg.error_scale, cfg.derror_scale, cfg.output_scale, cfg.output_limit_mm, dt
        )
    setpoint = cfg.setpoint_n
    stiffness = env.stiffness_n_per_mm
    max_lost = cfg.contact_timeout_s * cfg.rate_hz + 1e-9  # the timeout in ticks

    disp = 0.0
    lost = 0  # ticks in a row without contact
    loop = []  # force, setpoint, disp of each tick
    status = "OK"
    for surface_shift in shifts.tolist():
        force = setpoint + stiffness * (surface_shift + disp)
        if force > 0.0:
            lost = 0
        else:
            force = 0.0
            lost += 1
        disp = step(setpoint - force)
        loop.append((force, setpoint, disp))
        if lost > max_lost:
            status = "ABORTED"
            break
    n = len(loop)
    columns = np.fromiter(chain.from_iterable(loop), float, 3 * n).reshape(n, 3)
    return SimTrace(FORCE_COLUMNS, np.column_stack((times[:n], nominals[:n], columns)), status)
