"""Output checks with references the benchmark computes itself.

Nothing here imports robopath: programs are read with this module's own
grammar regex and traces with the csv module, and every reference value
comes from the generated scene or from arithmetic done here.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

NUM = r"-?\d+\.\d{4}"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_PROGRAM = re.compile(rf"PROGRAM ({_NAME})")
_TARGET = re.compile(
    rf"TARGET ({_NAME}) = \[({NUM}), ({NUM}), ({NUM})\], "
    rf"\[({NUM}), ({NUM}), ({NUM}), ({NUM})\]"
)
_MOVE = re.compile(
    rf"(MOVEJ|MOVEL|MOVES) ({_NAME}) SPEED ({NUM})|MOVEC ({_NAME}) ({_NAME}) SPEED ({NUM})"
)

ENDPOINT_TOL_MM = 5e-5
TIME_TOL_S = 5e-5  # traces print four decimals
SEAM_RESOLUTION_MM = 0.01
SEAM_COLUMNS = ["t_s", "x_mm", "y_mm", "z_mm", "err_y_mm", "err_z_mm", "corr_y_mm", "corr_z_mm",
                "status"]
FORCE_COLUMNS = ["t_s", "x_mm", "y_mm", "z_mm", "force_N", "setpoint_N", "disp_mm", "status"]


class CheckFailed(Exception):
    """An output differs from the benchmark's reference."""


@dataclass(frozen=True)
class Program:
    """A program as this module reads it: waypoints in motion order."""

    points: np.ndarray  # (n, 3) target positions, calibration frame
    speeds: np.ndarray  # (n,) speed of the move each target belongs to

    def duration_s(self) -> float:
        """Nominal run time at the programmed speeds; legs shorter than
        1e-12 mm are reorientations in place and take no time."""
        legs = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return sum(float(l / v) for l, v in zip(legs, self.speeds[1:]) if l >= 1e-12)


def parse_program(text: str) -> Program:
    """Read program text strictly by the documented grammar."""
    if not text.endswith("\n"):
        raise CheckFailed("program does not end with a newline")
    lines = text[:-1].split("\n")
    if not lines or not _PROGRAM.fullmatch(lines[0]):
        raise CheckFailed("missing PROGRAM header")
    if lines[-1] != "END":
        raise CheckFailed("missing END")
    declared: dict[str, np.ndarray] = {}
    order: list[str] = []
    speeds: list[float] = []
    body = lines[1:-1]
    i = 0
    while i < len(body) and body[i].startswith("TARGET"):
        m = _TARGET.fullmatch(body[i])
        if not m:
            raise CheckFailed(f"malformed target line {i + 2}: {body[i]!r}")
        if m.group(1) in declared:
            raise CheckFailed(f"duplicate target {m.group(1)}")
        declared[m.group(1)] = np.array([float(v) for v in m.group(2, 3, 4)])
        i += 1
    for line in body[i:]:
        m = _MOVE.fullmatch(line)
        if not m:
            raise CheckFailed(f"malformed move line: {line!r}")
        names = [m.group(2)] if m.group(1) else [m.group(4), m.group(5)]
        speed = float(m.group(3) or m.group(6))
        if not speed > 0.0:
            raise CheckFailed(f"non-positive speed in {line!r}")
        order.extend(names)
        speeds.extend([speed] * len(names))
    if "-0.0000" in text:
        raise CheckFailed("negative zero in program text")
    if len(order) != len(set(order)) or set(order) != set(declared):
        raise CheckFailed("targets are not each referenced exactly once")
    if len(order) < 2:
        raise CheckFailed("program has fewer than two targets")
    return Program(np.array([declared[n] for n in order]), np.array(speeds))


def base_inverse(rotation: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """4x4 homogeneous matrix mapping universe coordinates into frame B."""
    frame = np.eye(4)
    frame[:3, :3] = rotation
    frame[:3, 3] = origin
    return np.linalg.inv(frame)


def check_compiled(text: str, stderr: str, to_base: np.ndarray, path_u: np.ndarray) -> Program:
    """Grammar, endpoints through the inverse of B, and no lint findings."""
    program = parse_program(text)
    ends_u = np.c_[path_u[[0, -1]], np.ones(2)]
    ends_b = (to_base @ ends_u.T).T[:, :3]
    err = np.abs(program.points[[0, -1]] - ends_b).max()
    if not err <= ENDPOINT_TOL_MM:
        raise CheckFailed(f"program endpoints are {err:.3g} mm off the generated path")
    if "lint:" in stderr:
        raise CheckFailed("workspace lint reported findings")
    return program


def _read_trace(text: str, columns: list[str]) -> tuple[np.ndarray, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != columns:
        raise CheckFailed(f"trace header is {rows[0] if rows else None}")
    body = rows[1:]
    if any(len(r) != len(columns) for r in body):
        raise CheckFailed("trace row with the wrong number of fields")
    try:
        values = np.array([[float(v) for v in r[:-1]] for r in body])
    except ValueError as exc:
        raise CheckFailed(f"unreadable trace value: {exc}") from None
    return values, [r[-1] for r in body]


def _check_clock(values: np.ndarray, span_s: float, rate_hz: float, start: np.ndarray) -> None:
    """floor(T * rate) + 1 rows, t_s = k / rate, and the run starts at the
    program's first waypoint."""
    exact = span_s * rate_hz
    allowed = {math.floor(exact - 1e-6) + 1, math.floor(exact + 1e-6) + 1}
    if len(values) not in allowed:
        raise CheckFailed(f"trace has {len(values)} rows, expected {sorted(allowed)}")
    k = np.arange(len(values))
    if not np.all(np.abs(values[:, 0] - k / rate_hz) <= TIME_TOL_S + 1e-9):
        raise CheckFailed("trace clock is not t_s = k / rate")
    if not np.all(np.abs(values[0, 1:4] - start) <= TIME_TOL_S + 1e-9):
        raise CheckFailed("trace does not start at the first waypoint")


def check_seam(text: str, program: Program, rate_hz: float, duration_s: float) -> float:
    """Seam trace checks; returns the RMS sensed Y/Z error in mm."""
    values, status = _read_trace(text, SEAM_COLUMNS)
    _check_clock(values, min(duration_s, program.duration_s()), rate_hz, program.points[0])
    if any(s != "OK" for s in status):
        raise CheckFailed("seam trace has an ABORTED row")
    steps = values[:, 6:8] / SEAM_RESOLUTION_MM
    if not np.all(np.abs(steps - np.round(steps)) <= 1e-6):
        raise CheckFailed("seam correction is not a multiple of the resolution")
    return math.sqrt(float(np.mean(values[:, 4] ** 2 + values[:, 5] ** 2)))


def check_force(text: str, program: Program, rate_hz: float, setpoint_n: float,
                settle_s: float) -> float:
    """Force trace checks; returns the RMS force error after `settle_s`, N."""
    values, status = _read_trace(text, FORCE_COLUMNS)
    _check_clock(values, program.duration_s(), rate_hz, program.points[0])
    if any(s != "OK" for s in status):
        raise CheckFailed("force trace has an ABORTED row")
    if not np.all(values[:, 4] >= 0.0):
        raise CheckFailed("negative contact force")
    if not np.all(values[:, 5] == setpoint_n):
        raise CheckFailed("setpoint column is not constant")
    settled = values[values[:, 0] >= settle_s]
    return math.sqrt(float(np.mean((settled[:, 4] - setpoint_n) ** 2)))
