"""Shared strategies and builders for the test suite."""

import math
from pathlib import Path

import numpy as np
from hypothesis import assume, settings, strategies as st

from robopath.geometry import SLERP_MIN_ANGLE, GeometryError, Quaternion, Transform
from robopath.planner import PlannedPath

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).parent / "fixtures"


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def rodrigues(axis, angle):
    """Rotation matrix from axis-angle, built independently of the package."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


@st.composite
def axes(draw):
    v = np.array([draw(finite(-1, 1)) for _ in range(3)])
    assume(np.linalg.norm(v) > 0.1)
    return v / np.linalg.norm(v)


@st.composite
def rotations(draw):
    return rodrigues(draw(axes()), draw(finite(-np.pi, np.pi)))


@st.composite
def quaternions(draw):
    return Quaternion.from_axis_angle(draw(axes()), draw(finite(-np.pi, np.pi)))


@st.composite
def transforms(draw):
    origin = np.array([draw(finite(-1000, 1000)) for _ in range(3)])
    return Transform(draw(rotations()), origin)


def plan_of(name, poses, source_segments, segment_risk):
    """A PlannedPath whose columns hold the given TargetPose objects."""
    return PlannedPath(
        name,
        np.array([p.position for p in poses]),
        np.array([p.orientation.as_array() for p in poses]),
        tuple(p.motion_kind for p in poses),
        np.array([p.speed for p in poses]),
        np.array([p.interpolated for p in poses]),
        source_segments,
        segment_risk,
    )


def random_rotation(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-3:
        axis = rng.normal(size=3)
    return rodrigues(axis, rng.uniform(-np.pi, np.pi))


def random_transform(rng, span=1000.0):
    return Transform(random_rotation(rng), rng.uniform(-span, span, size=3))


def reference_slerp(q0, q1, t):
    """The scalar slerp of two Quaternions that geometry.slerp replaced with
    arrays of t and arcs; part of test_planner's reference_interpolate_risk."""
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"slerp parameter t={t!r} outside [0, 1]")
    if t == 0.0:
        return q0
    if t == 1.0:
        return q1
    a = q0.as_array()
    b = q1.as_array()
    dot = float(a @ b)
    if dot < 0.0:
        b = -b
        dot = -dot
    theta = math.acos(min(1.0, dot))
    if theta < SLERP_MIN_ANGLE:
        mixed = (1.0 - t) * a + t * b
    else:
        sin_theta = math.sin(theta)
        mixed = (math.sin((1.0 - t) * theta) / sin_theta) * a + (
            math.sin(t * theta) / sin_theta
        ) * b
    return Quaternion.unit(*mixed)
