import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import (
    angle_between,
    axes,
    axis_angle_quaternion,
    finite,
    quaternions,
    reference_dot,
    reference_slerp,
    rodrigues,
    rotations,
    transforms,
)
from robopath.geometry import (
    GeometryError,
    Quaternion,
    Transform,
    apply,
    compose,
    dot_rows,
    invert,
    quaternion_to_rotation,
    rotation_matrix,
    rotation_to_quaternion,
    row_norms,
    slerp,
    vec3,
)

# ---------------------------------------------------------------------------
# Oracles: everything below is computed through 4x4 homogeneous matrices or
# explicit axis-angle construction, independent of the library internals.
# ---------------------------------------------------------------------------


def hom(rotation, origin):
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = origin
    return m


def hom_of(t: Transform):
    return hom(t.rotation, t.origin)


def rotz(deg):
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


IDENTITY = Transform.identity()
RZ90_AT_100 = Transform(rotz(90), [100.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# compose / invert / apply
# ---------------------------------------------------------------------------


def test_compose_identity_left_and_right():
    t = RZ90_AT_100
    assert compose(IDENTITY, t) == t
    assert compose(t, IDENTITY) == t


def test_compose_with_inverse_is_identity():
    t = RZ90_AT_100
    r = compose(t, invert(t))
    np.testing.assert_allclose(r.rotation, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(r.origin, np.zeros(3), atol=1e-9)


def test_compose_example_against_homogeneous_oracle():
    a = Transform(rotz(90), [100.0, 0.0, 0.0])
    b = Transform(rotz(90), [0.0, 0.0, 0.0])
    got = compose(a, b)
    expected = hom_of(a) @ hom_of(b)
    np.testing.assert_allclose(hom_of(got), expected, atol=1e-12)
    np.testing.assert_allclose(got.rotation, rotz(180), atol=1e-12)
    np.testing.assert_allclose(got.origin, [100.0, 0.0, 0.0], atol=1e-12)


def test_invert_identity():
    assert invert(IDENTITY) == IDENTITY


def test_invert_example():
    inv = invert(RZ90_AT_100)
    np.testing.assert_allclose(inv.rotation, rotz(-90), atol=1e-12)
    np.testing.assert_allclose(inv.origin, [0.0, 100.0, 0.0], atol=1e-12)
    # multiplying back must give the identity
    back = hom_of(RZ90_AT_100) @ hom_of(inv)
    np.testing.assert_allclose(back, np.eye(4), atol=1e-12)


def test_invert_is_involution():
    t = RZ90_AT_100
    again = invert(invert(t))
    np.testing.assert_allclose(again.rotation, t.rotation, atol=1e-12)
    np.testing.assert_allclose(again.origin, t.origin, atol=1e-12)


def test_apply_identity():
    np.testing.assert_array_equal(apply(IDENTITY, [10.0, 0.0, 0.0]), [10.0, 0.0, 0.0])


def test_apply_example_against_homogeneous_oracle():
    p = np.array([10.0, 0.0, 0.0])
    got = apply(RZ90_AT_100, p)
    expected = (hom_of(RZ90_AT_100) @ np.append(p, 1.0))[:3]
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got, [100.0, 10.0, 0.0], atol=1e-12)


def test_apply_round_trip():
    p = np.array([3.0, -7.0, 2.5])
    np.testing.assert_allclose(
        apply(invert(RZ90_AT_100), apply(RZ90_AT_100, p)), p, atol=1e-9
    )


@given(transforms(), st.lists(st.tuples(*[finite(-1000, 1000)] * 3), max_size=6))
def test_apply_maps_rows_as_it_maps_each_point(t, points):
    rows = np.array(points, dtype=float).reshape(-1, 3)
    got = apply(t, rows)
    want = np.array([apply(t, p) for p in rows]).reshape(-1, 3)
    assert got.shape == rows.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "points, shape",
    [([1.0, 2.0], (2,)), ([[1.0, 2.0, 3.0, 4.0]], (1, 4)), ([[[1.0, 2.0, 3.0]]], (1, 1, 3)),
     (5.0, ()), ([[1.0], [2.0], [3.0]], (3, 1))],
)
def test_apply_refuses_points_of_other_shapes(points, shape):
    with pytest.raises(GeometryError) as err:
        apply(RZ90_AT_100, points)
    assert str(err.value) == f"points must be a (3,) point or (n, 3) rows, got shape {shape}"


@given(transforms())
def test_compose_invert_identity_property(t):
    r = compose(t, invert(t))
    assert np.abs(r.rotation - np.eye(3)).max() < 1e-9
    assert np.abs(r.origin).max() < 1e-9


@given(transforms(), transforms(), transforms())
def test_compose_associativity(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.abs(left.rotation - right.rotation).max() < 1e-9
    assert np.abs(left.origin - right.origin).max() < 1e-9


@given(transforms(), transforms(), finite(-500, 500), finite(-500, 500), finite(-500, 500))
def test_apply_distributes_over_compose(a, b, px, py, pz):
    p = np.array([px, py, pz])
    np.testing.assert_allclose(
        apply(compose(a, b), p), apply(a, apply(b, p)), atol=1e-9
    )


# ---------------------------------------------------------------------------
# rotation <-> quaternion
# ---------------------------------------------------------------------------


def test_identity_matrix_to_quaternion():
    q = rotation_to_quaternion(np.eye(3))
    assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)


def test_rz90_to_quaternion_matches_axis_angle_oracle():
    q = rotation_to_quaternion(rotz(90))
    half = math.radians(45)
    expected = (math.cos(half), 0.0, 0.0, math.sin(half))
    np.testing.assert_allclose([q.w, q.x, q.y, q.z], expected, atol=1e-12)


def test_non_orthonormal_matrix_rejected():
    with pytest.raises(GeometryError):
        rotation_to_quaternion(np.eye(3) * 1.01)
    with pytest.raises(GeometryError):
        rotation_matrix(-np.eye(3))  # det -1


@pytest.mark.parametrize(
    "rotation, message",
    [
        (np.eye(2), r"rotation must be 3x3, got shape \(2, 2\)"),
        ([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]],
         "rotation has non-finite entries"),
        # finite, but its square overflows: refused without a numpy warning
        (np.diag([1e200, 1.0, 1.0]), r"matrix is not orthonormal \(max deviation inf\)"),
    ],
    ids=["2x2", "nan", "1e200"],
)
def test_transform_refuses_a_rotation_it_cannot_check(rotation, message):
    with pytest.raises(GeometryError, match=f"^{message}$"):
        Transform(rotation, [0.0, 0.0, 0.0])


def reference_rotation_to_quaternion(r) -> Quaternion:
    """Shepperd's conversion with one hand-written branch per diagonal axis,
    the reference that `rotation_to_quaternion` matches bit for bit."""
    m = rotation_matrix(r)
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0.0:
        s = 2.0 * math.sqrt(trace + 1.0)
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = 2.0 * math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return Quaternion.unit(w, x, y, z)


# axes of half turns whose diagonal entries tie: two of them, or all three
TIED_AXES = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 0), (1, 1, 1), (1, 0, 0), (0, 0, 1)]
# a half turn about each coordinate axis, and the identity
SIGNED_DIAGONALS = [(1, -1, -1), (-1, 1, -1), (-1, -1, 1), (1, 1, 1)]


@given(
    rotations()
    | st.builds(rodrigues, axes() | st.sampled_from(TIED_AXES), st.just(math.pi))
    | st.sampled_from(SIGNED_DIAGONALS).map(lambda d: np.diag(np.array(d, dtype=float)))
)
@example(rodrigues([1, 1, 0], math.pi))  # m[0, 0] ties m[1, 1]: the y branch
@example(rodrigues([1, 1, 1], math.pi))  # all three tie: the z branch
@example(np.diag([1.0, -1.0, -1.0]))
def test_rotation_to_quaternion_matches_the_four_branch_reference_bit_for_bit(m):
    q, ref = rotation_to_quaternion(m), reference_rotation_to_quaternion(m)
    assert np.array([q.w, q.x, q.y, q.z]).tobytes() == np.array(
        [ref.w, ref.x, ref.y, ref.z]).tobytes()


@given(quaternions())
def test_quaternion_rotation_round_trip(q):
    back = rotation_to_quaternion(quaternion_to_rotation(q))
    assert abs(back.w - q.w) < 1e-9
    assert abs(back.x - q.x) < 1e-9
    assert abs(back.y - q.y) < 1e-9
    assert abs(back.z - q.z) < 1e-9


def test_rotation_round_trip_1000_random():
    from conftest import random_rotation

    rng = np.random.default_rng(17)
    for _ in range(1000):
        r = random_rotation(rng)
        back = quaternion_to_rotation(rotation_to_quaternion(r))
        assert np.abs(back - r).max() < 1e-9


@given(quaternions())
def test_canonical_sign_invariant(q):
    comps = (q.w, q.x, q.y, q.z)
    first_nonzero = next(c for c in comps if c != 0.0)
    assert first_nonzero > 0.0
    assert abs(math.sqrt(sum(c * c for c in comps)) - 1.0) < 1e-9


@pytest.mark.parametrize("build", [lambda: vec3([1, 2]), lambda: vec3(np.ones((2, 2))),
                                   lambda: Transform(np.eye(3), [1, 2])])
def test_vector_of_other_than_3_components_is_refused(build):
    with pytest.raises(GeometryError, match=r"^vector must have 3 components, got shape \("):
        build()


def test_vector_takes_any_shape_of_3_components():
    for values in ([1, 2, 3], [[1, 2, 3]], [[1], [2], [3]]):
        assert vec3(values).tolist() == [1.0, 2.0, 3.0]


def test_quaternion_rejects_non_unit():
    with pytest.raises(GeometryError):
        Quaternion(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(GeometryError):
        Quaternion(1.01, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "comps, message",
    [
        ((1.1, 0.0, 0.0, 0.0), "quaternion norm is 1.1, not 1"),
        ((1e154, 1e154, 0.0, 0.0), "quaternion norm is inf, not 1"),  # the sum overflows
        ((0.0, 0.0, 1e200, 0.0), "quaternion norm is inf, not 1"),  # a square overflows
    ],
)
def test_quaternion_norm_error_texts(comps, message):
    with pytest.raises(GeometryError) as err:
        Quaternion(*comps)
    assert str(err.value) == message


def reference_norm(*row) -> float:
    """The scalar length of a row, sqrt(w*w + x*x + y*y + z*z) for a
    quaternion: the norm the Quaternion constructor, `Quaternion.unit`,
    `slerp` and the program loader each wrote out before they shared one."""
    return math.sqrt(reference_dot(row, row))


# floats in general, and the ones a sum of squares treats specially
norm_components = (
    st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0])
    | st.floats(1e153, 1e155)  # squares near the overflow threshold
    | st.floats(-1e-160, 1e-160)  # squares that are subnormal or zero
)


@given(
    st.lists(
        st.tuples(*[norm_components] * 4) | quaternions().map(lambda q: tuple(q.as_array())),
        max_size=8,
    )
)
@example([(1e154, 1e154, 0.0, 0.0), (-1e154, 0.0, 0.0, -1e154), (1.34e154, 0.0, 0.0, 0.0)])
@example([(-0.0, -0.0, 0.0, -0.0), (5e-324, -5e-324, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0)])
@example([(0.5, -0.5, 0.5, -0.5), (0.9239, 0.0, 0.0, 0.3827)])
@pytest.mark.parametrize("width", [3, 4])
def test_row_norms_match_the_scalar_formula_bit_for_bit(width, rows):
    table = np.array(rows, dtype=float).reshape(-1, 4)[:, :width]
    got = row_norms(table)
    want = np.array([reference_norm(*row) for row in table.tolist()])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.tuples(st.tuples(*[norm_components] * k), st.tuples(*[norm_components] * k)),
    max_size=8))))
@example((4, [((0.5, -0.5, 0.5, -0.5), (0.9239, 0.0, 0.0, 0.3827))]))
@example((3, [((-0.0, 0.0, -0.0), (1.0, -1.0, 1.0)),
              ((1e154, 1e154, 0.0), (1e154, -1e154, 5e-324))]))
def test_dot_rows_matches_the_scalar_sum_bit_for_bit(case):
    width, pairs = case
    u = np.array([a for a, _ in pairs], dtype=float).reshape(-1, width)
    v = np.array([b for _, b in pairs], dtype=float).reshape(-1, width)
    with np.errstate(over="ignore", invalid="ignore"):  # numpy warns of these, Python not
        got = dot_rows(u, v)
    want = np.array([reference_dot(a, b) for a, b in zip(u, v)])
    # inf - inf is nan on both sides, whose sign bit is the hardware's choice
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_quaternion_preserves_near_unit_components():
    # values that went through 4-decimal formatting stay bit-exact
    q = Quaternion(0.9239, 0.0, 0.0, 0.3827)
    assert (q.w, q.x, q.y, q.z) == (0.9239, 0.0, 0.0, 0.3827)


def test_quaternion_canonical_flip_on_construction():
    q = Quaternion(-0.9239, 0.0, 0.0, 0.3827)
    assert (q.w, q.z) == (0.9239, -0.3827)


def reference_needs_sign_flip(comps) -> bool:
    """The per-component sign rule the Quaternion constructor applied before
    it shared `canonical_sign` with the quaternion columns."""
    for c in comps:
        if c > 0.0:
            return False
        if c < 0.0:
            return True
    return False  # all exactly zero cannot happen for a unit quaternion


@st.composite
def signed_unit_rows(draw):
    """Unit 4-vectors whose components are often +0.0 or -0.0."""
    comps = [draw(st.sampled_from([0.0, -0.0]) | finite(-1, 1)) for _ in range(4)]
    norm = math.sqrt(sum(c * c for c in comps))
    assume(norm > 0.1)
    return tuple(c / norm for c in comps)


@given(signed_unit_rows())
@example((-0.0, 0.0, -0.6, 0.8))
@example((0.0, -0.0, -0.0, -1.0))
@example((-0.0, 0.6, -0.8, 0.0))
@example((-1.0, 0.0, -0.0, 0.0))
def test_quaternion_sign_matches_the_per_component_rule(comps):
    q = Quaternion(*comps)
    want = [-c for c in comps] if reference_needs_sign_flip(comps) else list(comps)
    assert np.array([q.w, q.x, q.y, q.z]).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# slerp
# ---------------------------------------------------------------------------


def slerp_quats(q0, q1, ts):
    """slerp of two Quaternions at each t, as Quaternions."""
    return [Quaternion(*r) for r in slerp(q0.as_array(), q1.as_array(), ts).tolist()]


def test_slerp_degenerate_same_quaternion():
    q = axis_angle_quaternion([0, 0, 1], 0.3)
    for r in slerp_quats(q, q, [0.0, 0.25, 0.5, 1.0]):
        assert angle_between(r, q) < 1e-12


def test_slerp_endpoints_exact():
    q0 = Quaternion.identity()
    q1 = axis_angle_quaternion([0, 0, 1], math.radians(90))
    assert slerp_quats(q0, q1, [0.0, 1.0]) == [q0, q1]


def test_slerp_endpoints_in_canonical_sign():
    # q1 = (-0.6, 0.8, 0, 0) is the same rotation as (0.6, -0.8, 0, 0)
    out = slerp([1.0, 0.0, 0.0, 0.0], [-0.6, 0.8, 0.0, 0.0], [0.999999, 1.0])
    assert out[1].tolist() == [0.6, -0.8, 0.0, 0.0]
    assert out[0, 0] > 0.0
    assert slerp([-0.6, 0.8, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0]).tolist() == [
        [0.6, -0.8, 0.0, 0.0]
    ]


def test_slerp_midpoint_example():
    q0 = Quaternion.identity()
    q1 = axis_angle_quaternion([0, 0, 1], math.radians(90))
    (mid,) = slerp_quats(q0, q1, [0.5])
    # axis-angle oracle at 45 degrees
    half = math.radians(22.5)
    np.testing.assert_allclose(
        [mid.w, mid.x, mid.y, mid.z],
        [math.cos(half), 0.0, 0.0, math.sin(half)],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        [mid.w, mid.x, mid.y, mid.z], [0.92388, 0.0, 0.0, 0.38268], atol=1e-5
    )


def test_slerp_rejects_t_outside_range():
    q = Quaternion.identity()
    with pytest.raises(GeometryError):
        slerp_quats(q, q, [0.5, 1.5])
    with pytest.raises(GeometryError):
        slerp_quats(q, q, [-0.1])


def test_slerp_takes_shortest_path():
    # 350 degrees about z is 10 degrees the other way; midpoint must sit at -5.
    q0 = Quaternion.identity()
    q1 = axis_angle_quaternion([0, 0, 1], math.radians(350))
    (mid,) = slerp_quats(q0, q1, [0.5])
    expected = axis_angle_quaternion([0, 0, 1], math.radians(-5))
    assert angle_between(mid, expected) < 1e-9


@given(quaternions(), quaternions(), finite(0, 1))
def test_slerp_unit_norm_and_angle_linearity(q0, q1, t):
    (r,) = slerp_quats(q0, q1, [t])
    norm = math.sqrt(r.w**2 + r.x**2 + r.y**2 + r.z**2)
    assert abs(norm - 1.0) < 1e-9
    theta = angle_between(q0, q1)
    assert abs(angle_between(q0, r) - t * theta) < 1e-7


@st.composite
def slerp_arcs(draw):
    """(q0, q1, t) of one arc: q1 is sometimes within SLERP_MIN_ANGLE of q0
    or on the far side of it (q0 . q1 < 0)."""
    q0 = draw(quaternions()).as_array()
    q1 = draw(st.one_of(
        quaternions().map(Quaternion.as_array),
        st.just(Quaternion.unit(*(q0 + [0.0, 0.0, 0.0, 1e-8])).as_array()),
        st.just(-q0),
    ))
    return q0, q1, draw(st.lists(finite(0, 1), min_size=1, max_size=5))


@given(st.lists(slerp_arcs(), min_size=1, max_size=6))
def test_slerp_of_many_arcs_matches_one_arc_at_a_time(arcs):
    q0 = np.array([a for a, _, _ in arcs])
    q1 = np.array([b for _, b, _ in arcs])
    t = np.concatenate([ts for _, _, ts in arcs])
    arc = np.repeat(np.arange(len(arcs)), [len(ts) for _, _, ts in arcs])
    want = np.concatenate([slerp(a, b, ts) for a, b, ts in arcs])
    assert slerp(q0, q1, t, arc).tobytes() == want.tobytes()


@given(slerp_arcs())
def test_slerp_matches_scalar_reference(case):
    q0, q1, ts = case
    a, b = Quaternion(*q0), Quaternion(*q1)  # -q0 becomes q0, as the planner holds it
    want = [reference_slerp(a, b, t).as_array() for t in ts]
    assert slerp(a.as_array(), b.as_array(), ts).tobytes() == np.array(want).tobytes()


def test_slerp_matches_scalar_reference_on_random_arcs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = (Quaternion.unit(*rng.normal(size=4)) for _ in range(2))
        ts = rng.random(3)
        want = [reference_slerp(a, b, t).as_array() for t in ts]
        assert slerp(a.as_array(), b.as_array(), ts).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# rodrigues cross-check: conftest helper agrees with the library conversion
# ---------------------------------------------------------------------------


def test_rodrigues_matches_quaternion_construction():
    axis = np.array([1.0, 2.0, -0.5])
    angle = 1.1
    q = axis_angle_quaternion(axis, angle)
    np.testing.assert_allclose(
        quaternion_to_rotation(q), rodrigues(axis, angle), atol=1e-12
    )
