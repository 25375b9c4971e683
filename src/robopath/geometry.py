"""Rigid 3D transform, rotation, and quaternion algebra. All lengths in millimetres.

Also what every module of the pipeline shares: `RobopathError`, the base of
every error raised for input that robopath refuses; the one row rule,
`dot_rows` and `row_norms`, by which every stage measures the rows of an
array; `apply`, the one map of a point or of an array of points through a
transform; `Record`, the base from which every record takes its binding,
repr, equality, hash and frozenness, with no method generated per class:
it holds one field list, binds arguments through its signature and stores
converted values through `_store`, its one store rule; `ArrayRecord`, which
adds only the array equality of records that hold numpy arrays; and
`RowView`, the lazy read-only sequence through which a table hands out its
rows as records.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from inspect import Parameter, Signature

import numpy as np

# Tolerance for algebraic identities (orthonormality, unit norm, determinant).
ATOL = 1e-9

# Below this angle (rad) slerp falls back to normalized linear interpolation.
SLERP_MIN_ANGLE = 1e-6


class RobopathError(ValueError):
    """Base of every error robopath raises for input it refuses: a scene, a
    program, an option or a configuration it cannot take."""


class GeometryError(RobopathError):
    """A rotation, quaternion, or transform failed validation."""


class _Factory:
    """The default a signature shows for a field with a `default_factory`."""

    def __repr__(self):
        return "<factory>"


_FACTORY = _Factory()


class Record:
    """Base of every record: a frozen class whose fields are declared as
    dataclass fields, annotated in the class body.

    Each subclass is registered with `dataclasses.dataclass` without
    generating any method, so `fields`, `replace`, `asdict` and
    `__match_args__` work on it, and keeps one field list, `_names`, which
    every method here reads: each field is bound, shown, compared and
    hashed. `__init__` binds its arguments through the class's
    `__signature__`, which fills in defaults and calls default factories
    (a missing, extra, repeated or unknown argument raises TypeError), and
    then calls `__post_init__`. `__repr__` shows the fields; two records
    are equal when they are of the same class and their fields are, and the
    hash is that of the fields. Setting or deleting an attribute raises
    `dataclasses.FrozenInstanceError`, so a `__post_init__` that converts
    or derives values writes them through `_store`, the one store rule.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        table = fields(cls)
        cls._names = tuple(f.name for f in table)
        cls.__signature__ = Signature(
            [
                Parameter(
                    f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                    default=_FACTORY if f.default_factory is not MISSING
                    else Parameter.empty if f.default is MISSING else f.default,
                )
                for f in table
            ],
            return_annotation=None,
        )

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._names):
            bound = cls.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = [cls.__dataclass_fields__[name].default_factory() if value is _FACTORY
                    else value for name, value in bound.arguments.items()]
        # each field through object.__setattr__, past the frozen rule: unlike
        # a write to vars(self), this keeps the attributes in the instance's
        # compact layout, which Python reads several times faster
        store = object.__setattr__
        for name, value in zip(cls._names, args):
            store(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or convert the bound fields; a record with no rule keeps them as given."""

    def _store(self, **values) -> None:
        """Set attributes of this frozen record, as `__init__` does, making
        each array among them read-only."""
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({shown})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ArrayRecord(Record):
    """Base of the records that hold numpy arrays; it adds only their
    equality: two records are equal when they are of the same type and
    every field is equal, arrays by `np.array_equal` and other values by
    `==`. Records are unhashable, as their arrays are."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for name in self._names:
            a, b = getattr(self, name), getattr(other, name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


def code_column(values, codes: type[Enum], error: type[RobopathError], what: str) -> np.ndarray:
    """`values` as an intp column of codes of the enum `codes`, which
    numbers its members 0, 1, ... in definition order. A column that is not
    integer (floats, which would be truncated, or words) raises `error`
    naming its dtype, and one holding another number raises it naming the
    first such number; an empty one builds, whatever its dtype. `what` is
    the column's name in the singular."""
    column = np.asarray(values)
    if column.size and not np.issubdtype(column.dtype, np.integer):
        raise error(f"{what}s must be integer codes, got dtype {column.dtype}")
    column = column.astype(np.intp, copy=False)
    outside = column[(column < 0) | (column >= len(codes))]
    if outside.size:
        article = "an" if codes.__name__[0] in "AEIOU" else "a"
        raise error(f"{what} code {outside[0]} is not {article} {codes.__name__}")
    return column


class RowView(Sequence):
    """Read-only sequence of `length` rows that calls `row(i)` for the row
    at index i, 0 <= i < length, on each lookup; negative indices count from
    the end, and a slice gives the list of its rows."""

    def __init__(self, length: int, row: Callable[[int], object]):
        self._length, self._row = length, row

    def __getitem__(self, i: int | slice):
        rows = range(self._length)[i]  # IndexError past either end
        return list(map(self._row, rows)) if isinstance(i, slice) else self._row(rows)

    def __len__(self) -> int:
        return self._length


def vec3(values) -> np.ndarray:
    """Coerce to a finite (3,) float vector; returns a read-only copy."""
    v = np.array(values, dtype=float)
    if v.size != 3:
        raise GeometryError(f"vector must have 3 components, got shape {v.shape}")
    v = v.reshape(3)
    x, y, z = v.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise GeometryError(f"vector has non-finite components: {v!r}")
    v.setflags(write=False)
    return v


def rotation_matrix(values) -> np.ndarray:
    """Validate a row-major 3x3 rotation matrix; returns a read-only copy.

    Requires R.T @ R == I and det(R) == 1, both within ATOL per entry.
    """
    r = np.array(values, dtype=float)
    if r.shape != (3, 3):
        raise GeometryError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise GeometryError("rotation has non-finite entries")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > ATOL:
        raise GeometryError(f"matrix is not orthonormal (max deviation {err:.3e})")
    det = float(np.linalg.det(r))
    if abs(det - 1.0) > ATOL:
        raise GeometryError(f"matrix determinant is {det!r}, not +1")
    r.setflags(write=False)
    return r


def rotation_about_z(angle_rad: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation about the Z axis."""
    if not math.isfinite(angle_rad):
        raise GeometryError(f"rotation angle must be finite, got {angle_rad}")
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return rotation_matrix([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def dot_rows(u, v) -> np.ndarray:
    """Row-wise dot product of two (n, k) arrays, or of (n, k) rows and one
    (k,) vector: the products summed left to right in column order by
    elementwise ufuncs, so that a row has the bits of the scalar sum
    u0*v0 + u1*v1 + ..., whatever BLAS the host runs."""
    products = (np.asarray(u, dtype=float) * v).T
    return sum(products[1:], products[0])


def row_norms(u) -> np.ndarray:
    """The length of each row of an (n, k) array, sqrt(dot_rows(u, u)); a
    length that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(dot_rows(u, u))


# Largest norm deviation the Quaternion constructor accepts: covers unit
# values that went through 4-decimal fixed-point formatting and back.
NEAR_UNIT_TOL = 5e-4


class Quaternion(Record):
    """Quaternion in (w, x, y, z) order, unit up to NEAR_UNIT_TOL, canonical sign.

    Canonical sign: w >= 0; if w == 0, the first nonzero of (x, y, z) >= 0.
    Components are stored as the floats given, negated together by
    `canonical_sign` if needed, so values survive fixed-point round trips;
    every operation in this module returns exactly normalized quaternions
    (see `unit`).
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        w, x, y, z = comps = (self.w, self.x, self.y, self.z)
        if not (math.isfinite(w) and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise GeometryError(f"quaternion has non-finite components: {comps}")
        (norm,) = row_norms([comps]).tolist()
        if abs(norm - 1.0) > NEAR_UNIT_TOL:
            raise GeometryError(f"quaternion norm is {norm!r}, not 1")
        (row,) = canonical_sign(np.array([comps], dtype=float)).tolist()
        self._store(**dict(zip(self._names, row)))

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def unit(cls, w: float, x: float, y: float, z: float) -> "Quaternion":
        """Normalize an arbitrary nonzero 4-vector into a unit quaternion."""
        (norm,) = row_norms([(w, x, y, z)]).tolist()
        if not math.isfinite(norm) or norm < 1e-12:
            raise GeometryError(f"cannot normalize quaternion ({w}, {x}, {y}, {z})")
        return cls(w / norm, x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


class Transform(ArrayRecord):
    """Rigid transform: rotation matrix plus origin (frame pose or point map)."""

    rotation: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        self._store(rotation=rotation_matrix(self.rotation), origin=vec3(self.origin))

    @classmethod
    def identity(cls) -> "Transform":
        return cls(np.eye(3), np.zeros(3))


def compose(a: Transform, b: Transform) -> Transform:
    """Chain two transforms: (a o b) maps p to a(b(p))."""
    return Transform(a.rotation @ b.rotation, a.rotation @ b.origin + a.origin)


def invert(t: Transform) -> Transform:
    """Inverse transform: rotation transposed, origin -R^T p."""
    rt = t.rotation.T
    return Transform(rt, -(rt @ t.origin))


def apply(t: Transform, p) -> np.ndarray:
    """Map one (3,) point, or each row of an (n, 3) array of points, to
    p @ R.T + origin. A (1, 3) array gives a (1, 3) array; any other shape
    raises GeometryError. A point has the bits it has as a row of any array:
    numpy takes a product of one row to BLAS gemv, which rounds otherwise
    than the gemm of two or more rows, so one row is mapped as two."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise GeometryError(f"points must be a (3,) point or (n, 3) rows, got shape {p.shape}")
    rows = p.reshape(-1, 3)
    pair = np.concatenate((rows, rows)) if len(rows) == 1 else rows
    return (pair @ t.rotation.T + t.origin)[: len(rows)].reshape(p.shape)


def rotation_to_quaternion(r) -> Quaternion:
    """Convert a rotation matrix to a canonical unit quaternion."""
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


def quaternion_to_rotation(q: Quaternion) -> np.ndarray:
    """Convert a quaternion to a rotation matrix (renormalizing first)."""
    a = q.as_array()
    w, x, y, z = (a / row_norms([a])).tolist()
    return rotation_matrix(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def canonical_sign(q: np.ndarray) -> np.ndarray:
    """Negate, in place, each row of an (n, 4) quaternion array whose first
    nonzero component is negative; returns q."""
    flip = q[np.arange(len(q)), (q != 0.0).argmax(axis=1)] < 0.0
    q[flip] = -q[flip]
    return q


def slerp(q0, q1, t, arc=None) -> np.ndarray:
    """Spherical linear interpolation of unit quaternions, given as
    (w, x, y, z) arrays, along the shortest great-circle arc at each t of an
    array in [0, 1]. q0 and q1 are one pair of (4,) arrays, or (k, 4) arrays
    of k arcs with `arc` giving the arc of each t. Returns a (len(t), 4)
    array in canonical sign.

    Q(t) = sin((1-t)*theta)/sin(theta) * q0 + sin(t*theta)/sin(theta) * q1,
    with theta = acos(q0 . q1). When q0 . q1 < 0, q1 is negated first so the
    short arc is taken; below SLERP_MIN_ANGLE the weights degenerate and a
    normalized linear interpolation is used instead. t == 0 and t == 1 give
    q0 and q1 exactly, up to canonical sign. Each row has the bits a call
    with its own pair alone gives.
    """
    t = np.asarray(t, dtype=float)
    outside = ~((t >= 0.0) & (t <= 1.0))
    if outside.any():
        raise GeometryError(f"slerp parameter t={float(t[outside][0])!r} outside [0, 1]")
    q0 = np.asarray(q0, dtype=float).reshape(-1, 4)
    q1 = np.asarray(q1, dtype=float).reshape(-1, 4)
    arc = np.zeros(len(t), dtype=int) if arc is None else np.asarray(arc)
    dot = dot_rows(q0, q1)
    flip = dot < 0.0
    b = np.where(flip[:, None], -q1, q1)
    dot = np.where(flip, -dot, dot)
    # math.acos and math.sin per arc: np.arccos differs in the last bit
    theta = [math.acos(min(1.0, d)) for d in dot.tolist()]
    sin_theta = np.array([math.sin(th) for th in theta])[arc]
    theta = np.array(theta)[arc]

    # the weights of q0 and q1; below SLERP_MIN_ANGLE, 1 - t and t, since
    # dividing by sin(theta) would blow up
    w0, w1 = 1.0 - t, t.copy()
    far = theta >= SLERP_MIN_ANGLE
    th, st = theta[far], sin_theta[far]
    w0[far] = np.sin(w0[far] * th) / st
    w1[far] = np.sin(t[far] * th) / st
    mixed = w0[:, None] * q0[arc] + w1[:, None] * b[arc]
    out = mixed / row_norms(mixed)[:, None]
    ends = t == 0.0
    out[ends] = q0[arc[ends]]
    ends = t == 1.0
    out[ends] = q1[arc[ends]]
    return canonical_sign(out)
