"""Neutral scene file: named frames, tool markers, and path curves extracted from CAD.

The scene is a strict UTF-8 JSON document (unknown keys are rejected):

    {
      "units": "mm",
      "frames": [
        {"name": str, "rotation": [[r,r,r],[r,r,r],[r,r,r]] | {"quat": [w,x,y,z]},
         "origin": [x, y, z]}
      ],
      "workspace": {"min": [x,y,z], "max": [x,y,z]},   # optional
      "paths": [
        {"name": str, "segments": [
          {"kind": "line"|"arc"|"spline", "points": [[x,y,z], ...],
           "tool_frame": str, "risk": bool, "speed": number}
        ]}
      ]
    }

All frames and points are expressed in the universe frame "U" (the file's own
coordinate system, implicitly the identity). Point counts: line exactly 2,
arc exactly 3 (start, via, end), spline at least 3. Consecutive segments of a
path must chain: end of segment i equals start of segment i+1 within
CHAIN_TOL millimetres.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .geometry import (
    ATOL,
    ArrayRecord,
    GeometryError,
    Quaternion,
    RobopathError,
    RowView,
    Transform,
    quaternion_to_rotation,
)

# Endpoint chaining / distinct-point tolerance, in millimetres.
CHAIN_TOL = 1e-6

# Reserved name of the implicit universe frame.
UNIVERSE = "U"

# The grammar of every name: frames, paths, tool frames, and the program and
# target names of the program text.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
NAME_RE = re.compile(NAME)

# Matrices this far from orthonormal are re-projected onto the nearest
# rotation (hand-written files carry rounded entries); anything worse errors.
_SNAP_TOL = 1e-3


class SceneError(RobopathError):
    """Base class for scene file problems."""


class SceneParseError(SceneError):
    """The text is not well-formed JSON."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class SceneValidationError(SceneError):
    """The document violates the schema or a scene invariant."""


class SegmentKind(str, Enum):
    LINE = "line"
    ARC = "arc"
    SPLINE = "spline"


# The kind of each code in `ScenePath.kinds`.
SEGMENT_KINDS = tuple(SegmentKind)
_KIND_CODES = {kind.value: code for code, kind in enumerate(SEGMENT_KINDS)}

# Required point counts per kind; None means "at least MIN_SPLINE_POINTS".
_POINT_COUNT = {SegmentKind.LINE: 2, SegmentKind.ARC: 3, SegmentKind.SPLINE: None}
MIN_SPLINE_POINTS = 3
_SPLINE = _KIND_CODES[SegmentKind.SPLINE]
# the exact point count of each kind code; a spline's entry is unused
_EXACT_COUNT = np.array([_POINT_COUNT[kind] or 0 for kind in SEGMENT_KINDS])


@dataclass(frozen=True)
class Frame:
    name: str
    transform: Transform


@dataclass(frozen=True, eq=False)
class PathSegment:
    """One curve of a path as a plain record, for scenes built in code and
    for `ScenePath.segments`."""

    kind: SegmentKind
    points: np.ndarray  # (n, 3), universe coordinates
    tool_frame: str
    risk: bool
    speed: float


@dataclass(frozen=True, eq=False)
class ScenePath(ArrayRecord):
    """A path as one table: every segment's points, in order, in `points`
    (m, 3; universe coordinates; a join point is the last point of one
    segment and again the first of the next), and one entry per segment in
    the other columns. Segment j holds the rows
    `starts[j]:starts[j + 1]` of `points` (`starts` has one entry more than
    there are segments), is of kind `SEGMENT_KINDS[kinds[j]]`, and has tool
    frame `tool_frames[j]`, risk flag `risk[j]` and speed `speeds[j]`.

    Arrays are kept without a copy and made read-only. The columns are
    trusted to agree in length: `parse_scene` builds them from a checked
    file and `from_segments` from records; `validate_chain` checks the point
    counts and spacing of a scene built in code. `segments` views the
    columns as PathSegment records.
    """

    name: str
    points: np.ndarray
    starts: np.ndarray
    kinds: np.ndarray
    tool_frames: tuple[str, ...]
    risk: tuple[bool, ...]
    speeds: np.ndarray

    def __post_init__(self):
        for attr, dtype in (("points", float), ("starts", np.intp), ("kinds", np.intp),
                            ("speeds", float)):
            column = np.asarray(getattr(self, attr), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, attr, column)

    @classmethod
    def from_segments(cls, name: str, segments: Iterable[PathSegment]) -> ScenePath:
        """The path of the given segments, in order."""
        segments = tuple(segments)
        return cls(
            name,
            np.concatenate([seg.points for seg in segments] or [np.empty((0, 3))]),
            np.cumsum([0] + [len(seg.points) for seg in segments]),
            [_KIND_CODES[seg.kind] for seg in segments],
            tuple(seg.tool_frame for seg in segments),
            tuple(bool(seg.risk) for seg in segments),
            [seg.speed for seg in segments],
        )

    @property
    def segments(self) -> Sequence[PathSegment]:
        return RowView(len(self.kinds), self._segment)

    def _segment(self, j: int) -> PathSegment:
        return PathSegment(
            SEGMENT_KINDS[self.kinds[j]],
            self.points[self.starts[j] : self.starts[j + 1]],
            self.tool_frames[j],
            self.risk[j],
            float(self.speeds[j]),
        )


@dataclass(frozen=True, eq=False)
class Workspace(ArrayRecord):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float).reshape(3)
        hi = np.array(self.hi, dtype=float).reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise SceneValidationError("workspace bounds contain non-finite values")
        if np.any(lo > hi):
            raise SceneValidationError("workspace min exceeds max")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class Scene:
    frames: tuple[Frame, ...]
    paths: tuple[ScenePath, ...]
    workspace: Optional[Workspace] = None
    units: str = "mm"

    def frame_map(self) -> dict[str, Frame]:
        return {f.name: f for f in self.frames}


@dataclass(frozen=True)
class Diagnostic:
    """One scene invariant violation; `path`/`segment` locate the offender."""

    code: str
    message: str
    path: Optional[str] = None
    segment: Optional[int] = None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_scene(text: str) -> Scene:
    """Parse and fully validate a scene document.

    Raises SceneParseError for malformed JSON (with line/column) or JSON
    nested too deeply to decode, and SceneValidationError for any schema or
    invariant violation. Never returns a partially valid scene.
    """
    try:
        # every number becomes a float: no integer field exists, and an
        # over-long integer literal overflows to inf (rejected in _number)
        # rather than hitting the int conversion limit
        data = json.loads(
            text,
            object_pairs_hook=_unique_keys,
            parse_constant=_reject_constant,
            parse_int=float,
        )
    except json.JSONDecodeError as exc:
        raise SceneParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}", exc.lineno, exc.colno
        ) from exc
    except RecursionError as exc:
        raise SceneParseError("JSON nesting is too deep") from exc
    scene = _build_scene(data)
    problems = validate_chain(scene)
    if problems:
        raise SceneValidationError(
            "; ".join(d.message for d in problems)
        )
    return scene


def _reject_constant(name: str):
    raise SceneParseError(f"non-finite number {name} is not valid JSON")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is an error, not the last
    value silently kept."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SceneParseError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _expect_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise SceneValidationError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SceneValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SceneValidationError(f"{where}: missing keys {missing}")


def _number(value, where) -> float:
    if not isinstance(value, float):  # parse_scene reads every JSON number as a float
        raise SceneValidationError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):  # a literal such as 1e400 overflows to inf
        raise SceneValidationError(f"{where}: non-finite number {value!r}")
    return value


def _point(value, where) -> list[float]:
    if not isinstance(value, list) or len(value) != 3:
        raise SceneValidationError(f"{where}: expected [x, y, z]")
    return [_number(v, where) for v in value]


def _name(value, where) -> str:
    if not isinstance(value, str) or not NAME_RE.fullmatch(value):
        raise SceneValidationError(
            f"{where}: name {value!r} must match {NAME}"
        )
    return value


def _rotation(value, where) -> np.ndarray:
    if isinstance(value, dict):
        _expect_keys(value, ["quat"], [], where)
        quat = value["quat"]
        if not isinstance(quat, list) or len(quat) != 4:
            raise SceneValidationError(f"{where}: quat must be [w, x, y, z]")
        w, x, y, z = (_number(v, where) for v in quat)
        try:
            return quaternion_to_rotation(Quaternion.unit(w, x, y, z))
        except GeometryError as exc:
            raise SceneValidationError(f"{where}: {exc}") from exc
    if not isinstance(value, list) or len(value) != 3:
        raise SceneValidationError(f"{where}: rotation must be a 3x3 matrix or a quat object")
    rows = [_point(row, where) for row in value]
    m = np.array(rows, dtype=float)
    err = np.abs(m.T @ m - np.eye(3)).max()
    det = float(np.linalg.det(m))
    if err > _SNAP_TOL or det <= 0.0:
        raise SceneValidationError(
            f"{where}: matrix is not a rotation (orthonormality deviation {err:.2e}, det {det:.4f})"
        )
    if err > ATOL:
        # project rounded entries onto the nearest proper rotation
        u, _, vt = np.linalg.svd(m)
        m = u @ vt
        if np.linalg.det(m) < 0.0:
            u[:, -1] = -u[:, -1]
            m = u @ vt
    return m


def _build_scene(data) -> Scene:
    _expect_keys(data, ["units", "frames", "paths"], ["workspace"], "scene")
    if data["units"] != "mm":
        raise SceneValidationError(f'units must be "mm", got {data["units"]!r}')

    if not isinstance(data["frames"], list):
        raise SceneValidationError("frames: expected a list")
    frames = []
    for i, entry in enumerate(data["frames"]):
        where = f"frames[{i}]"
        _expect_keys(entry, ["name", "rotation", "origin"], [], where)
        name = _name(entry["name"], where)
        if name == UNIVERSE:
            raise SceneValidationError(
                f'{where}: frame name "{UNIVERSE}" is reserved for the universe frame'
            )
        rotation = _rotation(entry["rotation"], f"{where}.rotation")
        origin = _point(entry["origin"], f"{where}.origin")
        try:
            frames.append(Frame(name, Transform(rotation, origin)))
        except GeometryError as exc:
            raise SceneValidationError(f"{where}: {exc}") from exc

    workspace = None
    if "workspace" in data:
        _expect_keys(data["workspace"], ["min", "max"], [], "workspace")
        workspace = Workspace(
            _point(data["workspace"]["min"], "workspace.min"),
            _point(data["workspace"]["max"], "workspace.max"),
        )

    if not isinstance(data["paths"], list):
        raise SceneValidationError("paths: expected a list")
    paths = []
    seen_paths = set()
    for i, entry in enumerate(data["paths"]):
        where = f"paths[{i}]"
        _expect_keys(entry, ["name", "segments"], [], where)
        name = _name(entry["name"], where)
        if name in seen_paths:
            raise SceneValidationError(f"duplicate path name {name!r}")
        seen_paths.add(name)
        paths.append(_path(name, entry["segments"], f"{where}.segments"))

    return Scene(tuple(frames), tuple(paths), workspace)


_SEGMENT_KEYS = ["kind", "points", "tool_frame", "risk", "speed"]
_SEGMENT_KEY_SET = frozenset(_SEGMENT_KEYS)


def _path(name: str, segments, where: str) -> ScenePath:
    """A path's segments, checked in file order, as one table. The key and
    point checks run a cheap test first and build their messages only when
    that fails."""
    if not isinstance(segments, list):
        raise SceneValidationError(f"{where}: expected a list")
    coords: list[float] = []
    counts, kinds, tools, risks, speeds = [], [], [], [], []
    for j, seg in enumerate(segments):
        sw = f"{where}[{j}]"
        if type(seg) is not dict or seg.keys() != _SEGMENT_KEY_SET:
            _expect_keys(seg, _SEGMENT_KEYS, [], sw)
        kind = seg["kind"]
        code = _KIND_CODES.get(kind) if isinstance(kind, str) else None
        if code is None:
            raise SceneValidationError(
                f"{sw}: kind must be one of line/arc/spline, got {kind!r}"
            )
        points = seg["points"]
        if not isinstance(points, list):
            raise SceneValidationError(f"{sw}.points: expected a list of points")
        flat = _flat_points(points)
        if flat is None:
            flat = list(chain.from_iterable(
                _point(p, f"{sw}.points[{k}]") for k, p in enumerate(points)
            ))
        if len(points) < 2:
            raise SceneValidationError(f"{sw}: needs at least two points")
        if not isinstance(seg["risk"], bool):
            raise SceneValidationError(f"{sw}.risk: expected true/false")
        tools.append(_name(seg["tool_frame"], f"{sw}.tool_frame"))
        speeds.append(_number(seg["speed"], f"{sw}.speed"))
        coords += flat
        counts.append(len(points))
        kinds.append(code)
        risks.append(seg["risk"])
    return ScenePath(
        name,
        np.array(coords, dtype=float).reshape(-1, 3),
        np.cumsum([0] + counts),
        kinds,
        tuple(tools),
        tuple(risks),
        speeds,
    )


def _flat_points(points: list) -> Optional[list[float]]:
    """The coordinates of a list of [x, y, z] points of finite numbers, in
    order, or None when some point is not one (or when a sum of finite
    numbers overflows): `_point` then checks each point for its message."""
    for p in points:
        if type(p) is not list or len(p) != 3:
            return None
    flat = list(chain.from_iterable(points))
    if set(map(type, flat)) <= {float} and math.isfinite(sum(flat)):
        return flat
    return None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_chain(scene: Scene) -> list[Diagnostic]:
    """Check every scene invariant; returns one diagnostic per violation,
    path by path, then segment by segment, then check by check. The name
    checks hold scenes built in code to the rules `parse_scene` enforces."""
    out: list[Diagnostic] = []
    names = set()
    for frame in scene.frames:
        if not NAME_RE.fullmatch(frame.name):
            out.append(Diagnostic("bad_name", f"frame name {frame.name!r} must match {NAME}"))
        elif frame.name == UNIVERSE:
            out.append(Diagnostic(
                "reserved_frame", f'frame name "{UNIVERSE}" is reserved for the universe frame'
            ))
        if frame.name in names:
            out.append(Diagnostic("duplicate_frame", f"duplicate frame name {frame.name!r}"))
        names.add(frame.name)
    if not names:
        out.append(
            Diagnostic("no_frames", "scene declares no frame besides the universe")
        )
    if not scene.paths:
        out.append(Diagnostic("no_paths", "scene declares no path"))

    path_names = set()
    for path in scene.paths:
        if not NAME_RE.fullmatch(path.name):
            out.append(Diagnostic(
                "bad_name", f"path name {path.name!r} must match {NAME}", path.name
            ))
        if path.name in path_names:
            out.append(Diagnostic(
                "duplicate_path", f"duplicate path name {path.name!r}", path.name
            ))
        path_names.add(path.name)
        if not len(path.kinds):
            out.append(Diagnostic("empty_path", f"path {path.name!r} has no segments", path.name))
            continue
        starts, kinds = path.starts, path.kinds
        counts = np.diff(starts)
        # distance from each point to the next in file order: a segment's
        # own steps, then the step across the join into the next segment
        with np.errstate(over="ignore"):  # a step too long to square is inf, still far
            dist = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
        # the join into each segment, checked only where it and the segment
        # before it have points
        joins = np.flatnonzero((counts[:-1] > 0) & (counts[1:] > 0)) + 1
        gaps = np.zeros(len(kinds))
        gaps[joins] = dist[starts[joins] - 1]
        # close steps before each point; segment j's own steps are those from
        # starts[j] up to, not including, the join step starts[j + 1] - 1
        n_close = np.concatenate([[0], np.cumsum(dist <= CHAIN_TOL)])
        first = np.minimum(starts[:-1], len(dist))  # a last segment with no points has no steps
        # checks in diagnostic order, one entry per segment
        checks = (
            np.where(kinds == _SPLINE, counts < MIN_SPLINE_POINTS, counts != _EXACT_COUNT[kinds]),
            n_close[np.maximum(starts[1:] - 1, first)] > n_close[first],
            np.array([tool not in names for tool in path.tool_frames], dtype=bool),
            ~(path.speeds > 0.0),
            gaps > CHAIN_TOL,
        )
        for j in np.flatnonzero(np.logical_or.reduce(checks)).tolist():
            at = f"path {path.name!r} segment {j}"
            kind, n = SEGMENT_KINDS[kinds[j]], int(counts[j])
            expected = _POINT_COUNT[kind]
            needs = (
                f"spline needs at least {MIN_SPLINE_POINTS}" if expected is None
                else f"{kind.value} needs {expected}"
            )
            messages = (
                ("point_count", f"{at}: {needs} points, got {n}"),
                ("coincident_points", f"{at}: consecutive points closer than {CHAIN_TOL} mm"),
                ("unknown_tool_frame",
                 f"{at}: tool frame {path.tool_frames[j]!r} is not declared"),
                ("bad_speed", f"{at}: speed must be positive, got {float(path.speeds[j])}"),
                ("chain_break", f"path {path.name!r}: segments {j - 1} and {j} do not chain "
                                f"(gap {float(gaps[j]):.6g} mm)"),
            )
            out += [
                Diagnostic(code, message, path.name, j)
                for check, (code, message) in zip(checks, messages)
                if check[j]
            ]
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_scene(scene: Scene) -> str:
    """Render a scene back to its JSON form; parse_scene inverts this exactly."""
    doc = {
        "units": scene.units,
        "frames": [
            {
                "name": f.name,
                "rotation": f.transform.rotation.tolist(),
                "origin": f.transform.origin.tolist(),
            }
            for f in scene.frames
        ],
        "paths": [
            {
                "name": p.name,
                "segments": [
                    {
                        "kind": s.kind.value,
                        "points": s.points.tolist(),
                        "tool_frame": s.tool_frame,
                        "risk": s.risk,
                        "speed": s.speed,
                    }
                    for s in p.segments
                ],
            }
            for p in scene.paths
        ],
    }
    if scene.workspace is not None:
        doc["workspace"] = {
            "min": scene.workspace.lo.tolist(),
            "max": scene.workspace.hi.tolist(),
        }
    return json.dumps(doc, indent=2) + "\n"
