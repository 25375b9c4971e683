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
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Optional

import numpy as np

from .geometry import (
    ATOL,
    ArrayRecord,
    GeometryError,
    Quaternion,
    Record,
    RobopathError,
    RowView,
    Transform,
    code_column,
    orthonormality,
    quaternion_to_rotation,
    step_lengths,
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
# A matrix within ATOL of orthonormal whose determinant is off 1 by more
# than ATOL is re-projected too, so a frame is snapped exactly when
# rotation_matrix would refuse it.
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


class Frame(Record):
    """A named frame: `transform` maps its coordinates (mm) to the universe
    frame's, so its origin is the frame's origin in universe coordinates."""

    name: str
    transform: Transform


class PathSegment(ArrayRecord):
    """One curve of a path as a plain record, for scenes built in code and
    for `ScenePath.segments`."""

    kind: SegmentKind
    points: np.ndarray  # (n, 3), universe coordinates
    tool_frame: str
    risk: bool
    speed: float


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
        self._store(
            points=np.asarray(self.points, dtype=float),
            starts=np.asarray(self.starts, dtype=np.intp),
            kinds=code_column(self.kinds, SegmentKind, SceneValidationError,
                              f"path {self.name!r}: kind"),
            speeds=np.asarray(self.speeds, dtype=float),
        )

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


class Workspace(ArrayRecord):
    """The box a program's targets must stay in: the (3,) corners `lo` and
    `hi`, in mm of the universe frame, finite and with lo <= hi on each
    axis; its faces belong to it."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)
        if lo.size != 3 or hi.size != 3:
            raise SceneValidationError(
                f"workspace bounds must have 3 components, got shapes {lo.shape} and {hi.shape}"
            )
        lo, hi = lo.reshape(3), hi.reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise SceneValidationError("workspace bounds contain non-finite values")
        if np.any(lo > hi):
            raise SceneValidationError("workspace min exceeds max")
        self._store(lo=lo, hi=hi)


class Scene(Record):
    """A parsed scene: its named `frames`, its `paths` (points in mm of the
    universe frame), and the `workspace` box, if the scene declares one."""

    frames: tuple[Frame, ...]
    paths: tuple[ScenePath, ...]
    workspace: Optional[Workspace] = None

    def frame_map(self) -> dict[str, Frame]:
        return {f.name: f for f in self.frames}


class Diagnostic(Record):
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
    err, det = orthonormality(m)
    if err > _SNAP_TOL or det <= 0.0:
        raise SceneValidationError(
            f"{where}: matrix is not a rotation (orthonormality deviation {err:.2e}, det {det:.4f})"
        )
    if err > ATOL or abs(det - 1.0) > ATOL:  # what rotation_matrix would refuse
        # project rounded entries onto the nearest rotation; det(m) > 0, so
        # the nearest orthogonal matrix has determinant +1
        u, _, vt = np.linalg.svd(m)
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
        frames.append(Frame(name, Transform(rotation, origin)))

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


def _path(name: str, segments, where: str) -> ScenePath:
    """A path's segments as one table. A well-formed list is checked and
    built in a fixed number of passes over its columns (one per field), with
    no Python step per segment; when a column check fails,
    `_check_segment` runs over the segments in file order and raises the
    first fault's message."""
    if not isinstance(segments, list):
        raise SceneValidationError(f"{where}: expected a list")
    columns = _segment_columns(segments)
    if columns is None:
        for j, seg in enumerate(segments):
            _check_segment(seg, f"{where}[{j}]")
        raise AssertionError(f"{where}: a column check failed, but no segment breaks a rule")
    kinds, counts, coords, tools, risks, speeds = columns
    return ScenePath(
        name, coords.reshape(-1, 3), np.cumsum([0, *counts]), kinds, tools, risks, speeds
    )


def _segment_columns(segments: list):
    """(kind codes, point counts, coordinates, tool frames, risk flags,
    speeds) of segments that each pass `_check_segment`, or None when some
    segment does not. Each rule is checked once per column: the types as
    one set, every coordinate's finiteness in one array, each distinct tool
    frame name once."""
    if not segments:
        return [], [], np.empty(0), (), (), np.empty(0)
    # as many keys as _SEGMENT_KEYS, all of them present, are exactly those
    if not (set(map(type, segments)) <= {dict}
            and set(map(len, segments)) == {len(_SEGMENT_KEYS)}):
        return None
    try:
        kinds, points, tools, risks, speeds = zip(*map(itemgetter(*_SEGMENT_KEYS), segments))
    except KeyError:
        return None
    if not (set(map(type, kinds)) <= {str} and set(kinds) <= _KIND_CODES.keys()
            and set(map(type, points)) <= {list}):
        return None
    counts = list(map(len, points))
    rows = list(chain.from_iterable(points))
    if not (min(counts) >= 2 and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}):
        return None
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {float}:
        return None
    coords = np.fromiter(flat, float, len(flat))
    if not (np.isfinite(coords).all() and set(map(type, risks)) <= {bool}
            and set(map(type, tools)) <= {str} and all(map(NAME_RE.fullmatch, set(tools)))
            and set(map(type, speeds)) <= {float}):
        return None
    speeds = np.fromiter(speeds, float, len(speeds))
    if not np.isfinite(speeds).all():
        return None
    return list(map(_KIND_CODES.__getitem__, kinds)), counts, coords, tools, risks, speeds


def _check_segment(seg, where: str) -> None:
    """Raise the first fault of one segment, rule by rule, or return when it
    has none: the rules `_segment_columns` checks column by column."""
    _expect_keys(seg, _SEGMENT_KEYS, [], where)
    kind = seg["kind"]
    if not (isinstance(kind, str) and kind in _KIND_CODES):
        raise SceneValidationError(f"{where}: kind must be one of line/arc/spline, got {kind!r}")
    points = seg["points"]
    if not isinstance(points, list):
        raise SceneValidationError(f"{where}.points: expected a list of points")
    for k, p in enumerate(points):
        _point(p, f"{where}.points[{k}]")
    if len(points) < 2:
        raise SceneValidationError(f"{where}: needs at least two points")
    if not isinstance(seg["risk"], bool):
        raise SceneValidationError(f"{where}.risk: expected true/false")
    _name(seg["tool_frame"], f"{where}.tool_frame")
    _number(seg["speed"], f"{where}.speed")


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
        # own steps, then the step across the join into the next segment; a
        # step too long to square is inf, still far, and one from a
        # non-finite point is inf or nan, neither close nor a gap
        dist = step_lengths(path.points)
        # the join into each segment, checked only where it and the segment
        # before it have points
        joins = np.flatnonzero((counts[:-1] > 0) & (counts[1:] > 0)) + 1
        gaps = np.zeros(len(kinds))
        gaps[joins] = dist[starts[joins] - 1]
        # close steps before each point; segment j's own steps are those from
        # starts[j] up to, not including, the join step starts[j + 1] - 1
        n_close = np.concatenate([[0], np.cumsum(dist <= CHAIN_TOL)])
        first = np.minimum(starts[:-1], len(dist))  # a last segment with no points has no steps
        n_bad = np.concatenate([[0], np.cumsum(~np.isfinite(path.points).all(axis=1))])
        # checks in diagnostic order, one entry per segment
        checks = (
            np.where(kinds == _SPLINE, counts < MIN_SPLINE_POINTS, counts != _EXACT_COUNT[kinds]),
            n_bad[starts[1:]] > n_bad[starts[:-1]],
            n_close[np.maximum(starts[1:] - 1, first)] > n_close[first],
            np.fromiter(map((set(path.tool_frames) - names).__contains__, path.tool_frames),
                        bool, len(kinds)),
            ~(path.speeds > 0.0),
            path.speeds == np.inf,
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
                ("non_finite_points", f"{at}: points have non-finite coordinates"),
                ("coincident_points", f"{at}: consecutive points closer than {CHAIN_TOL} mm"),
                ("unknown_tool_frame",
                 f"{at}: tool frame {path.tool_frames[j]!r} is not declared"),
                ("bad_speed", f"{at}: speed must be positive, got {float(path.speeds[j])}"),
                ("non_finite_speed", f"{at}: speed must be finite, got {float(path.speeds[j])}"),
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
        "units": "mm",
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
                    dict(zip(_SEGMENT_KEYS, row))
                    for row in zip([SEGMENT_KINDS[k].value for k in p.kinds],
                                   map(np.ndarray.tolist, np.split(p.points, p.starts[1:-1])),
                                   p.tool_frames, p.risk, p.speeds.tolist())
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
