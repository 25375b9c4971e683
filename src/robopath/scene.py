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
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import (
    ATOL,
    GeometryError,
    Quaternion,
    Transform,
    quaternion_to_rotation,
)

# Endpoint chaining / distinct-point tolerance, in millimetres.
CHAIN_TOL = 1e-6

# Reserved name of the implicit universe frame.
UNIVERSE = "U"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Matrices this far from orthonormal are re-projected onto the nearest
# rotation (hand-written files carry rounded entries); anything worse errors.
_SNAP_TOL = 1e-3


class SceneError(ValueError):
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


# Required point counts per kind; None means "at least MIN_SPLINE_POINTS".
_POINT_COUNT = {SegmentKind.LINE: 2, SegmentKind.ARC: 3, SegmentKind.SPLINE: None}
MIN_SPLINE_POINTS = 3


@dataclass(frozen=True)
class Frame:
    name: str
    transform: Transform


@dataclass(frozen=True, eq=False)
class PathSegment:
    """One curve of a path. `points` is kept without a copy and made
    read-only; its shape and values are trusted: `parse_scene` checks them
    for a file, and `validate_chain` checks the point count and spacing of a
    scene built in code.
    """

    kind: SegmentKind
    points: np.ndarray  # (n, 3), universe coordinates
    tool_frame: str
    risk: bool
    speed: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        if not isinstance(other, PathSegment):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.points, other.points)
            and self.tool_frame == other.tool_frame
            and self.risk == other.risk
            and self.speed == other.speed
        )


@dataclass(frozen=True)
class ScenePath:
    name: str
    segments: tuple[PathSegment, ...]


@dataclass(frozen=True, eq=False)
class Workspace:
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

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)


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
        data = json.loads(text, parse_constant=_reject_constant, parse_int=float)
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
    if not isinstance(value, str) or not _NAME_RE.fullmatch(value):
        raise SceneValidationError(
            f"{where}: name {value!r} must match [A-Za-z_][A-Za-z0-9_]*"
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
        if not isinstance(entry["segments"], list):
            raise SceneValidationError(f"{where}.segments: expected a list")
        segments = []
        for j, seg in enumerate(entry["segments"]):
            sw = f"{where}.segments[{j}]"
            _expect_keys(seg, ["kind", "points", "tool_frame", "risk", "speed"], [], sw)
            try:
                kind = SegmentKind(seg["kind"])
            except ValueError:
                raise SceneValidationError(
                    f"{sw}: kind must be one of line/arc/spline, got {seg['kind']!r}"
                ) from None
            if not isinstance(seg["points"], list):
                raise SceneValidationError(f"{sw}.points: expected a list of points")
            points = [_point(p, f"{sw}.points[{k}]") for k, p in enumerate(seg["points"])]
            if len(points) < 2:
                raise SceneValidationError(f"{sw}: needs at least two points")
            if not isinstance(seg["risk"], bool):
                raise SceneValidationError(f"{sw}.risk: expected true/false")
            segments.append(
                PathSegment(
                    kind=kind,
                    points=np.array(points),
                    tool_frame=_name(seg["tool_frame"], f"{sw}.tool_frame"),
                    risk=seg["risk"],
                    speed=_number(seg["speed"], f"{sw}.speed"),
                )
            )
        paths.append(ScenePath(name, tuple(segments)))

    return Scene(tuple(frames), tuple(paths), workspace)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_chain(scene: Scene) -> list[Diagnostic]:
    """Check every scene invariant; returns one diagnostic per violation."""
    out: list[Diagnostic] = []
    names = set()
    for frame in scene.frames:
        if frame.name in names:
            out.append(Diagnostic("duplicate_frame", f"duplicate frame name {frame.name!r}"))
        names.add(frame.name)
    if not names:
        out.append(
            Diagnostic("no_frames", "scene declares no frame besides the universe")
        )
    if not scene.paths:
        out.append(Diagnostic("no_paths", "scene declares no path"))

    for path in scene.paths:
        if not path.segments:
            out.append(Diagnostic("empty_path", f"path {path.name!r} has no segments", path.name))
            continue
        # distance from each point to the next in file order: a segment's
        # own steps, then the step across the join into the next segment
        points = np.concatenate([seg.points for seg in path.segments])
        with np.errstate(over="ignore"):  # a step too long to square is inf, still far
            dist = np.linalg.norm(np.diff(points, axis=0), axis=1).tolist()
        row = 0  # the step leaving segment j's first point
        for j, seg in enumerate(path.segments):
            expected = _POINT_COUNT[seg.kind]
            n = len(seg.points)
            if expected is not None and n != expected:
                out.append(
                    Diagnostic(
                        "point_count",
                        f"path {path.name!r} segment {j}: {seg.kind.value} needs "
                        f"{expected} points, got {n}",
                        path.name,
                        j,
                    )
                )
            elif expected is None and n < MIN_SPLINE_POINTS:
                out.append(
                    Diagnostic(
                        "point_count",
                        f"path {path.name!r} segment {j}: spline needs at least "
                        f"{MIN_SPLINE_POINTS} points, got {n}",
                        path.name,
                        j,
                    )
                )
            if any(d <= CHAIN_TOL for d in dist[row : row + n - 1]):
                out.append(
                    Diagnostic(
                        "coincident_points",
                        f"path {path.name!r} segment {j}: consecutive points closer "
                        f"than {CHAIN_TOL} mm",
                        path.name,
                        j,
                    )
                )
            if seg.tool_frame not in names:
                out.append(
                    Diagnostic(
                        "unknown_tool_frame",
                        f"path {path.name!r} segment {j}: tool frame "
                        f"{seg.tool_frame!r} is not declared",
                        path.name,
                        j,
                    )
                )
            if not seg.speed > 0.0:
                out.append(
                    Diagnostic(
                        "bad_speed",
                        f"path {path.name!r} segment {j}: speed must be positive, "
                        f"got {seg.speed}",
                        path.name,
                        j,
                    )
                )
            if j > 0 and dist[row - 1] > CHAIN_TOL:
                out.append(
                    Diagnostic(
                        "chain_break",
                        f"path {path.name!r}: segments {j - 1} and {j} do not "
                        f"chain (gap {dist[row - 1]:.6g} mm)",
                        path.name,
                        j,
                    )
                )
            row += n
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
