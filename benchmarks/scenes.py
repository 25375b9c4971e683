"""Seeded serpentine weld scenes for the benchmark.

A scene is one path laid out as rows of short segments joined by U-turn
arcs, written in the universe frame "U" of the scene file. The geometry is
drawn in the calibration frame "B" on a 1e-4 mm grid and then mapped into U
through B, so the compiled program (which prints four decimals in B) lands
back on the generated points to within float noise; the benchmark checks the
program against these points with its own numpy transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

GRID_MM = 1e-4
LINE_SPEED = 25.0  # mm/s
RISK_SPEED = 10.0  # mm/s, the design speed of risk-flagged segments
RISK_EVERY = 5  # every 5th segment is risk-flagged
SPLINE_SHARE = 0.13  # of row segments: about 10 % of all segments
PER_ROW = 3  # segments per row
RADIUS_MM = 4.0  # of the U-turn arcs
TOOLS = ("T1", "T2", "T3")


@dataclass(frozen=True)
class Generated:
    """A scene document plus the references the benchmark checks against."""

    text: str  # scene JSON
    base_rotation: np.ndarray  # B -> U
    base_origin: np.ndarray
    points_u: np.ndarray  # every path point in order, chained points once


def _rot_z(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _snap(p):
    return np.round(np.asarray(p, dtype=float) / GRID_MM) * GRID_MM


def serpentine(segments: int, seed: int, seg_mm: float) -> Generated:
    """Scene with `segments` segments: rows of PER_ROW line/spline segments
    of about `seg_mm` each, every row followed by a U-turn arc of radius
    RADIUS_MM, every 5th segment risk-flagged, three tool frames and a base
    frame B rotated about z. The same arguments give the same scene."""
    rng = np.random.default_rng(seed)
    base_rot = _rot_z(20.0 + 20.0 * rng.random())
    base_origin = _snap(rng.uniform([300.0, -300.0, 100.0], [500.0, -100.0, 200.0]))
    down = np.diag([1.0, -1.0, -1.0])  # tool z axis pointing down
    tool_rot_b = [down, down @ _rot_y(10.0), down @ _rot_y(-10.0)]

    # Rows have a fixed length, and the risk-flagged and the plain row segments
    # each hold a fixed count of splines, so the size of the compiled program
    # and its run time barely depend on the seed.
    n_rows = -(-segments // (PER_ROW + 1))
    slots = np.arange(n_rows * PER_ROW)
    risky = (slots // PER_ROW * (PER_ROW + 1) + slots % PER_ROW) % RISK_EVERY == RISK_EVERY - 1
    splines = set()
    for group in (slots[risky], slots[~risky]):
        splines.update(rng.choice(group, round(SPLINE_SHARE * len(group)), replace=False).tolist())
    kinds, pieces = [], []  # pieces[i]: B-frame points of segment i
    cur = np.zeros(3)
    heading = 1.0
    row = 0
    while len(pieces) < segments:
        lengths = 0.85 + 0.3 * rng.random(PER_ROW)
        ends = np.cumsum(lengths) * (PER_ROW * seg_mm / lengths.sum())
        start = cur
        for k in range(PER_ROW):
            if len(pieces) == segments:
                break
            end = _snap(start + [heading * ends[k], 0.0, 0.0])
            if row * PER_ROW + k in splines:
                side = 0.05 * seg_mm * (1.0 if rng.random() < 0.5 else -1.0)
                mid = _snap((cur + end) / 2.0 + [0.0, side, 0.0])
                kinds.append("spline")
                pieces.append([cur, mid, end])
            else:
                kinds.append("line")
                pieces.append([cur, end])
            cur = end
        if len(pieces) < segments:
            via = cur + [heading * RADIUS_MM, RADIUS_MM, 0.0]
            end = cur + [0.0, 2.0 * RADIUS_MM, 0.0]
            kinds.append("arc")
            pieces.append([cur, _snap(via), _snap(end)])
            cur = pieces[-1][-1]
            heading = -heading
        row += 1

    def to_u(p):
        return base_rot @ np.asarray(p) + base_origin

    seg_docs = []
    points_u = [to_u(pieces[0][0])]
    for i, (kind, pts) in enumerate(zip(kinds, pieces)):
        risk = i % RISK_EVERY == RISK_EVERY - 1
        u_pts = [to_u(p) for p in pts]
        points_u.extend(u_pts[1:])
        seg_docs.append({
            "kind": kind,
            "points": [p.tolist() for p in u_pts],
            "tool_frame": TOOLS[int(rng.integers(len(TOOLS)))],
            "risk": risk,
            "speed": RISK_SPEED if risk else LINE_SPEED,
        })
    points_u = np.array(points_u)
    margin = 10.0
    frames = [{"name": "B", "rotation": base_rot.tolist(), "origin": base_origin.tolist()}]
    frames += [
        {"name": name, "rotation": (base_rot @ r).tolist(), "origin": base_origin.tolist()}
        for name, r in zip(TOOLS, tool_rot_b)
    ]
    doc = {
        "units": "mm",
        "frames": frames,
        "workspace": {
            "min": (points_u.min(axis=0) - margin).tolist(),
            "max": (points_u.max(axis=0) + margin).tolist(),
        },
        "paths": [{"name": "seam", "segments": seg_docs}],
    }
    return Generated(
        text=json.dumps(doc) + "\n",
        base_rotation=base_rot,
        base_origin=base_origin,
        points_u=points_u,
    )
