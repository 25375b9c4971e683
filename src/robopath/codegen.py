"""The robot program: its IR, `lower` from a planned path, and the program
text, which `emit` writes and `load_program` reads back. The grammar, its
number pattern and the opcode-to-motion-kind table are defined here once.

The IR is columnar: a `RobotProgram` holds its targets as a read-only
(n, 3) position array and (n, 4) quaternion array in reference order, plus
the move instructions, which give each target its motion kind and speed.
`lower` names the planned poses and groups them into moves; the program
takes the planned path's position and quaternion columns as they are.
`RobotProgram.targets` is a read-only name -> TargetPose view that builds a
pose only when one is looked up. `load_program` fills the columns without
building a pose per target; it checks the target block as arrays.

Program grammar (one statement per line, LF endings):

    program := "PROGRAM" name NL { target } { move } "END" NL
    target  := "TARGET" name "=" "[" num "," num "," num "]" ","
               "[" num "," num "," num "," num "]" NL
    move    := ("MOVEJ"|"MOVEL"|"MOVES") name "SPEED" num NL
             | "MOVEC" name name "SPEED" num NL
    num     := ["+"|"-"] digits ["." digits]

Each target is referenced by exactly one move. `emit` writes numbers
fixed-point with four decimals; target tuples are [x, y, z], [w, qx, qy, qz].
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NoReturn

import numpy as np

from .geometry import NEAR_UNIT_TOL, Quaternion, canonical_sign
from .planner import MotionKind, PlannedPath, PoseView, TargetPose
from .scene import Workspace


class CodegenError(ValueError):
    """A planned path cannot be lowered into a well-formed program."""


class ProgramParseError(ValueError):
    """Program text violates the grammar; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Opcode(str, Enum):
    MOVEJ = "MOVEJ"
    MOVEL = "MOVEL"
    MOVEC = "MOVEC"
    MOVES = "MOVES"


# The motion kind of each target an opcode takes, in operand order; the
# number of kinds is the opcode's arity.
_OPCODE_KINDS = {
    Opcode.MOVEJ: (MotionKind.JOINT,),
    Opcode.MOVEL: (MotionKind.LINEAR,),
    Opcode.MOVEC: (MotionKind.CIRCULAR_VIA, MotionKind.CIRCULAR_END),
    Opcode.MOVES: (MotionKind.SPLINE_VIA,),
}
_OPCODE_OF_FIRST_KIND = {kinds[0]: op for op, kinds in _OPCODE_KINDS.items()}


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    targets: tuple[str, ...]
    speed: float

    def __post_init__(self):
        if not (self.speed > 0.0 and math.isfinite(self.speed)):
            raise CodegenError(f"instruction speed must be positive and finite, got {self.speed}")
        expected = len(_OPCODE_KINDS[self.opcode])
        if len(self.targets) != expected:
            raise CodegenError(
                f"{self.opcode.value} takes {expected} target(s), got {len(self.targets)}"
            )


@dataclass(frozen=True, eq=False)
class RobotProgram:
    """A program's targets as columns, in reference order, plus its moves.

    Row i of `positions` (n, 3) and `orientations` (n, 4; w, x, y, z in
    canonical sign) is the i-th target the moves reference. A float array
    passed in is kept without a copy and made read-only, so pass arrays the
    program may own. A target's motion kind and speed are those of the move
    that references it. `target_names` is derived from the moves, and
    `targets` views the columns as a name -> TargetPose mapping. Programs
    are equal when their names, moves and both columns are equal.
    """

    name: str
    positions: np.ndarray
    orientations: np.ndarray
    instructions: tuple[Instruction, ...] = ()
    target_names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        referenced = tuple(t for ins in self.instructions for t in ins.targets)
        if len(set(referenced)) != len(referenced):
            raise CodegenError("a target is referenced by more than one instruction")
        for attr, width in (("positions", 3), ("orientations", 4)):
            column = np.asarray(getattr(self, attr), dtype=float)
            if column.shape != (len(referenced), width):
                raise CodegenError(
                    f"{attr} has shape {column.shape}, expected ({len(referenced)}, {width})"
                )
            column.setflags(write=False)
            object.__setattr__(self, attr, column)
        object.__setattr__(self, "target_names", referenced)

    def __eq__(self, other):
        if not isinstance(other, RobotProgram):
            return NotImplemented
        return (
            self.name == other.name
            and self.instructions == other.instructions
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.orientations, other.orientations)
        )

    @cached_property
    def targets(self) -> Mapping[str, TargetPose]:
        return _TargetView(self)


class _TargetView(Mapping):
    """Read-only name -> TargetPose view of a program's columns; a pose is
    built only when it is looked up."""

    def __init__(self, program: RobotProgram):
        self._program = program

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {name: row for row, name in enumerate(self._program.target_names)}

    @cached_property
    def _poses(self) -> PoseView:
        p = self._program
        kinds = [k for ins in p.instructions for k in _OPCODE_KINDS[ins.opcode]]
        speeds = [ins.speed for ins in p.instructions for _ in ins.targets]
        return PoseView(p.positions, p.orientations, kinds, speeds, [False] * len(kinds))

    def __getitem__(self, name: str) -> TargetPose:
        return self._poses[self._rows[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._program.target_names)

    def __len__(self) -> int:
        return len(self._program.target_names)


def fmt_num(value: float) -> str:
    """Fixed-point, four decimals, no exponent, no negative zero."""
    if not math.isfinite(value):
        raise CodegenError(f"cannot write non-finite number {value}")
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def lower(path: PlannedPath) -> RobotProgram:
    """Name the poses and group them into motion instructions.

    Each opcode takes the run of poses whose motion kinds match its row of
    the opcode table: one pose for joint, linear and spline moves, a
    circular via pose followed by a circular end pose for MOVEC. Targets are
    named t1, t2, ... in path order and never deduplicated, so every pose
    stays traceable to its source index. The program takes the path's
    position and orientation columns as they are.
    """
    instructions: list[Instruction] = []
    kinds, speeds = path.kinds, path.speeds.tolist()
    i = 0
    while i < len(kinds):
        opcode = _OPCODE_OF_FIRST_KIND.get(kinds[i])
        if opcode is None:
            raise CodegenError(
                f"path {path.name!r}: circular end at pose {i} has no via pose"
            )
        names = []
        for kind in _OPCODE_KINDS[opcode]:
            if i == len(kinds) or kinds[i] is not kind:
                raise CodegenError(
                    f"path {path.name!r}: circular via at pose {i - 1} has no end pose"
                )
            names.append(f"t{i + 1}")
            i += 1
        instructions.append(Instruction(opcode, tuple(names), speeds[i - 1]))
    return RobotProgram(path.name, path.positions, path.orientations, tuple(instructions))


# A quaternion text whose w reads 0.0000 and whose first nonzero component is
# negative; reloaded, the Quaternion constructor's canonical sign flips it.
_FLIPPED_ON_RELOAD_RE = re.compile(r"0\.0000, (?:0\.0000, )*-")


def _fmt_quaternion(w: float, x: float, y: float, z: float) -> str:
    text = f"{fmt_num(w)}, {fmt_num(x)}, {fmt_num(y)}, {fmt_num(z)}"
    if _FLIPPED_ON_RELOAD_RE.match(text):
        # the same rotation, written with the sign a reload gives it
        text = f"{fmt_num(-w)}, {fmt_num(-x)}, {fmt_num(-y)}, {fmt_num(-z)}"
    return text


def _target_line(name: str, position: np.ndarray, quat: np.ndarray) -> str:
    x, y, z = position.tolist()
    return (
        f"TARGET {name} = [{fmt_num(x)}, {fmt_num(y)}, {fmt_num(z)}], "
        f"[{_fmt_quaternion(*quat.tolist())}]\n"
    )


def emit(program: RobotProgram) -> str:
    """Deterministic program text; identical programs emit identical bytes.

    The target block and the move block are joined one after the other, so
    the line strings of only one block are alive at a time.
    """
    targets = "".join(
        map(_target_line, program.target_names, program.positions, program.orientations)
    )
    moves = "".join(
        f"{ins.opcode.value} {' '.join(ins.targets)} SPEED {fmt_num(ins.speed)}\n"
        for ins in program.instructions
    )
    return f"PROGRAM {program.name}\n{targets}{moves}END\n"


_NUM = r"\s*([+-]?[0-9]+(?:\.[0-9]+)?)\s*"  # grammar `num`, with its blanks
_NUMBER_RE = re.compile(_NUM)
_TARGET_RE = re.compile(
    rf"TARGET\s+([A-Za-z_]\w*)\s*=\s*\[{_NUM},{_NUM},{_NUM}\]"
    rf"\s*,\s*\[{_NUM},{_NUM},{_NUM},{_NUM}\]"
)


_OPCODES = {op.value: op for op in Opcode}


def load_program(text: str) -> RobotProgram:
    """Parse program text back into a RobotProgram.

    All values are kept exactly as written, so a load/emit cycle is
    lossless. Targets are ordered by their reference in the moves, each
    taking its motion kind from the opcode table. Raises ProgramParseError
    with the offending line number.

    The target block is checked as arrays once it is complete, at the first
    move. A target those checks reject is rebuilt as a TargetPose at the
    move that references it, so the error carries the constructor's message
    and that move's line.
    """
    name = None
    declared: dict[str, int] = {}  # target name -> its row in `values`
    values: list[float] = []  # x, y, z, w, qx, qy, qz of each declared target
    table = None  # `values` as an (n, 7) array, quaternions in canonical sign
    rejected: set[int] = set()  # rows that fail the pose checks
    rows: list[int] = []  # declared row of each referenced target, in order
    referenced: set[str] = set()
    instructions: list[Instruction] = []
    ended = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ended:
            raise ProgramParseError("content after END", line_no)
        if name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "PROGRAM":
                raise ProgramParseError("expected PROGRAM header", line_no)
            name = parts[1]
            continue
        if line == "END":
            ended = True
            continue
        if line.startswith("TARGET"):
            if instructions:
                raise ProgramParseError("TARGET after motion statements", line_no)
            m = _TARGET_RE.fullmatch(line)
            if not m:
                raise ProgramParseError("malformed TARGET statement", line_no)
            tname, *numbers = m.groups()
            if tname in declared:
                raise ProgramParseError(f"duplicate target {tname!r}", line_no)
            declared[tname] = len(declared)
            values.extend(map(float, numbers))
            continue
        parts = line.split()
        opcode = _OPCODES.get(parts[0])
        if opcode is None:
            raise ProgramParseError(f"unknown opcode {parts[0]!r}", line_no)
        kinds = _OPCODE_KINDS[opcode]
        n_names = len(kinds)
        if len(parts) != n_names + 3 or parts[n_names + 1] != "SPEED":
            raise ProgramParseError(f"malformed {opcode.value} statement", line_no)
        if not _NUMBER_RE.fullmatch(parts[-1]):
            raise ProgramParseError(f"bad speed {parts[-1]!r}", line_no)
        speed = float(parts[-1])
        speed_ok = speed > 0.0 and math.isfinite(speed)
        if table is None:  # the first move: every target is declared
            table, rejected = _check_targets(values)
        names = tuple(parts[1 : 1 + n_names])
        for t, kind in zip(names, kinds):
            row = declared.get(t)
            if row is None:
                raise ProgramParseError(f"undeclared target {t!r}", line_no)
            if t in referenced:
                raise ProgramParseError(f"target {t!r} referenced twice", line_no)
            if row in rejected or not speed_ok:
                _reject_target(t, values[7 * row : 7 * row + 7], kind, speed, line_no)
            referenced.add(t)
            rows.append(row)
        instructions.append(Instruction(opcode, names, speed))

    if name is None:
        raise ProgramParseError("empty program", 1)
    if not ended:
        raise ProgramParseError("missing END", len(text.splitlines()) or 1)
    unused = set(declared) - referenced
    if unused:
        raise ProgramParseError(f"unreferenced targets {sorted(unused)}", 1)
    if table is None:
        table = np.empty((0, 7))
    table = table[rows]
    return RobotProgram(name, table[:, :3], table[:, 3:], tuple(instructions))


def _check_targets(values: list[float]) -> tuple[np.ndarray, set[int]]:
    """The declared targets as an (n, 7) array with each quaternion in
    canonical sign, and the rows a TargetPose would reject: a non-finite
    number or a quaternion norm off 1 by more than NEAR_UNIT_TOL."""
    table = np.array(values, dtype=float).reshape(-1, 7)
    w, x, y, z = table[:, 3:].T
    with np.errstate(over="ignore", invalid="ignore"):
        # summed w, x, y, z like the Quaternion constructor, so the bits agree
        norm = np.sqrt(w * w + x * x + y * y + z * z)
        ok = np.isfinite(table).all(axis=1) & (np.abs(norm - 1.0) <= NEAR_UNIT_TOL)
    canonical_sign(table[:, 3:])
    return table, set(np.flatnonzero(~ok).tolist())


def _reject_target(
    t: str, row: list[float], kind: MotionKind, speed: float, line_no: int
) -> NoReturn:
    """Raise the error building target t's pose gives, at line_no."""
    try:
        TargetPose(row[:3], Quaternion(*row[3:]), kind, speed)
    except ValueError as exc:
        raise ProgramParseError(f"target {t!r}: {exc}", line_no) from exc
    raise AssertionError(f"target {t!r} passes the pose checks it was rejected by")


@dataclass(frozen=True)
class LintFinding:
    """A target position outside the declared workspace box."""

    target: str
    axis: str
    message: str


def workspace_lint(program: RobotProgram, workspace: Workspace) -> list[LintFinding]:
    """Flag every target coordinate outside the box; bounds are inclusive.
    Findings are ordered by target, then axis."""
    positions = program.positions
    outside = (positions < workspace.lo) | (positions > workspace.hi)
    findings = []
    for row, k in zip(*np.nonzero(outside)):
        name, axis = program.target_names[row], "xyz"[k]
        v = float(positions[row, k])
        lo, hi = float(workspace.lo[k]), float(workspace.hi[k])
        findings.append(
            LintFinding(
                name,
                axis,
                f"target {name} {axis}={v:.4f} outside workspace [{lo:.4f}, {hi:.4f}]",
            )
        )
    return findings
