"""The robot program: its IR, `lower` from a planned path, and the program
text, which `emit` writes and `load_program` reads back. The grammar, its
number pattern and the opcode-to-motion-kind table are defined here once.

The IR is one table, `RobotProgram(name, target_names, positions,
orientations, opcodes, speeds)`: a row per target in reference order and a
row per move, each target's motion kind and speed derived once from its
move's row of the opcode table. `lower` names the planned poses and groups
them into moves with array masks, taking the path's position and quaternion
columns as they are. `RobotProgram.targets` is a read-only name ->
TargetPose view that builds a pose only when one is looked up. `load_program`
fills the columns without building a pose per target; it checks the target
block as arrays.

Program grammar (one statement per line, LF endings):

    program := "PROGRAM" name NL { target } { move } "END" NL
    name    := [A-Za-z_][A-Za-z0-9_]*
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
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice
from typing import NoReturn

import numpy as np

from .geometry import (
    NEAR_UNIT_TOL,
    ArrayRecord,
    Quaternion,
    RobopathError,
    canonical_sign,
    quaternion_norms,
)
from .planner import MotionKind, PlannedPath, TargetPose, pose_rows
from .scene import NAME, NAME_RE, Workspace


class CodegenError(RobopathError):
    """A planned path cannot be lowered into a well-formed program."""


class ProgramParseError(RobopathError):
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
_OPCODES = {op.value: op for op in Opcode}


@dataclass(frozen=True)
class Instruction:
    """One move as a plain record; only `RobotProgram.instructions` builds it."""

    opcode: Opcode
    targets: tuple[str, ...]
    speed: float


@dataclass(frozen=True, eq=False)
class RobotProgram(ArrayRecord):
    """A program as columns: one row per target, in reference order, and
    one row per move.

    Target i is `target_names[i]` at `positions[i]` (x, y, z) and
    `orientations[i]` (w, x, y, z in canonical sign). Move j is `opcodes[j]`
    at `speeds[j]` and takes the next `arities[j]` targets, one per kind in
    its row of the opcode table; `target_kinds` and `target_speeds` give
    each target its move's kind and speed. Arrays passed in are kept without
    a copy and made read-only. Programs are equal when all six columns are;
    the derived columns are not compared.
    """

    name: str
    target_names: tuple[str, ...]
    positions: np.ndarray
    orientations: np.ndarray
    opcodes: tuple[Opcode, ...]
    speeds: np.ndarray
    arities: np.ndarray = field(init=False, repr=False, compare=False)
    target_kinds: tuple[MotionKind, ...] = field(init=False, repr=False, compare=False)
    target_speeds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names, opcodes = tuple(self.target_names), tuple(self.opcodes)
        kinds = [_OPCODE_KINDS[op] for op in opcodes]
        arities = np.array([len(k) for k in kinds], dtype=np.intp)
        if len(set(names)) != len(names):
            raise CodegenError("a target is referenced by more than one instruction")
        if arities.sum() != len(names):
            raise CodegenError(f"the moves take {arities.sum()} target(s), got {len(names)}")
        shapes = {"positions": (len(names), 3), "orientations": (len(names), 4),
                  "speeds": arities.shape}
        for attr, shape in shapes.items():
            column = np.asarray(getattr(self, attr), dtype=float)
            if column.shape != shape:
                raise CodegenError(f"{attr} has shape {column.shape}, expected {shape}")
            column.setflags(write=False)
            object.__setattr__(self, attr, column)
        bad = ~(self.speeds > 0.0) | ~np.isfinite(self.speeds)
        if bad.any():
            raise CodegenError(
                f"instruction speed must be positive and finite, got {self.speeds[bad.argmax()]}"
            )
        target_speeds = np.repeat(self.speeds, arities)
        arities.setflags(write=False)
        target_speeds.setflags(write=False)
        vars(self).update(  # frozen: set the normalized and derived columns directly
            target_names=names, opcodes=opcodes, arities=arities,
            target_kinds=tuple(chain.from_iterable(kinds)), target_speeds=target_speeds,
        )

    @cached_property
    def targets(self) -> Mapping[str, TargetPose]:
        poses = pose_rows(self.positions, self.orientations, self.target_kinds,
                          self.target_speeds, [False] * len(self.target_names))
        return _TargetView(self.target_names, poses)

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        """The moves as Instruction records, built on first use."""
        names = iter(self.target_names)
        return tuple(
            Instruction(op, tuple(islice(names, arity)), speed)
            for op, arity, speed in zip(self.opcodes, self.arities, self.speeds.tolist())
        )


class _TargetView(Mapping):
    """Read-only name -> TargetPose view of pose columns; a pose is built
    only when it is looked up."""

    def __init__(self, names: tuple[str, ...], poses: Sequence[TargetPose]):
        self._rows, self._poses = {name: row for row, name in enumerate(names)}, poses

    def __getitem__(self, name: str) -> TargetPose:
        return self._poses[self._rows[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


# A number written fixed-point with four decimals reads 0.0000 (or -0.0000)
# exactly when its magnitude is below this: the double 5e-5 lies just above
# 0.00005, and Python formats the exact binary value correctly rounded.
_READS_ZERO = 5e-5

# Rows formatted per `%` operation: few enough that a block's argument tuple
# and text stay small beside the finished text.
_BLOCK_ROWS = 256


def fixed_point(row_template: str, numbers: np.ndarray, labels=None) -> Iterator[str]:
    """The text of the rows of `numbers`, an (n, k) array, in blocks of up
    to _BLOCK_ROWS rows. Each row is written as `row_template % (label, *row)`,
    or as `row_template % tuple(row)` without `labels`; every number a
    `%.4f` field takes is fixed-point with four decimals, no exponent and no
    negative zero.

    Raises CodegenError for the first non-finite number in row order, before
    any text is made.
    """
    bad = ~np.isfinite(numbers)
    if bad.any():
        value = float(numbers.flat[bad.argmax()])
        raise CodegenError(f"cannot write non-finite number {value}")
    # a generator runs nothing until it is read, so the check above is eager
    return _fixed_point_blocks(row_template, numbers, labels)


def _fixed_point_blocks(row_template, numbers, labels) -> Iterator[str]:
    width = numbers.shape[1] + (labels is not None)
    for lo in range(0, len(numbers), _BLOCK_ROWS):
        block = numbers[lo : lo + _BLOCK_ROWS]
        # a number that reads zero is written as 0.0, so never as -0.0000
        block = np.where(np.abs(block) < _READS_ZERO, 0.0, block)
        if labels is None:
            args = block.ravel().tolist()
        else:
            args = [None] * (len(block) * width)
            args[0::width] = labels[lo : lo + _BLOCK_ROWS]
            for j in range(1, width):
                args[j::width] = block[:, j - 1].tolist()
        yield row_template * len(block) % tuple(args)


def fmt_num(value: float) -> str:
    """One number as `fixed_point` writes it."""
    return "".join(fixed_point("%.4f", np.array([[value]])))


def lower(path: PlannedPath) -> RobotProgram:
    """Name the poses and group them into moves.

    Each opcode takes the run of poses whose motion kinds match its row of
    the opcode table: one pose for joint, linear and spline moves, a
    circular via pose followed by a circular end pose for MOVEC, at the end
    pose's speed. Targets are named t1, t2, ... in path order and never
    deduplicated, so every pose stays traceable to its source index. The
    program takes the path's position and orientation columns as they are.
    """
    kinds = path.kinds
    via = np.array([k is MotionKind.CIRCULAR_VIA for k in kinds], dtype=bool)
    end = np.array([k is MotionKind.CIRCULAR_END for k in kinds], dtype=bool)
    # pose i is a circular end exactly when pose i - 1 is a circular via
    unpaired = np.append(end, False) != np.insert(via, 0, False)
    if unpaired.any():
        i = int(unpaired.argmax())
        if i < len(kinds) and end[i]:
            raise CodegenError(f"path {path.name!r}: circular end at pose {i} has no via pose")
        raise CodegenError(f"path {path.name!r}: circular via at pose {i - 1} has no end pose")
    opcodes = tuple(_OPCODE_OF_FIRST_KIND[k] for k in compress(kinds, ~end))
    names = tuple(f"t{i}" for i in range(1, len(kinds) + 1))
    return RobotProgram(
        path.name, names, path.positions, path.orientations, opcodes, path.speeds[~via]
    )


_TARGET_LINE = "TARGET %s = [%.4f, %.4f, %.4f], [%.4f, %.4f, %.4f, %.4f]\n"


def emit(program: RobotProgram) -> str:
    """Deterministic program text; identical programs emit identical bytes."""
    names = np.array(program.target_names, dtype=object)
    last = np.cumsum(program.arities) - 1  # the last target of each move
    vias = np.where(program.arities == 2, names[last - 1] + " ", "")  # a MOVEC's via
    labels = (np.array(program.opcodes, dtype=object) + " " + vias + names[last]).tolist()
    targets = fixed_point(_TARGET_LINE, _target_table(program), program.target_names)
    moves = fixed_point("%s SPEED %.4f\n", program.speeds.reshape(-1, 1), labels)
    return "".join(chain([f"PROGRAM {program.name}\n"], targets, moves, ["END\n"]))


def _target_table(program: RobotProgram) -> np.ndarray:
    """The targets as an (n, 7) array of x, y, z, w, qx, qy, qz, each
    quaternion written with the sign a reload keeps.

    A quaternion whose w reads 0.0000 and whose first other component not
    reading 0.0000 is negative is negated: the same rotation, with the sign
    the Quaternion constructor's canonical sign gives its text on reload.
    """
    table = np.hstack([program.positions, program.orientations])
    q = table[:, 3:]
    nonzero = np.abs(q) >= _READS_ZERO
    first = nonzero[:, 1:].argmax(axis=1) + 1  # of x, y, z; x when none
    flip = ~nonzero[:, 0] & (q[np.arange(len(q)), first] < 0.0)
    # a row with a non-finite number keeps its signs for fixed_point's error
    flip &= np.isfinite(q).all(axis=1)
    q[flip] = -q[flip]
    return table


_NUM = r"\s*([+-]?[0-9]+(?:\.[0-9]+)?)\s*"  # grammar `num`, with its blanks
_NUMBER_RE = re.compile(_NUM)
_TARGET_RE = re.compile(
    rf"TARGET\s+({NAME})\s*=\s*\[{_NUM},{_NUM},{_NUM}\]"
    rf"\s*,\s*\[{_NUM},{_NUM},{_NUM},{_NUM}\]"
)


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
    referenced: dict[str, int] = {}  # target name -> declared row, in reference order
    opcodes: list[Opcode] = []
    speeds: list[float] = []
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
            if not NAME_RE.fullmatch(name):
                raise ProgramParseError(f"program name {name!r} must match {NAME}", line_no)
            continue
        if line == "END":
            ended = True
            continue
        if line.startswith("TARGET"):
            if opcodes:
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
        for t, kind in zip(parts[1 : 1 + n_names], kinds):
            row = declared.get(t)
            if row is None:
                raise ProgramParseError(f"undeclared target {t!r}", line_no)
            if t in referenced:
                raise ProgramParseError(f"target {t!r} referenced twice", line_no)
            if row in rejected or not speed_ok:
                _reject_target(t, values[7 * row : 7 * row + 7], kind, speed, line_no)
            referenced[t] = row
        opcodes.append(opcode)
        speeds.append(speed)

    if name is None:
        raise ProgramParseError("empty program", 1)
    if not ended:
        raise ProgramParseError("missing END", len(text.splitlines()) or 1)
    unused = declared.keys() - referenced.keys()
    if unused:
        raise ProgramParseError(f"unreferenced targets {sorted(unused)}", 1)
    table = np.empty((0, 7)) if table is None else table[list(referenced.values())]
    return RobotProgram(name, tuple(referenced), table[:, :3], table[:, 3:], tuple(opcodes), speeds)


def _check_targets(values: list[float]) -> tuple[np.ndarray, set[int]]:
    """The declared targets as an (n, 7) array with each quaternion in
    canonical sign, and the rows a TargetPose would reject: a non-finite
    number or a quaternion norm off 1 by more than NEAR_UNIT_TOL."""
    table = np.array(values, dtype=float).reshape(-1, 7)
    norm = quaternion_norms(table[:, 3:])
    ok = np.isfinite(table).all(axis=1) & (np.abs(norm - 1.0) <= NEAR_UNIT_TOL)
    canonical_sign(table[:, 3:])
    return table, set(np.flatnonzero(~ok).tolist())


def _reject_target(
    t: str, row: list[float], kind: MotionKind, speed: float, line_no: int
) -> NoReturn:
    """Raise the error building target t's pose gives, at line_no."""
    try:
        TargetPose(row[:3], Quaternion(*row[3:]), kind, speed)
    except RobopathError as exc:
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
