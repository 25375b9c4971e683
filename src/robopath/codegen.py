"""The robot program: its IR, `lower` from planned poses, and the program
text, which `emit` writes and `load_program` reads back. The grammar, its
number pattern and the opcode-to-motion-kind table are defined here once.

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
from dataclasses import dataclass, field
from enum import Enum

from .geometry import Quaternion
from .planner import MotionKind, PlannedPath, TargetPose
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


@dataclass(frozen=True)
class RobotProgram:
    name: str
    targets: dict[str, TargetPose] = field(compare=False)
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        referenced = [t for ins in self.instructions for t in ins.targets]
        if len(set(referenced)) != len(referenced):
            raise CodegenError("a target is referenced by more than one instruction")
        declared = set(self.targets)
        if set(referenced) != declared:
            raise CodegenError("declared targets and instruction references differ")


def fmt_num(value: float) -> str:
    """Fixed-point, four decimals, no exponent, no negative zero."""
    if not math.isfinite(value):
        raise CodegenError(f"cannot write non-finite number {value}")
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def lower(path: PlannedPath) -> RobotProgram:
    """Map poses onto motion instructions.

    Each opcode takes the run of poses whose motion kinds match its row of
    the opcode table: one pose for joint, linear and spline moves, a
    circular via pose followed by a circular end pose for MOVEC. Targets are
    named t1, t2, ... in path order and never deduplicated, so every pose
    stays traceable to its source index.
    """
    targets: dict[str, TargetPose] = {}
    instructions: list[Instruction] = []
    poses = path.poses
    i = 0
    while i < len(poses):
        opcode = _OPCODE_OF_FIRST_KIND.get(poses[i].motion_kind)
        if opcode is None:
            raise CodegenError(
                f"path {path.name!r}: circular end at pose {i} has no via pose"
            )
        names = []
        for kind in _OPCODE_KINDS[opcode]:
            if i == len(poses) or poses[i].motion_kind is not kind:
                raise CodegenError(
                    f"path {path.name!r}: circular via at pose {i - 1} has no end pose"
                )
            names.append(f"t{i + 1}")
            targets[names[-1]] = poses[i]
            i += 1
        instructions.append(Instruction(opcode, tuple(names), poses[i - 1].speed))
    return RobotProgram(path.name, targets, tuple(instructions))


# A quaternion text whose w reads 0.0000 and whose first nonzero component is
# negative; reloaded, the Quaternion constructor's canonical sign flips it.
_FLIPPED_ON_RELOAD_RE = re.compile(r"0\.0000, (?:0\.0000, )*-")


def _fmt_quaternion(q: Quaternion) -> str:
    text = f"{fmt_num(q.w)}, {fmt_num(q.x)}, {fmt_num(q.y)}, {fmt_num(q.z)}"
    if _FLIPPED_ON_RELOAD_RE.match(text):
        # the same rotation, written with the sign a reload gives it
        text = f"{fmt_num(-q.w)}, {fmt_num(-q.x)}, {fmt_num(-q.y)}, {fmt_num(-q.z)}"
    return text


def emit(program: RobotProgram) -> str:
    """Deterministic program text; identical programs emit identical bytes."""
    lines = [f"PROGRAM {program.name}"]
    for name, pose in program.targets.items():
        x, y, z = pose.position
        lines.append(
            f"TARGET {name} = [{fmt_num(x)}, {fmt_num(y)}, {fmt_num(z)}], "
            f"[{_fmt_quaternion(pose.orientation)}]"
        )
    for ins in program.instructions:
        names = " ".join(ins.targets)
        lines.append(f"{ins.opcode.value} {names} SPEED {fmt_num(ins.speed)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


_NUM = r"\s*([+-]?[0-9]+(?:\.[0-9]+)?)\s*"  # grammar `num`, with its blanks
_NUMBER_RE = re.compile(_NUM)
_TARGET_RE = re.compile(
    rf"TARGET\s+([A-Za-z_]\w*)\s*=\s*\[{_NUM},{_NUM},{_NUM}\]"
    rf"\s*,\s*\[{_NUM},{_NUM},{_NUM},{_NUM}\]"
)


def load_program(text: str) -> RobotProgram:
    """Parse program text back into a RobotProgram.

    All values are kept exactly as written, so a load/emit cycle is
    lossless. Targets are ordered by their reference in the moves, each
    taking its motion kind from the opcode table. Raises ProgramParseError
    with the offending line number.
    """
    name = None
    declared: dict[str, list[float]] = {}  # x, y, z, w, qx, qy, qz
    targets: dict[str, TargetPose] = {}
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
            tname, *values = m.groups()
            if tname in declared:
                raise ProgramParseError(f"duplicate target {tname!r}", line_no)
            declared[tname] = [float(v) for v in values]
            continue
        parts = line.split()
        try:
            opcode = Opcode(parts[0])
        except ValueError:
            raise ProgramParseError(f"unknown opcode {parts[0]!r}", line_no) from None
        kinds = _OPCODE_KINDS[opcode]
        n_names = len(kinds)
        if len(parts) != n_names + 3 or parts[n_names + 1] != "SPEED":
            raise ProgramParseError(f"malformed {opcode.value} statement", line_no)
        if not _NUMBER_RE.fullmatch(parts[-1]):
            raise ProgramParseError(f"bad speed {parts[-1]!r}", line_no)
        speed = float(parts[-1])
        names = tuple(parts[1 : 1 + n_names])
        for t, kind in zip(names, kinds):
            if t not in declared:
                raise ProgramParseError(f"undeclared target {t!r}", line_no)
            if t in targets:
                raise ProgramParseError(f"target {t!r} referenced twice", line_no)
            values = declared[t]
            try:
                # components kept exactly as written so values survive reload
                quat = Quaternion(*values[3:])
                targets[t] = TargetPose(values[:3], quat, kind, speed)
            except ValueError as exc:
                raise ProgramParseError(f"target {t!r}: {exc}", line_no) from exc
        instructions.append(Instruction(opcode, names, speed))

    if name is None:
        raise ProgramParseError("empty program", 1)
    if not ended:
        raise ProgramParseError("missing END", len(text.splitlines()) or 1)
    unused = set(declared) - set(targets)
    if unused:
        raise ProgramParseError(f"unreferenced targets {sorted(unused)}", 1)
    return RobotProgram(name, targets, tuple(instructions))


@dataclass(frozen=True)
class LintFinding:
    """A target position outside the declared workspace box."""

    target: str
    axis: str
    message: str


def workspace_lint(program: RobotProgram, workspace: Workspace) -> list[LintFinding]:
    """Flag every target coordinate outside the box; bounds are inclusive."""
    findings = []
    for name, pose in program.targets.items():
        for k, axis in enumerate("xyz"):
            v = float(pose.position[k])
            lo, hi = float(workspace.lo[k]), float(workspace.hi[k])
            if v < lo or v > hi:
                findings.append(
                    LintFinding(
                        name,
                        axis,
                        f"target {name} {axis}={v:.4f} outside workspace "
                        f"[{lo:.4f}, {hi:.4f}]",
                    )
                )
    return findings
