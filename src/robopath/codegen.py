"""The robot program: its IR, `lower` from a planned path, and the program
text, which `emit` writes and `load_program` reads back. The grammar, its
number pattern and the opcode-to-motion-kind table are defined here once.

The IR is one table, `RobotProgram(name, target_names, positions,
orientations, opcodes, speeds)`: a row per target in reference order and a
row per move, each target's motion kind and speed derived once from its
move's row of the opcode table. Opcodes and motion kinds are held as their
`Opcode` and `MotionKind` codes, integers numbered so that an opcode's code
is that of its first operand's kind; the program text spells each by its
member name. `lower` names the planned poses and groups them into moves
with array masks, taking the path's position and quaternion columns as they
are. `RobotProgram.targets` is a read-only name ->
TargetPose view that builds a pose only when one is looked up. `load_program`
fills the columns in whole-block passes, with no Python step per number or
token: one block pattern checks the target block and one the move block;
numpy's text reader reads every number of the checked TARGET statements, with
`float()`'s rounding, in one pass; the checked moves are split once into
tokens, from which index arrays take the operands and speeds by position; and
only the operand rules (undeclared, referenced twice, rejected pose or speed)
check a column each. The error is that of the first statement in file order
that breaks a rule.

Program grammar. Lines end where `str.splitlines` ends them (LF, CRLF, CR
and the other Unicode line breaks); each is stripped and blank ones are
skipped. What remains is one statement per line, and any other whitespace
inside a statement reads as a blank:

    program := "PROGRAM" name NL { target } { move } "END" NL
    name    := [A-Za-z_][A-Za-z0-9_]*
    target  := "TARGET" name "=" "[" num "," num "," num "]" ","
               "[" num "," num "," num "," num "]" NL
    move    := ("MOVEJ"|"MOVEL"|"MOVES") name "SPEED" num NL
             | "MOVEC" name name "SPEED" num NL
    num     := ["+"|"-"] digits ["." digits]

Each target is referenced by exactly one move. `emit` writes numbers
fixed-point with four decimals; target tuples are [x, y, z], [w, qx, qy, qz].
`fixed_point`, which writes the numbers of programs and traces, rounds and
spells a block of rows in array passes, as `%.4f` would write each number.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterator, Mapping, Sequence
from enum import IntEnum
from functools import cached_property, lru_cache
from itertools import compress, count, islice
from typing import NoReturn

import numpy as np

from .geometry import (
    NEAR_UNIT_TOL,
    ArrayRecord,
    Quaternion,
    Record,
    RobopathError,
    canonical_sign,
    code_column,
    row_norms,
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


class Opcode(IntEnum):
    """Numbered as the `MotionKind` of the opcode's first operand."""

    MOVEJ = 0
    MOVEL = 1
    MOVEC = 2
    MOVES = 3


# The motion kind of each target an opcode takes, in operand order; the
# number of kinds is the opcode's arity. Each opcode's first kind has the
# opcode's code.
_OPCODE_KINDS = {
    Opcode.MOVEJ: (MotionKind.JOINT,),
    Opcode.MOVEL: (MotionKind.LINEAR,),
    Opcode.MOVEC: (MotionKind.CIRCULAR_VIA, MotionKind.CIRCULAR_END),
    Opcode.MOVES: (MotionKind.SPLINE_VIA,),
}
# The table by opcode code: the kind codes padded with -1 to two operands,
# the arity, and the opcode's word in a move statement
_OPERAND_KINDS = np.array([(*_OPCODE_KINDS[op], -1)[:2] for op in Opcode])
_ARITIES = (_OPERAND_KINDS >= 0).sum(axis=1)
_MOVE_WORDS = np.array([f"{op.name} ".encode() for op in Opcode])
_OPCODE_CODES = {op.name: op.value for op in Opcode}
_OPCODES = tuple(Opcode)  # the member of each code
# the opcode code by the fifth letter of its word, which tells the words apart
_OPCODE_BY_LETTER = np.zeros(256, np.intp)
_OPCODE_BY_LETTER[[ord(op.name[4]) for op in Opcode]] = list(Opcode)


class Instruction(Record):
    """One move as a plain record; only `RobotProgram.instructions` builds it."""

    opcode: Opcode
    targets: tuple[str, ...]
    speed: float


class RobotProgram(ArrayRecord):
    """A program as columns: one row per target, in reference order, and
    one row per move.

    Target i is `target_names[i]` at `positions[i]` (x, y, z) and
    `orientations[i]` (w, x, y, z in canonical sign). Move j is opcode code
    `opcodes[j]` at `speeds[j]` and takes the next `arities[j]` targets, one
    per kind in its row of the opcode table; `target_speeds` gives each
    target its move's speed. Arrays passed in are kept without a copy and
    made read-only. Programs are equal when all six columns are; the derived
    columns are not compared.
    """

    name: str
    target_names: tuple[str, ...]
    positions: np.ndarray
    orientations: np.ndarray
    opcodes: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        names = tuple(self.target_names)
        opcodes = code_column(self.opcodes, Opcode, CodegenError, "opcode")
        arities = _ARITIES[opcodes]
        if len(set(names)) != len(names):
            raise CodegenError("a target is referenced by more than one instruction")
        if arities.sum() != len(names):
            raise CodegenError(f"the moves take {arities.sum()} target(s), got {len(names)}")
        shapes = {"positions": (len(names), 3), "orientations": (len(names), 4),
                  "speeds": arities.shape}
        columns = {}
        for attr, shape in shapes.items():
            column = columns[attr] = np.asarray(getattr(self, attr), dtype=float)
            if column.shape != shape:
                raise CodegenError(f"{attr} has shape {column.shape}, expected {shape}")
        speeds = columns["speeds"]
        bad = ~(speeds > 0.0) | ~np.isfinite(speeds)
        if bad.any():
            raise CodegenError(
                f"instruction speed must be positive and finite, got {speeds[bad.argmax()]}"
            )
        self._store(target_names=names, opcodes=opcodes, arities=arities,
                    target_speeds=np.repeat(speeds, arities), **columns)

    @cached_property
    def targets(self) -> Mapping[str, TargetPose]:
        kinds = _OPERAND_KINDS[self.opcodes].ravel()
        poses = pose_rows(self.positions, self.orientations, kinds[kinds >= 0],
                          self.target_speeds, [False] * len(self.target_names))
        return _TargetView(self.target_names, poses)

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        """The moves as Instruction records, built on first use."""
        names = iter(self.target_names)
        return tuple(
            Instruction(_OPCODES[op], tuple(islice(names, arity)), speed)
            for op, arity, speed in zip(self.opcodes.tolist(), self.arities.tolist(),
                                        self.speeds.tolist())
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

# Rows per block, for fixed_point and for the loader's two block patterns
# (its number reader and move tokens take all checked statements at once):
# enough that the cost of each numpy or regex call is small beside a block's
# work, few enough that a block's word matrix stays a few hundred kB.
# Measured on a 2-vCPU VM (medians of 31 calls): 256-row blocks wrote a
# 6.4k-target table about 25 % slower; programs of 6464 and 12 530 statements
# loaded alike at 256 and 1024 rows, and 3-17 % slower as one block, when the
# loader also split its statements into tokens block by block.
_BLOCK_ROWS = 1024


def _digit_groups() -> np.ndarray:
    """The digits of each number 0-9999 as one 4-byte word, in three runs:
    zero-padded (index n), with the leading zeros blank (10000 + n; the
    units digit stays, so 0 reads "0"), and all blank (20000). Blank bytes
    are NUL, which fixed_point drops from the finished text."""
    n = np.arange(10_000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    digits = (n // place % 10 + ord("0")).astype(np.uint8)
    leading_zero = (n < place) & (place > 1)
    blanked = np.where(leading_zero, np.uint8(0), digits)
    return np.vstack([digits, blanked, np.zeros((1, 4), np.uint8)]).view(np.uint32).ravel()


_GROUPS = _digit_groups()
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]
# fixed_point clips numbers to this before scaling them by 1e4, so that the
# scaled numbers stay finite and within int64; every |x| from 2**51 / 1e4 up
# is written with `%.4f` anyway
_CLIP = 2.0**52 / 1e4
_FIELD_RE = re.compile(r"(%s|%\.4f)")


def fixed_point(row_template: str, numbers: np.ndarray, labels=None) -> list[str]:
    """The text of the rows of `numbers`, an (n, k) array, in blocks of up
    to _BLOCK_ROWS rows. Each row is written as `row_template % (label, *row)`,
    or as `row_template % tuple(row)` without `labels`; every number a
    `%.4f` field takes is fixed-point with four decimals, no exponent and no
    negative zero. `labels` are ASCII strings without NUL, or a bytes array
    of them.

    A block is written in array passes: each number is rounded to a whole
    number of 1e-4 by `rint(x * 1e4)` and spelled from a table of 4-digit
    words into one word matrix of the block's rows, whose NUL padding is
    dropped. The product is within half an ulp of x * 10**4, so `rint` rounds
    as `%.4f` does unless a .5 boundary lies within that distance. Only
    those numbers, which take in exact ties and every |x| from 2**51 / 1e4
    up, are written with `%.4f` itself, in the same field.

    Raises CodegenError for the first non-finite number in row order.
    """
    bad = ~np.isfinite(numbers)
    if bad.any():
        value = float(numbers.flat[bad.argmax()])
        raise CodegenError(f"cannot write non-finite number {value}")
    label_words = 0
    if labels is not None:
        labels = np.asarray(labels, dtype="S")
        label_words = -(-labels.itemsize // 4)
        labels = labels.astype(f"S{4 * label_words}", copy=False)
    blocks = []
    for lo in range(0, len(numbers), _BLOCK_ROWS):
        block = numbers[lo : lo + _BLOCK_ROWS]
        scaled = np.clip(block, -_CLIP, _CLIP) * 1e4
        rounded = np.rint(scaled)
        # scaled - rounded is exact, and |scaled| * 2**-52 is at least an ulp
        # of scaled (and 0.5 or more from 2**51 up)
        inexact = np.abs(scaled) * 2.0**-52 >= 0.5 - np.abs(scaled - rounded)
        units, fraction = np.divmod(np.abs(rounded).astype(np.int64), 10_000)
        top = int(units.max(initial=0))
        groups = 1 + (top >= 10_000) + (top >= 10**8)
        width = groups + 3  # words per number: sign, groups, ".", fraction
        rows, cols = np.nonzero(inexact)
        if rows.size:
            values = block[rows, cols]
            # a number that reads zero is written as 0.0, so never as -0.0000
            values[np.abs(values) < _READS_ZERO] = 0.0
            texts = np.array(["%.4f" % v for v in values.tolist()], dtype="S")
            width = max(width, -(-texts.itemsize // 4))
        row, label_at, ends = _row_words(row_template, label_words, width)
        matrix = np.empty((len(block), len(row)), np.uint32)
        matrix[:] = row
        if label_words:
            matrix[:, label_at : label_at + label_words] = (
                labels[lo : lo + _BLOCK_ROWS].view(np.uint32).reshape(len(block), label_words)
            )
        # -0.0 (a number that reads zero) has no sign
        matrix[:, ends - 3 - groups] = np.where(rounded < 0.0, _MINUS, 0)
        matrix[:, ends - 1] = _GROUPS[fraction]
        rest = units
        for g in range(groups):  # units group first
            rest, part = np.divmod(rest, 10_000)
            blank = rest == 0  # nothing above it: no leading zeros
            index = part + 10_000 * blank
            if g:  # above the units group, a zero with nothing above is blank
                index += 10_000 * (blank & (part == 0))
            matrix[:, ends - 3 - g] = _GROUPS[index]
        if rows.size:
            fields = ends[cols, None] - width + np.arange(width)
            matrix[rows[:, None], fields] = (
                texts.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width)
            )
        blocks.append(matrix.tobytes().translate(None, b"\0").decode("ascii"))
    return blocks


@lru_cache(maxsize=16)
def _row_words(row_template: str, label_words: int, width: int):
    """One row of `row_template` as 4-byte words: the row with its literal
    text and each number field's "." in place and NUL elsewhere, the column
    of the label field's first word, and the column after each number
    field, each field `width` words wide. Both arrays are read-only, as the
    cache hands them to every caller."""
    row, label_at, ends = b"", 0, []
    for piece in _FIELD_RE.split(row_template):
        if piece == "%s":
            label_at = len(row) // 4
            row += bytes(4 * label_words)
        elif piece == "%.4f":
            row += bytes(4 * width - 5) + b"." + bytes(4)
            ends.append(len(row) // 4)
        else:
            row += piece.encode("ascii").rjust(-(-len(piece) // 4) * 4, b"\0")
    ends = np.array(ends, np.intp)
    ends.setflags(write=False)
    return np.frombuffer(row, np.uint32), label_at, ends


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
    via, end = kinds == MotionKind.CIRCULAR_VIA, kinds == MotionKind.CIRCULAR_END
    # pose i is a circular end exactly when pose i - 1 is a circular via
    unpaired = np.append(end, False) != np.insert(via, 0, False)
    if unpaired.any():
        i = int(unpaired.argmax())
        if i < len(kinds) and end[i]:
            raise CodegenError(f"path {path.name!r}: circular end at pose {i} has no via pose")
        raise CodegenError(f"path {path.name!r}: circular via at pose {i - 1} has no end pose")
    names = tuple(f"t{i}" for i in range(1, len(kinds) + 1))
    # each move's opcode has the code of its first pose's kind
    return RobotProgram(
        path.name, names, path.positions, path.orientations, kinds[~end], path.speeds[~via]
    )


_TARGET_LINE = "TARGET %s = [%.4f, %.4f, %.4f], [%.4f, %.4f, %.4f, %.4f]\n"
_NAME_LINES_RE = re.compile(rf"(?:{NAME}\n)*")


def emit(program: RobotProgram) -> str:
    """Deterministic program text; identical programs emit identical bytes.

    Refuses, with CodegenError, what `load_program` would refuse, in this
    order: a program or target name outside the name grammar, a non-finite
    target number, a quaternion whose norm as written is off 1 by more
    than NEAR_UNIT_TOL, and a move speed that would be written as 0.0000.
    """
    # every name matches NAME exactly when the names, one per line, match
    # NAME line by line and no name holds a line break
    all_names = (program.name, *program.target_names)
    lines = "\n".join(all_names) + "\n"
    if not _NAME_LINES_RE.fullmatch(lines) or lines.count("\n") != len(all_names):
        i = next(i for i, name in enumerate(all_names) if not NAME_RE.fullmatch(name))
        kind = "target" if i else "program"
        raise CodegenError(f"{kind} name {all_names[i]!r} must match {NAME}")
    names = np.array(program.target_names, dtype="S")  # ASCII, as NAME is
    last = np.cumsum(program.arities) - 1  # the last target of each move
    vias = np.where(program.arities == 2, names[last - 1] + b" ", b"")  # a MOVEC's via
    labels = _MOVE_WORDS[program.opcodes] + vias + names[last]
    targets = fixed_point(_TARGET_LINE, _target_table(program), names)
    # load checks the norm as written. Writing moves each component by at
    # most 5e-5 and so the norm by at most 1e-4 (neither the sign rule nor
    # the reads-zero rule changes it), so a row within NEAR_UNIT_TOL - 2e-4
    # of 1 is written within NEAR_UNIT_TOL with room for float error; only
    # the other rows need their written values.
    near = np.flatnonzero(np.abs(row_norms(program.orientations) - 1.0) > NEAR_UNIT_TOL - 2e-4)
    if near.size:
        written = [[float("%.4f" % v) for v in q] for q in program.orientations[near].tolist()]
        norms = row_norms(written)
        off = np.abs(norms - 1.0) > NEAR_UNIT_TOL
        if off.any():
            k = int(off.argmax())
            raise CodegenError(f"target {program.target_names[near[k]]!r}: "
                               f"quaternion norm is {float(norms[k])!r}, not 1")
    slow = program.speeds < _READS_ZERO  # would read back as 0.0000, which load refuses
    if slow.any():
        raise CodegenError(
            f"speed {program.speeds[slow.argmax()]} mm/s would be written as 0.0000"
        )
    moves = fixed_point("%s SPEED %.4f\n", program.speeds.reshape(-1, 1), labels)
    return "".join([f"PROGRAM {program.name}\n", *targets, *moves, "END\n"])


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


# Block patterns: each matches statements joined one per line, up to the
# first that breaks the grammar. A blank inside a statement is any
# whitespace but the newline that joins them; Python's `\s` and
# `str.isspace` agree on every code point, so the blanks split a statement
# where `str.split` does. The quantifiers are possessive: every repeated
# item is followed by a character it cannot match, so they match what plain
# ones would, without the backtracking state a plain one keeps for each
# line (with it, a seam_dense benchmark call was about 12 % slower: the
# plain-spelling runs in BENCH_20.json). _leading_matches gives a pattern
# _BLOCK_ROWS lines at a time.
_GAP = r"[^\S\n]++"  # one or more blanks
_BLANKS = r"[^\S\n]*+"
_NUM = r"[+-]?+[0-9]++(?:\.[0-9]++)?+"  # grammar `num`
_ARG = rf"{_BLANKS}{_NUM}{_BLANKS}"
_TARGET_LINES_RE = re.compile(
    rf"(?:TARGET{_GAP}{NAME}{_BLANKS}={_BLANKS}\[{_ARG},{_ARG},{_ARG}\]"
    rf"{_BLANKS},{_BLANKS}\[{_ARG},{_ARG},{_ARG},{_ARG}\]\n)*+"
)
# an operand is any token, so one outside the name grammar reads as undeclared
_MOVE_LINES_RE = re.compile(
    rf"(?:(?:(?:MOVEJ|MOVEL|MOVES){_GAP}\S++|MOVEC{_GAP}\S++{_GAP}\S++)"
    rf"{_GAP}SPEED{_GAP}{_NUM}\n)*+"
)
_TARGET_PUNCTUATION = str.maketrans("=[],", "    ")


def load_program(text: str) -> RobotProgram:
    """Parse program text back into a RobotProgram.

    All values are kept exactly as written, so a load/emit cycle is
    lossless. Targets are ordered by their reference in the moves, each
    taking its motion kind from the opcode table. Raises ProgramParseError
    with the offending line number.

    The stripped, non-blank lines are read in a fixed number of passes, with
    no Python step per number or token. Two block patterns, given
    _BLOCK_ROWS statements at a time, check the target block and the move
    block up to the first statement that breaks the grammar; only that
    statement is split on its own, to word its fault. numpy's text reader
    reads the numbers of all checked TARGET statements, each as `float()`
    would; the checked moves are split into tokens once, and index arrays
    take each column from them. Each operand rule checks its column in one
    pass. A target with a non-finite number or a quaternion norm off 1 by
    more than NEAR_UNIT_TOL is refused at the move that references it, with
    the error building its TargetPose gives.

    Which fault wins: that of the first statement in file order that breaks
    a rule, and within it the first rule in this order: PROGRAM header,
    program name; TARGET after motion, malformed TARGET, duplicate target;
    unknown opcode, malformed move, bad speed; then operand by operand:
    undeclared, referenced twice, rejected pose or speed. Missing END,
    content after END and unreferenced targets come after every statement.
    """
    lines = list(map(str.strip, text.splitlines()))
    statements = list(filter(None, lines))

    def fail(message: str, k: int) -> NoReturn:
        """Raise at statements[k]."""
        raise ProgramParseError(message, next(islice(compress(count(1), lines), k, None)))

    if not statements:
        raise ProgramParseError("empty program", 1)
    header = statements[0].split()
    if len(header) != 2 or header[0] != "PROGRAM":
        fail("expected PROGRAM header", 0)
    name = header[1]
    if not NAME_RE.fullmatch(name):
        fail(f"program name {name!r} must match {NAME}", 0)
    try:
        end = statements.index("END", 1)
    except ValueError:
        end = len(statements)
    body = statements[1:end]

    n = _leading_matches(_TARGET_LINES_RE, body)  # the target block is body[:n]
    target_names, values = _target_columns(body[:n])
    k = _first_repeat(target_names)
    if k < n:
        fail(f"duplicate target {target_names[k]!r}", 1 + k)
    if n < len(body) and body[n].startswith("TARGET"):
        fail("malformed TARGET statement", 1 + n)

    declared = dict(zip(target_names, range(n)))
    opcodes, operands, table, speeds, fault = _move_columns(body[n:], declared, values)
    if fault:
        fail(fault[1], 1 + n + fault[0])
    if end == len(statements):
        raise ProgramParseError("missing END", len(lines) or 1)
    if end + 1 < len(statements):
        fail("content after END", end + 1)
    if len(operands) < n:
        unused = sorted(declared.keys() - set(operands))
        raise ProgramParseError(f"unreferenced targets {unused}", 1)
    canonical_sign(table[:, 3:])
    return RobotProgram(name, tuple(operands), table[:, :3], table[:, 3:], opcodes, speeds)


def _leading_matches(block_re: re.Pattern, lines: list[str]) -> int:
    """How many of `lines`, from the first, `block_re` matches; it is given
    _BLOCK_ROWS lines at a time."""
    for lo in range(0, len(lines), _BLOCK_ROWS):
        block = lines[lo : lo + _BLOCK_ROWS]
        text = "\n".join(block) + "\n"
        matched = text.count("\n", 0, block_re.match(text).end())
        if matched < len(block):
            return lo + matched
    return len(lines)


def _target_columns(lines: list[str]) -> tuple[list[str], np.ndarray]:
    """The names and the (n, 7) numbers x, y, z, w, qx, qy, qz, as written,
    of well-formed TARGET statements.

    With its punctuation blanked, each statement is nine blank-separated
    fields: TARGET, the name and the seven numbers. numpy's text reader
    reads the numbers of all statements in one pass; it hands each field to
    the parser `float()` uses, so every value has `float()`'s bits, and one
    too large for a float reads as inf, as it does with `float()`.
    """
    if not lines:  # loadtxt warns on empty input
        return [], np.empty((0, 7))
    text = "\n".join(lines).translate(_TARGET_PUNCTUATION)
    names = [line.split(None, 2)[1] for line in text.split("\n")]
    values = np.loadtxt(io.StringIO(text), float, comments=None, usecols=range(2, 9), ndmin=2)
    return names, values


def _move_columns(moves: list[str], declared: dict[str, int], values: np.ndarray):
    """The opcode codes, the operand names, the rows of `values` they name
    and the speeds of the move statements, and their first fault as (index
    in `moves`, message), or None.

    _MOVE_LINES_RE finds the first statement that breaks a syntactic rule,
    and _move_fault words it. The statements before it are split as one
    string into tokens. Each opcode comes from its word's fifth letter, and
    the operands and speeds are taken from the tokens by position, so a
    token is never read by its value: an operand spelled SPEED is a name.
    Each operand rule then checks its column once, over the moves before the
    first fault found so far, so a later rule can only find an earlier fault.
    """
    k = _leading_matches(_MOVE_LINES_RE, moves)  # moves[:k] are well-formed
    fault = _move_fault(moves[k]) if k < len(moves) else None
    opcodes = _OPCODE_BY_LETTER[np.array(moves[:k], dtype="U5").view(np.uint32)[4::5]]
    arities = _ARITIES[opcodes]
    tokens = np.array(" ".join(moves[:k]).split(), dtype=object)
    owners = np.repeat(np.arange(k), arities)  # the move of each operand
    # a move's tokens are its opcode, operands, SPEED and speed, so three
    # tokens per earlier move and the move's opcode precede an operand
    operands = tokens[np.arange(len(owners)) + 3 * owners + 1].tolist()
    speeds = tokens[np.cumsum(arities) + 3 * np.arange(k) + 2].astype(float)

    rows = list(map(declared.get, operands))
    j = len(operands)  # operands[:j] keep every operand rule checked so far
    if None in rows:
        j = rows.index(None)
        k, fault = owners[j], f"undeclared target {operands[j]!r}"
    index = np.fromiter(rows, np.intp, j)
    if np.bincount(index).max(initial=0) > 1:  # a target is referenced twice
        j = _first_repeat(operands[:j])
        k, fault = owners[j], f"target {operands[j]!r} referenced twice"
    table = values[index[:j]]
    rejected = ~np.isfinite(table).all(axis=1)
    rejected |= ~(np.abs(row_norms(table[:, 3:]) - 1.0) <= NEAR_UNIT_TOL)
    rejected |= ~((speeds > 0.0) & np.isfinite(speeds))[owners[:j]]
    if rejected.any():
        j = int(rejected.argmax())
        k = owners[j]
        fault = _rejection(operands[j], table[j].tolist(), float(speeds[k]))
    return opcodes, operands, table, speeds, None if fault is None else (int(k), fault)


def _move_fault(move: str) -> str:
    """The message for a move statement _MOVE_LINES_RE stops at: the first
    rule it breaks of TARGET after motion, unknown opcode, malformed move
    and bad speed."""
    parts = move.split()
    word = parts[0]
    if word not in _OPCODE_CODES:
        return ("TARGET after motion statements" if word.startswith("TARGET")
                else f"unknown opcode {word!r}")
    if len(parts) != _ARITIES[_OPCODE_CODES[word]] + 3 or parts[-2] != "SPEED":
        return f"malformed {word} statement"
    return f"bad speed {parts[-1]!r}"


def _first_repeat(names: list[str]) -> int:
    """The index of the first name in `names` that an earlier one repeats,
    or len(names)."""
    if len(set(names)) == len(names):
        return len(names)
    seen: set[str] = set()
    return next(i for i, name in enumerate(names) if name in seen or seen.add(name))


def _rejection(t: str, row: list[float], speed: float) -> str:
    """The error building target t's pose gives; a pose's motion kind is
    never refused, so any kind will do."""
    try:
        TargetPose(row[:3], Quaternion(*row[3:]), MotionKind.LINEAR, speed)
    except RobopathError as exc:
        return f"target {t!r}: {exc}"
    raise AssertionError(f"target {t!r} passes the pose checks it was rejected by")


class LintFinding(Record):
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
