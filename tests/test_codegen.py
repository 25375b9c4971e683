
import math
import re
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import finite, plan_of, quaternions, random_rotation
from robopath.codegen import (
    _NUMBER_RE,
    _OPCODE_KINDS,
    _OPCODE_OF_FIRST_KIND,
    _TARGET_RE,
    CodegenError,
    Instruction,
    LintFinding,
    Opcode,
    ProgramParseError,
    RobotProgram,
    emit,
    fmt_num,
    load_program,
    lower,
    workspace_lint,
)
from robopath.geometry import Quaternion, rotation_to_quaternion
from robopath.planner import MotionKind, TargetPose
from robopath.scene import Workspace
from robopath.simulate import (
    FORCE_COLUMNS,
    SEAM_COLUMNS,
    SimTrace,
    SimulationError,
    program_waypoints,
)


def pose(x, kind=MotionKind.LINEAR, speed=10.0, interpolated=False, quat=None):
    return TargetPose(
        [float(x), 0.0, 0.0], quat or Quaternion.identity(), kind, speed, interpolated
    )


def plan(poses, name="p"):
    return plan_of(name, tuple(poses), (0,) * len(poses), (False,))


# ---------------------------------------------------------------------------
# lower
# ---------------------------------------------------------------------------


def test_lower_joint_then_linear():
    program = lower(plan([pose(0, MotionKind.JOINT), pose(10)]))
    assert [(i.opcode, i.targets) for i in program.instructions] == [
        (Opcode.MOVEJ, ("t1",)),
        (Opcode.MOVEL, ("t2",)),
    ]
    assert list(program.targets) == ["t1", "t2"]


def test_lower_pairs_circular_moves():
    program = lower(
        plan(
            [
                pose(0, MotionKind.JOINT),
                pose(10, MotionKind.CIRCULAR_VIA),
                pose(20, MotionKind.CIRCULAR_END),
            ]
        )
    )
    assert [(i.opcode, i.targets) for i in program.instructions] == [
        (Opcode.MOVEJ, ("t1",)),
        (Opcode.MOVEC, ("t2", "t3")),
    ]


def test_lower_interpolated_poses_are_movel():
    poses = [pose(0, MotionKind.JOINT)] + [
        pose(2.5 * i, interpolated=True) for i in range(1, 6)
    ]
    program = lower(plan(poses))
    assert [i.opcode for i in program.instructions[1:]] == [Opcode.MOVEL] * 5


def test_lower_spline_run_shares_group():
    poses = [
        pose(0, MotionKind.JOINT),
        pose(10, MotionKind.SPLINE_VIA),
        pose(20, MotionKind.SPLINE_VIA),
        pose(30, MotionKind.LINEAR),
        pose(40, MotionKind.SPLINE_VIA),
    ]
    program = lower(plan(poses))
    assert [i.opcode for i in program.instructions] == [
        Opcode.MOVEJ,
        Opcode.MOVES,
        Opcode.MOVES,
        Opcode.MOVEL,
        Opcode.MOVES,
    ]


def test_lower_rejects_unpaired_circular_via():
    with pytest.raises(CodegenError, match="no end pose"):
        lower(plan([pose(0, MotionKind.JOINT), pose(10, MotionKind.CIRCULAR_VIA)]))
    with pytest.raises(CodegenError, match="no via pose"):
        lower(plan([pose(0, MotionKind.JOINT), pose(10, MotionKind.CIRCULAR_END)]))


def test_instruction_count_accounts_for_circular_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        poses = [pose(0, MotionKind.JOINT)]
        x = 0.0
        pairs = 0
        for _ in range(int(rng.integers(1, 8))):
            x += 10.0
            if rng.random() < 0.3:
                poses.append(pose(x, MotionKind.CIRCULAR_VIA))
                x += 10.0
                poses.append(pose(x, MotionKind.CIRCULAR_END))
                pairs += 1
            else:
                kind = MotionKind.SPLINE_VIA if rng.random() < 0.3 else MotionKind.LINEAR
                poses.append(pose(x, kind))
        program = lower(plan(poses))
        assert len(program.instructions) == len(poses) - pairs


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


def test_emit_identity_target_line():
    program = lower(plan([pose(0, MotionKind.JOINT), pose(10)]))
    text = emit(program)
    assert (
        "TARGET t1 = [0.0000, 0.0000, 0.0000], [1.0000, 0.0000, 0.0000, 0.0000]"
        in text.splitlines()
    )


def test_emit_writes_the_quaternion_sign_a_reload_keeps():
    # w is positive but rounds to 0.0000; reloaded, the rounded components
    # take the canonical sign (first nonzero one positive)
    q = Quaternion(1e-17, -0.6, 0.8, 0.0)
    text = emit(lower(plan([pose(0, MotionKind.JOINT, quat=q)])))
    assert "TARGET t1 = [0.0000, 0.0000, 0.0000], [0.0000, 0.6000, -0.8000, 0.0000]" in text
    assert emit(load_program(text)) == text


def test_emit_layout_and_determinism():
    program = lower(
        plan(
            [
                pose(0, MotionKind.JOINT, speed=12.5),
                pose(10, MotionKind.CIRCULAR_VIA),
                pose(20, MotionKind.CIRCULAR_END),
            ],
            name="demo",
        )
    )
    text = emit(program)
    assert text == emit(program)
    lines = text.splitlines()
    assert lines[0] == "PROGRAM demo"
    assert lines[-1] == "END"
    assert text.endswith("END\n")
    assert "MOVEC t2 t3 SPEED 10.0000" in lines
    assert "MOVEJ t1 SPEED 12.5000" in lines


def test_fmt_num_no_negative_zero_and_fixed_point():
    assert fmt_num(-1e-9) == "0.0000"
    assert fmt_num(1234.56789) == "1234.5679"
    assert fmt_num(-2.5) == "-2.5000"


def test_numbers_below_5e_5_read_zero_and_others_do_not():
    below = float(np.nextafter(5e-5, 0.0))
    for sign in (1.0, -1.0):
        assert f"{sign * below:.4f}" in ("0.0000", "-0.0000")
        assert f"{sign * 5e-5:.4f}" == f"{sign * 0.0001:.4f}"
        assert fmt_num(sign * below) == "0.0000"
        assert fmt_num(sign * 5e-5) == fmt_num(sign * float(np.nextafter(5e-5, 1.0)))


# ---------------------------------------------------------------------------
# emit and to_csv against the per-value formatter
# ---------------------------------------------------------------------------


def reference_fmt_num(value):
    """The per-value formatter the table one replaced."""
    if not math.isfinite(value):
        raise CodegenError(f"cannot write non-finite number {value}")
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


_REFERENCE_FLIPPED_RE = re.compile(r"0\.0000, (?:0\.0000, )*-")


def reference_emit(program):
    """The per-line emit the table one replaced: one formatter call per
    number, and the reload sign decided from each quaternion's text."""

    def quaternion(w, x, y, z):
        text = ", ".join(map(reference_fmt_num, (w, x, y, z)))
        if _REFERENCE_FLIPPED_RE.match(text):
            text = ", ".join(map(reference_fmt_num, (-w, -x, -y, -z)))
        return text

    targets = "".join(
        f"TARGET {name} = [{', '.join(map(reference_fmt_num, p.tolist()))}], "
        f"[{quaternion(*q.tolist())}]\n"
        for name, p, q in zip(program.target_names, program.positions, program.orientations)
    )
    moves = "".join(
        f"{ins.opcode.value} {' '.join(ins.targets)} SPEED {reference_fmt_num(ins.speed)}\n"
        for ins in program.instructions
    )
    return f"PROGRAM {program.name}\n{targets}{moves}END\n"


def reference_to_csv(trace):
    """The per-value SimTrace.to_csv the table one replaced."""
    lines = [",".join(trace.columns + ("status",))]
    for i, row in enumerate(trace.rows):
        status = "ABORTED" if trace.aborted and i == len(trace.rows) - 1 else "OK"
        lines.append(",".join(reference_fmt_num(v) for v in row) + f",{status}")
    return "\n".join(lines) + "\n"


def same_text_or_error(got, want):
    """Both calls give the same text, or the same CodegenError message."""
    try:
        expected = want()
    except CodegenError as exc:
        with pytest.raises(CodegenError) as raised:
            got()
        assert str(raised.value) == str(exc)
        return
    assert got() == expected


_BELOW = float(np.nextafter(5e-5, 0.0))
_ABOVE = float(np.nextafter(5e-5, 1.0))
# numbers at the edge of reading 0.0000, in both signs
_EDGES = [v for e in (5e-5, _BELOW, _ABOVE, 0.00004999, 0.0, 1e-17) for v in (e, -e)]
_NON_FINITE = [math.inf, -math.inf, math.nan]


def table_numbers(large=1e17):
    """Numbers that stress fixed-point writing: edges of reading zero,
    large values and ordinary ones."""
    return st.one_of(
        st.sampled_from(_EDGES),
        finite(-large, large),
        finite(-2.0, 2.0),
        st.sampled_from([large, -large, 1e300, -1e300, 0.5, -0.5, 1.00005, -2.00015]),
    )


@st.composite
def quaternion_rows(draw):
    """(w, x, y, z), often with w reading zero and a negative x, y or z."""
    if draw(st.booleans()):
        w = draw(st.sampled_from([v for v in _EDGES if abs(v) < 5e-5]))
        rest = st.one_of(st.sampled_from(_EDGES), st.sampled_from([-0.6, -0.8, 0.6, -1.0]))
        return [w] + [draw(rest) for _ in range(3)]
    return [draw(table_numbers()) for _ in range(4)]


@st.composite
def table_programs(draw):
    """A RobotProgram of any numbers, a few of them non-finite at times."""
    n = draw(st.integers(0, 12))
    positions = [[draw(table_numbers()) for _ in range(3)] for _ in range(n)]
    orientations = [draw(quaternion_rows()) for _ in range(n)]
    if n and draw(st.integers(0, 4)) == 0:
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, 6))
        (positions if col < 3 else orientations)[row][col % 3 if col < 3 else col - 3] = (
            draw(st.sampled_from(_NON_FINITE))
        )
    opcodes, speeds, i = [], [], 0
    while i < n:
        opcode = Opcode.MOVEC if i + 1 < n and draw(st.booleans()) else Opcode.MOVEL
        opcodes.append(opcode)
        speeds.append(draw(st.one_of(st.sampled_from([1e-9, _BELOW, 5e-5, 1e17]), finite(1e-3, 1e3))))
        i += len(_OPCODE_KINDS[opcode])
    return RobotProgram(
        "p", tuple(f"t{k + 1}" for k in range(n)),
        np.array(positions).reshape(n, 3), np.array(orientations).reshape(n, 4),
        tuple(opcodes), speeds,
    )


@settings(max_examples=200)
@given(table_programs())
@example(RobotProgram("p", ("t1",), [[0.0, -1e-17, 5e-5]], [[-1e-17, -0.0, _BELOW, -0.8]],
                      (Opcode.MOVEJ,), [1e-9]))
@example(RobotProgram("p", ("t1",), [[1.0, 2.0, 3.0]], [[1e-17, -0.6, math.inf, 0.0]],
                      (Opcode.MOVEJ,), [1.0]))
@example(RobotProgram("p", ("t1",), [[1.0, 2.0, 3.0]], [[0.0, -math.inf, 0.5, 0.0]],
                      (Opcode.MOVEJ,), [1.0]))
def test_emit_matches_per_value_reference(program):
    same_text_or_error(lambda: emit(program), lambda: reference_emit(program))


@st.composite
def traces(draw):
    columns = draw(st.sampled_from([SEAM_COLUMNS, FORCE_COLUMNS]))
    n = draw(st.integers(0, 8))
    values = st.one_of(table_numbers(), st.sampled_from(_NON_FINITE)) if draw(
        st.integers(0, 4)) == 0 else table_numbers()
    rows = tuple(tuple(draw(values) for _ in columns) for _ in range(n))
    return SimTrace(columns, rows, draw(st.sampled_from(["OK", "ABORTED"])))


@settings(max_examples=200)
@given(traces())
@example(SimTrace(FORCE_COLUMNS, ((0.0, -1e-17, _BELOW, -5e-5, 1e17, -0.0, 0.00004999),),
                  "ABORTED"))
@example(SimTrace(FORCE_COLUMNS, ((0.0,) * 6 + (math.nan,), (-math.inf,) * 7), "ABORTED"))
def test_to_csv_matches_per_value_reference(trace):
    same_text_or_error(trace.to_csv, lambda: reference_to_csv(trace))


# ---------------------------------------------------------------------------
# load round trip
# ---------------------------------------------------------------------------


def test_emit_load_round_trip_randomized():
    rng = np.random.default_rng(21)
    for _ in range(40):
        poses = [
            TargetPose(
                rng.uniform(-500, 500, size=3),
                rotation_to_quaternion(random_rotation(rng)),
                MotionKind.JOINT if i == 0 else MotionKind.LINEAR,
                float(rng.uniform(1, 50)),
            )
            for i in range(int(rng.integers(2, 6)))
        ]
        program = lower(plan(poses))
        loaded = load_program(emit(program))
        assert loaded.name == program.name
        assert [i.opcode for i in loaded.instructions] == [
            i.opcode for i in program.instructions
        ]
        for name, original in program.targets.items():
            got = loaded.targets[name]
            # every value round-trips within the 4-decimal quantum...
            assert np.abs(got.position - original.position).max() <= 5e-5
            diff = np.abs(got.orientation.as_array() - original.orientation.as_array())
            assert diff.max() <= 5e-5
            assert got.speed == pytest.approx(original.speed, abs=5e-5)
            # ...because the loader preserves the emitted text values exactly
            emitted = [float(fmt_num(v)) for v in original.orientation.as_array()]
            assert list(got.orientation.as_array()) == emitted


# Each step of a random plan is the run of motion kinds that one move takes.
_STEPS = (
    (MotionKind.JOINT,),
    (MotionKind.LINEAR,),
    (MotionKind.SPLINE_VIA,),
    (MotionKind.CIRCULAR_VIA, MotionKind.CIRCULAR_END),
)


@st.composite
def random_plans(draw, step_kinds=_STEPS):
    steps = draw(st.lists(st.sampled_from(step_kinds), min_size=1, max_size=6))
    poses = [
        TargetPose(
            [draw(finite(-1000, 1000)) for _ in range(3)],
            draw(quaternions()),
            kind,
            draw(finite(0.01, 1000)),
        )
        for step in steps
        for kind in step
    ]
    return plan(poses)


@given(random_plans())
def test_emit_load_emit_is_identity_and_keeps_motion_kinds(path):
    program = lower(path)
    text = emit(program)
    loaded = load_program(text)
    assert emit(loaded) == text
    assert list(loaded.targets) == list(program.targets)
    for name, original in program.targets.items():
        assert loaded.targets[name].motion_kind is original.motion_kind


def reference_lower(path):
    """The per-pose `lower` the column one replaced, kept as a reference:
    one Instruction per move, the path checked pose by pose as the moves
    are grouped. Returns the moves."""
    instructions = []
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
    return tuple(instructions)


# single circular poses, which leave a via or an end unpaired
_UNPAIRED_STEPS = _STEPS + ((MotionKind.CIRCULAR_VIA,), (MotionKind.CIRCULAR_END,))


@given(st.one_of(random_plans(), random_plans(_UNPAIRED_STEPS)))
@example(plan([pose(0, MotionKind.JOINT), pose(10, MotionKind.CIRCULAR_VIA), pose(20)]))
@example(plan([pose(0, MotionKind.JOINT), pose(10), pose(20, MotionKind.CIRCULAR_END)]))
@example(plan([pose(0, MotionKind.JOINT), pose(10), pose(20, MotionKind.CIRCULAR_VIA)]))
def test_lower_matches_per_pose_reference(path):
    try:
        instructions = reference_lower(path)
    except CodegenError as expected:
        with pytest.raises(CodegenError) as got:
            lower(path)
        assert str(got.value) == str(expected)
        return
    program = lower(path)
    assert program.instructions == instructions
    names = tuple(t for ins in instructions for t in ins.targets)
    reference = SimpleNamespace(
        name=path.name, target_names=names, positions=path.positions,
        orientations=path.orientations, instructions=instructions,
    )
    assert emit(program) == reference_emit(reference)
    assert tuple(program.targets) == names
    for ins in instructions:
        for t, kind in zip(ins.targets, _OPCODE_KINDS[ins.opcode]):
            row = int(t[1:]) - 1
            got = program.targets[t]
            assert got.motion_kind is kind
            assert got == TargetPose(
                path.positions[row], Quaternion(*path.orientations[row].tolist()), kind, ins.speed
            )


_JUNK_TOKENS = ("inf", "nan", "1e3", "1_0", "+", "t99", "MOVEC", "SPEED", "END")


@st.composite
def mutated_program_texts(draw):
    """A valid program's lines with some dropped, duplicated, swapped or
    retokenised (one word replaced by a word of the program or junk)."""
    lines = emit(lower(draw(random_plans()))).splitlines()
    words = sorted({w for line in lines for w in re.findall(r"[^\s\[\],=]+", line)})
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "retokenise"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = re.split(r"([\s\[\],=]+)", lines[i])
            k = draw(st.sampled_from(range(0, len(parts), 2)))
            parts[k] = draw(st.sampled_from(words + list(_JUNK_TOKENS)))
            lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


@given(mutated_program_texts())
def test_load_mutated_text_raises_only_parse_errors(text):
    try:
        loaded = load_program(text)
    except ProgramParseError:
        return
    assert load_program(emit(loaded)) == loaded


def reference_load(text):
    """The per-target loader `load_program` replaced, kept as a brute-force
    reference: one Quaternion and one TargetPose per target, validated as
    each move references it. Returns (name, {target: pose}, instructions)."""
    name = None
    declared = {}
    targets = {}
    instructions = []
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
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ProgramParseError(
                    f"program name {name!r} must match [A-Za-z_][A-Za-z0-9_]*", line_no
                )
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
    return name, targets, tuple(instructions)


_TARGET_LINE_RE = re.compile(r"TARGET (\S+) = \[(.*)\], \[(.*)\]")
_HUGE = "1" + "0" * 400 + ".0"  # a plain decimal that is inf as a float


@st.composite
def edited_program_texts(draw):
    """A valid program with targeted edits: quaternions with w = 0 and
    negative later components, norms on either side of NEAR_UNIT_TOL, an
    overflowing decimal in a target or a speed, and duplicate, undeclared
    or twice-referenced targets."""
    lines = emit(lower(draw(random_plans()))).splitlines()
    targets = [i for i, line in enumerate(lines) if line.startswith("TARGET")]
    moves = [i for i, line in enumerate(lines) if line.startswith("MOVE")]
    names = [_TARGET_LINE_RE.fullmatch(lines[i]).group(1) for i in targets]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(
            ["w0", "norm", "huge_target", "huge_speed", "duplicate", "undeclared", "twice"]
        ))
        i = draw(st.sampled_from(targets))
        tname, position, quat = _TARGET_LINE_RE.fullmatch(lines[i]).groups()
        numbers = position.split(", ") + quat.split(", ")
        if edit == "w0":
            signs = draw(st.lists(st.sampled_from(["", "-"]), min_size=3, max_size=3))
            body = draw(st.sampled_from([("0.6000", "0.8000", "0.0000"),
                                         ("0.0000", "1.0000", "0.0000"),
                                         ("0.0000", "0.0000", "1.0000"),
                                         ("0.5774", "0.5774", "0.5774")]))
            w = draw(st.sampled_from(["0.0000", "-0.0000"]))
            numbers[3:] = [w] + [s + c for s, c in zip(signs, body)]
        elif edit == "norm":
            k = draw(st.integers(0, 3))
            numbers[3:] = ["0.0000"] * 4
            numbers[3 + k] = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from(
                ["0.9994", "0.9995", "0.9996", "1.0004", "1.0005", "1.0006", "1.0010"]
            ))
        elif edit == "huge_target":
            numbers[draw(st.integers(0, 6))] = draw(st.sampled_from([_HUGE, "-" + _HUGE]))
        elif edit == "huge_speed":
            j = draw(st.sampled_from(moves))
            lines[j] = lines[j].rsplit(" ", 1)[0] + " " + _HUGE
            continue
        elif edit == "duplicate":
            tname = draw(st.sampled_from(names))
        else:
            j = draw(st.sampled_from(moves))
            parts = lines[j].split()
            k = draw(st.integers(1, len(parts) - 3))
            parts[k] = "t99" if edit == "undeclared" else draw(st.sampled_from(names))
            lines[j] = " ".join(parts)
            continue
        lines[i] = (
            f"TARGET {tname} = [{', '.join(numbers[:3])}], [{', '.join(numbers[3:])}]"
        )
    return "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(st.one_of(
    random_plans().map(lambda path: emit(lower(path))),
    mutated_program_texts(),
    edited_program_texts(),
))
def test_load_agrees_with_per_target_reference(text):
    try:
        name, targets, instructions = reference_load(text)
    except ProgramParseError as expected:
        with pytest.raises(ProgramParseError) as got:
            load_program(text)
        assert (str(got.value), got.value.line) == (str(expected), expected.line)
        return
    loaded = load_program(text)
    assert loaded.name == name
    assert loaded.instructions == instructions
    assert loaded.target_names == tuple(targets)
    for row, (t, pose) in enumerate(targets.items()):
        got = loaded.targets[t]
        assert got.position.tolist() == pose.position.tolist()
        assert got.orientation == pose.orientation
        assert got.motion_kind is pose.motion_kind
        assert got.speed == pose.speed
        assert loaded.positions[row].tolist() == pose.position.tolist()
        assert loaded.orientations[row].tolist() == pose.orientation.as_array().tolist()


@given(random_plans())
def test_program_waypoints_match_per_instruction_gather(path):
    for program in (lower(path), load_program(emit(lower(path)))):
        points, speeds = [], []
        for ins in program.instructions:
            for t in ins.targets:
                points.append(program.targets[t].position)
                speeds.append(ins.speed)
        if len(points) < 2:
            with pytest.raises(SimulationError, match="two targets"):
                program_waypoints(program)
            continue
        got_points, got_speeds = program_waypoints(program)
        assert got_points.tolist() == np.array(points).tolist()
        assert got_speeds.tolist() == speeds[1:]


def test_program_columns_are_read_only_and_targets_a_lazy_view():
    program = lower(plan([pose(0, MotionKind.JOINT), pose(10, speed=7.0)]))
    assert program.positions.shape == (2, 3) and program.orientations.shape == (2, 4)
    for column in (program.positions, program.orientations):
        with pytest.raises(ValueError):
            column[0, 0] = 1.0
    assert isinstance(program.targets, Mapping)
    assert len(program.targets) == 2 and "t2" in program.targets and "t3" not in program.targets
    assert program.targets["t2"] == pose(10, speed=7.0)
    with pytest.raises(KeyError):
        program.targets["t3"]
    with pytest.raises(TypeError):
        program.targets["t1"] = pose(5)


# ---------------------------------------------------------------------------
# workspace lint
# ---------------------------------------------------------------------------


BOX = Workspace([-10.0, -10.0, -10.0], [10.0, 10.0, 10.0])


def program_at(*positions):
    poses = [
        TargetPose(p, Quaternion.identity(), MotionKind.JOINT if i == 0 else MotionKind.LINEAR, 5.0)
        for i, p in enumerate(positions)
    ]
    return lower(plan(poses))


def test_lint_accepts_inside_and_boundary():
    assert workspace_lint(program_at([0, 0, 0], [5, 5, 5]), BOX) == []
    assert workspace_lint(program_at([0, 0, 0], [10.0, 0, 0]), BOX) == []  # inclusive


def test_lint_names_target_and_axis():
    findings = workspace_lint(program_at([0, 0, 0], [0, 11.0, 0]), BOX)
    assert len(findings) == 1
    assert findings[0].target == "t2"
    assert findings[0].axis == "y"
    assert "t2" in findings[0].message and "y=" in findings[0].message


def test_lint_agrees_with_bruteforce_on_random_programs():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        lo = rng.uniform(-50, 0, size=3)
        hi = lo + rng.uniform(1, 50, size=3)
        box = Workspace(lo, hi)
        positions = rng.uniform(-60, 60, size=(int(rng.integers(2, 5)), 3))
        program = program_at(*positions)
        findings = workspace_lint(program, box)
        expected = []  # by target, then axis
        for idx, p in enumerate(positions):
            for k, axis in enumerate("xyz"):
                if p[k] < lo[k] or p[k] > hi[k]:
                    message = (f"target t{idx + 1} {axis}={p[k]:.4f} outside workspace "
                               f"[{lo[k]:.4f}, {hi[k]:.4f}]")
                    expected.append((f"t{idx + 1}", axis, message))
        assert [(f.target, f.axis, f.message) for f in findings] == expected


# ---------------------------------------------------------------------------
# program validation
# ---------------------------------------------------------------------------


def test_program_rejects_reused_target():
    t = pose(0, MotionKind.JOINT)
    with pytest.raises(CodegenError):
        RobotProgram(
            "p",
            ("t1", "t1"),
            [t.position] * 2,
            [t.orientation.as_array()] * 2,
            (Opcode.MOVEJ, Opcode.MOVEL),
            [5.0, 5.0],
        )


def test_programs_differing_only_in_a_target_are_unequal():
    program = lower(plan([pose(0, MotionKind.JOINT), pose(10)]))
    assert program == lower(plan([pose(0, MotionKind.JOINT), pose(10)]))
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(99)]))
    turned = Quaternion.from_axis_angle([0, 0, 1], 0.5)
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(10, quat=turned)]))
    # the move columns count too
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(10, MotionKind.SPLINE_VIA)]))
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(10, speed=11.0)]))


def one_pose_columns(n):
    return [[0.0, 0.0, 0.0]] * n, [[1.0, 0.0, 0.0, 0.0]] * n


def test_instruction_arity_checked():
    with pytest.raises(CodegenError):
        RobotProgram("p", ("t1",), *one_pose_columns(1), (Opcode.MOVEC,), [5.0])
    with pytest.raises(CodegenError):
        RobotProgram("p", ("t1", "t2"), *one_pose_columns(2), (Opcode.MOVEL,), [5.0])


@pytest.mark.parametrize("speed", [0.0, math.inf, math.nan])
def test_instruction_speed_must_be_positive_and_finite(speed):
    with pytest.raises(CodegenError, match="positive and finite"):
        RobotProgram("p", ("t1",), *one_pose_columns(1), (Opcode.MOVEL,), [speed])


def test_load_rejects_decimal_speed_that_overflows():
    text = emit(lower(plan([pose(0, MotionKind.JOINT, 5.0), pose(9, speed=5.0)])))
    huge = "1" + "0" * 400 + ".0"  # plain decimal, but inf as a float
    text = text.replace("MOVEL t2 SPEED 5.0000", f"MOVEL t2 SPEED {huge}")
    assert huge in text
    with pytest.raises(ProgramParseError, match="line 5: target 't2'.*finite"):
        load_program(text)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("t2", "tä", 3),  # Latin letter outside ASCII
        ("t2", "t١", 3),  # Arabic-Indic digit one
        ("PROGRAM p", "PROGRAM a;b", 1),
    ],
    ids=["latin_letter", "arabic_digit", "program_name"],
)
def test_load_rejects_names_outside_the_ascii_grammar(old, new, line):
    text = emit(lower(plan([pose(0, MotionKind.JOINT, 5.0), pose(9, speed=5.0)])))
    assert text.startswith("PROGRAM p\n") and text.count(old) == (1 if line == 1 else 2)
    with pytest.raises(ProgramParseError) as err:
        load_program(text.replace(old, new))
    assert err.value.line == line
    expected = (
        "program name 'a;b' must match [A-Za-z_][A-Za-z0-9_]*" if line == 1
        else "malformed TARGET statement"
    )
    assert str(err.value) == f"line {line}: {expected}"
