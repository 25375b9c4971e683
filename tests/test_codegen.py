
import dataclasses
import math
import operator
import re
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import (
    FIXTURES,
    axis_angle_quaternion,
    finite,
    plan_of,
    quaternions,
    random_rotation,
)
from robopath.codegen import (
    _BLOCK_ROWS,
    _GROUPS,
    _OPCODE_KINDS,
    CodegenError,
    Instruction,
    LintFinding,
    Opcode,
    ProgramParseError,
    RobotProgram,
    emit,
    fixed_point,
    load_program,
    lower,
    workspace_lint,
)
from robopath.geometry import NEAR_UNIT_TOL, Quaternion, rotation_to_quaternion
from robopath.planner import MotionKind, PlanningError, TargetPose
from robopath.scene import NAME, NAME_RE, Workspace
from robopath.simulate import (
    FORCE_COLUMNS,
    SEAM_COLUMNS,
    SimTrace,
    SimulationError,
    _PathProfile,
)


def pose(x, kind=MotionKind.LINEAR, speed=10.0, interpolated=False, quat=None):
    return TargetPose(
        [float(x), 0.0, 0.0], quat or Quaternion.identity(), kind, speed, interpolated
    )


def plan(poses, name="p"):
    return plan_of(name, tuple(poses), (0,) * len(poses), (False,))


# The opcode table as the references below read it, written out here so
# that no reference reads the table it checks.
_REF_OPCODE_KINDS = {
    Opcode.MOVEJ: (MotionKind.JOINT,),
    Opcode.MOVEL: (MotionKind.LINEAR,),
    Opcode.MOVEC: (MotionKind.CIRCULAR_VIA, MotionKind.CIRCULAR_END),
    Opcode.MOVES: (MotionKind.SPLINE_VIA,),
}


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


def fmt_num(value):
    """One number as `fixed_point` writes it."""
    return "".join(fixed_point("%.4f", np.array([[value]])))


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


def test_fmt_num_rounds_exact_ties_to_even():
    assert fmt_num(0.03125) == "0.0312"
    assert fmt_num(0.09375) == "0.0938"
    assert fmt_num(-0.15625) == "-0.1562"


def test_group_table_spells_each_4_digit_group():
    spellings = [f"{n:04d}" for n in range(10_000)] + [f"{n:4d}" for n in range(10_000)]
    want = np.frombuffer("".join(spellings + ["    "]).replace(" ", "\0").encode(), np.uint32)
    assert np.array_equal(_GROUPS, want)


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


def reference_emit(program, refuse_norms=True):
    """The per-line emit the table one replaced: one formatter call per
    number, and the reload sign decided from each quaternion's text; a name
    or quaternion norm the loader refuses is refused per name and per row,
    the norm taken of the quaternion as written. With `refuse_norms` false,
    the text is written whatever the norms."""
    if not NAME_RE.fullmatch(program.name):
        raise CodegenError(f"program name {program.name!r} must match {NAME}")
    for name in program.target_names:
        if not NAME_RE.fullmatch(name):
            raise CodegenError(f"target name {name!r} must match {NAME}")

    def quaternion(w, x, y, z):
        text = ", ".join(map(reference_fmt_num, (w, x, y, z)))
        if _REFERENCE_FLIPPED_RE.match(text):
            text = ", ".join(map(reference_fmt_num, (-w, -x, -y, -z)))
        return text

    quaternions = [quaternion(*q) for q in program.orientations.tolist()]
    targets = "".join(
        f"TARGET {name} = [{', '.join(map(reference_fmt_num, p.tolist()))}], [{q}]\n"
        for name, p, q in zip(program.target_names, program.positions, quaternions)
    )
    for name, q in zip(program.target_names, quaternions):
        w, x, y, z = map(float, q.split(", "))
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if refuse_norms and abs(norm - 1.0) > NEAR_UNIT_TOL:
            raise CodegenError(f"target {name!r}: quaternion norm is {norm!r}, not 1")
    moves = ""
    for ins in program.instructions:
        speed = reference_fmt_num(ins.speed)
        if speed == "0.0000":  # load refuses it
            raise CodegenError(f"speed {ins.speed} mm/s would be written as 0.0000")
        moves += f"{ins.opcode.name} {' '.join(ins.targets)} SPEED {speed}\n"
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
    """(w, x, y, z): mostly unit rows, often with w reading zero and a
    negative x, y or z; at times any numbers, which are rarely near unit
    norm."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return [draw(table_numbers()) for _ in range(4)]
    if kind < 4:
        return (draw(st.sampled_from([1.0, -1.0])) * draw(quaternions()).as_array()).tolist()
    w = draw(st.sampled_from([v for v in _EDGES if abs(v) < 5e-5]))
    xyz = [draw(st.sampled_from(_EDGES)) for _ in range(3)]
    big = draw(st.sampled_from([(-1.0,), (1.0,), (-0.6, -0.8), (0.6, -0.8), (-0.8, 0.6)]))
    for k, v in zip(draw(st.permutations(range(3))), big):
        xyz[k] = v
    return [w] + xyz


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
        i += len(_REF_OPCODE_KINDS[opcode])
    return RobotProgram(
        "p", tuple(f"t{k + 1}" for k in range(n)),
        np.array(positions).reshape(n, 3), np.array(orientations).reshape(n, 4),
        tuple(opcodes), speeds,
    )


@settings(max_examples=200)
@given(table_programs())
@example(RobotProgram("p", ("t1",), [[0.0, -1e-17, 5e-5]], [[-1e-17, -0.0, _BELOW, -1.0]],
                      (Opcode.MOVEJ,), [1e-9]))
@example(RobotProgram("p", ("t1",), [[0.0, -1e-17, 5e-5]], [[-1e-17, -0.0, _BELOW, -1.0]],
                      (Opcode.MOVEJ,), [5e-5]))
@example(RobotProgram("p", ("t1",), [[0.0, 0.0, 0.0]], [[2.0, 0.0, 0.0, 0.0]],
                      (Opcode.MOVEJ,), [1e-9]))
@example(RobotProgram("a b", ("t1",), [[math.nan, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]],
                      (Opcode.MOVEJ,), [1.0]))
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
# fixed_point against the `%` writer
# ---------------------------------------------------------------------------


def reference_fixed_point(row_template, numbers, labels=None):
    """The `%`-block fixed_point the array one replaced: each block of 256
    rows is written by one `row_template * rows % args`."""
    bad = ~np.isfinite(numbers)
    if bad.any():
        value = float(numbers.flat[bad.argmax()])
        raise CodegenError(f"cannot write non-finite number {value}")
    width = numbers.shape[1] + (labels is not None)
    blocks = []
    for lo in range(0, len(numbers), 256):
        block = numbers[lo : lo + 256]
        # a number that reads zero is written as 0.0, so never as -0.0000
        block = np.where(np.abs(block) < 5e-5, 0.0, block)
        if labels is None:
            args = block.ravel().tolist()
        else:
            args = [None] * (len(block) * width)
            args[0::width] = labels[lo : lo + 256]
            for j in range(1, width):
                args[j::width] = block[:, j - 1].tolist()
        blocks.append(row_template * len(block) % tuple(args))
    return blocks


def ulps_from(x, n):
    """x moved n ulps, up for n > 0."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, math.copysign(math.inf, n)))
    return x


def rounding_numbers():
    """Numbers where `rint(x * 1e4)` could round other than `%.4f` does:
    exact ties, one ulp either side of a tie, either side of 2**52 / 1e4 and
    beyond; and the edges of reading zero and ordinary numbers."""
    k = st.integers(0, 10**7)
    return st.builds(operator.mul, st.sampled_from([1.0, -1.0]), st.one_of(
        k.map(lambda k: (2 * k + 1) / 32),
        st.builds(lambda k, n: ulps_from(k / 1e4 + 5e-5, n), k, st.integers(-1, 1)),
        st.builds(ulps_from, st.sampled_from([2.0**52 / 1e4, 2.0**51 / 1e4, 4.5e11]),
                  st.integers(-2, 2)),
        finite(0.0, 1e308),
        finite(0.0, 2e4),
        st.sampled_from(_EDGES),
    ))


_FP_TARGET_LINE = "TARGET %s = [%.4f, %.4f, %.4f], [%.4f, %.4f, %.4f, %.4f]\n"


@st.composite
def fixed_point_cases(draw):
    """(row template, numbers, labels as fixed_point is given them, labels
    as strings): a table of one of the three row templates, its numbers and
    labels drawn from small pools, with row counts either side of a block."""
    pool = draw(st.lists(rounding_numbers(), min_size=1, max_size=12))
    if draw(st.integers(0, 9)) == 0:
        pool.append(draw(st.sampled_from(_NON_FINITE)))
    rows = draw(st.sampled_from([0, 1, 2, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                 2 * _BLOCK_ROWS + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(st.lists(st.from_regex(NAME_RE, fullmatch=True), min_size=1, max_size=4))
    template = draw(st.sampled_from([_FP_TARGET_LINE, "%s SPEED %.4f\n", "csv"]))
    if template == "csv":
        columns = draw(st.sampled_from([SEAM_COLUMNS, FORCE_COLUMNS]))
        status = draw(st.sampled_from(["OK", "ABORTED"]))
        template = ",".join(["%.4f"] * len(columns)) + f",{status}\n"
        texts = labels = None
    elif template == _FP_TARGET_LINE:
        texts = labels = tuple(rng.choice(names, rows).tolist())
    else:
        moves = [f"{word} {a}" for word in ("MOVEJ", "MOVEL", "MOVES") for a in names]
        moves += [f"MOVEC {a} {b}" for a in names for b in names]
        texts = rng.choice(moves, rows).tolist()
        labels = np.array(texts, dtype="S")  # as emit gives them
    numbers = rng.choice(pool, (rows, template.count("%.4f")))
    return template, numbers, labels, texts


@settings(max_examples=200, deadline=None)  # two blocks can outlast the default
@given(fixed_point_cases())
@example((_FP_TARGET_LINE, np.array([[0.03125, -0.09375, 1e308, -2.0**52, 2.0**52 / 1e4,
                                      -_BELOW, 5e-5]]), ("t1",), ("t1",)))
def test_fixed_point_matches_percent_reference(case):
    template, numbers, labels, texts = case
    same_text_or_error(lambda: "".join(fixed_point(template, numbers, labels)),
                       lambda: "".join(reference_fixed_point(template, numbers, texts)))


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
    try:
        return plan(poses)
    except PlanningError:  # two poses in a row drawn the same, which no plan holds
        reject()


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
    first_kinds = {kinds[0]: op for op, kinds in _REF_OPCODE_KINDS.items()}
    instructions = []
    kinds, speeds = list(map(MotionKind, path.kinds.tolist())), path.speeds.tolist()
    i = 0
    while i < len(kinds):
        opcode = first_kinds.get(kinds[i])
        if opcode is None:
            raise CodegenError(
                f"path {path.name!r}: circular end at pose {i} has no via pose"
            )
        names = []
        for kind in _REF_OPCODE_KINDS[opcode]:
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
        for t, kind in zip(ins.targets, _REF_OPCODE_KINDS[ins.opcode]):
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


# The line grammar as the reference loader reads it, one statement at a time,
# written out here so the reference shares no pattern with the loader.
_REF_NUM = r"\s*([+-]?[0-9]+(?:\.[0-9]+)?)\s*"
_REF_NUMBER_RE = re.compile(_REF_NUM)
_REF_TARGET_RE = re.compile(
    rf"TARGET\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\[{_REF_NUM},{_REF_NUM},{_REF_NUM}\]"
    rf"\s*,\s*\[{_REF_NUM},{_REF_NUM},{_REF_NUM},{_REF_NUM}\]"
)


def reference_load(text):
    """A per-statement loader kept as a brute-force reference: one loop
    iteration per line, and one Quaternion and one TargetPose per target,
    validated as each move references it. Returns (name, {target: pose},
    instructions)."""
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
            m = _REF_TARGET_RE.fullmatch(line)
            if not m:
                raise ProgramParseError("malformed TARGET statement", line_no)
            tname, *values = m.groups()
            if tname in declared:
                raise ProgramParseError(f"duplicate target {tname!r}", line_no)
            declared[tname] = [float(v) for v in values]
            continue
        parts = line.split()
        try:
            opcode = Opcode[parts[0]]
        except KeyError:
            raise ProgramParseError(f"unknown opcode {parts[0]!r}", line_no) from None
        kinds = _REF_OPCODE_KINDS[opcode]
        n_names = len(kinds)
        if len(parts) != n_names + 3 or parts[n_names + 1] != "SPEED":
            raise ProgramParseError(f"malformed {opcode.name} statement", line_no)
        if not _REF_NUMBER_RE.fullmatch(parts[-1]):
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


# Whitespace the grammar reads as a blank inside a statement, and line breaks
# `str.splitlines` splits on besides LF.
_INLINE_BLANKS = ("\t", "\x1f", "\xa0", "\u3000", " ")
_LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


def _program_texts():
    return st.one_of(
        random_plans().map(lambda path: emit(lower(path))),
        mutated_program_texts(),
        edited_program_texts(),
    )


@st.composite
def respaced_program_texts(draw):
    """A text of the other program strategies with blanks inserted anywhere
    (between tokens, inside one, at a line's ends), spaces swapped for other
    blanks, LF swapped for other line breaks, blank or blanks-only lines
    added, and statements split by a line break."""
    text = draw(_program_texts())
    for _ in range(draw(st.integers(1, 8))):
        edit = draw(st.sampled_from(["insert", "swap_space", "swap_break", "blank_line", "split"]))
        if edit == "swap_space" and " " in text:
            i = draw(st.sampled_from([i for i, c in enumerate(text) if c == " "]))
            text = text[:i] + draw(st.sampled_from(_INLINE_BLANKS)) + text[i + 1 :]
        elif edit == "swap_break" and "\n" in text:
            i = draw(st.sampled_from([i for i, c in enumerate(text) if c == "\n"]))
            text = text[:i] + draw(st.sampled_from(_LINE_BREAKS)) + text[i + 1 :]
        elif edit == "blank_line":
            i = draw(st.sampled_from([0] + [i + 1 for i, c in enumerate(text) if c == "\n"]))
            blanks = draw(st.sampled_from(["", *_INLINE_BLANKS]))
            text = text[:i] + blanks + draw(st.sampled_from(_LINE_BREAKS)) + text[i:]
        elif edit == "split":  # a line break inside a statement
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(("\n", *_LINE_BREAKS))) + text[i:]
        else:  # a blank next to a separator, which keeps a statement whole, or anywhere
            separators = [i for i, c in enumerate(text) if c in " ,[]=\n"]
            if separators and draw(st.booleans()):
                i = draw(st.sampled_from(separators)) + draw(st.integers(0, 1))
            else:
                i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(_INLINE_BLANKS)) + text[i:]
    return text


def assert_loads_as_reference(text):
    """load_program refuses `text` with reference_load's error text and
    line, or loads it as reference_load does."""
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


@settings(max_examples=400)
@given(st.one_of(_program_texts(), respaced_program_texts()))
def test_load_agrees_with_per_target_reference(text):
    assert_loads_as_reference(text)


def block_seam_program(fault=None, k=0):
    """A program of two loader blocks plus 3 targets, each moved to once in
    order, with `fault` put at target k or at move k, and the line of that
    statement. A rejected pose is refused at the move that names it."""
    n = 2 * _BLOCK_ROWS + 3
    targets = [f"TARGET t{i} = [{i}, 0, 0], [1, 0, 0, 0]" for i in range(n)]
    moves = [f"{'MOVEL' if i else 'MOVEJ'} t{i} SPEED 10" for i in range(n)]
    if fault == "malformed_target":
        targets[k] = targets[k].replace("],", "]")
    elif fault == "duplicate_target":
        targets[k] = targets[k].replace(f"t{k} ", "t0 ")
    elif fault == "rejected_pose":
        targets[k] = targets[k].replace("[1,", "[2,")
    elif fault == "unknown_opcode":
        moves[k] = moves[k].replace("MOVEL", "MOVEX")
    elif fault == "undeclared_operand":
        moves[k] = moves[k].replace(f"t{k} ", "t_none ")
    line = 2 + k + n * (fault not in ("malformed_target", "duplicate_target"))
    return "\n".join(["PROGRAM seams", *targets, *moves, "END", ""]), line


@pytest.mark.parametrize("k", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("fault", ["malformed_target", "duplicate_target", "unknown_opcode",
                                   "undeclared_operand", "rejected_pose"])
def test_load_agrees_with_reference_on_a_fault_beside_a_block_seam(fault, k):
    text, line = block_seam_program(fault, k)
    with pytest.raises(ProgramParseError) as err:
        reference_load(text)
    assert err.value.line == line
    assert_loads_as_reference(text)


def test_load_agrees_with_reference_across_block_seams():
    text, _ = block_seam_program()
    assert len(reference_load(text)[1]) == 2 * _BLOCK_ROWS + 3
    assert_loads_as_reference(text)


_DIGITS = "0123456789"


@st.composite
def grammar_numbers(draw):
    """A grammar `num`: an optional sign, leading zeros, up to 30 integer
    and 30 fraction digits; or a signed zero, a 400-digit run that
    overflows to inf, or a fraction below the least subnormal."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = "0" * draw(st.integers(0, 3)) + draw(st.text(_DIGITS, min_size=1, max_size=30))
    fraction = draw(st.text(_DIGITS, max_size=30))
    drawn = sign + whole + ("." + fraction if fraction else "")
    return draw(st.sampled_from(
        [drawn, "-0", "+0.0000", sign + "7" * 400, sign + "0." + "0" * 330 + "1"]
    ))


@st.composite
def target_number_programs(draw):
    """A program whose targets' positions are grammar numbers, with blanks
    of _INLINE_BLANKS around its punctuation, and the position tokens."""
    rows = draw(st.lists(st.lists(grammar_numbers(), min_size=3, max_size=3),
                         min_size=1, max_size=4))
    blanks = st.sampled_from(_INLINE_BLANKS)
    targets = []
    for i, row in enumerate(rows):
        b = [draw(blanks) for _ in range(6)]
        targets.append(f"TARGET{b[0]}t{i}{b[1]}={b[2]}[{row[0]},{b[3]}{row[1]}{b[4]},{row[2]}]"
                       f",{b[5]}[1, 0, 0, 0]")
    moves = [f"MOVEL{draw(blanks)}t{i} SPEED 5" for i in range(len(rows))]
    return "\n".join(["PROGRAM p", *targets, *moves, "END", ""]), rows


@settings(max_examples=200)
@given(target_number_programs())
def test_load_reads_each_number_with_the_bits_of_float(case):
    text, rows = case
    want = np.array([[float(token) for token in row] for row in rows])
    if np.isfinite(want).all():
        positions = load_program(text).positions
        assert positions.view(np.int64).tolist() == want.view(np.int64).tolist()
    else:
        with pytest.raises(ProgramParseError):
            reference_load(text)
        assert_loads_as_reference(text)


def _program(*statements):
    return "\n".join(["PROGRAM p", *statements, ""])


_T1 = "TARGET t1 = [0, 0, 0], [1, 0, 0, 0]"
_T2 = "TARGET t2 = [1, 0, 0], [1, 0, 0, 0]"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (_program(_T1, _T2.replace("t2", "t1"), "TARGET t2 = [2, 0, 0], [1, 0, 0]",
                  "MOVEJ t1 SPEED 5", "END"), 3, "duplicate target 't1'"),
        (_program(_T1, _T2.replace("],", "]"), "MOVEJ t1 SPEED fast", "MOVEX t2 SPEED 5", "END"),
         3, "malformed TARGET statement"),
        (_program(_T1, _T2, "MOVEJ t9 SPEED 5", "MOVEL t1 SPEED 5x", "END"),
         4, "undeclared target 't9'"),
        (_program(_T1, _T2, "MOVEJ t1 SPEED fast", "MOVEL t9 SPEED 5", "END"),
         4, "bad speed 'fast'"),
        (_program(_T1, _T2, "MOVEC t1 t9 SPEED 5", "END"), 4, "undeclared target 't9'"),
        (_program(_T1, _T2, "MOVEC t1 t1 SPEED 5", "END"), 4, "target 't1' referenced twice"),
        (_program(_T1, _T2, "MOVEC t1 t9 SPEED 0", "END"),
         4, "target 't1': target speed must be positive and finite, got 0.0"),
        (_program(_T1, _T2.replace("[1, 0, 0, 0]", "[2, 0, 0, 0]"), "MOVEJ t1 SPEED 5",
                  "MOVEJ t2 SPEED 5", "MOVEX t1 SPEED 5", "END"),
         5, "target 't2': quaternion norm is 2.0, not 1"),
        (_program(_T1, _T2, "MOVEJ t1 SPEED 5", _T2, "END"), 5, "TARGET after motion statements"),
        (_program(_T1, _T2, "MOVEJ t1 SPEED 5", "END", "MOVEJ t2 SPEED 5"),
         6, "content after END"),
        (_program(_T1, _T2, "MOVEJ t1 SPEED 5", "MOVEX t2 SPEED fast", "END"),
         5, "unknown opcode 'MOVEX'"),
        (_program(_T1, _T2, "MOVEC t1 SPEED fast", "END"), 4, "malformed MOVEC statement"),
        (_program(_T1, _T2, "MOVEL t1 t2 SPEED 5", "END"), 4, "malformed MOVEL statement"),
        (_program(_T1, _T2, "MOVEJ t1 SPEED 5", "MOVEL t-2 SPEED 5", "END"),
         5, "undeclared target 't-2'"),
        (_program(_T1, _T2, _T2.replace("t2", "t3"), _T2.replace("t2", "t4"),
                  "MOVEJ\tt1\tSPEED\t5", "MOVEL\xa0t2\xa0SPEED\xa05",
                  "MOVES\x1ft3\x1fSPEED\x1f5", "END"),
         1, "unreferenced targets ['t4']"),
        (_program(_T1, _T2, "MOVEJ t9 SPEED 5", "MOVEL t2 SPEED 5", "MOVEL t1 t2 SPEED 5", "END"),
         4, "undeclared target 't9'"),
    ],
    ids=["duplicate_before_malformed_target", "malformed_target_before_bad_moves",
         "undeclared_in_move_1_before_bad_speed_in_move_2",
         "bad_speed_in_move_1_before_undeclared_in_move_2", "movec_second_operand_undeclared",
         "movec_second_operand_repeats_the_first", "movec_speed_rejects_first_operand_first",
         "rejected_pose_before_unknown_opcode", "target_after_motion_before_unreferenced",
         "content_after_end_before_unreferenced", "unknown_opcode_before_its_bad_speed",
         "one_operand_movec_malformed_before_its_bad_speed", "two_operand_movel_malformed",
         "operand_outside_name_undeclared", "tab_nbsp_and_unit_separator_blanks_load",
         "undeclared_in_move_1_before_malformed_move_3"],
)
def test_load_reports_the_first_fault_in_file_order(text, line, message):
    for loader in (load_program, reference_load):
        with pytest.raises(ProgramParseError) as err:
            loader(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("op", list(Opcode))
def test_a_move_loads_with_as_many_operands_as_its_opcode_table_row(op):
    names = ["t1", "t2", "t3"]
    targets = [f"TARGET {t} = [{x}, 0, 0], [1, 0, 0, 0]" for x, t in enumerate(names)]
    for n in range(len(names) + 1):
        text = _program(*targets[:n], f"{op.name} {' '.join(names[:n])} SPEED 5", "END")
        if n == len(_OPCODE_KINDS[op]):
            assert load_program(text).instructions == (Instruction(op, tuple(names[:n]), 5.0),)
        else:
            with pytest.raises(ProgramParseError, match=f"^line {n + 2}: malformed {op.name} "):
                load_program(text)


_T3 = "TARGET t3 = [2, 0, 0], [1, 0, 0, 0]"


@pytest.mark.parametrize(
    "text, line",
    [
        ("PROGRAM p\nEND", None),
        (_program(_T1, "MOVEJ t1 SPEED 5", "END"), None),
        (_program(_T1, _T2, "MOVEC t1 t2 SPEED 5", "END"), None),
        (_program(_T1, _T2, _T3, "MOVEC t1 t2 SPEED 5", "MOVEL t3 SPEED 6", "END"), None),
        (_program(_T1, _T2, _T3, "MOVEJ t1 SPEED 5", "MOVEC t2 t3 SPEED 6", "END"), None),
        (_program(_T1, _T2, _T3, "MOVEJ t1 SPEED 5", "MOVEL SPEED SPEED 6", "END"), 6),
        (_program(_T1, _T2, _T3, "MOVEJ t1 SPEED 5", "MOVEC t2 MOVEC SPEED 6", "END"), 6),
        (_program(_T1, _T2, "MOVEC t1 t2 SPEED 5", "MOVES END SPEED 6", "END"), 5),
        (_program(*(t.replace("t1", "SPEED").replace("t2", "MOVEC").replace("t3", "END")
                    for t in (_T1, _T2, _T3)),
                  "MOVEL SPEED SPEED 5", "MOVEC MOVEC END SPEED 6", "END"), None),
    ],
    ids=["no_targets_no_moves", "one_move", "lone_movec", "movec_first", "movec_last",
         "operand_spelled_speed", "operand_spelled_movec", "operand_spelled_end",
         "targets_named_speed_movec_end"],
)
def test_load_takes_move_columns_by_position_as_the_reference_does(text, line):
    """Each case loads, or is refused at `line`, as reference_load does."""
    if line is None:
        reference_load(text)
    else:
        with pytest.raises(ProgramParseError, match=f"^line {line}: undeclared target "):
            reference_load(text)
    assert_loads_as_reference(text)


@given(random_plans())
def test_program_waypoints_match_per_instruction_gather(path):
    for program in (lower(path), load_program(emit(lower(path)))):
        points, speeds = [], []
        for ins in program.instructions:
            for t in ins.targets:
                points.append(program.targets[t].position)
                speeds.append(ins.speed)
        # what replay reads as its waypoints and leg speeds
        got_points, got_speeds = program.positions, program.target_speeds[1:]
        assert got_points.tolist() == np.array(points).reshape(-1, 3).tolist()
        assert got_speeds.tolist() == speeds[1:]
        if len(points) < 2:
            with pytest.raises(SimulationError, match="two targets"):
                _PathProfile(got_points, got_speeds)


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
    turned = axis_angle_quaternion([0, 0, 1], 0.5)
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(10, quat=turned)]))
    # the move columns count too
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(10, MotionKind.SPLINE_VIA)]))
    assert program != lower(plan([pose(0, MotionKind.JOINT), pose(10, speed=11.0)]))


def one_pose_columns(n):
    return [[0.0, 0.0, 0.0]] * n, [[1.0, 0.0, 0.0, 0.0]] * n


def test_each_opcode_has_the_code_of_its_first_operand_kind():
    assert list(_OPCODE_KINDS) == list(Opcode)
    for op in Opcode:
        assert _OPCODE_KINDS[op][0] == op


@pytest.mark.parametrize("code", [-1, len(Opcode)])
def test_program_refuses_an_opcode_code_outside_opcode(code):
    with pytest.raises(CodegenError, match=f"^opcode code {code} is not an Opcode$"):
        RobotProgram("p", ("t1",), *one_pose_columns(1), [code], [5.0])


@pytest.mark.parametrize("opcodes, dtype", [([1.7], "float64"), (["MOVEJ"], "<U5")])
def test_program_refuses_an_opcode_column_that_is_not_integer(opcodes, dtype):
    with pytest.raises(CodegenError, match=f"^opcodes must be integer codes, got dtype {dtype}$"):
        RobotProgram("p", ("t1",), *one_pose_columns(1), opcodes, [5.0])
    empty = RobotProgram("p", (), np.empty((0, 3)), np.empty((0, 4)), [], [])
    assert empty.opcodes.dtype == np.intp and empty.opcodes.shape == (0,)


def test_instruction_arity_checked():
    with pytest.raises(CodegenError):
        RobotProgram("p", ("t1",), *one_pose_columns(1), (Opcode.MOVEC,), [5.0])
    with pytest.raises(CodegenError):
        RobotProgram("p", ("t1", "t2"), *one_pose_columns(2), (Opcode.MOVEL,), [5.0])


def test_program_refuses_positions_of_another_shape():
    with pytest.raises(CodegenError, match=r"^positions has shape \(2, 2\), expected \(2, 3\)$"):
        RobotProgram("p", ("t1", "t2"), [[0.0, 0.0]] * 2, one_pose_columns(2)[1],
                     (Opcode.MOVEJ, Opcode.MOVEL), [5.0, 5.0])


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


def test_load_skips_blank_and_whitespace_only_lines():
    text = (FIXTURES / "butt_joint.prog").read_text()
    *statements, last = text.splitlines(keepends=True)
    blanks = ["\n", "   \n", "\t \n"]
    padded = "".join(line + blanks[i % 3] for i, line in enumerate(statements)) + last
    assert padded.count("\n") == 2 * len(statements) + 1
    assert load_program(padded) == load_program(text)


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


@pytest.mark.parametrize(
    "name, target, quat, message",
    [
        ("a b", "t1", (1.0, 0.0, 0.0, 0.0), f"program name 'a b' must match {NAME}"),
        ("p", "t 1", (1.0, 0.0, 0.0, 0.0), "target name 't 1' must match [A-Za-z_][A-Za-z0-9_]*"),
        ("p", "t\n1", (1.0, 0.0, 0.0, 0.0), f"target name 't\\n1' must match {NAME}"),
        ("p", "t1", (2.0, 0.0, 0.0, 0.0), "target 't1': quaternion norm is 2.0, not 1"),
        ("p", "t1", (0.0, 0.0, 0.0, 0.0), "target 't1': quaternion norm is 0.0, not 1"),
    ],
    ids=["program_name", "target_name", "line_break", "norm_2", "norm_0"],
)
def test_emit_refuses_what_load_refuses(name, target, quat, message):
    program = RobotProgram(name, (target,), [[0.0, 0.0, 0.0]], [quat], (Opcode.MOVEJ,), [1.0])
    with pytest.raises(CodegenError) as err:
        emit(program)
    assert str(err.value) == message


def test_emit_reports_names_then_numbers_then_norms_then_speeds():
    program = RobotProgram("p", ("t1", "t 2"), [[0.0, 0.0, math.inf], [0.0, 0.0, 0.0]],
                           [[2.0, 0.0, 0.0, 0.0]] * 2, (Opcode.MOVEJ, Opcode.MOVEL), [1e-9] * 2)
    with pytest.raises(CodegenError, match="^target name 't 2'"):
        emit(program)
    program = dataclasses.replace(program, target_names=("t1", "t2"))
    with pytest.raises(CodegenError, match="^cannot write non-finite number inf$"):
        emit(program)
    program = dataclasses.replace(program, positions=np.zeros((2, 3)))
    with pytest.raises(CodegenError, match="^target 't1': quaternion norm is 2.0, not 1$"):
        emit(program)
    program = dataclasses.replace(program, orientations=[[1.0, 0.0, 0.0, 0.0]] * 2)
    with pytest.raises(CodegenError, match="^speed 1e-09 mm/s would be written as 0.0000$"):
        emit(program)


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def any_programs(draw):
    """A table program under names in the grammar, one of them at times
    replaced by any text."""
    program = draw(table_programs())
    names = [draw(_NAMES)] + draw(st.lists(_NAMES, min_size=len(program.target_names),
                                            max_size=len(program.target_names), unique=True))
    if draw(st.integers(0, 3)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = draw(st.text(max_size=4))
    if len(set(names[1:])) < len(names) - 1:  # the replacement took a target's name
        names[1:] = [f"t{k + 1}" for k in range(len(names) - 1)]
    return dataclasses.replace(program, name=names[0], target_names=tuple(names[1:]))


@settings(max_examples=300)
@given(any_programs())
def test_emit_writes_only_text_that_loads(program):
    try:
        text = emit(program)
    except CodegenError:
        return
    load_program(text)


@st.composite
def near_bound_rows(draw):
    """A quaternion row whose norm is near 1 - NEAR_UNIT_TOL or 1 +
    NEAR_UNIT_TOL: a unit row scaled to such a norm, its components at times
    moved to (or a float next to) a decimal tie of the fifth place, which
    four-decimal writing rounds one way or the other."""
    unit = draw(st.one_of(
        st.sampled_from([[1.0, 0.0, 0.0, 0.0], [0.6, 0.0, -0.8, 0.0], [0.5, -0.5, 0.5, 0.5],
                         [math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0]]),
        quaternions().map(lambda q: q.as_array().tolist()),
    ))
    bound = NEAR_UNIT_TOL * draw(st.sampled_from([1.0, -1.0]))
    norm = 1.0 + bound + draw(finite(-2e-4, 2e-4))
    row = [norm * c for c in unit]
    if draw(st.booleans()):
        for k in range(4):
            if draw(st.booleans()):
                tie = float(f"{math.floor(abs(row[k]) * 1e4) / 1e4 + 5e-5:.5f}")
                tie = math.copysign(tie, row[k])
                row[k] = draw(st.sampled_from(
                    [math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf)]
                ))
    return row


@settings(max_examples=300)
@given(st.lists(near_bound_rows(), min_size=1, max_size=4))
@example([[0.70746, 0.70746, 0.0, 0.0]])  # emit's norm passes, its text's does not
@example([[1.00051, 0.0, 0.0, 0.0]])  # emit's norm fails, its text's passes
@example([[0.99949, 0.0, 0.0, 0.0], [0.0, 0.0, -1.00045, 0.0]])
def test_emit_refuses_exactly_the_norms_load_refuses(rows):
    n = len(rows)
    program = RobotProgram("p", tuple(f"t{k + 1}" for k in range(n)), np.zeros((n, 3)), rows,
                           (Opcode.MOVEJ,) * n, [1.0] * n)
    text = reference_emit(program, refuse_norms=False)
    try:
        load_program(text)
    except ProgramParseError as refused:
        with pytest.raises(CodegenError) as err:
            emit(program)
        assert str(refused) == f"line {refused.line}: {err.value}"
        return
    assert emit(program) == text
