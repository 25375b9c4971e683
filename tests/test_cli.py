import collections
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import pkgutil
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import robopath
import robopath.cli
from conftest import FIXTURES
from robopath.cli import main
from robopath.codegen import CodegenError, ProgramParseError
from robopath.geometry import GeometryError, RobopathError
from robopath.planner import MAX_INTERPOLATED_POSES, PlanningError
from robopath.scene import SceneError, SceneParseError, SceneValidationError
from robopath.simulate import SeamLost, SimTrace, SimulationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compile_args(scene, out, base="B", **extra):
    argv = ["compile", "--scene", str(scene), "--base", base, "--out", str(out)]
    for key, value in extra.items():
        argv.append(f"--{key.replace('_', '-')}")
        if value is not None:
            argv.append(str(value))
    return argv


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_butt_joint_matches_golden(tmp_path, capsys):
    out = tmp_path / "butt.prog"
    code, _, err = run(
        capsys,
        *compile_args(FIXTURES / "butt_joint.scene.json", out, interp_dt=0.5),
    )
    assert code == 0, err
    assert out.read_bytes() == (FIXTURES / "butt_joint.prog").read_bytes()
    manifest = json.loads((tmp_path / "butt.prog.manifest.json").read_text())
    assert manifest["subcommand"] == "compile"
    assert manifest["options"]["base"] == "B"
    assert manifest["options"]["interp_dt_s"] == 0.5


@pytest.mark.parametrize("name", ["profile", "straight_seam"])
def test_compile_profile_matches_golden(tmp_path, capsys, name):
    out = tmp_path / f"{name}.prog"
    code, _, _ = run(capsys, *compile_args(FIXTURES / f"{name}.scene.json", out))
    assert code == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.prog").read_bytes()


def test_compile_missing_base_frame_exits_1(tmp_path, capsys):
    out = tmp_path / "x.prog"
    code, _, err = run(
        capsys, *compile_args(FIXTURES / "butt_joint.scene.json", out, base="nope")
    )
    assert code == 1
    assert err.startswith("error:")
    assert "nope" in err
    assert not out.exists()


def test_unwritable_output_exits_1(capsys):
    code, _, err = run(
        capsys,
        *compile_args(FIXTURES / "profile.scene.json", "/nonexistent_dir/x.prog"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_compile_invalid_scene_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"units": "mm"')
    code, _, err = run(capsys, *compile_args(bad, tmp_path / "x.prog"))
    assert code == 1
    assert err.startswith("error:")


def test_compile_scene_with_duplicate_key_exits_1(tmp_path, capsys):
    text = (FIXTURES / "butt_joint.scene.json").read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"kind": "line"', '"kind": "arc", "kind": "line"', 1))
    out = tmp_path / "x.prog"
    code, _, err = run(capsys, *compile_args(bad, out, interp_dt=0.5))
    assert code == 1
    assert err == "error: duplicate key 'kind' in a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda scene: scene.update(paths=[]),
        lambda scene: scene["paths"][0].update(name="weld_seam\n"),
    ],
    ids=["no_paths", "path_name_newline"],
)
def test_compile_scene_outside_the_grammar_exits_1(tmp_path, capsys, edit):
    scene = json.loads((FIXTURES / "straight_seam.scene.json").read_text())
    edit(scene)
    scene_file = tmp_path / "bad.json"
    scene_file.write_text(json.dumps(scene))
    out = tmp_path / "bad.prog"
    code, _, err = run(capsys, *compile_args(scene_file, out))
    assert code == 1
    assert err.startswith("error:")
    assert not out.exists()


def test_compile_strict_workspace_violation_exits_2(tmp_path, capsys):
    scene = json.loads((FIXTURES / "straight_seam.scene.json").read_text())
    scene["workspace"] = {"min": [0.0, 0.0, 0.0], "max": [50.0, 50.0, 50.0]}
    scene_file = tmp_path / "cramped.json"
    scene_file.write_text(json.dumps(scene))
    out = tmp_path / "cramped.prog"

    code, _, err = run(capsys, *compile_args(scene_file, out))
    assert code == 0  # lint is advisory by default
    assert "lint:" in err and "t2" in err

    code, _, err = run(capsys, *compile_args(scene_file, out, strict=None))
    assert code == 2
    assert "lint failure" in err


def test_compile_non_finite_speed_exits_1(tmp_path, capsys):
    text = (FIXTURES / "straight_seam.scene.json").read_text()
    text = text.replace('"speed": 10.0', '"speed": 1e400')  # parses as inf
    assert "1e400" in text
    scene_file = tmp_path / "fast.json"
    scene_file.write_text(text)
    out = tmp_path / "fast.prog"
    code, _, err = run(capsys, *compile_args(scene_file, out))
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda scene: scene["paths"][0].update(
            segments=[
                {
                    "kind": "line",
                    "points": [[1.7e308, 1.7e308, 0.0], [1.6e308, 1.7e308, 0.0]],
                    "tool_frame": "C",
                    "risk": False,
                    "speed": 10.0,
                }
            ]
        ),
        lambda scene: scene.update(
            workspace={"min": [-1.7e308, -1.7e308, 0.0], "max": [1.7e308, 1.7e308, 1.0]}
        ),
    ],
    ids=["path", "workspace"],
)
def test_compile_numbers_overflowing_in_the_base_frame_exit_1(tmp_path, capsys, edit):
    # finite in the file, but rotating frame B by 22.5 degrees maps them past
    # the largest float
    scene = json.loads((FIXTURES / "butt_joint.scene.json").read_text())
    half = math.radians(22.5) / 2
    scene["frames"][0]["rotation"] = {"quat": [math.cos(half), 0.0, 0.0, math.sin(half)]}
    edit(scene)
    scene_file = tmp_path / "huge.json"
    scene_file.write_text(json.dumps(scene))
    out = tmp_path / "huge.prog"
    code, _, err = run(capsys, *compile_args(scene_file, out))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_compile_speed_override_matches_rewritten_scene(tmp_path, capsys):
    """Risk spacing follows the override exactly as it follows scene speeds."""
    text = (FIXTURES / "butt_joint.scene.json").read_text()
    slow = tmp_path / "slow.json"
    slow.write_text(text.replace('"speed": 10.0', '"speed": 5.0'))
    assert '"speed": 10.0' not in slow.read_text()

    overridden = tmp_path / "override.prog"
    rewritten = tmp_path / "rewritten.prog"
    code, _, err = run(
        capsys,
        *compile_args(FIXTURES / "butt_joint.scene.json", overridden,
                      speed_override=5, interp_dt=0.5),
    )
    assert code == 0, err
    assert run(capsys, *compile_args(slow, rewritten, interp_dt=0.5))[0] == 0
    assert overridden.read_bytes() == rewritten.read_bytes()
    assert overridden.read_bytes() != (FIXTURES / "butt_joint.prog").read_bytes()


def two_path_scene(tmp_path):
    """straight_seam plus a second, shorter path named 'second'."""
    scene = json.loads((FIXTURES / "straight_seam.scene.json").read_text())
    second = json.loads(json.dumps(scene["paths"][0]))
    second["name"] = "second"
    second["segments"][0]["points"] = [[0.0, 10.0, 0.0], [40.0, 10.0, 0.0]]
    scene["paths"].append(second)
    both = tmp_path / "both.json"
    both.write_text(json.dumps(scene))
    scene["paths"] = [second]
    only = tmp_path / "only_second.json"
    only.write_text(json.dumps(scene))
    return both, only


def test_compile_path_selects_named_path(tmp_path, capsys):
    both, only = two_path_scene(tmp_path)
    picked = tmp_path / "picked.prog"
    expected = tmp_path / "expected.prog"
    code, _, err = run(capsys, *compile_args(both, picked, path="second"))
    assert code == 0, err
    assert run(capsys, *compile_args(only, expected))[0] == 0
    assert picked.read_bytes() == expected.read_bytes()
    assert picked.read_text().startswith("PROGRAM second\n")
    manifest = json.loads((tmp_path / "picked.prog.manifest.json").read_text())
    assert manifest["options"]["path"] == "second"


def test_compile_unknown_path_exits_1(tmp_path, capsys):
    both, _ = two_path_scene(tmp_path)
    out = tmp_path / "x.prog"
    code, _, err = run(capsys, *compile_args(both, out, path="third"))
    assert code == 1
    assert err.startswith("error:") and "third" in err
    assert not out.exists()


@pytest.mark.parametrize("scene", ["butt_joint", "straight_seam"])
@pytest.mark.parametrize("dt", ["0", "-1", "inf", "nan"])
def test_compile_rejects_bad_interp_dt(tmp_path, capsys, scene, dt):
    """Risky (butt_joint) and risk-free (straight_seam) scenes alike."""
    out = tmp_path / "x.prog"
    code, _, err = run(
        capsys, *compile_args(FIXTURES / f"{scene}.scene.json", out, interp_dt=dt)
    )
    assert code == 1
    assert err.startswith("error:") and "sampling width" in err
    assert not out.exists()


@pytest.mark.parametrize("speed", ["0", "-1", "inf", "nan"])
def test_compile_rejects_bad_speed_override(tmp_path, capsys, speed):
    out = tmp_path / "x.prog"
    code, _, err = run(
        capsys,
        *compile_args(FIXTURES / "butt_joint.scene.json", out, speed_override=speed),
    )
    assert code == 1
    assert err.startswith("error:") and "--speed-override" in err
    assert not out.exists()


@pytest.mark.parametrize("dt", ["1e-6", "1e-300"])
def test_compile_refuses_pose_budget_quickly(tmp_path, capsys, dt):
    """A tiny sampling width would generate ~1e7 poses (or an infinite
    count); the budget refuses it before any pose is built."""
    out = tmp_path / "x.prog"
    started = time.perf_counter()
    code, _, err = run(
        capsys, *compile_args(FIXTURES / "butt_joint.scene.json", out, interp_dt=dt)
    )
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert err.startswith("error:") and str(MAX_INTERPOLATED_POSES) in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_seam_zero_offset(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "straight_seam.prog"),
        "--scenario", "seam",
        "--out", str(out),
    )
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", skip_header=1, usecols=range(8))
    assert np.all(data[:, 4:8] == 0.0)
    assert "final correction y=0.0000" in stdout


def test_simulate_seam_offset_converges(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "straight_seam.prog"),
        "--scenario", "seam",
        "--offset-y", "1.0",
        "--gain-y", "1.0",
        "--out", str(out),
    )
    assert code == 0
    final = float(stdout.split("y=")[1].split(" ")[0])
    assert abs(final - 1.0) <= 0.01


def test_simulate_seam_lost_exits_3_with_partial_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "straight_seam.prog"),
        "--scenario", "seam",
        "--offset-y", "75.0",
        "--out", str(out),
    )
    assert code == 3
    assert "ABORTED" in stdout
    assert out.exists()
    assert out.read_text().strip().splitlines()[-1].endswith("ABORTED")


@pytest.mark.parametrize("controller", ["pi", "fuzzy"])
def test_simulate_force_steady_state(tmp_path, capsys, controller):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "straight_seam.prog"),
        "--scenario", "force",
        "--offset-z", "2.0",
        "--controller", controller,
        "--out", str(out),
    )
    assert code == 0
    err = float(stdout.split("= ")[1].split(" ")[0])
    assert err <= 0.5


def test_simulate_bad_program_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("PROGRAM p\nWOBBLE t1 SPEED 1.0\nEND\n")
    code, _, err = run(
        capsys,
        "simulate",
        "--program", str(bad),
        "--scenario", "seam",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert err.startswith("error:") and "line 2" in err


@pytest.mark.parametrize("speed", ["inf", "nan", "1e3", "1_0"])
def test_simulate_rejects_non_decimal_speed(tmp_path, capsys, speed):
    text = (FIXTURES / "straight_seam.prog").read_text().replace(
        "MOVEJ t1 SPEED 10.0000", f"MOVEJ t1 SPEED {speed}"
    )
    assert speed in text
    bad = tmp_path / "bad.prog"
    bad.write_text(text)
    out = tmp_path / "x.csv"
    code, _, err = run(
        capsys, "simulate", "--program", str(bad), "--scenario", "seam", "--out", str(out)
    )
    line = text.splitlines().index(f"MOVEJ t1 SPEED {speed}") + 1
    assert code == 1
    assert err.startswith(f"error: line {line}: bad speed")
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["seam", "force"])
@pytest.mark.parametrize(
    "option",
    [
        ("--rate", "inf"),
        ("--rate", "nan"),
        ("--duration", "nan"),
        ("--duration", "-1"),
        ("--rate", "1e308"),
        ("--rate", "1e9"),
        ("--rot-z-deg", "inf"),
        ("--roughness", "nan"),
        ("--seed", "-1"),
    ],
    ids="=".join,
)
def test_simulate_rejects_bad_number_option(tmp_path, capsys, scenario, option):
    out = tmp_path / "x.csv"
    code, _, err = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "straight_seam.prog"),
        "--scenario", scenario,
        *option,
        "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, option, message",
    [
        ("seam", ("--resolution", "1e-320", "--offset-x", "1"), "resolution 1e-320 mm"),
        ("force", ("--rate", "1e-320"), "rate 1e-320 Hz"),
        ("force", ("--roughness", "1e308"), "surface shift"),
        ("force", ("--offset-z", "1e308"), "contact force bound"),
        ("force", ("--stiffness", "1e307", "--offset-z", "100"), "contact force bound"),
    ],
)
def test_simulate_refuses_overflowing_replay_arithmetic(
    tmp_path, capsys, scenario, option, message
):
    out = tmp_path / "x.csv"
    code, _, err = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "butt_joint.prog"),
        "--scenario", scenario,
        *option,
        "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_simulate_seam_lost_at_an_overflowing_distance(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "butt_joint.prog"),
        "--scenario", "seam",
        "--offset-x", "1e200",
        "--out", str(out),
    )
    assert code == 3
    assert "ABORTED" in stdout
    assert out.read_text().splitlines()[-1].endswith(",ABORTED")


# ---------------------------------------------------------------------------
# refused input
# ---------------------------------------------------------------------------


def test_every_robopath_error_is_refused_input():
    """The CLI turns a RobopathError into exit 1, so an error class a module
    defines outside it would end a run with a traceback instead."""
    defined = set()
    for info in pkgutil.iter_modules(robopath.__path__, "robopath."):
        module = importlib.import_module(info.name)
        defined.update(
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        )
    outside = {cls for cls in defined if not issubclass(cls, RobopathError)}
    assert outside == {SeamLost}  # a sensor signal, not refused input
    assert defined >= {RobopathError, GeometryError, SceneError, SceneParseError,
                       SceneValidationError, PlanningError, CodegenError, ProgramParseError,
                       SimulationError}
    assert issubclass(RobopathError, ValueError)
    assert robopath.RobopathError is RobopathError
    # the CLI learns of no module's error class
    bound = {v for v in vars(robopath.cli).values() if isinstance(v, type)}
    assert {cls for cls in bound if issubclass(cls, Exception)} == {RobopathError}


@pytest.mark.parametrize(
    "error",
    [
        RobopathError("refused"),
        GeometryError("quaternion norm is 1.1, not 1"),
        SceneError("scene"),
        SceneParseError("bad JSON", 3, 4),
        SceneValidationError("paths: must not be empty"),
        PlanningError("no frame 'B'"),
        CodegenError("cannot write non-finite number inf"),
        ProgramParseError("missing END", 7),
        SimulationError("rate_hz must be finite, got nan"),
    ],
    ids=lambda error: type(error).__name__,
)
@pytest.mark.parametrize("subcommand, stage", [("compile", "lower"), ("simulate", "run_seam")])
def test_cli_exits_1_on_each_error_class(tmp_path, capsys, monkeypatch, subcommand, stage, error):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(robopath.cli, stage, refuse)
    if subcommand == "compile":
        argv = compile_args(FIXTURES / "butt_joint.scene.json", tmp_path / "out", interp_dt=0.5)
    else:
        argv = ["simulate", "--program", str(FIXTURES / "butt_joint.prog"), "--scenario", "seam",
                "--out", str(tmp_path / "out")]
    assert run(capsys, *argv) == (1, "", f"error: {error}\n")


# ---------------------------------------------------------------------------
# hostile input files
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@given(data=st.binary())
@example(data=b"\xff\xfe not utf-8")
@example(data=b"[" * 1000 + b"]" * 1000)
def test_cli_exits_1_on_arbitrary_input_bytes(hostile_dir, data):
    given_file = hostile_dir / "input"
    given_file.write_bytes(data)
    out = hostile_dir / "out"
    for argv in (
        compile_args(given_file, out),
        ["simulate", "--program", str(given_file), "--scenario", "seam", "--out", str(out)],
    ):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 1
        assert stderr.getvalue().startswith("error:")
        assert not out.exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeat_invocations_byte_identical(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        prog = tmp_path / f"{name}.prog"
        trace = tmp_path / f"{name}.csv"
        assert run(
            capsys,
            *compile_args(FIXTURES / "butt_joint.scene.json", prog, interp_dt=0.5),
        )[0] == 0
        assert run(
            capsys,
            "simulate",
            "--program", str(prog),
            "--scenario", "force",
            "--offset-z", "1.0",
            "--roughness", "0.05",
            "--seed", "11",
            "--out", str(trace),
        )[0] == 0
        outputs.append(
            (
                prog.read_bytes(),
                trace.read_bytes(),
                (tmp_path / f"{name}.csv.manifest.json").read_bytes(),
            )
        )
    first, second = outputs
    assert first[0] == second[0]
    assert first[1] == second[1]
    # manifests differ only in the recorded output paths
    a = json.loads(first[2])
    b = json.loads(second[2])
    for doc in (a, b):
        doc["options"].pop("out")
        doc["options"].pop("program")
        doc["inputs"].pop("path")
    assert a == b


def test_simulate_manifest_records_resolved_config(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    run(
        capsys,
        "simulate",
        "--program", str(FIXTURES / "straight_seam.prog"),
        "--scenario", "seam",
        "--out", str(out),
    )
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["tool"] == "robopath"
    assert manifest["seed"] == 0
    cfg = manifest["options"]["config"]
    assert cfg["rate_hz"] == 5.0
    assert cfg["resolution_mm"] == 0.01
    assert cfg["max_step_mm"] == 0.5


@pytest.mark.parametrize("subcommand", ["compile", "simulate"])
def test_manifest_hashes_the_bytes_that_were_parsed(tmp_path, capsys, monkeypatch, subcommand):
    # the input file is rewritten right after it is read, as a concurrent
    # writer could; the manifest records the digest of the bytes the run used
    given_file = tmp_path / "input"
    if subcommand == "compile":
        data = (FIXTURES / "butt_joint.scene.json").read_bytes()
        stage, argv = "parse_scene", compile_args(given_file, tmp_path / "out", interp_dt=0.5)
    else:
        data = (FIXTURES / "straight_seam.prog").read_bytes()
        stage = "load_program"
        argv = ["simulate", "--program", str(given_file), "--scenario", "seam",
                "--out", str(tmp_path / "out")]
    given_file.write_bytes(data)
    parsed = []
    real_stage = getattr(robopath.cli, stage)

    def parse_then_rewrite(text):
        parsed.append(text)
        given_file.write_bytes(data + b"\n")
        return real_stage(text)

    monkeypatch.setattr(robopath.cli, stage, parse_then_rewrite)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert parsed == [data.decode("utf-8")]
    assert manifest["inputs"]["sha256"] == hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# names the benchmark's tracer wraps
# ---------------------------------------------------------------------------

TRACED_CLI_NAMES = (
    "parse_scene",
    "rebase",
    "assign_orientations",
    "interpolate_risk",
    "lower",
    "workspace_lint",
    "emit",
    "load_program",
    "run_seam",
    "run_force",
)


def test_cli_binds_every_traced_stage():
    """The benchmark times each stage by replacing these names in
    robopath.cli; a stage called some other way would read zero."""
    for name in TRACED_CLI_NAMES:
        assert callable(getattr(robopath.cli, name, None)), name
    assert callable(SimTrace.to_csv)


def test_cli_calls_each_traced_stage_once_through_its_binding(tmp_path, capsys, monkeypatch):
    """A stage that runs but not through its robopath.cli name would read
    zero in the benchmark even though the name is still bound."""
    calls = collections.Counter()

    def counted(name, stage):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)
        return wrapper

    for name in TRACED_CLI_NAMES:
        monkeypatch.setattr(robopath.cli, name, counted(name, getattr(robopath.cli, name)))
    monkeypatch.setattr(SimTrace, "to_csv", counted("to_csv", SimTrace.to_csv))

    program = tmp_path / "butt.prog"
    code, _, err = run(
        capsys, *compile_args(FIXTURES / "butt_joint.scene.json", program, interp_dt=0.5)
    )
    assert code == 0, err
    compile_stages = ("parse_scene", "rebase", "assign_orientations", "interpolate_risk",
                      "lower", "workspace_lint", "emit")
    assert calls == collections.Counter(compile_stages)
    for scenario, stage in (("seam", "run_seam"), ("force", "run_force")):
        calls.clear()
        code, _, err = run(
            capsys,
            "simulate",
            "--program", str(program),
            "--scenario", scenario,
            "--out", str(tmp_path / f"{scenario}.csv"),
        )
        assert code == 0, err
        assert calls == collections.Counter(("load_program", stage, "to_csv"))


def test_benchmark_tracer_records_every_span_and_count(tmp_path, capsys, monkeypatch):
    """The benchmark's per-layer metrics on a fixture: every span is
    recorded, and each counter reads the size the fixture is known to have
    (4 segments, 5 poses densified to 23 targets, 101 seam and 401 force
    trace rows; see the golden program and traces)."""
    # benchmarks/tracing.py, loaded by path; its dataclass needs the module
    # registered while it executes
    path = FIXTURES.parent.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    originals = {name: getattr(robopath.cli, name) for name in TRACED_CLI_NAMES}
    program = tmp_path / "butt.prog"
    invocations = [
        compile_args(FIXTURES / "butt_joint.scene.json", program, interp_dt=0.5),
        ["simulate", "--program", str(program), "--scenario", "seam", "--offset-x", "1",
         "--out", str(tmp_path / "seam.csv")],
        ["simulate", "--program", str(program), "--scenario", "force", "--offset-z", "1",
         "--out", str(tmp_path / "force.csv")],
    ]
    for argv in invocations:
        with tracer.invocation(robopath.cli, SimTrace):
            code, _, err = run(capsys, *argv)
        assert code == 0, err
    assert program.read_bytes() == (FIXTURES / "butt_joint.prog").read_bytes()
    assert {span.name for span in tracer.spans} == set(tracing.SPAN_NAMES)
    assert dict(tracer.counts) == {
        1: {"scene.segments": 4, "planner.poses_in": 5, "planner.poses_out": 23,
            "codegen.targets": 23, "codegen.bytes_out": len(program.read_bytes())},
        2: {"simulate.waypoints": 23, "simulate.ticks": 101, "simulate.rows_out": 101},
        3: {"simulate.waypoints": 23, "simulate.ticks": 401, "simulate.rows_out": 401},
    }
    # the tracer put the library back
    assert {name: getattr(robopath.cli, name) for name in TRACED_CLI_NAMES} == originals
