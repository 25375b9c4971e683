"""Golden simulate traces: each case replays a fixture program through
`cli.main` and must reproduce the checked-in CSV and the summary line the
CLI prints (`<program>.<case>.stdout`) byte for byte. The desk-scale
experiments of `scripts/run_experiments.py` must compile the fixture
programs and reproduce their golden traces (`<experiment>.<trace>.csv`).

Regenerate (only when a trace change is intended and explained):
    PYTHONPATH=src python tests/test_traces.py
"""

import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from robopath.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TRACES = FIXTURES / "traces"
RUNNER = Path(__file__).parents[1] / "scripts" / "run_experiments.py"

PROGRAMS = ("straight_seam", "butt_joint", "profile")

# case name -> (simulate options, expected exit code)
CASES = {
    "seam_x1": (["--scenario", "seam", "--offset-x", "1"], 0),
    "seam_y1.5_rz0.3": (["--scenario", "seam", "--offset-y", "1.5", "--rot-z-deg", "0.3"], 0),
    "seam_lost_x60": (["--scenario", "seam", "--offset-x", "60"], 3),
    "force_pi_z1": (["--scenario", "force", "--offset-z", "1"], 0),
    "force_lost_z-40": (["--scenario", "force", "--offset-z", "-40"], 3),
    "force_fuzzy_rough": (
        ["--scenario", "force", "--controller", "fuzzy", "--roughness", "0.05", "--seed", "1"],
        0,
    ),
}


def simulate(program: str, case: str, out: Path) -> int:
    options, _ = CASES[case]
    argv = ["simulate", "--program", str(FIXTURES / f"{program}.prog"), *options]
    return main(argv + ["--out", str(out)])


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("program", PROGRAMS)
def test_trace_matches_golden(tmp_path, capsys, program, case):
    out = tmp_path / "trace.csv"
    assert simulate(program, case, out) == CASES[case][1]
    assert capsys.readouterr().out == (TRACES / f"{program}.{case}.stdout").read_text()
    assert out.read_bytes() == (TRACES / f"{program}.{case}.csv").read_bytes()


def load_runner():
    """scripts/run_experiments.py as a module."""
    spec = importlib.util.spec_from_file_location("run_experiments", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def experiment_traces(runner):
    """(experiment, trace) of every trace the runner writes."""
    return [(experiment, trace) for experiment, (*_, traces) in runner.EXPERIMENTS.items()
            for trace in traces]


def test_experiments_compile_the_fixture_programs_and_match_golden_traces(tmp_path):
    runner = load_runner()
    runner.run_experiments(tmp_path)
    for experiment, (scene, _, program_file, _) in runner.EXPERIMENTS.items():
        program = (tmp_path / experiment / program_file).read_bytes()
        assert program == (FIXTURES / f"{scene}.prog").read_bytes()
    traces = experiment_traces(runner)
    assert len(traces) == 4
    for experiment, trace in traces:
        got = (tmp_path / experiment / f"{trace}.csv").read_bytes()
        assert got == (TRACES / f"{experiment}.{trace}.csv").read_bytes(), (experiment, trace)


if __name__ == "__main__":
    TRACES.mkdir(exist_ok=True)
    for program in PROGRAMS:
        for case in sorted(CASES):
            golden = TRACES / f"{program}.{case}.csv"
            with redirect_stdout(io.StringIO()) as stdout:
                code = simulate(program, case, golden)
            (TRACES / f"{program}.{case}.stdout").write_text(stdout.getvalue())
            Path(str(golden) + ".manifest.json").unlink()
            if code != CASES[case][1]:
                sys.exit(f"{golden.name}: exit {code}, expected {CASES[case][1]}")
    runner = load_runner()
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
        runner.run_experiments(Path(out))
        for experiment, trace in experiment_traces(runner):
            csv = Path(out, experiment, f"{trace}.csv").read_bytes()
            (TRACES / f"{experiment}.{trace}.csv").write_bytes(csv)
