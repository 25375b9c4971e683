"""Golden simulate traces: each case replays a fixture program through
`cli.main` and must reproduce the checked-in CSV and the summary line the
CLI prints (`<program>.<case>.stdout`) byte for byte.

Regenerate (only when a trace change is intended and explained):
    PYTHONPATH=src python tests/test_traces.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from robopath.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TRACES = FIXTURES / "traces"

PROGRAMS = ("straight_seam", "butt_joint", "profile")

# case name -> (simulate options, expected exit code)
CASES = {
    "seam_x1": (["--scenario", "seam", "--offset-x", "1"], 0),
    "seam_y1.5_rz0.3": (["--scenario", "seam", "--offset-y", "1.5", "--rot-z-deg", "0.3"], 0),
    "seam_lost_x60": (["--scenario", "seam", "--offset-x", "60"], 3),
    "force_pi_z1": (["--scenario", "force", "--offset-z", "1"], 0),
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
