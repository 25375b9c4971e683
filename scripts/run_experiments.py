#!/usr/bin/env python3
"""The paper's two uncertainty experiments at desk scale, as one table.

    python3 scripts/run_experiments.py

seam: the butt-joint weld replayed against a cell whose workpiece sits 1 mm
off laterally, and against one turned so that the deviation ramps up to
~2 mm over the run. force: the profile followed at 20 N against a surface
2 mm closer than programmed with 0.05 mm of roughness, by the PI and the
fuzzy-PI controller on the same cell. Each experiment's program, trace CSVs
and manifests land in out/<experiment>/.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from robopath.cli import main  # noqa: E402

SEAM = ["--scenario", "seam"]
FORCE = ["--scenario", "force", "--offset-z", "2.0", "--roughness", "0.05", "--seed", "1",
         "--setpoint", "20.0", "--stiffness", "10.0"]
RAMP_DEG = math.degrees(math.asin(2.0 / 200.0))  # ~2 mm drift over the path

# experiment -> (fixture scene, compile options, program file, {trace: simulate options});
# the weld runs along -Y in the calibration frame, so its lateral axis is world X
EXPERIMENTS = {
    "seam": ("butt_joint", ["--interp-dt", "0.5"], "weld_seam.prog", {
        "constant_offset": SEAM + ["--offset-x", "1.0", "--gain-y", "1.0", "--gain-z", "1.0"],
        "ramped_offset": SEAM + ["--rot-z-deg", f"{RAMP_DEG:.6f}"],
    }),
    "force": ("profile", [], "profile.prog", {
        "pi": FORCE + ["--controller", "pi"],
        "fuzzy": FORCE + ["--controller", "fuzzy"],
    }),
}


def run_experiments(root: Path) -> None:
    """Compile and replay every experiment, writing under root/<experiment>/;
    a run that exits non-zero ends the script with its exit code."""
    for experiment, (scene, options, program_file, traces) in EXPERIMENTS.items():
        out = root / experiment
        out.mkdir(parents=True, exist_ok=True)
        program = str(out / program_file)
        scene_file = str(ROOT / "tests" / "fixtures" / f"{scene}.scene.json")
        calls = [["compile", "--scene", scene_file, "--base", "B", *options, "--out", program]]
        calls += [["simulate", "--program", program, *simulate, "--out", str(out / f"{trace}.csv")]
                  for trace, simulate in traces.items()]
        for argv in calls:
            if (code := main(argv)) != 0:
                raise SystemExit(code)
        print(f"traces written under {out}")


if __name__ == "__main__":
    run_experiments(ROOT / "out")
