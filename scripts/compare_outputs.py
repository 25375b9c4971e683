#!/usr/bin/env python3
"""Compare what two revisions of robopath write for one fixed list of CLI
invocations.

    python3 scripts/compare_outputs.py OLD NEW [--workdir DIR]

OLD and NEW are git revisions of this repository. Each is exported with
`git archive` and runs the same invocations, in one Python process per
revision, on the same input files:

* compile of each fixture scene, of seeded serpentine scenes from the
  NEW revision's `benchmarks/scenes.py` (imported, not run as a benchmark)
  and of a straight seam whose numbers the fixed-point writer spells with
  `%.4f` itself (ties on a 1/32 mm grid, a y beyond 2**52 / 1e4 mm), with
  the default `--interp-dt` and with others;
* simulate of every compiled program under seam tracking, PI force and
  fuzzy force control, under PI and fuzzy force control with the surface
  moved and rotated about z, and under PI and fuzzy force control with the
  surface 40 mm away, which loses contact and aborts (PI also at 16 Hz);
* a few refused inputs (a bad scene, program or option), one scene for
  each rule a scene's segment can break, and one program for each refusal
  of the program loader;
* a program with CRLF line ends, tabs and blank lines, which loads;
* the profile fixture program with tab, unit separator, no-break and
  ideographic space blanks inside its TARGET and move statements, and with
  its numbers spelled with signs, leading zeros, signed zeros and more than
  20 digits, each under seam tracking and fuzzy force control;
* seam runs of a hairpin with legs 8 mm apart, of a path whose steep first
  leg frames world y as its z axis and whose next leg frames it as its y
  axis, and of a path that repeats targets (zero-length legs), each moved
  in y, moved and rotated, and moved 60 mm in x, which loses the seam;
* compile, seam and fuzzy force runs with options (`--rate`, `--gain-y`),
  then a refused `--rate 0`, `--version` and an unknown subcommand, then the
  same seam and force runs with defaults: `cli.main` keeps one parser per
  process, and a value that leaks from one call into the next shows here;
* the desk-scale experiments, `scripts/run_experiments.py`, of each revision.

Programs, traces, manifests, stdout, stderr and exit codes are compared;
the export directory is replaced by `<root>` in every output first. Each
difference is printed with its first differing line. The exit code is 0
whether or not outputs differ, and non-zero only when the comparison
cannot run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import shutil
import subprocess
import sys
import tempfile
from itertools import cycle
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Runs a JSON list of [name, argv] from stdin through robopath.cli.main in
# this process and prints [name, exit code, stdout, stderr] for each; an
# exception or a warning is recorded in stderr, not raised.
RUNNER = r"""
import contextlib, io, json, sys, traceback, warnings
from robopath.cli import main
results = []
for name, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "traceback"
                traceback.print_exc()
    for w in caught:
        err.write(f"warning: {w.category.__name__}: {w.message}\n")
    results.append([name, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""

FIXTURE_SCENES = ("butt_joint", "profile", "straight_seam")
# (segments, seed, segment length in mm) of each serpentine scene
SERPENTINES = ((30, 1, 5.0), (30, 2, 5.0), (200, 1, 20.0), (2000, 1, 5.0))
INTERP = ((), ("--interp-dt", "0.2"), ("--interp-dt", "0.5"))
REPLAYS = {
    "seam": ("--scenario", "seam", "--offset-y", "1", "--rot-z-deg", "0.05"),
    "seam_r10": ("--scenario", "seam", "--rate", "10", "--offset-x", "0.5"),
    "pi": ("--scenario", "force", "--offset-z", "1"),
    "fuzzy": ("--scenario", "force", "--controller", "fuzzy", "--roughness", "0.05",
              "--seed", "7", "--offset-z", "2"),
    "pi_rot": ("--scenario", "force", "--offset-x", "0.4", "--offset-z", "1.5",
               "--rot-z-deg", "3"),
    "fuzzy_rot": ("--scenario", "force", "--controller", "fuzzy", "--offset-x", "0.4",
                  "--offset-z", "1.5", "--rot-z-deg", "3"),
    "pi_lost": ("--scenario", "force", "--offset-z", "-40"),
    "fuzzy_lost": ("--scenario", "force", "--controller", "fuzzy", "--offset-z", "-40"),
    "pi_lost_r16": ("--scenario", "force", "--rate", "16", "--offset-z", "-40"),
}
EXPERIMENT_RUNNER = "scripts/run_experiments.py"  # run as a script in each tree
# Blanks the program grammar reads inside a statement, besides the space
BLANKS = ("\t", "\x1f", "\xa0", "\u3000")

_T1 = "TARGET t1 = [0.0000, 0.0000, 0.0000], [1.0000, 0.0000, 0.0000, 0.0000]"
_T2 = "TARGET t2 = [10.0000, 0.0000, 0.0000], [1.0000, 0.0000, 0.0000, 0.0000]"
_MOVE1, _MOVE2 = "MOVEJ t1 SPEED 5.0000", "MOVEL t2 SPEED 5.0000"
# One program per refusal of the program loader, named by it
LOADER_REFUSALS = {
    "header": ["PROGAM p", _T1, _T2, _MOVE1, _MOVE2, "END"],
    "program_name": ["PROGRAM 1p", _T1, _T2, _MOVE1, _MOVE2, "END"],
    "target_after_motion": ["PROGRAM p", _T1, _MOVE1, _T2, _MOVE2, "END"],
    "malformed_target": ["PROGRAM p", _T1, _T2.replace("],", "]"), _MOVE1, _MOVE2, "END"],
    "duplicate_target": ["PROGRAM p", _T1, _T2, _T1, _MOVE1, _MOVE2, "END"],
    "unknown_opcode": ["PROGRAM p", _T1, _T2, _MOVE1, "MOVEX t2 SPEED 5.0000", "END"],
    "malformed_movec": ["PROGRAM p", _T1, _T2, "MOVEC t1 SPEED 5.0000", "END"],
    "bad_speed": ["PROGRAM p", _T1, _T2, _MOVE1, "MOVEL t2 SPEED 5e3", "END"],
    "undeclared": ["PROGRAM p", _T1, _T2, _MOVE1, "MOVEL t3 SPEED 5.0000", "END"],
    "referenced_twice": ["PROGRAM p", _T1, _T2, _MOVE1, "MOVEL t1 SPEED 5.0000", "END"],
    "norm": ["PROGRAM p", _T1, _T2.replace("[1.0000,", "[1.0010,"), _MOVE1, _MOVE2, "END"],
    "infinite_speed": ["PROGRAM p", _T1, _T2, _MOVE1, f"MOVEL t2 SPEED 1{'0' * 400}.0", "END"],
    "content_after_end": ["PROGRAM p", _T1, _T2, _MOVE1, _MOVE2, "END", "END"],
    "missing_end": ["PROGRAM p", _T1, _T2, _MOVE1, _MOVE2],
    "empty": ["", " "],
    "unreferenced": ["PROGRAM p", _T1, _T2, _MOVE1, "END"],
}


def _program(name: str, points) -> list[str]:
    """The statements of a program that joint-moves to the first point and
    moves linearly through the rest at 10 mm/s."""
    targets = [f"TARGET t{i} = [{x:.4f}, {y:.4f}, {z:.4f}], [1.0000, 0.0000, 0.0000, 0.0000]"
               for i, (x, y, z) in enumerate(points, 1)]
    moves = [f"{'MOVEL' if i > 1 else 'MOVEJ'} t{i} SPEED 10.0000"
             for i in range(1, len(points) + 1)]
    return [f"PROGRAM {name}", *targets, *moves, "END"]


# Programs for the seam search, and the offsets each is replayed under
SEAM_PROGRAMS = {
    "hairpin": _program("hairpin", [(0, 0, 0), (100, 0, 0), (100, 8, 0), (0, 8, 0)]),
    "steep": _program("steep", [(0, 0, 0), (10, 0, 100), (40, 0, 200)]),
    "repeated": _program("repeated", [(0, 0, 0), (0, 0, 0), (40, 0, 0), (40, 0, 0), (40, 0, 0),
                                      (40, 30, 5), (40, 30, 5)]),
}
SEAM_OFFSETS = {
    "y5": ("--offset-y", "5"),
    "x2_y1_rz3": ("--offset-x", "2", "--offset-y", "1", "--rot-z-deg", "3"),
    "lost_x60": ("--offset-x", "60"),
}


# One scene per refusal of a segment rule, named by it: the straight_seam
# fixture's one segment with this text replaced
_SPEED, _POINTS = '"speed": 10.0', "[[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]"
SEGMENT_REFUSALS = {
    "unknown_key": (_SPEED, f'{_SPEED}, "colour": 1.0'),
    "missing_key": ('"risk": false,', ""),
    "kind": ('"kind": "line"', '"kind": "helix"'),
    "points_not_a_list": (_POINTS, '"p"'),
    "bad_point": ("[100.0, 0.0, 0.0]", "[100.0, 0.0]"),
    "one_point": (_POINTS, "[[0.0, 0.0, 0.0]]"),
    "risk": ('"risk": false', '"risk": "no"'),
    "tool_frame_name": ('"tool_frame": "T"', '"tool_frame": "T 1"'),
    "speed_not_a_number": (_SPEED, '"speed": "10"'),
    "speed_1e400": (_SPEED, '"speed": 1e400'),
    "duplicate_key": (_SPEED, f"{_SPEED}, {_SPEED}"),
}


class CannotRun(Exception):
    pass


def export(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into dest with git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], capture_output=True)
    if archive.returncode != 0:
        raise CannotRun(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def write_inputs(inputs: Path, tree: Path) -> list[tuple[str, list[str]]]:
    """Write the input files and return the invocation list; inputs are
    absolute paths, outputs relative to the runner's directory."""
    inputs.mkdir(parents=True)
    scenes = {}
    for name in FIXTURE_SCENES:
        scenes[name] = inputs / f"{name}.scene.json"
        shutil.copyfile(tree / "tests" / "fixtures" / f"{name}.scene.json", scenes[name])
    spec = importlib.util.spec_from_file_location("scenes", tree / "benchmarks" / "scenes.py")
    generator = sys.modules["scenes"] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(generator)
    for segments, seed, seg_mm in SERPENTINES:
        name = f"serp{segments}_s{seed}"
        scenes[name] = inputs / f"{name}.scene.json"
        scenes[name].write_text(generator.serpentine(segments, seed, seg_mm).text)
    # the straight_seam fixture on a 1/32 mm grid, so with ties at the fourth
    # decimal, and with frame B moved so that every target's y is 4.6e11 mm
    grid = json.loads(scenes["straight_seam"].read_text())
    grid["frames"][0]["origin"] = [0.0, -4.6e11, 0.0]
    segment = grid["paths"][0]["segments"][0]
    segment["points"] = [[0.03125, 0.09375, -0.15625], [100.09375, 0.03125, 0.65625]]
    segment["speed"] = 10.03125
    scenes["grid32"] = inputs / "grid32.scene.json"
    scenes["grid32"].write_text(json.dumps(grid))

    invocations = []
    for scene, path in scenes.items():
        for interp in INTERP:
            program = f"{scene}{'_dt' + interp[1] if interp else ''}.prog"
            invocations.append((program, ["compile", "--scene", str(path), "--base", "B",
                                          *interp, "--out", program]))
            for replay, options in REPLAYS.items():
                trace = f"{program[:-5]}.{replay}.csv"
                invocations.append((trace, ["simulate", "--program", program, *options,
                                            "--out", trace]))

    bad_scene = json.loads(scenes["straight_seam"].read_text())
    bad_scene["workspace"] = {"min": [1.0, 0.0, 0.0], "max": [0.0, 1.0, 1.0]}
    (inputs / "bad.scene.json").write_text(json.dumps(bad_scene))
    (inputs / "bad.prog").write_text("PROGRAM p\nWOBBLE t1 SPEED 1.0\nEND\n")
    seam_text = scenes["straight_seam"].read_text()
    for refusal, (old, new) in SEGMENT_REFUSALS.items():
        if seam_text.count(old) != 1:
            raise CannotRun(f"straight_seam.scene.json holds {old!r} {seam_text.count(old)} times")
        name = f"refused_segment_{refusal}"
        scene = inputs / f"{name}.scene.json"
        scene.write_text(seam_text.replace(old, new))
        invocations.append((name, ["compile", "--scene", str(scene), "--base", "B",
                                   "--out", f"{name}.prog"]))
    for refusal, statements in LOADER_REFUSALS.items():
        program = inputs / f"refused_load_{refusal}.prog"
        program.write_text("\n".join(statements) + "\n")
        invocations.append((program.stem, ["simulate", "--program", str(program), "--scenario",
                                           "seam", "--out", f"{program.stem}.csv"]))
    for name, statements in SEAM_PROGRAMS.items():
        program = inputs / f"{name}.prog"
        program.write_text("\n".join(statements) + "\n")
        for case, options in SEAM_OFFSETS.items():
            invocations.append((f"{name}.{case}", ["simulate", "--program", str(program),
                                                   "--scenario", "seam", *options,
                                                   "--out", f"{name}.{case}.csv"]))
    statements = (tree / "tests" / "fixtures" / "straight_seam.prog").read_text().splitlines()
    spaced = "\r\n \t\r\n".join(line.replace(" ", "\t ") for line in statements) + "\r\n\r\n"
    (inputs / "spaced.prog").write_bytes(spaced.encode())
    invocations.append(("spaced", ["simulate", "--program", str(inputs / "spaced.prog"),
                                   *REPLAYS["seam"], "--out", "spaced.csv"]))
    profile = (tree / "tests" / "fixtures" / "profile.prog").read_text().splitlines()
    blanks = cycle(BLANKS)
    zeros = cycle(("-0", "+0.0000", "0", "-000.0"))
    spelled = {
        "blanks": [re.sub(" ", lambda _: next(blanks), line) for line in profile],
        "long_numbers": [re.sub(r"(-?)([0-9]+)\.([0-9]+)", lambda m: (
            next(zeros) if float(m[0]) == 0.0 else f"{m[1] or '+'}000{m[2]}.{m[3]}{'3' * 17}"
        ), line) for line in profile],
    }
    for name, statements in spelled.items():
        program = inputs / f"{name}.prog"
        program.write_bytes(("\n".join(statements) + "\n").encode())
        for replay in ("seam", "fuzzy"):
            invocations.append((f"{name}.{replay}", ["simulate", "--program", str(program),
                                                     *REPLAYS[replay],
                                                     "--out", f"{name}.{replay}.csv"]))
    fixture = "straight_seam.prog"
    invocations += [
        ("refused_base", ["compile", "--scene", str(scenes["butt_joint"]), "--base", "nope",
                          "--out", "refused_base.prog"]),
        ("refused_scene", ["compile", "--scene", str(inputs / "bad.scene.json"), "--base", "B",
                           "--out", "refused_scene.prog"]),
        ("refused_interp", ["compile", "--scene", str(scenes["butt_joint"]), "--base", "B",
                            "--interp-dt", "0", "--out", "refused_interp.prog"]),
        ("refused_program", ["simulate", "--program", str(inputs / "bad.prog"),
                             "--scenario", "seam", "--out", "refused_program.csv"]),
        ("refused_rate", ["simulate", "--program", fixture, "--scenario", "force",
                          "--rate", "0", "--out", "refused_rate.csv"]),
        ("refused_resolution", ["simulate", "--program", fixture, "--scenario", "seam",
                                "--resolution", "1e-320", "--out", "refused_resolution.csv"]),
        ("refused_roughness", ["simulate", "--program", fixture, "--scenario", "force",
                               "--roughness", "-1", "--out", "refused_roughness.csv"]),
        ("refused_stiffness", ["simulate", "--program", fixture, "--scenario", "force",
                               "--stiffness", "0", "--out", "refused_stiffness.csv"]),
        ("refused_usage", ["simulate", "--program", fixture, "--out", "refused_usage.csv"]),
    ]
    simulate = ["simulate", "--program", "reuse.prog", "--scenario"]
    invocations += [
        ("reuse_compile", ["compile", "--scene", str(scenes["straight_seam"]), "--base", "B",
                           "--out", "reuse.prog"]),
        ("reuse_seam_options", [*simulate, "seam", "--rate", "2", "--gain-y", "0.5",
                                "--out", "reuse_seam_options.csv"]),
        ("reuse_fuzzy_r16", [*simulate, "force", "--controller", "fuzzy", "--rate", "16",
                             "--out", "reuse_fuzzy_r16.csv"]),
        ("reuse_refused_rate", [*simulate, "force", "--rate", "0",
                                "--out", "reuse_refused_rate.csv"]),
        ("reuse_version", ["--version"]),
        ("reuse_unknown_subcommand", ["weld", "--out", "reuse_weld.csv"]),
        ("reuse_seam", [*simulate, "seam", "--out", "reuse_seam.csv"]),
        ("reuse_force", [*simulate, "force", "--out", "reuse_force.csv"]),
    ]
    return invocations


def run_revision(tree: Path, invocations) -> dict[str, bytes]:
    """Every output of one revision, keyed by name, with `tree` replaced by
    `<root>`."""
    runs = tree / "_compare_runs"
    runs.mkdir()
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=runs, env=env, capture_output=True,
                          input=json.dumps(invocations).encode())
    if proc.returncode != 0:
        raise CannotRun(f"runner in {tree} failed:\n{proc.stderr.decode()}")
    outputs = {}
    for name, code, stdout, stderr in json.loads(proc.stdout):
        outputs[f"{name} [exit]"] = str(code).encode()
        outputs[f"{name} [stdout]"] = stdout.encode()
        outputs[f"{name} [stderr]"] = stderr.encode()
    proc = subprocess.run([sys.executable, EXPERIMENT_RUNNER], cwd=tree, env=env,
                          capture_output=True)
    outputs[f"{EXPERIMENT_RUNNER} [exit]"] = str(proc.returncode).encode()
    outputs[f"{EXPERIMENT_RUNNER} [stdout]"] = proc.stdout
    outputs[f"{EXPERIMENT_RUNNER} [stderr]"] = proc.stderr
    files = [p for d in (runs, tree / "out") if d.is_dir() for p in sorted(d.rglob("*"))]
    for path in files:
        if path.is_file():
            outputs[str(path.relative_to(tree))] = path.read_bytes()
    root = str(tree).encode()
    return {key: value.replace(root, b"<root>") for key, value in outputs.items()}


def first_difference(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.decode(errors="replace").split("\n"), new.decode(
        errors="replace").split("\n")
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"line {i + 1}: old {a!r} new {b!r}"
    return f"line count: old {len(old_lines)} new {len(new_lines)}"


def compare(old: dict[str, bytes], new: dict[str, bytes]) -> int:
    differing = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            print(f"only in {'old' if key in old else 'new'}: {key}")
            differing += 1
        elif old[key] != new[key]:
            print(f"differs: {key}: {first_difference(old[key], new[key])}")
            differing += 1
    print(f"{len(old.keys() | new.keys()) - differing} outputs identical, {differing} differ")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="git revision to compare from")
    parser.add_argument("new", help="git revision to compare to")
    parser.add_argument("--workdir", type=Path,
                        help="empty or new directory for the exports (default: a temporary one, "
                             "removed afterwards)")
    args = parser.parse_args(argv)
    work = args.workdir or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        if work.exists() and any(work.iterdir()):
            raise CannotRun(f"{work} is not empty")
        trees = {side: work / side for side in ("old", "new")}
        export(args.old, trees["old"])
        export(args.new, trees["new"])
        invocations = write_inputs(work / "inputs", trees["new"])
        print(f"{len(invocations)} invocations and {EXPERIMENT_RUNNER} per revision: "
              f"{args.old} -> {args.new}")
        outputs = {side: run_revision(tree, invocations) for side, tree in trees.items()}
        compare(outputs["old"], outputs["new"])
    except (CannotRun, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
