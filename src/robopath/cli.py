"""Command-line entry point: compile scenes into programs, simulate programs.

Every run writes its outputs plus a manifest (`<out>.manifest.json`) holding
the resolved configuration, input digests, seed, and tool version, so the
run can be reproduced from the manifest alone. Identical invocations produce
byte-identical outputs.

The module builds its one parser with `build_parser` at import, and every
`main` call in the process reuses it; argparse keeps no state from one parse
to the next, so each call parses as a fresh parser would.

Exit codes: 0 success; 1 parse/validation/load failure; 2 workspace lint
failures under --strict (compile); 3 aborted simulation run (partial trace
still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .codegen import emit, load_program, lower, workspace_lint
from .geometry import RobopathError, Transform, rotation_about_z
from .planner import assign_orientations, interpolate_risk, rebase
from .scene import parse_scene
from .simulate import (
    ControllerKind,
    Environment,
    ForceConfig,
    SeamConfig,
    run_force,
    run_seam,
)

# Refused input: every robopath error, an unreadable file, or bytes that
# are not UTF-8.
_ERRORS = (RobopathError, OSError, UnicodeDecodeError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_input(path: Path) -> tuple[str, str]:
    """The file's text as strict UTF-8 and the SHA-256 digest of the bytes
    it was decoded from; the file is read once, so the manifest records the
    bytes that were parsed."""
    data = path.read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _write_manifest(
    out: Path, subcommand: str, input_path: Path, digest: str, options: dict, seed
):
    manifest = {
        "tool": "robopath",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": {
            "path": str(input_path),
            "sha256": digest,
        },
        "options": options,
        "seed": seed,
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def cmd_compile(args) -> int:
    scene_path = Path(args.scene)
    try:
        scene_text, scene_digest = _read_input(scene_path)
        scene = parse_scene(scene_text)
        if args.speed_override is not None and not 0.0 < args.speed_override < math.inf:
            return _fail("--speed-override must be positive and finite")
        scene = rebase(scene, args.base)
        plans = assign_orientations(scene)
        if args.path is not None:
            by_name = {p.name: p for p in plans}
            if args.path not in by_name:
                return _fail(f"scene has no path named {args.path!r}")
            plan = by_name[args.path]
        else:
            plan = plans[0]
        if args.speed_override is not None:  # as if it replaced every segment speed
            plan = dataclasses.replace(plan, speeds=[args.speed_override] * len(plan.kinds))
        plan = interpolate_risk(plan, args.interp_dt)
        program = lower(plan)
        findings = []
        if scene.workspace is not None:
            findings = workspace_lint(program, scene.workspace)
        text = emit(program)
        out = Path(args.out)
        out.write_text(text)
        _write_manifest(
            out,
            "compile",
            scene_path,
            scene_digest,
            {
                "scene": str(scene_path),
                "base": args.base,
                "path": plan.name,
                "interp_dt_s": args.interp_dt,
                "speed_override_mm_s": args.speed_override,
                "strict": args.strict,
                "out": str(out),
            },
            None,
        )
    except _ERRORS as exc:
        return _fail(str(exc))

    for finding in findings:
        print(f"lint: {finding.message}", file=sys.stderr)
    if findings and args.strict:
        print(f"error: {len(findings)} workspace lint failure(s)", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    program_path = Path(args.program)
    try:
        program_text, program_digest = _read_input(program_path)
        program = load_program(program_text)
        env = Environment(
            offset=Transform(
                rotation_about_z(math.radians(args.rot_z_deg)),
                [args.offset_x, args.offset_y, args.offset_z],
            ),
            roughness_mm=args.roughness,
            seed=args.seed,
            stiffness_n_per_mm=args.stiffness,
        )
        if args.scenario == "seam":
            cfg = SeamConfig(
                rate_hz=args.rate if args.rate is not None else SeamConfig.rate_hz,
                resolution_mm=args.resolution,
                gain_y=args.gain_y,
                gain_z=args.gain_z,
            )
            trace = run_seam(program, env, cfg, args.duration)
        else:
            cfg = ForceConfig(
                rate_hz=args.rate if args.rate is not None else ForceConfig.rate_hz,
                setpoint_n=args.setpoint,
                controller=ControllerKind(args.controller),
                kp=args.kp,
                ki=args.ki,
            )
            trace = run_force(program, env, cfg, args.duration)
        out = Path(args.out)
        out.write_text(trace.to_csv())
        options = {
            "program": str(program_path),
            "scenario": args.scenario,
            "offset_mm": [args.offset_x, args.offset_y, args.offset_z],
            "rot_z_deg": args.rot_z_deg,
            "roughness_mm": args.roughness,
            "stiffness_n_per_mm": args.stiffness,
            "duration_s": args.duration,
            "config": dataclasses.asdict(cfg),
            "out": str(out),
        }
        _write_manifest(out, "simulate", program_path, program_digest, options, args.seed)
    except _ERRORS as exc:
        return _fail(str(exc))

    print(trace.summary())
    return 3 if trace.aborted else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robopath",
        description="Compile scene files into robot programs and replay them "
        "against a perturbed cell with sensor feedback.",
    )
    parser.add_argument("--version", action="version", version=f"robopath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="scene file -> robot program")
    c.add_argument("--scene", required=True, help="scene JSON file")
    c.add_argument("--base", required=True, help="calibration frame name")
    c.add_argument("--path", help="path name to compile (default: first path)")
    c.add_argument(
        "--interp-dt", type=float, default=0.1,
        help="sampling width for risk-area interpolation, seconds (default %(default)s)",
    )
    c.add_argument("--speed-override", type=float, help="replace every segment speed, mm/s")
    c.add_argument(
        "--strict", action="store_true",
        help="exit 2 when any target lies outside the declared workspace",
    )
    c.add_argument("--out", required=True, help="program file to write")
    c.set_defaults(func=cmd_compile)

    s = sub.add_parser("simulate", help="robot program -> feedback trace CSV")
    s.add_argument("--program", required=True, help="program file")
    s.add_argument("--scenario", required=True, choices=["seam", "force"])
    s.add_argument("--offset-x", type=float, default=0.0, help="workpiece offset, mm")
    s.add_argument("--offset-y", type=float, default=0.0, help="workpiece offset, mm")
    s.add_argument("--offset-z", type=float, default=0.0, help="workpiece offset, mm")
    s.add_argument(
        "--rot-z-deg", type=float, default=0.0,
        help="workpiece rotation about z, degrees",
    )
    s.add_argument("--gain-y", type=float, default=SeamConfig.gain_y, help="seam gain, Y axis")
    s.add_argument("--gain-z", type=float, default=SeamConfig.gain_z, help="seam gain, Z axis")
    s.add_argument(
        "--rate", type=float,
        help=f"control rate, Hz (default {SeamConfig.rate_hz:g} seam / "
        f"{ForceConfig.rate_hz:g} force)",
    )
    s.add_argument(
        "--resolution", type=float, default=SeamConfig.resolution_mm,
        help="robot correction resolution, mm (seam)",
    )
    s.add_argument(
        "--setpoint", type=float, default=ForceConfig.setpoint_n, help="contact force, N"
    )
    s.add_argument(
        "--controller", choices=[k.value for k in ControllerKind],
        default=ForceConfig.controller.value,
    )
    s.add_argument("--kp", type=float, default=ForceConfig.kp, help="PI proportional gain, mm/N")
    s.add_argument("--ki", type=float, default=ForceConfig.ki, help="PI integral gain, mm/(N s)")
    s.add_argument(
        "--stiffness", type=float, default=Environment.stiffness_n_per_mm,
        help="surface stiffness, N/mm",
    )
    s.add_argument(
        "--roughness", type=float, default=Environment.roughness_mm,
        help="surface roughness amplitude, mm (force)",
    )
    s.add_argument("--seed", type=int, default=Environment.seed, help="roughness RNG seed")
    s.add_argument(
        "--duration", type=float, help="cap simulated time, seconds (default: full path)"
    )
    s.add_argument("--out", required=True, help="trace CSV to write")
    s.set_defaults(func=cmd_simulate)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
