"""robopath: compile CAD-style scene files into robot programs and replay
them against perturbed virtual cells with seam-tracking or force feedback."""

__version__ = "0.1.0"

from .geometry import Quaternion, RobopathError, Transform, compose, invert, apply, slerp
from .scene import Scene, parse_scene, serialize_scene, validate_chain
from .planner import PlannedPath, TargetPose, assign_orientations, interpolate_risk, rebase
from .codegen import RobotProgram, emit, load_program, lower, workspace_lint
from .simulate import (
    Environment,
    ForceConfig,
    SeamConfig,
    SimTrace,
    run_force,
    run_seam,
)

__all__ = [
    "Quaternion",
    "RobopathError",
    "Transform",
    "compose",
    "invert",
    "apply",
    "slerp",
    "Scene",
    "parse_scene",
    "serialize_scene",
    "validate_chain",
    "PlannedPath",
    "TargetPose",
    "assign_orientations",
    "interpolate_risk",
    "rebase",
    "RobotProgram",
    "emit",
    "lower",
    "workspace_lint",
    "Environment",
    "ForceConfig",
    "SeamConfig",
    "SimTrace",
    "load_program",
    "run_force",
    "run_seam",
    "__version__",
]
