#!/usr/bin/env python3
"""Size of the robopath package, module by module, and its import time.

For each module under src/robopath and in total, prints the number of AST
nodes (every node `ast.walk` visits) and the number of lines that are
neither blank nor a `#` comment. Docstrings count as lines. Then prints the
median time of 15 re-imports of `robopath.cli`, each compiled from source:
in a subprocess with numpy already imported, PYTHONDONTWRITEBYTECODE=1 and
an empty bytecode cache, as a fresh checkout runs the CLI. Compiling
follows AST size; the rest is what the modules run at import. The
re-imports run in 5 rounds of one subprocess of 3 re-imports each.

    python3 scripts/src_size.py [PACKAGE_DIR [NEW_PACKAGE_DIR]]

Given two package directories, prints both sizes of each module and both
import times, and the change from the first to the second; a module missing
on one side counts as 0 there. Each round then runs one subprocess per
tree, taking turns on which tree goes first, so that a host that drifts
slows both trees alike; the line also says in how many rounds the new
tree's median was the lower. A directory without an `__init__.py` is
refused with the usage line and exit code 2.
"""

import argparse
import ast
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robopath"


def size(source: str) -> tuple[int, int]:
    """AST nodes and non-blank, non-comment lines of one module's source."""
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    stripped = (line.strip() for line in source.splitlines())
    lines = sum(1 for line in stripped if line and not line.startswith("#"))
    return nodes, lines


def sizes(package: Path) -> dict[str, tuple[int, int]]:
    """Module file name -> (AST nodes, lines) for every module of `package`,
    then "total" -> their sums."""
    table = {path.name: size(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    table["total"] = tuple(map(sum, zip(*table.values()))) or (0, 0)
    return table


# Imports robopath.cli once, so that the standard library modules it uses
# are loaded, then drops every robopath module and imports it again, timing
# each of argv[2] re-imports; prints their times in seconds.
_REIMPORT = """
import importlib, sys, time
import numpy
sys.path.insert(0, sys.argv[1])

def load():
    for name in [m for m in sys.modules if m.split(".")[0] == "robopath"]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("robopath.cli")
    return time.perf_counter() - start

load()
print(*(load() for _ in range(int(sys.argv[2]))))
"""

ROUNDS, REIMPORTS = 5, 3


def import_ms(package: Path) -> list[float]:
    """Times, in ms, of REIMPORTS re-imports of robopath.cli from
    `package` in one subprocess, each compiled from source."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        out = subprocess.run(
            [sys.executable, "-c", _REIMPORT, str(package.parent), str(REIMPORTS)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
    return [1e3 * float(t) for t in out.split()]


def import_rounds(*packages: Path) -> list[list[list[float]]]:
    """Per package, per round, the times of `import_ms`; round r starts
    with package r mod len(packages) and runs the others in turn."""
    n = len(packages)
    times = [[] for _ in packages]
    for r in range(ROUNDS):
        for k in [(r + i) % n for i in range(n)]:
            times[k].append(import_ms(packages[k]))
    return times


def median(rounds: list[list[float]]) -> float:
    return statistics.median(t for round_ in rounds for t in round_)


IMPORT_LABEL = f"import robopath.cli, median of {ROUNDS} x {REIMPORTS} (ms)"


def main(package: Path) -> None:
    print(f"{'module':<16} {'nodes':>7} {'lines':>6}")
    for name, (nodes, lines) in sizes(package).items():
        print(f"{name:<16} {nodes:>7} {lines:>6}")
    (times,) = import_rounds(package)
    print(f"{IMPORT_LABEL}: {median(times):.1f}")


def compare(old_package: Path, new_package: Path) -> None:
    old, new = sizes(old_package), sizes(new_package)
    names = sorted((old.keys() | new.keys()) - {"total"}) + ["total"]
    print(f"{'module':<16} {'nodes':>7} {'new':>7} {'change':>7} "
          f"{'lines':>6} {'new':>6} {'change':>7}")
    for name in names:
        (old_nodes, old_lines), (new_nodes, new_lines) = (
            old.get(name, (0, 0)), new.get(name, (0, 0))
        )
        print(f"{name:<16} {old_nodes:>7} {new_nodes:>7} {new_nodes - old_nodes:>+7} "
              f"{old_lines:>6} {new_lines:>6} {new_lines - old_lines:>+7}")
    old_times, new_times = import_rounds(old_package, new_package)
    old_ms, new_ms = median(old_times), median(new_times)
    faster = sum(statistics.median(n) < statistics.median(o)
                 for o, n in zip(old_times, new_times))
    print(f"{IMPORT_LABEL}: {old_ms:.1f} -> {new_ms:.1f} ({new_ms - old_ms:+.1f}), "
          f"new tree faster in {faster} of {ROUNDS} rounds")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Size and import time of the robopath package, or of two copies of it.")
    parser.add_argument("packages", nargs="*", type=Path, metavar="PACKAGE_DIR",
                        help="package directory (default: src/robopath); give two to compare")
    packages = parser.parse_args().packages or [PACKAGE]
    if len(packages) > 2:
        parser.error("at most two package directories")
    for package in packages:
        if not (package / "__init__.py").is_file():
            parser.error(f"{package} is not a package directory: it has no __init__.py")
    if len(packages) == 2:
        compare(*packages)
    else:
        main(packages[0])
