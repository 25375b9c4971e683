#!/usr/bin/env python3
"""Size of the robopath package, module by module, and its import time.

For each module under src/robopath and in total, prints the number of AST
nodes (every node `ast.walk` visits) and the number of lines that are
neither blank nor a `#` comment. Docstrings count as lines. Then prints the
median time of 15 re-imports of `robopath.cli`, each compiled from source:
in a subprocess with numpy already imported, PYTHONDONTWRITEBYTECODE=1 and
an empty bytecode cache, as a fresh checkout runs the CLI. Compiling
follows AST size; the rest is what the modules run at import.

    python3 scripts/src_size.py [PACKAGE_DIR [NEW_PACKAGE_DIR]]

Given two package directories, prints both sizes of each module and both
import times, and the change from the first to the second; a module missing
on one side counts as 0 there.
"""

import ast
import os
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
# each of argv[2] rounds; prints their median in seconds.
_REIMPORT = """
import importlib, statistics, sys, time
import numpy
sys.path.insert(0, sys.argv[1])

def load():
    for name in [m for m in sys.modules if m.split(".")[0] == "robopath"]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("robopath.cli")
    return time.perf_counter() - start

load()
print(statistics.median(load() for _ in range(int(sys.argv[2]))))
"""

IMPORT_ROUNDS = 15


def import_ms(package: Path) -> float:
    """Median time, in ms, of IMPORT_ROUNDS re-imports of robopath.cli from
    `package`, each compiled from source."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        out = subprocess.run(
            [sys.executable, "-c", _REIMPORT, str(package.parent), str(IMPORT_ROUNDS)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
    return 1e3 * float(out)


IMPORT_LABEL = f"import robopath.cli, median of {IMPORT_ROUNDS} (ms)"


def main(package: Path) -> None:
    print(f"{'module':<16} {'nodes':>7} {'lines':>6}")
    for name, (nodes, lines) in sizes(package).items():
        print(f"{name:<16} {nodes:>7} {lines:>6}")
    print(f"{IMPORT_LABEL}: {import_ms(package):.1f}")


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
    old_ms, new_ms = import_ms(old_package), import_ms(new_package)
    print(f"{IMPORT_LABEL}: {old_ms:.1f} -> {new_ms:.1f} ({new_ms - old_ms:+.1f})")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        compare(Path(sys.argv[1]), Path(sys.argv[2]))
    else:
        main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
