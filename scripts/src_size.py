#!/usr/bin/env python3
"""Size of the robopath package, module by module.

For each module under src/robopath and in total, prints the number of AST
nodes (every node `ast.walk` visits) and the number of lines that are
neither blank nor a `#` comment. Docstrings count as lines.

    python3 scripts/src_size.py [PACKAGE_DIR]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robopath"


def size(source: str) -> tuple[int, int]:
    """AST nodes and non-blank, non-comment lines of one module's source."""
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    stripped = (line.strip() for line in source.splitlines())
    lines = sum(1 for line in stripped if line and not line.startswith("#"))
    return nodes, lines


def main(package: Path) -> None:
    total_nodes = total_lines = 0
    print(f"{'module':<16} {'nodes':>7} {'lines':>6}")
    for path in sorted(package.glob("*.py")):
        nodes, lines = size(path.read_text(encoding="utf-8"))
        total_nodes += nodes
        total_lines += lines
        print(f"{path.name:<16} {nodes:>7} {lines:>6}")
    print(f"{'total':<16} {total_nodes:>7} {total_lines:>6}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
