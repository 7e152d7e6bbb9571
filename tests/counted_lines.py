"""Count the lines of code in a package, as ROADMAP's aim-2 figures count them.

    python3 tests/counted_lines.py [PACKAGE_DIR]

A counted line is one that is not blank, not a ``#`` comment and not
inside the docstring of a module, class or function.  Every other line
counts, the lines of a multi-line string that is not a docstring among
them.  Prints one line per module of PACKAGE_DIR (``src/weillab`` by
default, relative to the checkout), then their total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counted_lines(source: str) -> int:
    """The number of counted lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "weillab"
    counts = {path.name: counted_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<16}{count:>6}")
    print(f"{'total':<16}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
