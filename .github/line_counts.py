"""Line counts of Python source trees, split by kind.

Usage: python .github/line_counts.py [DIR ...]   (default: src tests)

For each directory it prints the total over its *.py files, recursively,
and the split into code, docstring, comment and blank lines.  A docstring
line is one inside a module, class or function docstring, blank ones
included; a comment line holds nothing but a comment; a line with code
and a trailing comment is code.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers inside a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Lines of one file by kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(dirs: list[str]) -> None:
    for name in dirs:
        total = dict.fromkeys(KINDS, 0)
        for path in sorted(Path(name).rglob("*.py")):
            for kind, n in count(path).items():
                total[kind] += n
        split = " + ".join(f"{kind} {total[kind]}" for kind in KINDS)
        print(f"{name}: {sum(total.values())} lines = {split}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src", "tests"])
