"""Print the code lines of each module under src/ and their total.

A code line is a line that is not blank, not a comment alone, and not part
of a docstring (a string that is the first statement of a module, class or
function).  Run from anywhere: python3 tools/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def code_lines(path: Path) -> int:
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)


if __name__ == "__main__":
    counts = {path.stem: code_lines(path) for path in sorted(SRC.rglob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
