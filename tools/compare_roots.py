"""Compare the roots entries of two report matrices.

Usage: python3 tools/compare_roots.py OUT_A OUT_B

OUT_A and OUT_B are output directories of tools/report_matrix.py.  Each line
of their roots.out names a sample (m, direction, the length when shown, seed)
and gives its zero count, its two flags and its roots as float.hex.  The
exit code is 0 only if both files have the same lines in the same order,
every line keeps its sample, count and flags, and every root moved by at
most 2 * BISECT_TOL; otherwise it is 1, and each offending line is printed.
The largest move of a root is printed either way.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nodal_lab.nodal import BISECT_TOL  # noqa: E402


def _split(line: str):
    """The words before the roots, and the roots as floats."""
    words = line.split()
    first = next((i for i, w in enumerate(words) if w.lstrip("-").startswith("0x")), len(words))
    return words[:first], [float.fromhex(w) for w in words[first:]]


def compare(text_a: str, text_b: str) -> tuple[list[str], float]:
    """The offending lines of two roots.out texts, and the largest root move."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    bad = [] if len(lines_a) == len(lines_b) else [
        f"{len(lines_a)} lines against {len(lines_b)}"]
    largest = 0.0
    for number, (a, b) in enumerate(zip(lines_a, lines_b), 1):
        (head_a, roots_a), (head_b, roots_b) = _split(a), _split(b)
        if head_a != head_b or len(roots_a) != len(roots_b):
            bad.append(f"line {number}: {' '.join(head_a)} | {' '.join(head_b)}")
            continue
        move = max((abs(x - y) for x, y in zip(roots_a, roots_b)), default=0.0)
        largest = max(largest, move)
        if move > 2 * BISECT_TOL:
            bad.append(f"line {number}: {' '.join(head_a)}: a root moved by {move:.3e}")
    return bad, largest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    text_a, text_b = (Path(out, "roots.out").read_text() for out in argv)
    bad, largest = compare(text_a, text_b)
    for line in bad:
        print(line)
    print(f"{len(text_a.splitlines())} lines, {len(bad)} offending, "
          f"largest root move {largest:.3e} (bound {2 * BISECT_TOL:.1e})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
