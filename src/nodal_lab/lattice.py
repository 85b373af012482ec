"""Integer points on spheres of radius sqrt(m).

The shell E(m) = {mu in Z^3 : |mu|^2 = m} is the frequency support of a
toral Laplace eigenfunction with eigenvalue 4*pi^2*m, and its cardinality
N = r_3(m) drives every estimate downstream.  Enumeration is exact integer
arithmetic with a deterministic (lexicographic) point order so that pair
sums and random sampling are reproducible run to run.  It searches only the
nonnegative octant, an (isqrt(m) + 1)^2 grid of (x, y) built a fixed number
of cells at a time, and reaches the other octants by sign changes; it serves
m < SHELL_M_LIMIT = 2^24.

Classification follows Legendre's three-square theorem: m is representable
unless m = 4^l(8k+7), and primitive representations exist exactly when
m is not congruent to 0, 4 or 7 mod 8 (the "admissible" m).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MClass",
    "Shell",
    "ProjectedShell",
    "enumerate_shell",
    "classify_m",
    "scale_check",
    "project_shell",
]

# enumerate_shell serves m below this: its octant grid then has at most
# 4096^2 cells, and every coordinate and key downstream stays small
SHELL_M_LIMIT = 2**24
# The octant grid is built this many cells at a time, whatever m is.
_OCTANT_CHUNK_CELLS = 1 << 16
# The eight sign patterns (sx, sy, sz) as rows, and the axes each one
# negates as the bits 4, 2 and 1 of a mask.
_SIGN_PATTERNS = np.array(list(itertools.product((1, -1), repeat=3)), dtype=np.int64)
_AXIS_BITS = np.array([4, 2, 1])
_NEGATED_AXES = (_SIGN_PATTERNS < 0) @ _AXIS_BITS


@dataclass(frozen=True)
class MClass:
    """Residue class data of m: residue mod 8, three-square representability,
    and existence of primitive lattice points."""

    residue: int
    representable: bool
    primitive: bool


@dataclass(frozen=True)
class Shell:
    """All lattice points with squared norm m.

    ``coords`` is a read-only (n, 3) int64 array in lexicographic order, so
    row i is the antipode of row n-1-i; the half-shell sums rely on that.
    Its size n and the residue class of m are read from coords and m.
    """

    m: int
    coords: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def m_class(self) -> MClass:
        return classify_m(self.m)

    @property
    def radius(self) -> float:
        return math.sqrt(self.m)


@dataclass(frozen=True)
class ProjectedShell:
    """The shell scaled onto the unit sphere: unit_points[i] = mu_i / sqrt(m)."""

    m: int
    unit_points: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.unit_points)


def classify_m(m: int) -> MClass:
    """Classify m by residue, representability and primitivity.

    Representability strips factors of 4 and rejects residue 7; primitivity
    is the plain residue test m mod 8 not in {0, 4, 7}.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    reduced = m
    while reduced % 4 == 0:
        reduced //= 4
    return MClass(
        residue=m % 8,
        representable=(reduced % 8 != 7),
        primitive=(m % 8 not in (0, 4, 7)),
    )


def enumerate_shell(m: int) -> Shell:
    """Enumerate E(m) = {(x, y, z) in Z^3 : x^2 + y^2 + z^2 = m}.

    The points with nonnegative coordinates come from the octant grid of
    (x, y) in [0, isqrt(m)]^2, with an exact integer square-root test for the
    remaining z^2, run over x rows of at most _OCTANT_CHUNK_CELLS cells, so
    the grid's memory does not grow with m.  Each octant point then takes its
    sign patterns, a zero coordinate only its + sign, and the points come
    back in lexicographic order.  An empty shell is a valid result.  Raises
    ValueError for m >= SHELL_M_LIMIT.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m >= SHELL_M_LIMIT:
        raise ValueError(f"m must be below 2^24 = {SHELL_M_LIMIT} to enumerate its shell, "
                         f"got {m}")
    squares = np.arange(math.isqrt(m) + 1, dtype=np.int64) ** 2
    step = max(1, _OCTANT_CHUNK_CELLS // len(squares))
    octant = np.concatenate([_octant_rows(m, squares, lo, lo + step)
                             for lo in range(0, len(squares), step)])
    # every sign pattern of every octant point; a pattern that negates a zero
    # coordinate repeats the + copy and is dropped
    keep = (_NEGATED_AXES[:, None] & ((octant == 0) @ _AXIS_BITS)) == 0
    pts = (_SIGN_PATTERNS[:, None, :] * octant)[keep]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = np.ascontiguousarray(pts[order])
    pts.setflags(write=False)
    return Shell(m=m, coords=pts)


def _octant_rows(m: int, squares: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The shell points with nonnegative coordinates and x in [lo, hi), as
    int64 rows (x, y, z); squares holds y^2 for y = 0 .. isqrt(m)."""
    rem = m - squares[lo:hi, None] - squares
    # rem < 2^53, so the root of a square is exact; -1 where rem < 0, which
    # no integer squares to
    root = np.sqrt(rem, where=rem >= 0, out=np.full(rem.shape, -1.0))
    z = np.rint(root).astype(np.int64)
    x, y = np.nonzero(z * z == rem)
    return np.stack([lo + x, y, z[x, y]], axis=1)


def _check_nonempty(shell: Shell) -> None:
    """Raise ValueError on the empty shell, which has no points to sum,
    sample or project."""
    if shell.n == 0:
        raise ValueError(f"no lattice points on the empty shell m={shell.m}")


def _antipodal_half(rows: np.ndarray, m: int) -> np.ndarray:
    """The first half of rows, once row i is checked to be the antipode of row
    n-1-i: a half-shell sum would else miss some pairs and count others twice."""
    if not np.array_equal(rows[::-1], -rows):
        raise ValueError(f"shell m={m}: row i must be the antipode of row n-1-i, "
                         f"as in lexicographic order")
    return rows[: len(rows) // 2]


def scale_check(m: int) -> bool:
    """True iff E(4m) equals {2*mu : mu in E(m)} as a set of points."""
    doubled = 2 * enumerate_shell(m).coords
    return np.array_equal(doubled, enumerate_shell(4 * m).coords)


def project_shell(shell: Shell) -> ProjectedShell:
    """Scale the shell onto the unit sphere (divide every point by sqrt(m))."""
    _check_nonempty(shell)
    unit = shell.coords / math.sqrt(shell.m)
    unit.setflags(write=False)
    return ProjectedShell(m=shell.m, unit_points=unit)
