"""Integer points on spheres of radius sqrt(m).

The shell E(m) = {mu in Z^3 : |mu|^2 = m} is the frequency support of a
toral Laplace eigenfunction with eigenvalue 4*pi^2*m, and its cardinality
N = r_3(m) drives every estimate downstream.  Enumeration is exact integer
arithmetic with a deterministic (lexicographic) point order so that pair
sums and random sampling are reproducible run to run.

Classification follows Legendre's three-square theorem: m is representable
unless m = 4^l(8k+7), and primitive representations exist exactly when
m is not congruent to 0, 4 or 7 mod 8 (the "admissible" m).
"""

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

    Double loop over (x, y) with an exact integer square-root test for the
    remaining z^2; an empty shell is a valid result.  Points come back in
    lexicographic order.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    rx = math.isqrt(m)
    axis = np.arange(-rx, rx + 1, dtype=np.int64)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    rem = m - gx * gx - gy * gy
    ok = rem >= 0
    xs, ys, rem = gx[ok], gy[ok], rem[ok]
    z = np.rint(np.sqrt(rem.astype(np.float64))).astype(np.int64)
    sq = z * z == rem  # exact perfect-square test (rem <= m so sqrt is exact)
    xs, ys, z = xs[sq], ys[sq], z[sq]
    upper = np.stack([xs, ys, z], axis=1)
    lower = np.stack([xs, ys, -z], axis=1)[z > 0]
    pts = np.concatenate([upper, lower], axis=0)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = np.ascontiguousarray(pts[order])
    pts.setflags(write=False)
    return Shell(m=m, coords=pts)


def scale_check(m: int) -> bool:
    """True iff E(4m) equals {2*mu : mu in E(m)} as a set of points."""
    doubled = 2 * enumerate_shell(m).coords
    return np.array_equal(doubled, enumerate_shell(4 * m).coords)


def project_shell(shell: Shell) -> ProjectedShell:
    """Scale the shell onto the unit sphere (divide every point by sqrt(m))."""
    if shell.n == 0:
        raise ValueError(f"no lattice points: E({shell.m}) is empty")
    unit = shell.coords / math.sqrt(shell.m)
    unit.setflags(write=False)
    return ProjectedShell(m=shell.m, unit_points=unit)
