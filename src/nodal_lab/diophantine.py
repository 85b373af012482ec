"""Direction rationality and Diophantine approximation of unit vectors.

A unit vector alpha is classified by the ratios alpha2/alpha1 and
alpha3/alpha1: both rational, exactly one rational, or neither.  Floating
point cannot detect irrationality, so the class is DECLARED through the
constructor recipe (integer triple, integer ratio plus an irrational seed,
or symbolic irrational seeds) rather than inferred.

Dirichlet's theorem supplies denominators q <= H (simultaneous: q <= H^2)
with |zeta - p/q| < 1/(qH); the searches here are exhaustive scans with
exact rational comparisons, which is both simpler and fully verifiable at
desk scale.  From those, integer vectors a approximating alpha are built
with the classical bounds |a| <= 3H^2 (both ratios irrational) and
|a| < sqrt(3)*tau^2*H (one rational ratio, tau = max(|u|, v, 1/alpha1) + 1).
"""

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Rationality",
    "Direction",
    "RationalApprox",
    "dirichlet_1d",
    "dirichlet_simultaneous",
    "approx_direction",
]


# Integer direction entries (a rational triple, or a half-rational u, v) stay
# below this in magnitude after gcd reduction, so each exact pair test
# |<mu - mu', a>| < 3 * 2^32 * sqrt(m) on |mu|^2 = m fits int64 for m < ~5e17.
INT_DIRECTION_LIMIT = 2**31


def _check_int_entries(entries: tuple[int, ...]) -> None:
    if any(abs(t) >= INT_DIRECTION_LIMIT for t in entries):
        raise ValueError(
            f"integer direction entries must have magnitude below INT_DIRECTION_LIMIT = "
            f"{INT_DIRECTION_LIMIT} after gcd reduction, got {entries}")


class Rationality(enum.Enum):
    RATIONAL = "rational"
    HALF_RATIONAL = "half_rational"
    IRRATIONAL = "irrational"


def _canonical_sign(vec) -> int:
    for comp in vec:
        if comp != 0:
            return 1 if comp > 0 else -1
    raise ValueError("zero vector has no canonical sign")


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit direction with declared rationality.

    ``ints`` stores the primitive integer triple for RATIONAL directions;
    ``uv`` the reduced integer ratio alpha2/alpha1 = u/v and ``zeta`` the
    declared-irrational ratio alpha3/alpha1 for HALF_RATIONAL ones.  The
    canonical sign convention makes the first nonzero component positive.
    """

    components: np.ndarray = field(repr=False)
    rationality: Rationality
    ints: tuple[int, int, int] | None = None
    uv: tuple[int, int] | None = None
    zeta: float | None = None
    label: str = ""

    @classmethod
    def rational(cls, a: int, b: int, c: int) -> "Direction":
        triple = (int(a), int(b), int(c))
        if not any(triple):
            raise ValueError("rational direction needs a nonzero integer triple")
        g = math.gcd(*triple)
        triple = tuple(t // g for t in triple)
        _check_int_entries(triple)
        sign = _canonical_sign(triple)
        triple = tuple(sign * t for t in triple)
        comps = np.array(triple, dtype=np.float64)
        comps /= np.linalg.norm(comps)
        comps.setflags(write=False)
        return cls(components=comps, rationality=Rationality.RATIONAL,
                   ints=triple, label=f"rat:{triple[0]},{triple[1]},{triple[2]}")

    @classmethod
    def half_rational(cls, u: int, v: int, zeta: float, label: str = "") -> "Direction":
        """alpha proportional to (v, u, zeta*v) with declared-irrational zeta."""
        u, v = int(u), int(v)
        if not math.isfinite(zeta):
            raise ValueError(f"zeta must be finite, got {zeta}")
        if v < 1:
            raise ValueError(f"v must be a positive integer, got {v}")
        g = math.gcd(abs(u), v)
        u, v = u // g, v // g
        _check_int_entries((u, v))
        vec = np.array([v, u, zeta * v], dtype=np.float64)
        comps = vec / np.linalg.norm(vec)
        comps.setflags(write=False)
        return cls(components=comps, rationality=Rationality.HALF_RATIONAL,
                   uv=(u, v), zeta=float(zeta),
                   label=label or f"halfrat:{u},{v},{zeta!r}")

    @classmethod
    def irrational(cls, x: float, y: float, z: float, label: str = "") -> "Direction":
        """Direction with both ratios declared irrational by the caller's recipe."""
        vec = np.array([x, y, z], dtype=np.float64)
        if not np.isfinite(vec).all():
            raise ValueError(f"direction components must be finite, got {vec.tolist()}")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        vec = vec * (_canonical_sign(vec) / norm)
        vec.setflags(write=False)
        return cls(components=vec, rationality=Rationality.IRRATIONAL,
                   label=label or f"irr:{x!r},{y!r},{z!r}")

    def __post_init__(self):
        norm = float(np.linalg.norm(self.components))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"direction is not a finite unit vector: |alpha| = {norm}")

    def __str__(self) -> str:
        return self.label or f"dir({self.components.tolist()})"


@dataclass(frozen=True)
class RationalApprox:
    """Integer approximation a of a unit direction: angle_err = |alpha - a/|a||.

    With both ratios irrational: |a| <= 3*H^2 and angle_err < 6*sqrt(2)/(|a|*H).
    With one rational ratio:    |a| < sqrt(3)*tau^2*H and
    angle_err < 2*sqrt(3)*tau^2/(|a|*H).
    """

    a: tuple[int, int, int]
    h_param: int
    angle_err: float
    tau: float | None = None

    @property
    def norm(self) -> float:
        return math.sqrt(sum(t * t for t in self.a))


def _qualifies(zeta: Fraction, p: int, q: int, h_param: int) -> bool:
    return abs(zeta - Fraction(p, q)) * (q * h_param) < 1


def dirichlet_1d(zeta: float, h_param: int) -> tuple[int, int]:
    """Best rational p/q with 1 <= q <= H and |zeta - p/q| < 1/(qH).

    Exhaustive scan with exact rational comparisons; among qualifying pairs
    the one with the smallest error (ties: smallest q) is returned.  Dirichlet
    guarantees at least one qualifying pair exists for every real zeta.
    """
    if h_param < 1:
        raise ValueError(f"H must be >= 1, got {h_param}")
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    zf = Fraction(zeta)
    best: tuple[Fraction, int, int] | None = None
    for q in range(1, h_param + 1):
        p = round(q * zf)
        if not _qualifies(zf, p, q, h_param):
            continue
        err = abs(zf - Fraction(p, q))
        if best is None or err < best[0]:
            best = (err, p, q)
    if best is None:
        raise RuntimeError("Dirichlet guarantee violated")  # unreachable
    return best[1], best[2]


def dirichlet_simultaneous(zeta1: float, zeta2: float,
                           h_param: int) -> tuple[int, int, int]:
    """First q in [1, H^2] with |zeta_i - p_i/q| < 1/(qH) for both nearest
    integers p_i = round(q*zeta_i)."""
    if h_param < 1:
        raise ValueError(f"H must be >= 1, got {h_param}")
    if not (math.isfinite(zeta1) and math.isfinite(zeta2)):
        raise ValueError("zeta values must be finite")
    qmax = h_param * h_param
    # float prefilter over all q at once, then exact confirmation in order
    qs = np.arange(1, qmax + 1, dtype=np.float64)
    err1 = np.abs(zeta1 - np.rint(qs * zeta1) / qs) * qs * h_param
    err2 = np.abs(zeta2 - np.rint(qs * zeta2) / qs) * qs * h_param
    candidates = np.flatnonzero((err1 < 1.0 + 1e-9) & (err2 < 1.0 + 1e-9))
    z1, z2 = Fraction(zeta1), Fraction(zeta2)
    for idx in candidates:
        q = int(idx) + 1
        p1, p2 = round(q * z1), round(q * z2)
        if _qualifies(z1, p1, q, h_param) and _qualifies(z2, p2, q, h_param):
            return q, p1, p2
    raise RuntimeError("Dirichlet guarantee violated")


def approx_direction(direction: Direction, h_param: int) -> RationalApprox:
    """Integer direction approximation via the Dirichlet construction.

    Both ratios irrational: permute so |alpha_1| is maximal (and flip sign),
    approximate (alpha_2/alpha_1, alpha_3/alpha_1) simultaneously by (p1/q,
    p2/q), and take a = (q, p1, p2) carried back through the permutation.
    One rational ratio u/v: approximate zeta = alpha_3/alpha_1 by p/q and
    take a = (q*v, q*u, p*v).
    """
    if h_param < 1:
        raise ValueError(f"H must be >= 1, got {h_param}")
    if direction.rationality is Rationality.RATIONAL:
        raise ValueError("use exact integer direction")
    comps = direction.components
    if direction.rationality is Rationality.IRRATIONAL:
        perm = int(np.argmax(np.abs(comps)))
        order = [perm] + [i for i in range(3) if i != perm]
        permuted = comps[order]
        sign = 1.0 if permuted[0] > 0 else -1.0
        permuted = sign * permuted
        q, p1, p2 = dirichlet_simultaneous(
            permuted[1] / permuted[0], permuted[2] / permuted[0], h_param)
        a_perm = (q, p1, p2)
        a = [0, 0, 0]
        for slot, idx in enumerate(order):
            a[idx] = int(round(sign)) * a_perm[slot]
        tau = None
    else:
        u, v = direction.uv
        p, q = dirichlet_1d(direction.zeta, h_param)
        a = [q * v, q * u, p * v]
        tau = max(abs(u), v, 1.0 / comps[0]) + 1.0
    a_vec = np.array(a, dtype=np.float64)
    unit = a_vec / np.linalg.norm(a_vec)
    chord = float(np.linalg.norm(comps - unit))
    return RationalApprox(a=tuple(int(t) for t in a), h_param=h_param,
                          angle_err=chord, tau=tau)

