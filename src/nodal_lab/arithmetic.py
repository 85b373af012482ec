"""Exact pair sums over the shell and the variance bounds built from them.

Everything here reduces to the oscillatory integral

    integral_sq(beta, L) = |integral_0^L e^{2 pi i t beta} dt|^2
                         = sin^2(pi L beta) / (pi beta)^2,   L^2 at beta = 0,

evaluated at the pair frequencies beta = <mu - mu', alpha> and combined in
O(N^2) double sums: the normalized pair sum q_sum, the squared-covariance
terms, and the split sums (zero pairs, small pairs, inverse-square tails)
that the variance theorems chain together.  Whether a pair frequency is
exactly zero is decided in integer arithmetic whenever the direction's
declared rationality allows it; only fully irrational directions fall back
to a tolerance.

Every pair sum runs over block-triangular row tiles: rows [lo, hi) against
columns [lo, N), about TILE_ENTRIES entries each, so a sum takes O(N^2) time
in O(TILE_ENTRIES) memory and no N x N table is ever built.  Each summand is
symmetric in the pair: integral_sq is even in beta, beta_ji = -beta_ij
exactly in floating point (so the zero and small masks and 1/beta^2 agree
on both), |mu - mu'|^2 is an exact integer, the weighted sums carry
w_i * w_j, and Riesz distances are symmetric.  A tile's diagonal block
therefore counts once and the columns right of it count twice, for the
mirror pairs no tile holds: only half the pairs are evaluated, and counts
stay exact integers.  When N^2 <= TILE_ENTRIES (N <= 256) the single tile is
the whole table and each reduction is the whole-table one (one np.sum, one
masked gather, one w @ E @ w), so small shells give the same floats as a
dense evaluation; larger shells add their tile sums in another order and
agree with it to rounding.

The bound evaluation reports two numbers per mode: the exact intermediate
quantity (a rigorous upper bound for q_sum by construction) and the
theorem's nominal asymptotic envelope, which carries unknowable constants
and is reported for a small family of epsilon values.
"""

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .diophantine import Direction, Rationality
from .geometry import kappa
from .lattice import ProjectedShell, Shell
from .randomwave import LineSegment, line_frequencies

__all__ = [
    "PairSums",
    "SquaredCovarianceTerms",
    "BoundMode",
    "BoundReport",
    "RieszResult",
    "integral_sq",
    "q_sum",
    "r2_terms",
    "pair_sums",
    "variance_bound",
    "riesz_energy",
]

log = logging.getLogger(__name__)

PI_SQ = math.pi * math.pi
ZERO_BETA_TOL = 1e-14
IRRATIONAL_ZERO_TOL = 1e-10
ENVELOPE_EPSILONS = (0.01, 0.05)
TILE_ENTRIES = 1 << 16


def integral_sq(beta, length: float):
    """Squared modulus of the segment integral of e^{2 pi i t beta}.

    Vectorized over beta, which must be finite; length must be positive.
    The value is continuous at beta = 0 where it equals length^2.
    """
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    b = np.asarray(beta, dtype=np.float64)
    scalar = b.ndim == 0
    b = np.atleast_1d(b)
    if not np.isfinite(b).all():
        raise ValueError("beta must be finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(math.pi * length * b)
        out = (s * s) / (PI_SQ * b * b)
    out[np.abs(b) <= ZERO_BETA_TOL] = length * length
    return float(out[0]) if scalar else out


def _over_tiles(n: int, tile_sums):
    """Add up tile_sums(lo, hi), a tuple of folded sums, over the row tiles.

    Tile [lo, hi) holds the pairs of rows [lo, hi) and columns [lo, n) of an
    n x n pair table, about TILE_ENTRIES of them.  The sums of a single tile
    are returned as they are.
    """
    rows = max(1, TILE_ENTRIES // n)
    total = None
    for lo in range(0, n, rows):
        part = tile_sums(lo, min(lo + rows, n))
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    return total


def _fold(reduce, width: int, *tables):
    """reduce over one tile, each pair right of its diagonal block counted twice.

    tables are the tile's arrays (and column weights), whose last axis runs
    over the columns [lo, n).  The first width columns are the diagonal block
    and count once; the columns [hi, n) count twice, for the mirror pairs
    below the diagonal that no tile holds.
    """
    total = reduce(*(t[..., :width] for t in tables))
    if tables[0].shape[-1] > width:
        total += 2 * reduce(*(t[..., width:] for t in tables))
    return total


def _masked_sum(values, keep):
    return np.sum(values[keep])


def _pair_frequencies(b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Tile of pair frequencies beta = b_i - b_j, rows i in [lo, hi), columns j >= lo."""
    return b[lo:hi, None] - b[None, lo:]


def q_sum(shell: Shell, line: LineSegment) -> float:
    """Normalized pair sum (1/N^2) * sum over ordered pairs of integral_sq."""
    if shell.n == 0:
        raise ValueError(f"q_sum needs a nonempty shell (m={shell.m})")
    b = line_frequencies(shell, line.direction)

    def tile(lo, hi):
        eye = integral_sq(_pair_frequencies(b, lo, hi), line.length)
        return (_fold(np.sum, hi - lo, eye),)

    (total,) = _over_tiles(shell.n, tile)
    return float(total / (shell.n * shell.n))


@dataclass(frozen=True)
class SquaredCovarianceTerms:
    """Pair-sum forms of the integrated squared covariance and derivatives.

    rr is exactly the double integral of r^2 over the parameter square;
    r1r1 and r2r2 carry one weight w = <mu/|mu|, alpha> per index, r12r12
    the squared weights.  With these normalizations each derivative term is
    at most rr, since |w| <= 1.
    """

    rr: float
    r1r1: float
    r2r2: float
    r12r12: float


def r2_terms(shell: Shell, line: LineSegment) -> SquaredCovarianceTerms:
    """Evaluate the four squared-covariance pair sums exactly."""
    if shell.n == 0:
        raise ValueError(f"r2_terms needs a nonempty shell (m={shell.m})")
    b = line_frequencies(shell, line.direction)
    w = b / math.sqrt(shell.m)
    w_sq = w * w

    def tile(lo, hi):
        eye = integral_sq(_pair_frequencies(b, lo, hi), line.length)
        width = hi - lo
        return (
            _fold(np.sum, width, eye),
            _fold(lambda e, wc: w[lo:hi] @ e @ wc, width, eye, w[lo:]),
            _fold(lambda e, wc: w_sq[lo:hi] @ e @ wc, width, eye, w_sq[lo:]),
        )

    rr, r1r1, r12r12 = _over_tiles(shell.n, tile)
    n_sq = shell.n * shell.n
    return SquaredCovarianceTerms(rr=float(rr) / n_sq, r1r1=float(r1r1) / n_sq,
                                  r2r2=float(r1r1) / n_sq, r12r12=float(r12r12) / n_sq)


@dataclass(frozen=True)
class PairSums:
    """Split pair counts and inverse-square tails for one threshold rho.

    inv_sq_sum runs over the pairs above the threshold with weight
    1/<mu-mu', alpha>^2; inv_dist_sq_sum over the same pairs with weight
    1/|mu-mu'|^2 (used by the relative-split bounds).
    """

    s_zero: int
    s_small: int
    inv_sq_sum: float
    inv_dist_sq_sum: float


def _pair_tables(shell: Shell, direction: Direction):
    """Tile builder: tables(lo, hi) gives the tile's pair frequencies, exact
    zero mask, squared pair distances, and 1/beta^2 (0 on the zero pairs)."""
    coords = shell.coords
    b = line_frequencies(shell, direction)
    if direction.rationality is Rationality.RATIONAL:
        dots = coords @ np.array(direction.ints, dtype=np.int64)
        norm_sq = float(sum(c * c for c in direction.ints))
    elif direction.rationality is Rationality.HALF_RATIONAL:
        u, v = direction.uv
        plane = v * coords[:, 0] + u * coords[:, 1]
        height = coords[:, 2]

    def tables(lo, hi):
        beta = _pair_frequencies(b, lo, hi)
        gram = coords[lo:hi] @ coords[lo:].T
        dist_sq = (2 * shell.m - 2 * gram).astype(np.float64)
        if direction.rationality is Rationality.RATIONAL:
            num = dots[lo:hi, None] - dots[None, lo:]
            zero = num == 0
            num_f = num.astype(np.float64)
            inv_beta_sq = norm_sq / np.where(zero, np.inf, num_f * num_f)
        else:
            if direction.rationality is Rationality.HALF_RATIONAL:
                zero = ((plane[lo:hi, None] == plane[None, lo:])
                        & (height[lo:hi, None] == height[None, lo:]))
            else:
                zero = np.abs(beta) <= IRRATIONAL_ZERO_TOL
            inv_beta_sq = 1.0 / np.where(zero, np.inf, beta * beta)
        return beta, zero, dist_sq, inv_beta_sq

    return tables


def _warn_near_zero(direction: Direction, s_zero: int, n: int) -> None:
    """Warn when an irrational direction's tolerance counts off-diagonal zeros."""
    extra = s_zero - n
    if direction.rationality is Rationality.IRRATIONAL and extra > 0:
        log.warning(
            "irrational direction %s: %d off-diagonal pair(s) within %g of zero",
            direction,
            extra,
            IRRATIONAL_ZERO_TOL,
        )


def _check_split(rho: float, mode: str) -> None:
    if not 0 <= rho < math.inf:
        raise ValueError(f"rho must be nonnegative and finite, got {rho}")
    if mode not in ("relative", "absolute"):
        raise ValueError(f"mode must be 'relative' or 'absolute', got {mode!r}")


def _split_sums(tables, rho: float, mode: str, width: int) -> tuple:
    """One tile's folded (s_zero, s_small, inv_sq_sum, inv_dist_sq_sum) from
    the tables of _pair_tables; see pair_sums."""
    beta, zero, dist_sq, inv_beta_sq = tables
    if mode == "relative":
        small = np.abs(beta) <= rho * np.sqrt(dist_sq)
    else:
        small = np.abs(beta) <= rho
    small |= zero
    tail = ~small
    inv_dist = 1.0 / np.where(dist_sq == 0.0, np.inf, dist_sq)
    return (
        _fold(np.sum, width, zero),
        _fold(np.sum, width, small),
        _fold(_masked_sum, width, inv_beta_sq, tail),
        _fold(_masked_sum, width, inv_dist, tail),
    )


def _as_pair_sums(sums) -> PairSums:
    s_zero, s_small, inv_sq_sum, inv_dist_sq_sum = sums
    return PairSums(s_zero=int(s_zero), s_small=int(s_small),
                    inv_sq_sum=float(inv_sq_sum), inv_dist_sq_sum=float(inv_dist_sq_sum))


def pair_sums(shell: Shell, direction: Direction, rho: float, mode: str = "relative") -> PairSums:
    """Count zero and small pairs and sum the inverse squares of the tail.

    mode "relative" uses the threshold |<mu-mu', alpha>| <= rho * |mu-mu'|,
    mode "absolute" the plain |<mu-mu', alpha>| <= rho.  Zero pairs always
    count as small; the tails run over the strictly-above-threshold pairs.
    """
    if shell.n == 0:
        raise ValueError(f"pair_sums needs a nonempty shell (m={shell.m})")
    _check_split(rho, mode)
    tables = _pair_tables(shell, direction)
    sums = _as_pair_sums(_over_tiles(
        shell.n, lambda lo, hi: _split_sums(tables(lo, hi), rho, mode, hi - lo)))
    _warn_near_zero(direction, sums.s_zero, shell.n)
    return sums


class BoundMode(enum.Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"
    HALF_RATIONAL = "half_rational"
    CONDITIONAL = "conditional"


def check_mode(mode: BoundMode, direction: Direction) -> None:
    """Raise ValueError unless mode's theorem covers the direction's class.

    The rational, irrational and half-rational modes share their value with
    the Rationality they need; the conditional mode takes any direction.
    """
    if mode is not BoundMode.CONDITIONAL and mode.value != direction.rationality.value:
        raise ValueError(
            f"mode {mode.value} needs a {mode.value} direction, "
            f"got {direction.rationality.value}"
        )


def check_rho(mode: BoundMode, rho: float | None) -> None:
    """Raise ValueError if rho is given to the rational bound, which uses none,
    or if the irrational or half-rational tail weight 1/(pi^2 rho^2) is not
    finite: rho = 0, or so small that pi^2 rho^2 underflows to 0 or its
    inverse overflows (rho below about 2.4e-155)."""
    if rho is None:
        return
    if mode is BoundMode.RATIONAL:
        raise ValueError(f"the rational bound uses no rho, got {rho}")
    if mode in (BoundMode.IRRATIONAL, BoundMode.HALF_RATIONAL):
        pi_sq_rho_sq = PI_SQ * rho * rho
        if not (pi_sq_rho_sq > 0 and math.isfinite(1.0 / pi_sq_rho_sq)):
            raise ValueError(f"the {mode.value} bound divides by pi^2 rho^2, whose inverse "
                             f"is not finite for rho={rho}")


_MODE_EXPONENT = {
    BoundMode.IRRATIONAL: 1.0 / 7.0,
    BoundMode.HALF_RATIONAL: 1.0 / 5.0,
    BoundMode.CONDITIONAL: 1.0 / 4.0,
}


def _default_rho(mode: BoundMode, m: int) -> float | None:
    root = math.sqrt(m)
    if mode is BoundMode.IRRATIONAL:
        return root ** (-6.0 / 7.0)
    if mode is BoundMode.HALF_RATIONAL:
        return root ** (-4.0 / 5.0)
    if mode is BoundMode.CONDITIONAL:
        return root ** (3.0 / 8.0)
    return None


@dataclass(frozen=True)
class BoundReport:
    """Variance-bound evaluation: exact intermediate plus nominal envelope.

    s_zero and inv_sq_sum describe the whole shell (all nonzero pairs);
    bound_value is the mode's exact split bound, which dominates q_value by
    construction.  envelope maps epsilon to the theorem's nominal curve
    (kappa/N for the rational theorem, m^-(exponent - epsilon) otherwise).
    """

    m: int
    direction: Direction
    length: float
    kappa: int
    s_zero: int
    inv_sq_sum: float
    q_value: float
    rho: float | None
    mode: BoundMode
    bound_value: float
    envelope: dict[float, float] = field(repr=False)
    conjecture_assumed: bool = False


def variance_bound(
    shell: Shell,
    line: LineSegment,
    mode: BoundMode,
    rho: float | None = None,
) -> BoundReport:
    """Evaluate the exact intermediate bound and envelope for one theorem.

    The rational theorem's intermediate is q_sum itself.  The irrational and
    half-rational theorems split pairs at |beta| <= rho * |mu - mu'| and pay
    L^2 per small pair plus 1/(pi^2 rho^2 |mu - mu'|^2) per tail pair; the
    conditional theorem splits at |beta| <= rho and pays L^2 per small pair
    plus 1/(pi^2 beta^2) per tail pair.  Each split dominates q_sum exactly,
    term by term.  q_value, s_zero, inv_sq_sum and bound_value equal what
    q_sum and pair_sums give, from one pass over the pair tiles.
    """
    direction = line.direction
    check_mode(mode, direction)
    check_rho(mode, rho)
    rho_used = rho if rho is not None else _default_rho(mode, shell.m)
    split = "absolute" if mode is BoundMode.CONDITIONAL else "relative"
    if mode is not BoundMode.RATIONAL:
        _check_split(rho_used, split)
    kap = kappa(shell)
    n_sq = shell.n * shell.n
    length = line.length

    tables = _pair_tables(shell, direction)

    def tile(lo, hi):
        tab = tables(lo, hi)
        width = hi - lo
        sums = (_fold(np.sum, width, integral_sq(tab[0], length)),)
        sums += _split_sums(tab, 0.0, "absolute", width)
        if mode is not BoundMode.RATIONAL:
            sums += _split_sums(tab, rho_used, split, width)
        return sums

    sums = _over_tiles(shell.n, tile)  # q, then whole-shell and split PairSums fields
    q_val = float(sums[0] / n_sq)
    whole = _as_pair_sums(sums[1:5])
    _warn_near_zero(direction, whole.s_zero, shell.n)
    if mode is not BoundMode.RATIONAL:
        parts = _as_pair_sums(sums[5:])

    if mode is BoundMode.RATIONAL:
        bound = q_val
    elif mode is BoundMode.CONDITIONAL:
        bound = (length * length * parts.s_small + parts.inv_sq_sum / PI_SQ) / n_sq
    else:
        tail = parts.inv_dist_sq_sum / (PI_SQ * rho_used * rho_used)
        bound = (length * length * parts.s_small + tail) / n_sq

    if not (math.isfinite(q_val) and math.isfinite(bound)):
        raise ValueError(f"the {mode.value} bound overflows at m={shell.m}: "
                         f"q_value={q_val}, bound_value={bound}")

    if mode is BoundMode.RATIONAL:
        envelope = {0.0: kap / shell.n}
    else:
        exponent = _MODE_EXPONENT[mode]
        envelope = {
            eps: float(shell.m) ** -(exponent - eps) for eps in ENVELOPE_EPSILONS
        }

    return BoundReport(
        m=shell.m,
        direction=direction,
        length=length,
        kappa=kap,
        s_zero=whole.s_zero,
        inv_sq_sum=whole.inv_sq_sum,
        q_value=q_val,
        rho=rho_used,
        mode=mode,
        bound_value=bound,
        envelope=envelope,
        conjecture_assumed=mode is BoundMode.CONDITIONAL,
    )


@dataclass(frozen=True)
class RieszResult:
    """Riesz energy of a unit-sphere configuration and its N^2 normalization."""

    sigma: float
    energy: float
    n: int
    limit_i: float
    normalized_gap: float


def riesz_energy(projected: ProjectedShell, sigma: float) -> RieszResult:
    """Sum |P_i - P_j|^-sigma over distinct ordered pairs of unit points.

    For shells projected to the unit sphere the normalized energy E/N^2
    approaches I(sigma) = 2^(1-sigma)/(2-sigma) as the shell grows.
    """
    if not 0.0 < sigma < 2.0:
        raise ValueError(f"sigma must lie in (0, 2), got {sigma}")
    pts = np.asarray(projected.unit_points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    if not np.isfinite(pts).all():
        raise ValueError("unit points must be finite")
    # the tiles take 2 - 2<p, q> as the squared distance, true for unit vectors only
    if np.any(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-12):
        raise ValueError("unit points must have norm 1 (within 1e-12)")

    def energy_of(dist_sq, keep):
        dists = np.sqrt(dist_sq[keep])
        if np.any(dists == 0.0):
            raise ValueError("coincident points give a divergent energy")
        return np.sum(dists**-sigma)

    def tile(lo, hi):
        dist_sq = np.clip(2.0 - 2.0 * (pts[lo:hi] @ pts[lo:].T), 0.0, None)
        off = np.ones(dist_sq.shape, dtype=bool)
        np.fill_diagonal(off, False)  # the diagonal of the diagonal block
        return (_fold(energy_of, hi - lo, dist_sq, off),)

    energy = float(_over_tiles(n, tile)[0])
    limit_i = 2.0 ** (1.0 - sigma) / (2.0 - sigma)
    return RieszResult(
        sigma=sigma,
        energy=energy,
        n=n,
        limit_i=limit_i,
        normalized_gap=abs(energy / (n * n) - limit_i),
    )
