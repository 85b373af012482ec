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

Every pair sum except the Riesz energy runs over antipodal classes.  The
shell is symmetric, E(m) = -E(m), and every summand is even in the pair,
so the ordered pairs (mu, mu') and (-mu, -mu') add the same term: a sum
takes its rows from the half shell H (the first N/2 rows, see
randomwave.half_frequencies) and its columns from H and -H, and is doubled.
integral_sq is even in beta, |mu - mu'|^2 = 2m - 2<mu, mu'> is an exact
integer, the weighted sums carry w_i * w_j with w odd, and the zero tests
see the same integers (or, for irrational directions, the same beta), so
each summand of the half shell is bit for bit
the dense table's entry for its pair.

The rows of H then run over block-triangular tiles: rows [lo, hi) against
the signed columns +-H[lo:], a (2, rows, cols) table of about TILE_ENTRIES
entries, so a sum takes O(N^2) time in O(TILE_ENTRIES) memory and no N x N
table is ever built.  Within either column block the summand is symmetric
in (i, j): beta_ji = -beta_ij exactly in floating point (so the zero and
small masks and 1/beta^2 agree on both), and b_i + b_j = b_j + b_i.  A
tile's diagonal block therefore counts once and the columns right of it
count twice, for the mirror pairs no tile holds; counts stay exact
integers.  The sums add the dense table's summands in another order and
match a dense evaluation to rounding.  The Riesz energy takes any unit
point set, not only antipodal ones, and tiles the whole N x N table the
same block-triangular way.

The bound evaluation reports two numbers per mode: the exact intermediate
quantity (a rigorous upper bound for q_sum by construction) and the
theorem's nominal asymptotic envelope, which carries unknowable constants
and is reported for a small family of epsilon values.  One table,
_SPLIT_THEOREMS, holds each split theorem's split, default rho and envelope
exponent.  No sum returns inf: one past the float64 range is an error.
"""

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .diophantine import Direction, Rationality
from .geometry import kappa
from .lattice import ProjectedShell, Shell
from .randomwave import LineSegment, half_frequencies

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


class BoundOverflowError(ValueError):
    """A pair sum or variance bound past the float64 range; parameter names
    the input ("length" or "rho") whose value made it overflow."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


def _over_tiles(n: int, tile_sums, stop: int | None = None):
    """Add up tile_sums(lo, hi), a tuple of folded sums, over the row tiles.

    The rows [0, stop) run in tiles of TILE_ENTRIES // n rows, each against
    n columns at most: the columns [lo, n) of an n x n pair table (stop = n),
    or the signed half-shell columns +-H[lo:] (stop = n // 2).  The sums of a
    single tile are returned as they are.
    """
    stop = n if stop is None else stop
    rows = max(1, TILE_ENTRIES // n)
    total = None
    for lo in range(0, stop, rows):
        part = tile_sums(lo, min(lo + rows, stop))
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    return total


def _over_half_shell(shell: Shell, tile_sums):
    """Sums over all ordered pairs of the shell from the half-shell row tiles:
    each antipodal class {(mu, mu'), (-mu, -mu')} is evaluated once, so every
    total is twice what the tiles add up to.  A total past the float64 range
    raises BoundOverflowError("length"): only integral_sq terms (<= L^2) get there."""
    with np.errstate(over="ignore"):
        totals = tuple(2 * total for total in _over_tiles(shell.n, tile_sums, shell.n // 2))
    if not all(np.isfinite(total) for total in totals):
        raise BoundOverflowError("length", f"a pair sum at m={shell.m} overflows for this length")
    return totals


def _fold(reduce, width: int, *tables):
    """reduce over one tile, each pair right of its diagonal block counted twice.

    tables are the tile's arrays (and column weights), whose last axis runs
    over the columns from lo on (of the whole table, or of either signed
    half-shell block).  The first width columns are the diagonal block and
    count once; the columns from hi on count twice, for the mirror pairs
    below the diagonal that no tile holds.
    """
    total = reduce(*(t[..., :width] for t in tables))
    if tables[0].shape[-1] > width:
        total += 2 * reduce(*(t[..., width:] for t in tables))
    return total


def _masked_sum(values, keep):
    return np.sum(values[keep])


def _signed(cols: np.ndarray, parity: int = -1) -> np.ndarray:
    """A column quantity of H[lo:] stacked with its value on -H[lo:]: negated
    for an odd quantity (parity -1), repeated for an even one (parity 1)."""
    return np.stack((cols, parity * cols))


def _pair_differences(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Tile of x_i - x_j for an odd quantity x of the half shell: rows i in
    [lo, hi), columns j over the signed columns +-H[lo:], shape (2, rows, cols)."""
    return x[lo:hi, None] - _signed(x[lo:])[:, None, :]


def q_sum(shell: Shell, line: LineSegment) -> float:
    """Normalized pair sum (1/N^2) * sum over ordered pairs of integral_sq."""
    b = half_frequencies(shell, line.direction.components)

    def tile(lo, hi):
        eye = integral_sq(_pair_differences(b, lo, hi), line.length)
        return (_fold(np.sum, hi - lo, eye),)

    (total,) = _over_half_shell(shell, tile)
    return float(total / (shell.n * shell.n))


@dataclass(frozen=True)
class SquaredCovarianceTerms:
    """Pair-sum forms of the integrated squared covariance and derivatives.

    rr is exactly the double integral of r^2 over the parameter square;
    r1r1 and r2r2 carry one weight w = <mu/|mu|, alpha> per index, r12r12
    the squared weights.  With these normalizations each derivative term is
    at most rr, since |w| <= 1.  r2r2 is r1r1, as r2 = -r1.
    """

    rr: float
    r1r1: float
    r12r12: float

    @property
    def r2r2(self) -> float:
        return self.r1r1


def r2_terms(shell: Shell, line: LineSegment) -> SquaredCovarianceTerms:
    """Evaluate the four squared-covariance pair sums exactly."""
    b = half_frequencies(shell, line.direction.components)
    w = b / math.sqrt(shell.m)
    w_sq = w * w

    def tile(lo, hi):
        eye = integral_sq(_pair_differences(b, lo, hi), line.length)
        width = hi - lo
        return (
            _fold(np.sum, width, eye),
            _fold(lambda e, wc: np.vdot(w[lo:hi] @ e, wc), width, eye, _signed(w[lo:])),
            _fold(lambda e, wc: np.vdot(w_sq[lo:hi] @ e, wc), width, eye,
                  _signed(w_sq[lo:], 1)),
        )

    rr, r1r1, r12r12 = _over_half_shell(shell, tile)
    n_sq = shell.n * shell.n
    return SquaredCovarianceTerms(rr=float(rr) / n_sq, r1r1=float(r1r1) / n_sq,
                                  r12r12=float(r12r12) / n_sq)


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
    """Tile builder over the half shell: tables(lo, hi) gives the signed
    tile's pair frequencies, exact zero mask, squared pair distances, and
    1/beta^2 (0 on the zero pairs), each of shape (2, rows, cols).

    Every column quantity is odd and is negated on the antipodal block: the
    frequencies, the Gram row (so dist^2 = 2m -+ 2<mu, mu'>), and the integer
    keys of the exact zero tests.  The Gram tile is a float64 product: it and
    2m -+ 2g are integers of magnitude at most 4m, so they are exact.
    """
    b = half_frequencies(shell, direction.components)
    half = shell.coords[: shell.n // 2]
    half_f = half.astype(np.float64)
    two_m = 2.0 * shell.m
    if direction.rationality is Rationality.RATIONAL:
        dots = half @ np.array(direction.ints, dtype=np.int64)
        norm_sq = float(sum(c * c for c in direction.ints))
    elif direction.rationality is Rationality.HALF_RATIONAL:
        u, v = direction.uv
        plane = v * half[:, 0] + u * half[:, 1]
        height = half[:, 2]

    def tables(lo, hi):
        beta = _pair_differences(b, lo, hi)
        # dist^2 = 2m - 2g on the columns H[lo:] and 2m + 2g on -H[lo:], built
        # in one tile array: separate temporaries raised the process's peak RSS
        dist_sq = np.empty((2, hi - lo, len(half) - lo))
        gram_2 = dist_sq[1]
        np.matmul(half_f[lo:hi], half_f[lo:].T, out=gram_2)
        gram_2 *= 2.0
        np.subtract(two_m, gram_2, out=dist_sq[0])
        gram_2 += two_m
        if direction.rationality is Rationality.RATIONAL:
            num = _pair_differences(dots, lo, hi)
            zero = num == 0
            num_f = num.astype(np.float64)
            inv_beta_sq = norm_sq / np.where(zero, np.inf, num_f * num_f)
        else:
            if direction.rationality is Rationality.HALF_RATIONAL:
                zero = ((_pair_differences(plane, lo, hi) == 0)
                        & (_pair_differences(height, lo, hi) == 0))
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
    _check_split(rho, mode)
    tables = _pair_tables(shell, direction)
    sums = _as_pair_sums(_over_half_shell(
        shell, lambda lo, hi: _split_sums(tables(lo, hi), rho, mode, hi - lo)))
    _warn_near_zero(direction, sums.s_zero, shell.n)
    return sums


class BoundMode(enum.Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"
    HALF_RATIONAL = "half_rational"
    CONDITIONAL = "conditional"


# mode -> (split, power, exponent) of each split theorem: its pairs split at
# |beta| <= rho |mu - mu'| ("relative") or |beta| <= rho ("absolute"), rho is
# sqrt(m)^power by default, and its envelope is m^-(exponent - epsilon).
_SPLIT_THEOREMS = {
    BoundMode.IRRATIONAL: ("relative", -6.0 / 7.0, 1.0 / 7.0),
    BoundMode.HALF_RATIONAL: ("relative", -4.0 / 5.0, 1.0 / 5.0),
    BoundMode.CONDITIONAL: ("absolute", 3.0 / 8.0, 1.0 / 4.0),
}


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
    or if a relative split's tail weight 1/(pi^2 rho^2) is not finite: rho = 0,
    or so small that pi^2 rho^2 underflows to 0 or its inverse overflows (rho
    below about 2.4e-155)."""
    if rho is None:
        return
    if mode not in _SPLIT_THEOREMS:
        raise ValueError(f"the {mode.value} bound uses no rho, got {rho}")
    if _SPLIT_THEOREMS[mode][0] == "relative":
        pi_sq_rho_sq = PI_SQ * rho * rho
        if not (pi_sq_rho_sq > 0 and math.isfinite(1.0 / pi_sq_rho_sq)):
            raise ValueError(f"the {mode.value} bound divides by pi^2 rho^2, whose inverse "
                             f"is not finite for rho={rho}")


def _default_rho(mode: BoundMode, m: int) -> float | None:
    """The split theorem's rho = sqrt(m)^power; None for the rational bound."""
    if mode not in _SPLIT_THEOREMS:
        return None
    return math.sqrt(m) ** _SPLIT_THEOREMS[mode][1]


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

    The rational theorem's intermediate is q_sum itself.  The split theorems
    of _SPLIT_THEOREMS pay L^2 per small pair plus, per tail pair,
    1/(pi^2 rho^2 |mu - mu'|^2) in the relative split (irrational and
    half-rational) or 1/(pi^2 beta^2) in the absolute one (conditional).
    Each split dominates q_sum exactly, term by term.  q_value, s_zero,
    inv_sq_sum and bound_value equal what q_sum and pair_sums give, from one
    pass over the pair tiles.  BoundOverflowError names "length" for an
    overflowing pair sum or L^2 * s_small, and "rho" for an overflowing tail.
    """
    direction = line.direction
    check_mode(mode, direction)
    check_rho(mode, rho)
    theorem = _SPLIT_THEOREMS.get(mode)
    rho_used = rho if rho is not None else _default_rho(mode, shell.m)
    if theorem is not None:
        split, _, exponent = theorem
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
        if theorem is not None:
            sums += _split_sums(tab, rho_used, split, width)
        return sums

    sums = _over_half_shell(shell, tile)  # q, then whole-shell and split PairSums fields
    q_val = float(sums[0] / n_sq)
    whole = _as_pair_sums(sums[1:5])
    _warn_near_zero(direction, whole.s_zero, shell.n)

    if theorem is None:
        bound = q_val
        envelope = {0.0: kap / shell.n}
    else:
        parts = _as_pair_sums(sums[5:])
        small = length * length * parts.s_small
        if not math.isfinite(small):
            raise BoundOverflowError("length", f"the {mode.value} bound overflows at "
                                     f"m={shell.m} for length={length}")
        if split == "absolute":
            tail = parts.inv_sq_sum / PI_SQ
        else:
            tail = parts.inv_dist_sq_sum / (PI_SQ * rho_used * rho_used)
        bound = (small + tail) / n_sq
        if not math.isfinite(bound):
            raise BoundOverflowError("rho", f"the {mode.value} bound overflows at "
                                     f"m={shell.m} for rho={rho_used}")
        envelope = {eps: float(shell.m) ** -(exponent - eps) for eps in ENVELOPE_EPSILONS}

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
