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

Every pair sum runs over antipodal classes.  The shell is symmetric,
E(m) = -E(m), and every summand is even in the pair, so the ordered pairs
(mu, mu') and (-mu, -mu') add the same term: a sum takes its rows from the
half shell H (the first N/2 rows, whose order lattice._antipodal_half
checks) and its columns from H and -H, and is doubled.  integral_sq is even
in beta, |mu - mu'|^2 = 2m - 2<mu, mu'> is an exact integer, the weighted
sums carry w_i * w_j with w odd, and the zero tests see the same integers
(or, for irrational directions, the same beta).  So for the directions whose
sums run over points, beta, the zero and small masks, |mu - mu'|^2 and
1/beta^2 of the half shell are bit for bit the dense table's entries for
their pairs.  The integral_sq summands of q_sum and r2_terms match the
dense table's to rounding only: their numerators sin(pi L beta) come from
per-row phases by angle subtraction, one sine per row instead of one per
pair, and only the entries with |pi L beta| < 1 are integral_sq's own
values.  The Riesz energy of the projected shell folds
the same way, since |p - q| is even in the pair; its unit-sphere distances
match a dense table to rounding.

A rational direction a needs fewer rows.  Its pair frequencies are k/|a|,
k = <mu - mu', a> an integer, so a sum that reads beta alone depends only on
how H falls into the planes <mu, a> = k: on its frequency classes, the
distinct keys k over H, each with the number h of points on its plane.
The keys and the classes live in randomwave, beside the frequencies:
_half_keys gives every direction class its pair keys, and
_frequency_classes groups a rational direction's keys into classes.
q_sum, r2_terms, and pair_sums's s_zero and the absolute split's s_small
and inv_sq_sum take the classes as rows and their signed keys as columns,
each class pair weighted by h_i h_j, through the same tile loop and
builders.  At m = 10001 the 960 points of H fall into 67, 124 and 343
classes for a = (1,0,0), (1,1,1) and (1,2,3); when every key is distinct a
class is a point and the sweep costs what the point sweep does.  The keys,
their differences and the counts' products are integers that float64 holds
exactly (randomwave._EXACT_KEYS), so the counts are exact, and the absolute
split |k| <= rho |a| is decided exactly, as an integer bound on |k|.  The
sums that read |mu - mu'| cannot be grouped by key: inv_dist_sq_sum and the
whole relative split stay on the point sweep, which for a rational
direction keys each pair by its integer |k|, not by the float beta, and
decides the relative split exactly too.  The class sums evaluate each
summand at the class frequency k/|a|, rounded once, and add the summands in
another order, so they match the point sums to rounding (an ulp in the
bounds reports).

The rows of H then run over block-triangular tiles: rows [lo, hi) against
the signed columns +-H[lo:], a (2, rows, cols) table of about TILE_ENTRIES
entries, so a sum takes O(N^2) time in O(TILE_ENTRIES) memory and no N x N
table is ever built.  Within either column block the summand is symmetric
in (i, j): beta_ji = -beta_ij exactly in floating point (so the zero and
small masks and 1/beta^2 agree on both), and b_i + b_j = b_j + b_i; the
phase numerators of integral_sq are symmetric to rounding.  A tile's
diagonal block therefore counts once and the columns right of it
count twice, for the mirror pairs no tile holds; counts stay exact
integers.  The sums add the dense table's summands in another order and
match a dense evaluation to rounding.

Each family of sums has one tile builder: _integral_sq_tiles for q_sum and
r2_terms, _class_sweep for a rational direction's class sums, _point_sweep
for the split sums over points of every direction class, and the distance
tile of riesz_energy.  The tile loop owns the memory: it allocates one flat
buffer per dtype a builder names, sized by the first and largest tile, and
hands each tile views of them, which the builder fills with out= ufuncs, so
a sum faults its pages in once instead of on every tile.
Every pair table of two row quantities is one two-column product,
u_i v_j -+ v_i u_j (_pair_cross): the key differences x_i -+ x_j that
_integral_sq_tiles and both sweeps read (v = 1, rounded as the subtraction
rounds them), and the sine numerators of _integral_sq_tiles (u = sin,
v = cos).  The point sweep's classes differ only in the pair key
(|beta|, or the integer |k| for a rational direction), the zero mask and the
split rule, all picked before the first tile.  A half-rational direction's
zero mask takes as candidates the keys at most _ZERO_KEY_CAP sqrt(m), above
the rounding bound that every exact zero pair's key obeys, and runs the
exact int64 test on those alone (_half_rational_zero_pairs); a relative
split decides only the keys that can pass it (_candidate_rule), in float64
or, for a rational direction's close calls, exactly.  Every split rule
takes the key and distance tiles and writes into one mask tile.  The
sweep builds the Gram tile only where a split reads |mu - mu'|, as one
product of the doubled rows 2 mu_i against mu_j (_signed_dist_sq), which is
twice the plain Gram bit for bit.  Its tails compact their entries by
boolean indexing and divide only those: summing a zeroed whole tile instead
would add in another order and move reported values by an ulp.  _pair_sums
reads any number of splits from one point sweep, after one class sweep for a
rational direction.

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
from fractions import Fraction

import numpy as np

from .diophantine import Direction, Rationality
from .geometry import kappa
from .lattice import ProjectedShell, Shell, _antipodal_half
from .randomwave import LineSegment, _frequency_classes, _half_keys, check_length

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

    Vectorized over beta, which must be finite; length must pass
    randomwave.check_length, as a LineSegment's.  The value is continuous at
    beta = 0 where it equals length^2.  Where pi L beta or pi^2 beta^2
    overflows, it is 0.0, without a warning: the true value is at most
    1 / (pi beta)^2, which is then below 1 / DBL_MAX (L^2 being at most
    DBL_MAX), under the smallest normal float64.
    """
    length = check_length(length)
    b = np.asarray(beta, dtype=np.float64)
    scalar = b.ndim == 0
    b = np.atleast_1d(b)
    if not np.isfinite(b).all():
        raise ValueError("beta must be finite")
    with np.errstate(over="ignore"):
        out = _integral_sq(b, length)
    out[np.isnan(out)] = 0.0  # the sine of an overflowed phase pi L beta
    return float(out[0]) if scalar else out


def _integral_sq(b: np.ndarray, length: float) -> np.ndarray:
    """integral_sq of a 1-D array b of finite beta, for a length already
    checked, without integral_sq's checks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(math.pi * length * b)
        out = (s * s) / (PI_SQ * b * b)
    out[np.abs(b) <= ZERO_BETA_TOL] = length * length
    return out


class BoundOverflowError(ValueError):
    """An input too large for a computation: a pair sum or variance bound
    past the float64 range, or a zero-count grid past its budget; parameter
    names the input ("length" or "rho") whose value made it so."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


def _over_half_shell(m: int, half: int, dtypes, tile_sums):
    """Sums over all ordered pairs of the shell E(m) from row tiles of its half.

    The half rows are the points of the half shell H or, for a rational
    direction, its frequency classes.  tile_sums(lo, hi, *views), a sequence
    of folded sums, runs the rows [lo, hi), TILE_ENTRIES // (2 half) at a
    time, against the signed columns +-H[lo:].  Each antipodal class
    {(mu, mu'), (-mu, -mu')} is evaluated once, so every total is twice what
    the tiles add up to.  A total past the float64 range raises
    BoundOverflowError("length"): only integral_sq terms (<= L^2) get there.

    The tile memory is allocated here, once per call: one flat buffer per
    entry of dtypes, sized by the first and largest tile.  Each tile gets
    views of them of its shape (2, hi - lo, half - lo), which overwrite the
    previous tile's: fresh tile-sized temporaries would have their pages
    faulted in again on every tile.
    """
    rows = max(1, TILE_ENTRIES // (2 * half))
    flat = [np.empty(2 * min(rows, half) * half, dtype) for dtype in dtypes]

    def tile(lo, hi):
        shape = (2, hi - lo, half - lo)
        return tile_sums(lo, hi, *(buf[:math.prod(shape)].reshape(shape) for buf in flat))

    with np.errstate(over="ignore"):
        parts = [tile(lo, min(lo + rows, half)) for lo in range(0, half, rows)]
        totals = tuple(2 * sum(column) for column in zip(*parts))
    if not all(np.isfinite(total) for total in totals):
        raise BoundOverflowError("length", f"a pair sum at m={m} overflows for this length")
    return totals


def _fold(reduce, width: int, *tables):
    """reduce over one tile, each pair right of its diagonal block counted twice.

    tables are the tile's arrays (and column weights), whose last axis runs
    over the columns from lo on of either signed half-shell block.  The
    first width columns are the diagonal block and count once; the columns
    from hi on count twice, for the mirror pairs below the diagonal that no
    tile holds.  On the last tile they are empty, and every reducer gives 0.
    """
    return (reduce(*(t[..., :width] for t in tables))
            + 2 * reduce(*(t[..., width:] for t in tables)))


def _masked_inv_sum(values, keep):
    """np.sum of 1/values over the kept entries, dividing only those, in
    place in the compacted copy: the same quotients, added in the same order
    as a whole table's."""
    kept = values[keep]
    return np.sum(np.divide(1.0, kept, out=kept))


def _masked_inv_key_sq_sum(numerator: float):
    """reduce for _fold: numerator / k^2 summed over the kept entries of a
    key table, each k squared in the compacted copy."""

    def reduce(keys, keep):
        kept = keys[keep]
        kept *= kept
        return np.sum(np.divide(numerator, kept, out=kept))

    return reduce


def _pair_weights(weights, parity: int = 1):
    """fold(lo, hi, table): _fold of sum_ij v_i t_ij v'_j over a signed tile
    of the rows [lo, hi), where v are the row weights and v' the column
    weights, v on H and parity * v on -H; the plain sum when weights is None.
    The signed column stack is built once, and each tile slices it."""
    if weights is None:
        return lambda lo, hi, table: _fold(np.sum, hi - lo, table)
    cols = np.stack((weights, parity * weights))

    def fold(lo, hi, table):
        rows = weights[lo:hi]
        return _fold(lambda t, c: np.vdot(rows @ t, c), hi - lo, table, cols[:, lo:])

    return fold


def _pair_cross(u: np.ndarray, v: np.ndarray):
    """tile(lo, hi, out): u_i v_j -+ v_i u_j for an odd quantity u and an
    even one v of the half rows, rows i in [lo, hi) and columns j over the
    signed columns +-H[lo:], written into out, of shape (2, rows, cols).

    Each signed block is one (rows x 2) @ (2 x cols) product of the rows
    (u_i, v_i) against the columns (v_j, -+u_j).  With v = 1 both products
    are exact, so each entry is the key difference u_i -+ u_j rounded once,
    the float the subtraction gives, in a third of the time numpy takes to
    broadcast the subtraction.  With u = sin x and v = cos x it is
    sin(x_i -+ x_j) by angle subtraction.  The row and signed column stacks
    are built once per sweep, and each tile slices them."""
    rows = np.stack((u, v), axis=1)
    cols = np.stack((np.stack((v, -u)), np.stack((v, u))))

    def tile(lo, hi, out):
        return np.matmul(rows[lo:hi], cols[:, :, lo:], out=out)

    return tile


def _signed_dist_sq(half: np.ndarray, two_r_sq: float):
    """tile(lo, hi, out): |x_i -+ x_j|^2 = 2r^2 -+ 2<x_i, x_j> for points of
    norm r, rows i in [lo, hi) and columns j over the signed columns
    +-H[lo:], written into out, of shape (2, rows, cols).

    2<x_i, x_j> is one product of the doubled rows 2x_i against x_j: scaling
    by 2 is exact, so every product and partial sum is twice the plain
    Gram's, bit for bit, with no pass to double it.  The doubled rows are
    built once per sweep, and each tile slices them."""
    doubled = 2.0 * half

    def tile(lo, hi, out):
        gram_2 = out[1]
        np.matmul(doubled[lo:hi], half[lo:].T, out=gram_2)
        np.subtract(two_r_sq, gram_2, out=out[0])
        gram_2 += two_r_sq
        return out

    return tile


# Taylor coefficients of d(x) = (x - sin x) / x = x^2/3! - x^4/5! + ..., whose
# first omitted term is below 1e-19 relative to d for |x| <= 1
_DEFICIT_TAYLOR = tuple((-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(9, 0, -1))


def _integral_sq_deficit(x: np.ndarray, length_sq: float) -> np.ndarray:
    """L^2 - integral_sq at x = pi L beta with |x| <= 1, to a few ulp.

    integral_sq = L^2 (sin x / x)^2 = L^2 (1 - d)^2 with d = (x - sin x) / x,
    so L^2 - integral_sq = L^2 d (2 - d).  d is taken from its Taylor series
    in x^2, which needs no division and gives 0 at x = 0; a plain
    L^2 - integral_sq would cancel near beta = 0.
    """
    x_sq = x * x
    d = np.polyval(_DEFICIT_TAYLOR, x_sq) * x_sq
    return length_sq * d * (2.0 - d)


def _frequency_rows(shell: Shell, direction: Direction):
    """The rows (b, h) of the integral_sq sums: for a rational direction a the
    class frequencies b = k/|a| of _frequency_classes with their counts h as
    row weights, otherwise the half-shell frequencies (_half_keys) with unit
    weights (h None).  Every pair frequency of a rational direction is a
    difference of keys over |a|, so its sums need one row per class, not per
    point."""
    if direction.rationality is not Rationality.RATIONAL:
        return _half_keys(shell, direction)[0], None
    keys, counts, norm_sq = _frequency_classes(shell, direction)
    return keys / math.sqrt(norm_sq), counts


# dtypes of the views beta, eye, den and near that _integral_sq_tiles' tile fills
_INTEGRAL_SQ_DTYPES = (np.float64, np.float64, np.float64, bool)


def _integral_sq_tiles(b: np.ndarray, length: float):
    """Tile builder over the row frequencies b: tile(lo, hi, *views), given
    _over_half_shell's views of _INTEGRAL_SQ_DTYPES, gives integral_sq over
    the signed tile of pair frequencies beta = b_i -+ b_j, with no sine per
    pair, in the view eye; then the flat indices of the entries with
    |pi L beta| < 1 and their beta.

    With x = pi L b, s = sin(x) and c = cos(x) are taken once per row, and
    sin(x_i -+ x_j) = s_i c_j -+ c_i s_j is one _pair_cross product per
    signed column block, as is beta.  That numerator carries an absolute
    error of order eps (|x_i| + |x_j|), the error that rounding b already
    puts into pi L beta, so it serves wherever |pi L beta| >= 1.  Below 1 the
    summand is well conditioned (its relative condition number 2|1 - x cot x|
    is under 1 there), and those entries, every zero pair among them, come
    from integral_sq itself.
    """
    x = math.pi * length * b
    sines = _pair_cross(np.sin(x), np.cos(x))
    near_beta = 1.0 / (math.pi * length)
    differences = _pair_cross(b, np.ones_like(b))

    def tile(lo, hi, beta, eye, den, near):
        differences(lo, hi, out=beta)
        sines(lo, hi, out=eye)
        np.multiply(PI_SQ, beta, out=den)
        den *= beta
        eye *= eye
        with np.errstate(divide="ignore", invalid="ignore"):
            eye /= den
        np.less(np.abs(beta, out=den), near_beta, out=near)
        near_at = np.flatnonzero(near)
        near_b = np.take(beta, near_at)
        np.put(eye, near_at, _integral_sq(near_b, length))
        return eye, near_at, near_b

    return tile


def q_sum(shell: Shell, line: LineSegment) -> float:
    """Normalized pair sum (1/N^2) * sum over ordered pairs of integral_sq."""
    b, h = _frequency_rows(shell, line.direction)
    eye_tile = _integral_sq_tiles(b, line.length)
    weighted = _pair_weights(h)

    def tile(lo, hi, *views):
        return (weighted(lo, hi, eye_tile(lo, hi, *views)[0]),)

    (total,) = _over_half_shell(shell.m, len(b), _INTEGRAL_SQ_DTYPES, tile)
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
    """Evaluate the four squared-covariance pair sums exactly.

    r1r1 sums w_i w_j (integral_sq - L^2): the L^2 part would add
    L^2 (sum w)^2 = 0 and, at small L, cancel most of the sum's digits.
    So r1r1 is O(L^4), and it underflows where rr and r12r12, O(L^2), keep
    full precision: it goes subnormal below L of about 1e-77 and is 0.0 at
    L = 1e-100, though check_length accepts L down to about 1.5e-154.
    """
    b, h = _frequency_rows(shell, line.direction)
    eye_tile = _integral_sq_tiles(b, line.length)
    w = b / math.sqrt(shell.m)
    w_sq = w * w
    length = line.length
    length_sq = length * length
    weighted_rr = _pair_weights(h)
    weighted_r1r1 = _pair_weights(w if h is None else h * w, -1)
    weighted_r12r12 = _pair_weights(w_sq if h is None else h * w_sq)

    def tile(lo, hi, *views):
        eye, near_at, near_b = eye_tile(lo, hi, *views)
        rr = weighted_rr(lo, hi, eye)
        r12r12 = weighted_r12r12(lo, hi, eye)
        eye -= length_sq
        np.put(eye, near_at, -_integral_sq_deficit(math.pi * length * near_b, length_sq))
        return rr, weighted_r1r1(lo, hi, eye), r12r12

    rr, r1r1, r12r12 = _over_half_shell(shell.m, len(b), _INTEGRAL_SQ_DTYPES, tile)
    n_sq = shell.n * shell.n
    return SquaredCovarianceTerms(rr=float(rr) / n_sq, r1r1=float(r1r1) / n_sq,
                                  r12r12=float(r12r12) / n_sq)


@dataclass(frozen=True)
class PairSums:
    """Split pair counts and inverse-square tails for one threshold rho.

    inv_sq_sum runs over the pairs above the threshold with weight
    1/<mu-mu', alpha>^2; inv_dist_sq_sum over the same pairs with weight
    1/|mu-mu'|^2 (used by the relative-split bounds; variance_bound leaves
    it None for the absolute splits, whose bounds do not read it).
    """

    s_zero: int
    s_small: int
    inv_sq_sum: float
    inv_dist_sq_sum: float | None


def _check_split(rho: float, mode: str) -> None:
    if not 0 <= rho < math.inf:
        raise ValueError(f"rho must be nonnegative and finite, got {rho}")
    if mode not in ("relative", "absolute"):
        raise ValueError(f"mode must be 'relative' or 'absolute', got {mode!r}")


def _key_limit(rho: float, norm_sq: int) -> int:
    """The largest integer K <= rho |a|, exactly, for |a|^2 = norm_sq: an
    integer k has |k| <= rho |a| iff k^2 <= rho^2 |a|^2, iff
    |k| <= isqrt(floor(rho^2 |a|^2)), with rho taken as the exact binary
    fraction it is.  Capped at 2^53, above every key difference."""
    return min(math.isqrt(math.floor(Fraction(rho) ** 2 * norm_sq)), 2**53)


# The float64 threshold (rho |a|) sqrt(d^2) is within five roundings of the
# exact rho |a| |mu - mu'|; this relative margin clears them with room to spare.
_THRESHOLD_MARGIN = 8 * np.finfo(np.float64).eps


def _candidate_rule(bound: float, decide):
    """rule(key, dist_sq, small) of _point_sweep for a relative split: the
    small mask, into small, that decide(keys, dist_sq) gives on the entries
    with key <= bound alone, False elsewhere.

    The split reads key <= slope * sqrt(d^2), d^2 = |mu - mu'|^2, and bound
    is slope * sqrt(4m), a few hundredths of a tile's keys at the default
    rho.  Since d^2 <= 4m, and a rounded square root and product are
    monotone, no key above the bound passes the threshold, so the mask is
    the whole tile's, bit for bit.
    """

    def rule(key, dist_sq, small):
        at = np.flatnonzero(np.less_equal(key, bound, out=small))
        np.put(small, at, decide(np.take(key, at), np.take(dist_sq, at)))
        return small

    return rule


def _relative_small(rho: float, norm_sq: int, m: int):
    """_candidate_rule of a relative split of a rational direction a: the
    small mask |k| <= rho |a| |mu - mu'|, exactly, from tiles of the integers
    |k| and d^2 = |mu - mu'|^2.

    Its slope is rho |a| grown by _THRESHOLD_MARGIN.  On the candidates, |k|
    at or below the float64 threshold shrunk by the margin is small, and |k|
    above it grown by the margin is not.  The candidates between, where the
    threshold may fall on the integer |k| itself, are decided as
    k^2 <= rho^2 |a|^2 d^2 in exact rational arithmetic.  The slope is capped
    past every |k|, so a huge rho gives no inf * 0.
    """
    slope = min(rho * math.sqrt(norm_sq) * (1.0 + _THRESHOLD_MARGIN), 2.0**64)
    shrink = (1.0 - _THRESHOLD_MARGIN) / (1.0 + _THRESHOLD_MARGIN)
    limit = Fraction(rho) ** 2 * norm_sq

    def decide(keys, dist_sq):
        grown = slope * np.sqrt(dist_sq)
        passed = keys <= grown * shrink
        for i in np.flatnonzero((keys <= grown) & ~passed):
            passed[i] = int(keys[i]) ** 2 <= limit * int(dist_sq[i])
        return passed

    return _candidate_rule(slope * math.sqrt(4.0 * m), decide)


def _float_relative_small(rho: float, m: int):
    """_candidate_rule of a relative split of a half-rational or irrational
    direction: the small mask |beta| <= rho sqrt(d^2), d^2 = |mu - mu'|^2, by
    the float64 threshold itself."""
    return _candidate_rule(rho * math.sqrt(4.0 * m),
                           lambda keys, dist_sq: keys <= rho * np.sqrt(dist_sq))


def _class_sweep(shell: Shell, direction: Direction, rhos):
    """s_zero, then s_small and inv_sq_sum of the absolute split at each rho
    in rhos, over the frequency classes, each pair of classes weighted by
    h_i h_j: k = 0 for s_zero, |k| <= K = _key_limit(rho) for s_small, and
    |a|^2/k^2 summed over |k| > K.  The counts are sums of integers below
    N^2 and so exact in float64."""
    keys, counts, norm_sq = _frequency_classes(shell, direction)
    limits = [_key_limit(rho, norm_sq) for rho in rhos]
    numerator = float(norm_sq)
    differences = _pair_cross(keys, np.ones_like(keys))
    weighted = _pair_weights(counts)

    def tile(lo, hi, key, mask, inv_key_sq, tail_inv):
        np.abs(differences(lo, hi, out=key), out=key)
        zero = np.equal(key, 0.0, out=mask)
        sums = [weighted(lo, hi, zero)]
        np.multiply(key, key, out=inv_key_sq)
        inv_key_sq[zero] = np.inf
        np.divide(numerator, inv_key_sq, out=inv_key_sq)
        for limit in limits:
            small = np.less_equal(key, limit, out=mask)
            sums.append(weighted(lo, hi, small))
            tail = np.logical_not(small, out=small)
            sums.append(weighted(lo, hi, np.multiply(inv_key_sq, tail, out=tail_inv)))
        return sums

    return _over_half_shell(shell.m, len(keys), (np.float64, bool, np.float64, np.float64),
                            tile)


# A half-rational zero pair's float key |beta| is below 8.1 * 2^-53 sqrt(m)
# (see _half_rational_zero_pairs); the keys at most this many sqrt(m) are the
# candidates that its exact test sees.
_ZERO_KEY_CAP = 2.0**-40


def _half_rational_zero_pairs(half: np.ndarray, uv, m: int):
    """zero_pairs(lo, key, zero) for a half-rational direction
    alpha ~ (v, u, zeta v): marks in zero the pairs of the tile of keys
    |beta| (rows [lo, lo + rows), signed columns +-H[lo:]) with
    <mu - mu', alpha> = 0 exactly, that is with both int64 key differences
    of v x + u y and z equal to 0 (zeta is irrational).

    Only the keys at most _ZERO_KEY_CAP sqrt(m) are candidates, and the exact
    test runs on those alone.  Every exact zero pair is among them.  Let
    e = 2^-53 be the unit roundoff and gamma_3 = 3e / (1 - 3e), and let
    d = mu - mu' (or mu + mu' in the -H block) with v d_x + u d_y = 0 and
    d_z = 0, so |d| <= 2 sqrt(m).  alpha's first two components are the
    exact integers v and u over one float norm, each rounded once, so in the
    float alpha, |<d, alpha>| <= e (1 + e) |d| |alpha|.  Each row frequency
    b = <mu, alpha> of half_frequencies is three exact integer coordinates
    times alpha, off by at most gamma_3 |mu| |alpha| = gamma_3 sqrt(m) |alpha|
    in any order of its products and sums.  The difference b_i -+ b_j is
    rounded once more.  So the key is at most
    (1 + e) (2 gamma_3 + 2 e (1 + e)) sqrt(m) |alpha| < 8.1 e sqrt(m), with
    |alpha| within 1e-12 of 1, and _ZERO_KEY_CAP = 1024 e is far above that.
    The mask is the one the int64 test of every entry gives, so every sum is
    unchanged.
    """
    u, v = uv
    ints = np.stack((v * half[:, 0] + u * half[:, 1], half[:, 2]), axis=1)
    cap = _ZERO_KEY_CAP * math.sqrt(m)

    def zero_pairs(lo, key, zero):
        np.less_equal(key, cap, out=zero)
        at = np.flatnonzero(zero)
        block, row, col = np.unravel_index(at, zero.shape)
        # the column of block 1 is -mu_j: its key differences are sums
        sign = (1 - 2 * block)[:, None]
        np.put(zero, at, ~(ints[lo + row] - sign * ints[lo + col]).any(axis=1))

    return zero_pairs


def _point_sweep(shell: Shell, direction: Direction, splits):
    """Sums over the half-shell points for splits, a list of
    (rho, mode, counted, dist): s_zero first for a half-rational or
    irrational direction, then for each split s_small and inv_sq_sum if
    counted, and inv_dist_sq_sum over its tail if dist.

    A pair's key is the _pair_cross difference of two half keys
    (_half_keys), taken absolutely: |beta|, or for a rational direction a the
    exact integer |k| = |a| |beta| with numerator |a|^2, and inv_sq_sum adds
    numerator/key^2.  The class picks its key, zero mask and split rule once,
    before the tiles; a relative split's rule is a _candidate_rule.  A
    half-rational zero pair has both int64 key differences 0
    (_half_rational_zero_pairs), an irrational one
    |beta| <= IRRATIONAL_ZERO_TOL; zero pairs are small in every split.  A
    rational direction's exact splits, |k| <= _key_limit(rho) and
    _relative_small, hold k = 0 already.  The float64 Gram tile and
    |mu - mu'|^2 = 2m -+ 2<mu, mu'> are integers of at most 4m, so exact;
    _signed_dist_sq and its tiles are built only when a relative split or a
    1/|mu - mu'|^2 tail reads them.  Every tail is compacted by boolean
    indexing, then divided: a whole table's quotients, added in its order,
    and none at distance 0.
    """
    keys, norm_sq = _half_keys(shell, direction)
    differences = _pair_cross(keys, np.ones_like(keys))
    rational = direction.rationality is Rationality.RATIONAL
    half = _antipodal_half(shell.coords, shell.m)
    inv_key_sq_sum = _masked_inv_key_sq_sum(float(norm_sq))

    irrational = direction.rationality is Rationality.IRRATIONAL
    zero_pairs = None
    if direction.rationality is Rationality.HALF_RATIONAL:
        zero_pairs = _half_rational_zero_pairs(half, direction.uv, shell.m)
    elif irrational:
        def zero_pairs(lo, key, zero):
            np.less_equal(key, IRRATIONAL_ZERO_TOL, out=zero)

    def small_rule(rho, mode):
        """rule(key, dist_sq, small) writes the split's small mask into small
        and returns it; None where that mask is the zero mask, as for an
        irrational absolute split with rho <= IRRATIONAL_ZERO_TOL."""
        if mode == "absolute":
            if irrational and rho <= IRRATIONAL_ZERO_TOL:
                return None
            bound = _key_limit(rho, norm_sq) if rational else rho
            return lambda key, dist_sq, small: np.less_equal(key, bound, out=small)
        if rational:
            return _relative_small(rho, norm_sq, shell.m)
        return _float_relative_small(rho, shell.m)

    rules = [(small_rule(rho, mode), counted, dist) for rho, mode, counted, dist in splits]
    reads_dist = any(mode == "relative" or dist for _, mode, _, dist in splits)
    if reads_dist:
        distances = _signed_dist_sq(half.astype(np.float64), 2.0 * shell.m)

    def tile(lo, hi, key, dist_sq, zero, small):
        np.abs(differences(lo, hi, out=key), out=key)
        if reads_dist:
            distances(lo, hi, out=dist_sq)
        width = hi - lo
        sums = []
        if zero_pairs is not None:
            zero_pairs(lo, key, zero)
            sums.append(_fold(np.count_nonzero, width, zero))
        for rule, counted, dist in rules:
            mask = zero
            if rule is not None:
                mask = rule(key, dist_sq, small)
                if zero_pairs is not None:
                    mask |= zero
            if counted:
                sums.append(_fold(np.count_nonzero, width, mask))
            tail = np.logical_not(mask, out=small)
            if counted:
                sums.append(_fold(inv_key_sq_sum, width, key, tail))
            if dist:
                sums.append(_fold(_masked_inv_sum, width, dist_sq, tail))
        return sums

    return _over_half_shell(shell.m, len(half), (np.float64, np.float64, bool, bool), tile)


def _pair_sums(shell: Shell, direction: Direction, splits,
               dist_tails: bool = True) -> list[PairSums]:
    """The PairSums of pair_sums for each (rho, mode) of splits, without
    pair_sums's near-zero warning.

    For a rational direction a, s_zero and each absolute split's s_small and
    inv_sq_sum read beta alone and come from the frequency classes
    (_class_sweep), the split decided exactly as |k| <= _key_limit(rho).
    Every other sum comes from one _point_sweep: all of a half-rational or
    irrational direction's, a rational direction's relative splits, and the
    1/|mu - mu'|^2 tails.  With dist_tails False only the relative splits,
    whose bounds read it, sum 1/|mu - mu'|^2; an absolute split's
    inv_dist_sq_sum is then None, and a rational direction without a
    relative split makes no point sweep.  Each sweep frees its buffers before
    the next one starts.
    """
    for rho, mode in splits:
        _check_split(rho, mode)
    dists = [dist_tails or mode == "relative" for _, mode in splits]
    rational = direction.rationality is Rationality.RATIONAL
    classed = [rational and mode == "absolute" for _, mode in splits]
    class_sums = iter(())
    if rational:
        rhos = [rho for (rho, _), c in zip(splits, classed) if c]
        class_sums = iter(_class_sweep(shell, direction, rhos))
    swept = [(rho, mode, not c, dist)
             for (rho, mode), c, dist in zip(splits, classed, dists) if dist or not c]
    point_sums = iter(_point_sweep(shell, direction, swept) if swept else ())
    s_zero = next(class_sums if rational else point_sums)
    results = []
    for c, dist in zip(classed, dists):
        source = class_sums if c else point_sums
        s_small, inv_sq = next(source), next(source)
        results.append(PairSums(s_zero=int(s_zero), s_small=int(s_small),
                                inv_sq_sum=float(inv_sq),
                                inv_dist_sq_sum=float(next(point_sums)) if dist else None))
    return results


def _warn_near_zero(shell: Shell, direction: Direction, s_zero: int) -> None:
    extra = s_zero - shell.n
    if direction.rationality is Rationality.IRRATIONAL and extra > 0:
        log.warning("irrational direction %s: %d off-diagonal pair(s) within %g of zero",
                    direction, extra, IRRATIONAL_ZERO_TOL)


def pair_sums(shell: Shell, direction: Direction, rho: float, mode: str = "relative") -> PairSums:
    """Count zero and small pairs and sum the inverse squares of the tail.

    mode "relative" uses the threshold |<mu-mu', alpha>| <= rho * |mu-mu'|,
    mode "absolute" the plain |<mu-mu', alpha>| <= rho.  Zero pairs always
    count as small; the tails run over the strictly-above-threshold pairs.
    Warns once when an irrational direction's tolerance counts off-diagonal
    zeros.
    """
    (sums,) = _pair_sums(shell, direction, [(rho, mode)])
    _warn_near_zero(shell, direction, sums.s_zero)
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


def bound_mode(direction: Direction, mode: BoundMode | str | None = None) -> BoundMode:
    """The bound mode named by mode, a BoundMode or its value; with no mode,
    the direction's own.

    The rational, irrational and half-rational modes share their value with
    the Rationality they need; the conditional mode takes any direction.
    Raises ValueError unless the mode's theorem covers the direction's class.
    """
    own = direction.rationality.value
    mode = BoundMode(own if mode is None else mode)
    if mode is not BoundMode.CONDITIONAL and mode.value != own:
        article = "an" if mode.value[0] in "aeiou" else "a"
        raise ValueError(f"mode {mode.value} needs {article} {mode.value} direction, got {own}")
    return mode


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

    @property
    def conjecture_assumed(self) -> bool:
        return self.mode is BoundMode.CONDITIONAL


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
    Each split dominates q_sum exactly, term by term.  variance_bound composes
    q_sum and one _pair_sums call, whose point sweep yields the whole-shell
    sums (rho = 0, absolute) and the theorem's split together.  Only a
    relative split's 1/|mu - mu'|^2 tail is summed, since no other bound reads
    one; so the conditional bound builds no Gram tile, and a rational
    direction's rational and conditional bounds make no point sweep.
    BoundOverflowError names "length" for an overflowing pair sum or
    L^2 * s_small, and "rho" for an overflowing tail.
    """
    direction = line.direction
    mode = bound_mode(direction, mode)
    check_rho(mode, rho)
    theorem = _SPLIT_THEOREMS.get(mode)
    rho_used = rho if rho is not None else _default_rho(mode, shell.m)
    splits = [(0.0, "absolute")]
    if theorem is not None:
        split, _, exponent = theorem
        _check_split(rho_used, split)
        splits.append((rho_used, split))
    kap = kappa(shell)
    n_sq = shell.n * shell.n
    length = line.length
    q_val = q_sum(shell, line)
    whole, *split_sums = _pair_sums(shell, direction, splits, dist_tails=False)
    _warn_near_zero(shell, direction, whole.s_zero)

    if theorem is None:
        bound = q_val
        envelope = {0.0: kap / shell.n}
    else:
        (parts,) = split_sums
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
    )


@dataclass(frozen=True)
class RieszResult:
    """Riesz energy of a unit-sphere configuration and its N^2 normalization."""

    sigma: float
    energy: float
    n: int

    @property
    def limit_i(self) -> float:
        """I(sigma) = 2^(1-sigma)/(2-sigma), the limit of energy/n^2."""
        return 2.0 ** (1.0 - self.sigma) / (2.0 - self.sigma)

    @property
    def normalized_gap(self) -> float:
        return abs(self.energy / (self.n * self.n) - self.limit_i)


def riesz_energy(projected: ProjectedShell, sigma: float) -> RieszResult:
    """Sum |P_i - P_j|^-sigma over distinct ordered pairs of unit points.

    Row i must be the antipode of row n-1-i, as project_shell gives them: the
    sum runs over antipodal classes, like the other pair sums.  For shells
    projected to the unit sphere the normalized energy E/N^2 approaches
    I(sigma) = 2^(1-sigma)/(2-sigma) as the shell grows.
    """
    if not 0.0 < sigma < 2.0:
        raise ValueError(f"sigma must lie in (0, 2), got {sigma}")
    pts = np.asarray(projected.unit_points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    if not np.isfinite(pts).all():
        raise ValueError("unit points must be finite")
    # the tiles take 2 -+ 2<p, q> as the squared distance, true for unit vectors only
    if np.any(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-12):
        raise ValueError("unit points must have norm 1 (within 1e-12)")
    half = _antipodal_half(pts, projected.m)
    distances = _signed_dist_sq(half, 2.0)

    def energy_of(dists):
        np.sqrt(dists, out=dists)
        if np.any(dists == 0.0):
            raise ValueError("coincident points give a divergent energy")
        dists **= -sigma
        return np.sum(dists)

    def tile(lo, hi, dist_sq):
        distances(lo, hi, out=dist_sq)
        np.clip(dist_sq, 0.0, None, out=dist_sq)
        # only the diagonal block holds pairs to drop: each point's own pair
        # (the -H block's diagonal holds the antipodal pairs, at distance 2)
        width = hi - lo
        off = np.ones((2, width, width), dtype=bool)
        np.fill_diagonal(off[0], False)
        # right of it every entry is kept (none on the last tile): the C-order
        # copy is the compacted sequence
        return (energy_of(dist_sq[..., :width][off])
                + 2 * energy_of(np.ravel(dist_sq[..., width:])),)

    (energy,) = _over_half_shell(projected.m, len(half), (np.float64,), tile)
    return RieszResult(sigma=sigma, energy=float(energy), n=n)
