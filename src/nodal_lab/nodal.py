"""Zero counting on the segment and Monte-Carlo moments of the count.

The restricted process f is a trigonometric polynomial whose frequencies
|<mu, alpha>| are at most sqrt(m), so a uniform grid denser than twice the
top frequency (GRID_FACTOR = 8 times) brackets almost every zero between two
sign changes.  A pair of roots can still hide inside a cell whose endpoints
share a sign.  Such cells, and grid points where f is suspiciously small
without an adjacent sign change, get a local refinement pass at eight times
the density.  At every depth level the same rule applies: a cell is
refined only when neither of two exclusion tests rules out a zero inside
it, w being the cell width at that level:
  - the curvature test: the smaller endpoint |f| exceeds M2 * w^2 / 8, where
    M2 = scale * sum (2 pi b)^2 |a| bounds |f''| by the triangle inequality;
  - the Hermite test: the exact minimum over the cell of sign(f0) * H, with
    H the cubic Hermite interpolant of f and f' at the cell's end points,
    exceeds M4 * w^4 / 384 plus a floating-point margin.
    M4 = scale * sum (2 pi b)^4 |a| bounds |f^(4)|, so M4 * w^4 / 384 bounds
    |f - H| (the classical Hermite remainder), and the margin,
    2 * near_tol + 64 * eps * S, covers the noise in the computed f and f'
    (derived in ``_level``).
Either test rules a cell out only where f provably keeps one sign, so the
counts are those of the curvature test alone.  The Hermite test is much
tighter: at m = 1009 it keeps about one in three hundred of the base cells
the curvature test would refine.  It needs f' at the end points, which
costs one more matrix product per block and level: f' is f of the pair
amplitudes 2 pi i b a, so both products are randomwave's one restriction
formula.  Touch-without-crossing configurations are flagged and counted as
zero crossings are not; so is a numerically zero grid point between two
sign changes, a double root that rounding split in two, unless f' there is
large enough to fix the signs of f a refinement step away.

The rule has one home, ``_scan``, which runs it over a block of samples one
depth level at a time.  The block comes in as its amplitudes, a k x N/2
matrix with one row of pair amplitudes per sample, beside the base grid and
its frequencies; ``_scan`` reads no sample object and no shell.  The base
grid keeps no points x N/2 phase table.  Its points come in chunks, each an
anchor t_c plus the offsets t_j of the first chunk, and e^{2 pi i b t} is
e^{2 pi i b t_c} e^{2 pi i b t_j}, so the grid holds cos and sin of 2 pi b t
at the anchors and at the offsets alone.  ``_base_values`` rotates the
block's amplitudes to every anchor and makes one restriction product of the
offset table against all the rotated rows, and one more for f'; they give
every sample's base-grid values of f and f' with the multiply-adds of two
products of the whole table, and the masks of ``_level`` run over all
segments of the block at once.  Off the base grid ``_scan`` evaluates its
block with no loop over samples, and it too goes through ``_restrict``: one
product of the points' phase table against every sample of the block, of
which each point keeps its own sample's column.  Each refinement level
builds one phase table for its sub-grid points and makes that product for
f and one more for f'.  ``f_at``, f of any block row at any point, makes
the first alone, and ``_bisect`` evaluates its midpoints with it.
``_scan`` returns the brackets of every level,
the flags and ``f_at``.  A bracket is a sign-change cell, or the width-0
bracket [r, r] of a run of exact grid zeros that counts as a root, r being
the run's midpoint, with f = 0 at its lower end; ``_bisect`` returns r for
it as it is.
``count_zeros`` bisects all the brackets in one call to ``_bisect`` and
returns the roots.  ``monte_carlo`` only counts them: each bracket holds one
root, and two roots can merge only where brackets lie within 2 * BISECT_TOL
of each other, in practice where they share an end point at which f is
numerically zero or sit beside a width-0 bracket; only those brackets are
bisected, in one call per block.

Monte-Carlo trials draw independent substreams from one seed sequence and
are scanned BLOCK_TRIALS at a time.  The per trial results are integers and
the reduction is exact integer arithmetic, so reports are reproducible bit
for bit.  The block size can move only the last bits of the restriction
products, those of refinement and bisection included, which changes no
count in the test matrices; a sample with an exact or near-exact zero at a
grid point can still count differently in another block.
"""

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import BoundOverflowError
from .diophantine import Direction
from .lattice import Shell
from .randomwave import (
    TWO_PI,
    LineSegment,
    WaveSample,
    _phases,
    _restrict,
    _slope_parts,
    half_frequencies,
    sample_wave,
)

__all__ = [
    "DegenerateSampleError",
    "ZeroFlags",
    "ZeroCount",
    "MonteCarloReport",
    "count_zeros",
    "monte_carlo",
]

GRID_FACTOR = 8.0  # base-grid points per Nyquist interval of the top frequency
BISECT_TOL = 1e-12
NEAR_ZERO_FACTOR = 1e-10
DEGENERATE_TOL = 1e-13
REFINE_RATIO = 8
MAX_REFINE_DEPTH = 8
# Trials scanned together by monte_carlo.  Larger blocks amortize the
# per-level numpy calls, but their flat per-point temporaries raise the peak
# memory: at m = 1009 a block of 16 adds about 0.3 MB to a simulate process
# and a block of 32 about 0.8 MB, for about 10% less time per trial.
BLOCK_TRIALS = 16
# Points x N/2 of the base grid or of a refinement level.  A refinement
# level builds one cos and one sin table, 512 MB at most.  The base grid
# builds no such table: there the budget bounds the work of its two
# restriction products per sample, of f and of f'.  m = 100001 at L = 1
# needs 14.0M on the base grid.
GRID_ENTRIES = 1 << 25


class DegenerateSampleError(RuntimeError):
    """Raised when f is numerically zero on the whole sampling grid.

    ``row`` is the offending sample's position in the scanned block.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ZeroFlags:
    """Audit flags: refinement ran out of depth, or a near-tangency was seen."""

    refinement_depth_hit: bool = False
    near_tangency: bool = False


@dataclass(frozen=True)
class ZeroCount:
    """Zeros of f on [0, L]: sorted roots and their count."""

    roots: np.ndarray = field(repr=False)
    flags: ZeroFlags

    def __post_init__(self):
        roots = np.array(self.roots, dtype=np.float64)
        roots.setflags(write=False)
        object.__setattr__(self, "roots", roots)
        if roots.size > 1:
            gaps = np.diff(roots)
            if np.any(gaps <= BISECT_TOL):
                raise ValueError("roots must be sorted with spacing above the tolerance")

    @property
    def count(self) -> int:
        return self.roots.size


@dataclass(frozen=True)
class MonteCarloReport:
    """Zero-count statistics over independent wave draws.

    near_tangency_trials and depth_hit_trials count the trials whose
    ZeroFlags raised near_tangency and refinement_depth_hit.
    """

    m: int
    direction: Direction
    length: float
    trials: int
    mean: float
    variance: float
    stderr: float
    histogram: dict[int, int]
    near_tangency_trials: int
    depth_hit_trials: int
    seed: int


@dataclass(frozen=True)
class _BaseGrid:
    """The uniform base grid on [0, L] and its two phase tables.

    The grid's points come in chunks of C: point cC + j is the anchor
    t[cC] plus the offset t[j], so e^{2 pi i b t} is the product of an
    anchor's phase and an offset's.  ``anchors`` holds cos and sin of
    2 pi b t at t[::C] and ``offsets`` at t[:C], each with one row per
    anchor or offset and one column per frequency of ``b``.
    """

    t: np.ndarray
    anchors: tuple[np.ndarray, np.ndarray]
    offsets: tuple[np.ndarray, np.ndarray]
    b: np.ndarray  # <mu, alpha> per antipodal pair


def _check_grid(grid: str, points: int, freqs: int, length: float) -> None:
    """Raise BoundOverflowError("length") before a grid of points x freqs
    entries past GRID_ENTRIES is evaluated; grid names it in the message."""
    if points * freqs > GRID_ENTRIES:
        raise BoundOverflowError(
            "length", f"{grid} needs {points} points x {freqs} "
            f"frequencies, over {GRID_ENTRIES} entries, for length={length}")


def _base_grid(shell: Shell, line: LineSegment) -> _BaseGrid:
    """Base grid of ceil(GRID_FACTOR * 2 * f_max * L) + 1 uniform points; raises
    BoundOverflowError("length") for more than GRID_ENTRIES points x N/2.

    The chunk length C = isqrt(BLOCK_TRIALS * n_pts) balances the offset
    table (C rows) against the amplitudes _scan rotates to every anchor
    (n_pts / C anchors for each of BLOCK_TRIALS samples), so both hold about
    sqrt(BLOCK_TRIALS * n_pts) rows of N/2 entries.
    """
    b = half_frequencies(shell, line.direction.components)
    f_max = float(np.max(np.abs(b)))  # the mirrored rows carry -b
    n_pts = max(int(math.ceil(GRID_FACTOR * 2.0 * f_max * line.length)) + 1, 2)
    _check_grid(f"the base grid at m={shell.m}", n_pts, len(b), line.length)
    t = np.linspace(0.0, line.length, n_pts)
    chunk = min(math.isqrt(BLOCK_TRIALS * n_pts), n_pts)
    return _BaseGrid(t, _phases(t[::chunk], b), _phases(t[:chunk], b), b)


def _run_ends(breaks: np.ndarray, n: int):
    """Masks of the first and of the last element of each run among n, where
    breaks[i] says that elements i and i + 1 lie in different runs."""
    first = np.ones(n, dtype=bool)
    first[1:] = breaks
    last = np.ones(n, dtype=bool)
    last[:-1] = breaks
    return first, last


def _zero_runs(t: np.ndarray, fv: np.ndarray, seg: np.ndarray):
    """Runs of exact zeros over concatenated segments, as roots and windows.

    ``seg`` names each point's segment, and a run ends where its segment
    does.  A run counts as one root, at its midpoint, when its flanking
    values differ in sign or it reaches an end of its segment.  Same-sign
    flanks count nothing here: f may touch zero at the run, or cross it
    there and once more in a cell beside it, so the run and its two flanks
    make a window [left, right] for refinement.  Returns the roots, the
    segment of each root and the windows' end points.  Only the zero points
    and their flanks are indexed.
    """
    zero = np.flatnonzero(fv == 0.0)
    if zero.size == 0:  # the common case; skips a dozen numpy calls per level
        return t[zero], zero, zero, zero
    first, last = _run_ends((zero[1:] - zero[:-1] > 1) | (seg[zero[1:]] != seg[zero[:-1]]),
                            zero.size)
    lo, hi = zero[first], zero[last]
    run_seg = seg[lo]
    left, right = lo - 1, np.minimum(hi + 1, fv.size - 1)
    crossing = ((lo == 0) | (hi + 1 == fv.size) | (seg[left] != run_seg)
                | (seg[right] != run_seg) | (fv[left] * fv[right] < 0))
    roots = 0.5 * (t[lo] + t[hi])
    return roots[crossing], run_seg[crossing], left[~crossing], right[~crossing]


def _bisect(f_at, row, lo, hi, f_lo):
    """Vectorized bisection on cells with a sign change; returns midpoints.

    Bracket i belongs to block row ``row[i]`` of the evaluator ``f_at``.
    Brackets of any widths are bisected together; one narrower than the
    others may get a few extra halvings, which keep its midpoint inside it,
    and a width-0 bracket [r, r] returns r.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    f_lo = np.array(f_lo, dtype=np.float64)
    for _ in range(80):
        if np.all(hi - lo <= 2 * BISECT_TOL):
            break
        mid = 0.5 * (lo + hi)
        fm = f_at(row, mid)
        exact = fm == 0.0
        lower = f_lo * fm < 0
        hi = np.where(exact | lower, mid, hi)
        lo = np.where(exact | ~lower, mid, lo)
        f_lo = np.where(~exact & ~lower, fm, f_lo)
    return 0.5 * (lo + hi)


def _merge_windows(lo: np.ndarray, hi: np.ndarray):
    """Merge index windows [lo, hi] that overlap or share an end point."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    opens, closes = _run_ends(lo[1:] > reach[:-1], lo.size)
    return lo[opens], reach[closes]


def _hermite_min(f0, f1, d0, d1):
    """Exact minimum over u in [0, 1] of sign(f0) * H(u), cell by cell.

    H is the cubic with H(0) = f0, H(1) = f1, H'(0) = d0 and H'(1) = d1
    (d = w * f' on a cell of width w): H(u) = f0 + d0 u + b u^2 + a u^3.
    The minimum sits at an end point or at a real root of
    H'(u) = 3a u^2 + 2b u + d0 inside the cell.  The roots are q / (3a) and
    d0 / q with q = -(b + sign(b) sqrt(b^2 - 3a d0)), a form free of
    cancellation.  With a = 0 the second root is the quadratic's
    -d0 / (2b) and the first is infinite; with a = b = 0 H is linear and
    neither is finite.  Both roots are clipped into [0, 1], undefined ones
    (0 / 0) becoming 1, and a negative discriminant yields the inflection
    point: an extra point of the cell can never pull the minimum below its
    true value.
    """
    a = 2.0 * (f0 - f1) + d0 + d1
    b = 3.0 * (f1 - f0) - 2.0 * d0 - d1
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - 3.0 * a * d0, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.array([q / (3.0 * a), d0 / q])
    u = np.fmax(np.fmin(u, 1.0), 0.0)  # fmin takes 1 over NaN
    s = np.sign(f0)
    h = ((a * u + b) * u + d0) * u + f0
    return np.minimum(np.minimum(s * f0, s * f1), np.min(s * h, axis=0))


def _level(t, fv, seg, near_tol, dip_tol, slope, remainder):
    """One depth level over concatenated segments: brackets and windows.

    ``seg`` names each point's segment; ``near_tol`` and ``dip_tol`` (the
    M2 * w^2 / 8 curvature test) hold one value per segment.  Returns the
    sign-change cells (index of their left point), the roots at runs of
    exact zeros with the segment of each (_zero_runs) and the merged
    refinement windows [lo, hi].  Cells whose endpoints share a sign are
    refined when the curvature bound says f could reach zero inside; tiny
    endpoint values that sit next to a sign change are exempt, being the
    skirt of an already bracketed root.  A run of exact zeros whose flanks
    share a sign is refined with the two cells beside it, which may hold a
    second root.  So a true double root at an exact grid zero, where the
    sub-grids keep meeting an exact or tiny f, refines down to
    MAX_REFINE_DEPTH and raises both the depth-hit and the tangency flags.

    ``slope`` holds f' at every point and ``remainder`` M4 * w^4 / 384, one
    value per segment.  A cell that passes the curvature test is refined
    only if also

        min over the cell of sign(f0) * H  <=  remainder + 2 near_tol + 64 eps S

    with H the cell's cubic Hermite interpolant (_hermite_min), built from
    f0, f1, w f0' and w f1', and S = |f0| + |f1| + w |f0'| + w |f1'|.  The
    right side bounds |f - H| as computed, so above it f keeps the sign of
    f0 on the whole cell and has no zero there:
      - for exact end data |f - H| <= M4 w^4 / 384, the classical Hermite
        remainder: f^(4)(xi) / 4! times (t - t0)^2 (t - t1)^2 <= w^4 / 16;
      - the values of f carry at most near_tol of rounding noise, the premise
        _counts rests on too.  f' is f of the amplitudes 2 pi i b a, the
        same sum with each term weighted by |2 pi b| <= 2 pi f_max, so its
        noise is at most 2 pi f_max near_tol.
        H depends on f0 and f1 through weights that sum to 1, and on w f0'
        and w f1' through weights whose absolute values sum to
        u (1 - u) <= 1/4.  So the noise moves H by at most
        (1 + 2 pi f_max w / 4) near_tol <= (1 + pi / 32) near_tol, since
        w <= 1 / (2 GRID_FACTOR f_max) = 1 / (16 f_max), on the base grid
        and, narrower still, on every sub-grid; 2 near_tol covers it;
      - 64 eps S covers the rounding of the cubic's coefficients, of Horner's
        rule and of its critical points, where an error moves H only to
        second order.
    """
    n = fv.size
    inner = seg[:-1] == seg[1:]  # cells that do not straddle two segments
    zero = fv == 0.0
    sign_change = inner & (fv[:-1] * fv[1:] < 0.0)
    abs_f = np.abs(fv)
    tiny = (abs_f <= near_tol[seg]) & ~zero
    beside_change = np.zeros(n, dtype=bool)
    beside_change[:-1] |= sign_change
    beside_change[1:] |= sign_change
    beside_zero = np.zeros(n, dtype=bool)
    beside_zero[:-1] |= inner & zero[1:]
    beside_zero[1:] |= inner & zero[:-1]

    masked = np.where(tiny & beside_change, np.inf, abs_f)
    zero_edge = zero[:-1] | zero[1:]
    dip_possible = np.minimum(masked[:-1], masked[1:]) <= dip_tol[seg[:-1]]
    risky = np.flatnonzero(inner & ~sign_change & ~zero_edge & dip_possible)
    f0, f1 = fv[risky], fv[risky + 1]
    w = t[risky + 1] - t[risky]
    d0, d1 = w * slope[risky], w * slope[risky + 1]
    rounding = 64.0 * np.finfo(float).eps * (np.abs(f0) + np.abs(f1) + np.abs(d0) + np.abs(d1))
    margin = remainder[seg[risky]] + 2.0 * near_tol[seg[risky]] + rounding
    risky = risky[_hermite_min(f0, f1, d0, d1) <= margin]
    suspects = np.flatnonzero(tiny & ~beside_change & ~beside_zero)

    first, last = _run_ends(~inner, n)
    roots, root_seg, run_lo, run_hi = _zero_runs(t, fv, seg)
    lo = np.concatenate([risky, np.where(first[suspects], suspects, suspects - 1), run_lo])
    hi = np.concatenate([risky + 1, np.where(last[suspects], suspects, suspects + 1), run_hi])
    return np.flatnonzero(sign_change), roots, root_seg, *_merge_windows(lo, hi)


def _sub_grids(t, lo, hi):
    """Concatenated np.linspace(t[lo], t[hi], (hi - lo) * REFINE_RATIO + 1).

    Returns the points, the index of each sub-grid's first point and the
    window [lo, hi] each point belongs to, as an index into lo: the segment
    map of the next level.
    """
    num = (hi - lo) * REFINE_RATIO + 1
    starts = np.cumsum(num) - num
    owner = np.repeat(np.arange(num.size), num)
    step = (t[hi] - t[lo]) / (num - 1)
    sub_t = (np.arange(owner.size) - starts[owner]) * step[owner] + t[lo][owner]
    sub_t[starts + num - 1] = t[hi]
    return sub_t, starts, owner


@dataclass(frozen=True)
class _Scan:
    """The refinement rule's findings over a block of samples.

    One entry per bracket [lo, hi], at any depth level: the block row of its
    sample and f at lo.  A bracket is a sign-change cell, or [r, r] with
    f_lo = 0 for a root at a run of exact zeros (_zero_runs).  Per sample:
    the two flags, the near-zero tolerance and the |f''| bound M2.
    ``f_at(row, t)`` is f of block row row[i] at t[i], for any points of the
    segment.
    """

    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    f_lo: np.ndarray
    tangency: np.ndarray
    depth_hit: np.ndarray
    near_tol: np.ndarray
    m2: np.ndarray
    f_at: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _base_values(re, im, grid: _BaseGrid, scale):
    """f and f' of every block row at every base-grid point, k x n_pts each.

    re and im are the parts of the k x N/2 amplitude block.  The amplitudes
    are first rotated to every anchor t_c, a e^{2 pi i b t_c}.  Then f at
    t_c + t_j comes from one restriction product of the offset table
    against all the rotated rows, and f' from one more, of the rotated
    amplitudes i omega a e^{2 pi i b t_c} (omega = 2 pi b).  Each product
    does the multiply-adds of a product of the whole n_pts x N/2 phase
    table, and no such table is built.
    """
    k, h = re.shape
    (anchor_cos, anchor_sin), (offset_cos, offset_sin) = grid.anchors, grid.offsets
    rot_re = anchor_cos[:, None] * re - anchor_sin[:, None] * im  # anchors x k x N/2
    rot_im = anchor_sin[:, None] * re + anchor_cos[:, None] * im

    def on_grid(part_re, part_im):
        # entry (j, (c, i)) of the product is point c C + j of row i
        out = _restrict(offset_cos, offset_sin, part_re.reshape(-1, h), part_im.reshape(-1, h),
                        scale)
        out = out.reshape(len(offset_cos), -1, k).transpose(2, 1, 0)  # k x anchors x chunk
        return out.reshape(k, -1)[:, :grid.t.size]

    fv = on_grid(rot_re, rot_im)
    # f' is f of the amplitudes i omega a; rebinding drops the rotated a
    # before the second product
    rot_re, rot_im = _slope_parts(TWO_PI * grid.b, rot_re, rot_im)
    return fv, on_grid(rot_re, rot_im)


def _scan(half: np.ndarray, grid: _BaseGrid) -> _Scan:
    """Brackets and flags of every sample in a block, one level at a time.

    The block comes in as its amplitudes: row i of ``half`` holds the N/2
    pair amplitudes of sample i, one per frequency of ``grid.b``, so the
    scan needs no shell and no sample object.  Every sample's base-grid
    values of f and f' come from _base_values: the amplitudes rotated to
    each anchor of the grid, then one restriction product of the offset
    table against them, the formula of evaluate_f, and one more for f',
    which is f of the pair amplitudes 2 pi i b a, as in evaluate_f_prime.
    Each refinement level concatenates the windows of all samples into
    segments and evaluates f and f' at their sub-grid points from one phase
    table, with the same two restriction products.  Every level applies the
    masks of _level with both exclusion tests, curvature (M2) and Hermite
    (M4, f'), at its own cell width.  The segment map (seg, the segment of
    each point) of a level is the window map _sub_grids returns for it.
    Every level also adds the width-0 brackets of its runs of exact zeros,
    refines the runs whose flanks share a sign (_level), and raises the
    tangency flag for a numerically zero point shared by two sign-change
    cells, a double root that rounding may have split in two.

    That flag is dropped where f' shows two simple roots whose count no
    rounding of f(p) can change.  Let p be the shared point, w the cell
    width at its level and h = w / REFINE_RATIO = w / 8 the step of the
    sub-grid a window around p gets.  The computed |f(p)| is at most
    near_tol, so the true one is at most 2 near_tol.  Taylor's theorem gives
    f(p +- h) = f(p) +- h f'(p) + R with |R| <= M2 h^2 / 2, and the computed
    f' is off by at most 2 pi f_max near_tol (_level), h times which is at
    most (pi / 64) near_tol < near_tol since w <= 1 / (16 f_max) at every
    level.  So where h |f'(p)| > 4 near_tol + M2 h^2 / 2 as computed, the
    true f at p - h and p + h exceeds near_tol with opposite signs, and the
    values computed there keep those signs.  One root then lies within h of
    p, and another between whichever of p +- h has the sign opposite to the
    cells' far ends and its far end.  Had f(p) rounded to the other sign,
    neither cell would change sign, though each holds a root; the exclusion
    tests drop only cells on which f keeps one sign, so both would be
    refined on a sub-grid that holds p +- h, and give the same two roots
    (at MAX_REFINE_DEPTH they would raise the depth-hit flag in place of
    that refinement).

    Raises ValueError before any refinement if f * f, M0, M2 or M4
    overflows, as amplitudes near the top of the float64 range make them:
    near_tol would be inf, every grid point tiny, and the windows would grow
    eightfold per level.  A sample is degenerate, and raises
    DegenerateSampleError, where max |f| on the grid is at most
    DEGENERATE_TOL M0, M0 = scale sum |a| being the bound on |f|: a verdict
    that scaling the amplitudes does not change, and that catches an f which
    is exactly zero and computed as rounding noise of order eps M0.  Past
    that, a mean f^2 below the smallest normal float64 raises ValueError:
    the products f_i f_{i+1} of the sign tests would underflow to +-0.
    A refinement level whose sub-grid would need more than GRID_ENTRIES
    points x N/2 raises BoundOverflowError("length") before it is built,
    as an f that is exactly zero but computed as noise above that test can
    make the windows grow eightfold per level on a long segment.
    """
    k = len(half)
    re, im = np.ascontiguousarray(half.real), np.ascontiguousarray(half.imag)
    scale = 2.0 / math.sqrt(2 * len(grid.b))  # 2 / sqrt(N)
    with np.errstate(over="ignore"):
        fv, slope = _base_values(re, im, grid, scale)
        slope = slope.ravel()  # one run per sample, as fv below
        mean_sq = np.mean(fv * fv, axis=1)
        near_tol = NEAR_ZERO_FACTOR * np.sqrt(mean_sq)
        omega = TWO_PI * grid.b
        m0, m2, m4 = (scale * np.sum(omega**p * np.abs(half), axis=1) for p in (0, 2, 4))
    if not np.isfinite([near_tol, m0, m2, m4]).all():
        raise ValueError("f overflows: the pair amplitudes are too large to scan")
    dead = np.flatnonzero(np.max(np.abs(fv), axis=1) <= DEGENERATE_TOL * m0)
    if dead.size:
        raise DegenerateSampleError(
            "degenerate sample: f vanishes on the whole grid", row=int(dead[0]))
    if np.any(mean_sq < np.finfo(np.float64).tiny):
        raise ValueError("f underflows: the pair amplitudes are too small to scan")

    def values(row, t, *parts):
        # one phase table and one restriction product over the block per pair
        # of amplitude parts; point i takes its sample's column
        cos, sin = _phases(t, grid.b)
        return [_restrict(cos, sin, *p, scale)[np.arange(t.size), row] for p in parts]

    def f_at(row, t):
        return values(row, t, (re, im))[0]

    n = grid.t.size
    t = np.tile(grid.t, k)
    fv = fv.ravel()
    starts = np.arange(k) * n  # first point of each segment
    seg = np.repeat(np.arange(k), n)  # segment of each point
    owner = np.arange(k)  # block row of each segment
    tangency = np.zeros(k, dtype=bool)
    depth_hit = np.zeros(k, dtype=bool)
    found = []
    depth = 1
    while True:
        w = t[starts + 1] - t[starts]
        tol = near_tol[owner]
        dip_tol = m2[owner] * w * w / 8.0
        cells, roots, root_seg, win_lo, win_hi = _level(t, fv, seg, tol, dip_tol, slope,
                                                        m4[owner] * w**4 / 384.0)
        # a numerically zero point between two sign changes: a split double
        # root, unless f' fixes the signs of f a refinement step away (derived
        # in the docstring)
        shared = cells[1:][cells[1:] - cells[:-1] == 1]
        split = shared[np.abs(fv[shared]) <= tol[seg[shared]]]
        h = w[seg[split]] / REFINE_RATIO
        bound = 4.0 * tol[seg[split]] + m2[owner[seg[split]]] * h * h / 2.0
        tangency[owner[seg[split[np.abs(slope[split]) * h <= bound]]]] = True
        found.append((owner[seg[cells]], t[cells], t[cells + 1], fv[cells]))
        found.append((owner[root_seg], roots, roots, np.zeros(roots.size)))
        if win_lo.size == 0:
            break
        owner = owner[seg[win_lo]]
        if depth >= MAX_REFINE_DEPTH:
            depth_hit[owner] = True
            tangency[owner] = True
            break
        points = int(np.sum(win_hi - win_lo)) * REFINE_RATIO + win_lo.size
        _check_grid(f"refinement level {depth}", points, grid.b.size, grid.t[-1])
        t, starts, seg = _sub_grids(t, win_lo, win_hi)
        fv, slope = values(owner[seg], t, (re, im), _slope_parts(omega, re, im))
        depth += 1

    row, lo, hi, f_lo = (np.concatenate(parts) for parts in zip(*found))
    return _Scan(row, lo, hi, f_lo, tangency, depth_hit, near_tol, m2, f_at)


def _merge_roots(roots: np.ndarray) -> np.ndarray:
    """Sorted roots, dropping each within 2*BISECT_TOL of the last one kept."""
    merged: list[float] = []
    for r in sorted(roots.tolist()):
        if merged and r - merged[-1] <= 2 * BISECT_TOL:
            continue
        merged.append(r)
    return np.array(merged)


def _counts(scan: _Scan) -> np.ndarray:
    """Zero count of every scanned sample, as count_zeros would give it.

    Brackets have disjoint interiors and each bisects to one root inside
    it, so two roots can merge only where brackets lie within 2*BISECT_TOL
    of each other, in practice where they share an end point e.  Even then,
    two roots within 2*BISECT_TOL of each other around e give
    |f(e)| <= noise + 2 * M2 * BISECT_TOL^2 (linear interpolation between
    them, with the evaluation noise bounded by near_tol), so a larger
    |f(e)| keeps them apart.  A root at an exact grid zero r is the width-0
    bracket [r, r] with f_lo = 0, which never passes that exemption: every
    bracket within 2*BISECT_TOL of r counts as close to it.  Only the close
    brackets are bisected, all in one call.
    """
    counts = np.bincount(scan.row, minlength=scan.tangency.size)
    order = np.lexsort((scan.lo, scan.row))
    row, lo, hi, f_lo = (a[order] for a in (scan.row, scan.lo, scan.hi, scan.f_lo))
    touching = (row[1:] == row[:-1]) & (lo[1:] - hi[:-1] <= 2 * BISECT_TOL)
    floor = 2.0 * scan.near_tol + 2.0 * scan.m2 * BISECT_TOL**2
    touching &= ~((lo[1:] == hi[:-1]) & (np.abs(f_lo[1:]) > floor[row[1:]]))
    close = np.zeros(row.size, dtype=bool)
    close[order[:-1][touching]] = True
    close[order[1:][touching]] = True
    owner = scan.row[close]
    roots = _bisect(scan.f_at, owner, scan.lo[close], scan.hi[close], scan.f_lo[close])
    for i in set(owner.tolist()):
        mine = roots[owner == i]
        counts[i] += _merge_roots(mine).size - mine.size
    return counts


def count_zeros(sample: WaveSample, line: LineSegment) -> ZeroCount:
    """Count the zeros of f on [0, L].

    The base grid has ceil(GRID_FACTOR * 2 * f_max * L) + 1 uniform points
    where f_max = max |<mu, alpha>| is the top frequency of f.
    """
    scan = _scan(sample.half_coefficients[None], _base_grid(sample.shell, line))
    roots = _merge_roots(_bisect(scan.f_at, scan.row, scan.lo, scan.hi, scan.f_lo))
    flags = ZeroFlags(refinement_depth_hit=bool(scan.depth_hit[0]),
                      near_tangency=bool(scan.tangency[0]))
    return ZeroCount(roots=roots, flags=flags)


def monte_carlo(
    shell: Shell,
    line: LineSegment,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Estimate mean and variance of the zero count over independent draws.

    Each trial uses its own substream spawned from the seed and gets the
    count count_zeros gives its sample; trials are scanned BLOCK_TRIALS at
    a time, counted without bisection wherever no two roots could merge.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    grid = _base_grid(shell, line)
    # spawn is stateful: children spawned block by block are those of one
    # spawn(trials), without holding every trial's stream at once
    root = np.random.SeedSequence(seed)
    counts: Counter[int] = Counter()
    near_tangency = depth_hit = 0
    for start in range(0, trials, BLOCK_TRIALS):
        half = np.array([sample_wave(shell, np.random.default_rng(stream)).half_coefficients
                         for stream in root.spawn(min(BLOCK_TRIALS, trials - start))])
        try:
            scan = _scan(half, grid)
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"trial {start + exc.row}: {exc}") from exc
        counts.update(_counts(scan).tolist())
        near_tangency += int(np.count_nonzero(scan.tangency))
        depth_hit += int(np.count_nonzero(scan.depth_hit))

    total = sum(c * k for c, k in counts.items())
    total_sq = sum(c * c * k for c, k in counts.items())
    mean = total / trials
    variance = (trials * total_sq - total * total) / (trials * (trials - 1))
    return MonteCarloReport(
        m=shell.m,
        direction=line.direction,
        length=line.length,
        trials=trials,
        mean=mean,
        variance=variance,
        stderr=math.sqrt(variance / trials),
        histogram=dict(sorted(counts.items())),
        near_tangency_trials=near_tangency,
        depth_hit_trials=depth_hit,
        seed=seed,
    )
