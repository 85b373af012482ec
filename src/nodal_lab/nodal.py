"""Zero counting on the segment and Monte-Carlo moments of the count.

The restricted process f is a trigonometric polynomial whose frequencies
|<mu, alpha>| are at most sqrt(m), so a uniform grid denser than twice the
top frequency (GRID_FACTOR = 8 times) brackets almost every zero between two
sign changes.  A pair of roots can still hide inside a cell whose endpoints
share a sign.  Such cells, and grid points where f is suspiciously small
without an adjacent sign change, get a local refinement pass at eight times
the density.  A cell is refined only when neither of two exclusion tests
rules out a zero inside it:
  - the curvature test: the smaller endpoint |f| exceeds M2 * w^2 / 8, where
    w is the cell width and M2 = scale * sum (2 pi b)^2 |a| bounds |f''| by
    the triangle inequality;
  - on the base grid only, the Hermite test: the exact minimum over the cell
    of sign(f0) * H, with H the cubic Hermite interpolant of f and f' at the
    cell's end points, exceeds M4 * w^4 / 384 plus a floating-point margin.
    M4 = scale * sum (2 pi b)^4 |a| bounds |f^(4)|, so M4 * w^4 / 384 bounds
    |f - H| (the classical Hermite remainder), and the margin,
    2 * near_tol + 64 * eps * S, covers the noise in the computed f and f'
    (derived in ``_level``).
Either test rules a cell out only where f provably keeps one sign, so the
counts are those of the curvature test alone.  The Hermite test is much
tighter: at m = 1009 it keeps about one in three hundred of the base cells
the curvature test would refine.  It needs f' at the end points, which on
the base grid costs one more matrix product per block.  Deeper levels keep
the curvature test alone, and need no f': too few windows get there for a
tighter test to pay.  Touch-without-crossing configurations are flagged and
counted as zero crossings are not.

The rule has one home, ``_scan``, which runs it over a block of samples one
depth level at a time: two matrix products give every sample's base-grid
values of f and f', and the masks of ``_level`` run over all segments of the
block at once.  Off the base grid f has one evaluator, ``f_at``, which
``_scan`` builds for its block: f of any block row at any point, with no loop
over samples.  Each refinement level evaluates its sub-grid points with it.
``_scan`` returns the sign-change brackets of every level, the flags and
``f_at``.  ``count_zeros`` bisects all the brackets in one call to
``_bisect`` and returns the roots.  ``monte_carlo`` only counts them: each
bracket holds one root, and two roots can merge only where brackets share an
end point at which f is numerically zero, or where a sample has exact grid
zeros; only those brackets are bisected, in one call per block.

Monte-Carlo trials draw independent substreams from one seed sequence and
are scanned BLOCK_TRIALS at a time.  The per trial results are integers and
the reduction is exact integer arithmetic, so reports are reproducible bit
for bit.  The block size can move only the last bit of the base-grid
product, which changes no count in the test matrix.
"""

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .diophantine import Direction
from .lattice import Shell
from .randomwave import (
    TWO_PI,
    LineSegment,
    WaveSample,
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
    """The uniform base grid on [0, L] and its half-shell design matrices."""

    t: np.ndarray
    cos_phase: np.ndarray
    sin_phase: np.ndarray
    b: np.ndarray  # <mu, alpha> per antipodal pair


def _base_grid(shell: Shell, line: LineSegment) -> _BaseGrid:
    """Base grid of ceil(GRID_FACTOR * 2 * f_max * L) + 1 uniform points."""
    b = half_frequencies(shell, line.direction.components)
    f_max = float(np.max(np.abs(b)))  # the mirrored rows carry -b
    n_pts = max(int(math.ceil(GRID_FACTOR * 2.0 * f_max * line.length)) + 1, 2)
    t = np.linspace(0.0, line.length, n_pts)
    phase = TWO_PI * t[:, None] * b
    cos_phase = np.cos(phase)
    return _BaseGrid(t, cos_phase, np.sin(phase, out=phase), b)


def _zero_runs(t: np.ndarray, fv: np.ndarray):
    """Handle grid points where f is exactly zero.

    A run of exact zeros counts as one root when the flanking signs differ
    (or the run touches the domain boundary); same flanking signs mean a
    touch, which counts nothing but raises the tangency flag.
    """
    roots = []
    tangency = False
    zero = fv == 0.0
    i = 0
    n = fv.size
    while i < n:
        if not zero[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and zero[j + 1]:
            j += 1
        left = fv[i - 1] if i > 0 else None
        right = fv[j + 1] if j + 1 < n else None
        if left is None or right is None or left * right < 0:
            roots.append(float(0.5 * (t[i] + t[j])))
        else:
            tangency = True
        i = j + 1
    return roots, tangency


def _bisect(f_at, row, lo, hi, f_lo):
    """Vectorized bisection on cells with a sign change; returns midpoints.

    Bracket i belongs to block row ``row[i]`` of the evaluator ``f_at``.
    Brackets of any widths are bisected together; one narrower than the
    others may get a few extra halvings, which keep its midpoint inside it.
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
    opens = np.ones(lo.size, dtype=bool)
    opens[1:] = lo[1:] > reach[:-1]
    closes = np.ones(lo.size, dtype=bool)
    closes[:-1] = opens[1:]
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


def _level(t, fv, seg, near_tol, dip_tol, slope=None, remainder=None):
    """One depth level over concatenated segments: brackets and windows.

    ``seg`` names each point's segment; ``near_tol`` and ``dip_tol`` (the
    M2 * w^2 / 8 curvature test) hold one value per segment.  Returns the
    sign-change cells (index of their left point) and the merged refinement
    windows [lo, hi].  Cells whose endpoints share a sign are refined when
    the curvature bound says f could reach zero inside; tiny endpoint values
    that sit next to a sign change are exempt, being the skirt of an already
    bracketed root.

    Given ``slope`` (f' at every point) and ``remainder`` (M4 * w^4 / 384,
    one value per segment), a cell that passes the curvature test is refined
    only if also

        min over the cell of sign(f0) * H  <=  remainder + 2 near_tol + 64 eps S

    with H the cell's cubic Hermite interpolant (_hermite_min), built from
    f0, f1, w f0' and w f1', and S = |f0| + |f1| + w |f0'| + w |f1'|.  The
    right side bounds |f - H| as computed, so above it f keeps the sign of
    f0 on the whole cell and has no zero there:
      - for exact end data |f - H| <= M4 w^4 / 384, the classical Hermite
        remainder: f^(4)(xi) / 4! times (t - t0)^2 (t - t1)^2 <= w^4 / 16;
      - the values of f carry at most near_tol of rounding noise, the premise
        _counts rests on too.  f' is the same sum with each term weighted by
        |2 pi b| <= 2 pi f_max, so its noise is at most 2 pi f_max near_tol.
        H depends on f0 and f1 through weights that sum to 1, and on w f0'
        and w f1' through weights whose absolute values sum to
        u (1 - u) <= 1/4.  So the noise moves H by at most
        (1 + 2 pi f_max w / 4) near_tol <= (1 + pi / 32) near_tol, since
        w <= 1 / (2 GRID_FACTOR f_max) = 1 / (16 f_max); 2 near_tol covers it;
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
    if slope is not None:
        f0, f1 = fv[risky], fv[risky + 1]
        w = t[risky + 1] - t[risky]
        d0, d1 = w * slope[risky], w * slope[risky + 1]
        rounding = 64.0 * np.finfo(float).eps * (np.abs(f0) + np.abs(f1) + np.abs(d0) + np.abs(d1))
        margin = remainder[seg[risky]] + 2.0 * near_tol[seg[risky]] + rounding
        risky = risky[_hermite_min(f0, f1, d0, d1) <= margin]
    suspects = np.flatnonzero(tiny & ~beside_change & ~beside_zero)

    first = np.ones(n, dtype=bool)
    first[1:] = ~inner
    last = np.ones(n, dtype=bool)
    last[:-1] = ~inner
    lo = np.concatenate([risky, np.where(first[suspects], suspects, suspects - 1)])
    hi = np.concatenate([risky + 1, np.where(last[suspects], suspects, suspects + 1)])
    return np.flatnonzero(sign_change), *_merge_windows(lo, hi)


def _sub_grids(t, lo, hi):
    """Concatenated np.linspace(t[lo], t[hi], (hi - lo) * REFINE_RATIO + 1).

    Returns the points, the index of each sub-grid's first point and the
    sub-grid sizes.
    """
    num = (hi - lo) * REFINE_RATIO + 1
    starts = np.cumsum(num) - num
    owner = np.repeat(np.arange(num.size), num)
    step = (t[hi] - t[lo]) / (num - 1)
    sub_t = (np.arange(owner.size) - starts[owner]) * step[owner] + t[lo][owner]
    sub_t[starts + num - 1] = t[hi]
    return sub_t, starts, num


@dataclass(frozen=True)
class _Scan:
    """The refinement rule's findings over a block of samples.

    One entry per sign-change bracket [lo, hi], at any depth level: the
    block row of its sample and f at lo.  Per sample: the roots at exact grid
    zeros, the two flags, the near-zero tolerance and the |f''| bound M2.
    ``f_at(row, t)`` is f of block row row[i] at t[i], for any points of the
    segment.
    """

    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    f_lo: np.ndarray
    zero_roots: list[list[float]]
    tangency: np.ndarray
    depth_hit: np.ndarray
    near_tol: np.ndarray
    m2: np.ndarray
    f_at: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _scan(samples: list[WaveSample], grid: _BaseGrid) -> _Scan:
    """Brackets and flags of every sample in a block, one level at a time.

    Every sample's base-grid values of f come from one matrix product,
    scaled as evaluate_f scales, and those of f' from one more, with
    the weights 2 pi b of evaluate_f_prime.  The base level applies the
    masks of _level with both exclusion tests, curvature (M2) and Hermite
    (M4, f'); each refinement level concatenates the windows of all samples
    into segments, evaluates f at their sub-grid points with f_at and
    applies the masks of _level with the curvature test alone.
    """
    k = len(samples)
    half = np.array([s.half_coefficients for s in samples])
    re, im = np.ascontiguousarray(half.real), np.ascontiguousarray(half.imag)
    scale = 2.0 / math.sqrt(samples[0].shell.n)
    fv = scale * (grid.cos_phase @ re.T - grid.sin_phase @ im.T)
    fv = np.ascontiguousarray(fv.T)  # one row per sample
    dead = np.flatnonzero(np.all(np.abs(fv) < DEGENERATE_TOL, axis=1))
    if dead.size:
        raise DegenerateSampleError(
            "degenerate sample: f vanishes on the whole grid", row=int(dead[0]))
    near_tol = NEAR_ZERO_FACTOR * np.sqrt(np.mean(fv * fv, axis=1))
    omega = TWO_PI * grid.b
    m2 = scale * np.sum(omega**2 * np.abs(half), axis=1)
    m4 = scale * np.sum(omega**4 * np.abs(half), axis=1)
    # f' on the base grid, as evaluate_f_prime forms it
    fp = -scale * (grid.sin_phase @ (omega * re).T + grid.cos_phase @ (omega * im).T)
    slope = fp.T.ravel()  # one run per sample, as fv below

    def f_at(row, t):
        # scale * sum (cos(2 pi b t) Re a - sin(2 pi b t) Im a), a of row[i] at t[i]
        phase = TWO_PI * t[:, None] * grid.b
        cos = np.cos(phase)
        sin = np.sin(phase, out=phase)
        return scale * (np.einsum("ij,ij->i", cos, re[row]) - np.einsum("ij,ij->i", sin, im[row]))

    n = grid.t.size
    t = np.tile(grid.t, k)
    fv = fv.ravel()
    starts = np.arange(k) * n  # first point of each segment
    owner = np.arange(k)  # block row of each segment
    zero_roots: list[list[float]] = [[] for _ in range(k)]
    tangency = np.zeros(k, dtype=bool)
    depth_hit = np.zeros(k, dtype=bool)
    found = []
    depth = 1
    while True:
        ends = np.append(starts[1:], t.size)
        seg = np.repeat(np.arange(starts.size), ends - starts)
        w = t[starts + 1] - t[starts]
        hermite = (slope, m4 * w**4 / 384.0) if depth == 1 else (None, None)
        cells, win_lo, win_hi = _level(t, fv, seg, near_tol[owner],
                                       m2[owner] * w * w / 8.0, *hermite)
        found.append((owner[seg[cells]], t[cells], t[cells + 1], fv[cells]))
        for s in sorted(set(seg[fv == 0.0].tolist())):
            roots, touch = _zero_runs(t[starts[s]:ends[s]], fv[starts[s]:ends[s]])
            zero_roots[owner[s]].extend(roots)
            tangency[owner[s]] |= touch
        if win_lo.size == 0:
            break
        owner = owner[seg[win_lo]]
        if depth >= MAX_REFINE_DEPTH:
            depth_hit[owner] = True
            tangency[owner] = True
            break
        t, starts, num = _sub_grids(t, win_lo, win_hi)
        fv = f_at(np.repeat(owner, num), t)
        depth += 1

    row, lo, hi, f_lo = (np.concatenate(parts) for parts in zip(*found))
    return _Scan(row, lo, hi, f_lo, zero_roots, tangency, depth_hit, near_tol, m2, f_at)


def _merge_roots(roots: list[float]) -> np.ndarray:
    """Sorted roots, dropping each within 2*BISECT_TOL of the last one kept."""
    merged: list[float] = []
    for r in sorted(roots):
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
    |f(e)| keeps them apart.  Only the remaining close brackets are
    bisected, all in one call, plus every bracket of a sample with exact grid
    zeros, whose roots lie outside any bracket.
    """
    counts = np.bincount(scan.row, minlength=len(scan.zero_roots))
    order = np.lexsort((scan.lo, scan.row))
    row, lo, hi, f_lo = (a[order] for a in (scan.row, scan.lo, scan.hi, scan.f_lo))
    touching = (row[1:] == row[:-1]) & (lo[1:] - hi[:-1] <= 2 * BISECT_TOL)
    floor = 2.0 * scan.near_tol + 2.0 * scan.m2 * BISECT_TOL**2
    touching &= ~((lo[1:] == hi[:-1]) & (np.abs(f_lo[1:]) > floor[row[1:]]))
    close = np.zeros(row.size, dtype=bool)
    close[order[:-1][touching]] = True
    close[order[1:][touching]] = True
    redo = set(scan.row[close].tolist())
    for i, roots in enumerate(scan.zero_roots):
        if roots:
            close |= scan.row == i
            redo.add(i)
    owner = scan.row[close]
    roots = _bisect(scan.f_at, owner, scan.lo[close], scan.hi[close], scan.f_lo[close])
    for i in redo:
        mine = roots[owner == i]
        counts[i] += _merge_roots(scan.zero_roots[i] + mine.tolist()).size - mine.size
    return counts


def count_zeros(sample: WaveSample, line: LineSegment) -> ZeroCount:
    """Count the zeros of f on [0, L].

    The base grid has ceil(GRID_FACTOR * 2 * f_max * L) + 1 uniform points
    where f_max = max |<mu, alpha>| is the top frequency of f.
    """
    scan = _scan([sample], _base_grid(sample.shell, line))
    roots = _merge_roots(
        scan.zero_roots[0] + _bisect(scan.f_at, scan.row, scan.lo, scan.hi, scan.f_lo).tolist())
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
        samples = [sample_wave(shell, np.random.default_rng(stream))
                   for stream in root.spawn(min(BLOCK_TRIALS, trials - start))]
        try:
            scan = _scan(samples, grid)
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
