"""Zero counting on the segment and Monte-Carlo moments of the count.

The restricted process f is a trigonometric polynomial whose frequencies
|<mu, alpha>| are at most sqrt(m), so a uniform grid denser than twice the
top frequency (default eight times) brackets almost every zero between two
sign changes.  Brackets are bisected.  A pair of roots can still hide inside
a cell whose endpoints share a sign, but only if the smaller endpoint value
is below M2 * w^2 / 8, where w is the cell width and M2 bounds |f''| via the
triangle inequality; such cells, and grid points where f is suspiciously
small without an adjacent sign change, get a local refinement pass at eight
times the density.  Touch-without-crossing configurations are flagged and
counted as zero crossings are not.

Monte-Carlo trials draw independent substreams from one seed sequence, so
reports are reproducible bit for bit regardless of thread count: the per
trial results are integers and the reduction is exact integer arithmetic.
"""

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diophantine import Direction
from .lattice import Shell
from .randomwave import LineSegment, WaveSample, evaluate_f, half_frequencies, sample_wave

__all__ = [
    "DegenerateSampleError",
    "ZeroFlags",
    "ZeroCount",
    "MonteCarloReport",
    "count_zeros",
    "monte_carlo",
    "shifted_sample",
]

BISECT_TOL = 1e-12
NEAR_ZERO_FACTOR = 1e-10
DEGENERATE_TOL = 1e-13
REFINE_RATIO = 8
MAX_REFINE_DEPTH = 8

_BASE_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


class DegenerateSampleError(RuntimeError):
    """Raised when f is numerically zero on the whole sampling grid."""


@dataclass(frozen=True)
class ZeroFlags:
    """Audit flags: refinement ran out of depth, or a near-tangency was seen."""

    refinement_depth_hit: bool = False
    near_tangency: bool = False


@dataclass(frozen=True)
class ZeroCount:
    """Zeros of f on [0, L]: sorted roots and their count."""

    count: int
    roots: np.ndarray = field(repr=False)
    flags: ZeroFlags

    def __post_init__(self):
        roots = np.array(self.roots, dtype=np.float64)
        roots.setflags(write=False)
        object.__setattr__(self, "roots", roots)
        if self.count != roots.size:
            raise ValueError("count must equal the number of roots")
        if roots.size > 1:
            gaps = np.diff(roots)
            if np.any(gaps <= BISECT_TOL):
                raise ValueError("roots must be sorted with spacing above the tolerance")


@dataclass(frozen=True)
class MonteCarloReport:
    """Zero-count statistics over independent wave draws."""

    m: int
    direction: Direction
    length: float
    trials: int
    mean: float
    variance: float
    stderr: float
    histogram: dict[int, int]
    seed: int


def shifted_sample(sample: WaveSample, base_point) -> WaveSample:
    """Sample of the same wave translated by a base point.

    F(base + x) has amplitudes a_mu * e^{2 pi i <mu, base>}, so shifting the
    evaluation segment is a phase rotation of the coefficients.
    """
    x0 = np.asarray(base_point, dtype=np.float64)
    phase = 2.0 * math.pi * half_frequencies(sample.shell, x0)
    return WaveSample(sample.shell, sample.half_coefficients * np.exp(1j * phase))


def _base_grid(sample: WaveSample, line: LineSegment, n_pts: int):
    """Cached cosine/sine design matrices for the uniform base grid."""
    key = (
        sample.shell.m,
        line.direction.components.tobytes(),
        float(line.length),
        int(n_pts),
    )
    hit = _BASE_CACHE.get(key)
    if hit is None:
        t = np.linspace(0.0, line.length, n_pts)
        b = half_frequencies(sample.shell, line.direction.components)
        phase = 2.0 * math.pi * t[:, None] * b
        hit = (t, np.cos(phase), np.sin(phase))
        if len(_BASE_CACHE) > 16:
            _BASE_CACHE.clear()
        _BASE_CACHE[key] = hit
    return hit


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


def _bisect(sample, line, lo, hi, f_lo):
    """Vectorized bisection on cells with a sign change; returns midpoints."""
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    f_lo = np.array(f_lo, dtype=np.float64)
    for _ in range(80):
        if np.all(hi - lo <= 2 * BISECT_TOL):
            break
        mid = 0.5 * (lo + hi)
        fm = np.atleast_1d(evaluate_f(sample, line, mid))
        exact = fm == 0.0
        lower = f_lo * fm < 0
        hi = np.where(exact | lower, mid, hi)
        lo = np.where(exact | ~lower, mid, lo)
        f_lo = np.where(~exact & ~lower, fm, f_lo)
    return 0.5 * (lo + hi)


def _merge_windows(windows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping index windows [lo, hi]."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _scan(sample, line, t, fv, near_tol, m2, depth):
    """One resolution level: exact zeros, brackets, then local refinement.

    Cells whose endpoints share a sign are refined when the curvature bound
    m2 says f could reach zero inside; tiny endpoint values that sit next to
    a sign change are exempt, being the skirt of an already bracketed root.
    """
    roots, tangency = _zero_runs(t, fv)
    depth_hit = False
    n = fv.size
    w = float(t[1] - t[0]) if n > 1 else 0.0
    prod = fv[:-1] * fv[1:]
    sign_change = prod < 0.0
    if np.any(sign_change):
        cells = np.flatnonzero(sign_change)
        found = _bisect(sample, line, t[cells], t[cells + 1], fv[cells])
        roots.extend(float(r) for r in found)

    abs_f = np.abs(fv)
    tiny = (abs_f <= near_tol) & (fv != 0.0)
    beside_change = np.zeros(n, dtype=bool)
    beside_change[:-1] |= sign_change
    beside_change[1:] |= sign_change
    beside_zero = np.zeros(n, dtype=bool)
    beside_zero[:-1] |= fv[1:] == 0.0
    beside_zero[1:] |= fv[:-1] == 0.0

    masked = np.where(tiny & beside_change, np.inf, abs_f)
    zero_edge = (fv[:-1] == 0.0) | (fv[1:] == 0.0)
    dip_possible = np.minimum(masked[:-1], masked[1:]) <= m2 * w * w / 8.0
    risky_cells = np.flatnonzero(~sign_change & ~zero_edge & dip_possible)
    suspects = np.flatnonzero(tiny & ~beside_change & ~beside_zero & (fv != 0.0))

    windows = [(int(c), int(c) + 1) for c in risky_cells]
    windows += [(max(int(i) - 1, 0), min(int(i) + 1, n - 1)) for i in suspects]
    if windows:
        if depth >= MAX_REFINE_DEPTH:
            depth_hit = True
            tangency = True
        else:
            for lo_i, hi_i in _merge_windows(windows):
                sub_t = np.linspace(t[lo_i], t[hi_i], (hi_i - lo_i) * REFINE_RATIO + 1)
                sub_f = np.atleast_1d(evaluate_f(sample, line, sub_t))
                sub = _scan(sample, line, sub_t, sub_f, near_tol, m2, depth + 1)
                roots.extend(sub[0])
                depth_hit |= sub[1]
                tangency |= sub[2]
    return roots, depth_hit, tangency


def count_zeros(sample: WaveSample, line: LineSegment, grid_factor: float = 8.0) -> ZeroCount:
    """Count the zeros of f on [0, L].

    The base grid has ceil(grid_factor * 2 * f_max * L) + 1 uniform points
    where f_max = max |<mu, alpha>| is the top frequency of f.  grid_factor
    must be at least 4 (twice the Nyquist rate).
    """
    if grid_factor < 4:
        raise ValueError(f"grid_factor must be >= 4, got {grid_factor}")
    b = half_frequencies(sample.shell, line.direction.components)
    f_max = float(np.max(np.abs(b)))  # the mirrored rows carry -b
    n_pts = max(int(math.ceil(grid_factor * 2.0 * f_max * line.length)) + 1, 2)
    t, cos_mat, sin_mat = _base_grid(sample, line, n_pts)
    fv = sample.combine(cos_mat, sin_mat)
    if np.all(np.abs(fv) < DEGENERATE_TOL):
        raise DegenerateSampleError("degenerate sample: f vanishes on the whole grid")
    near_tol = NEAR_ZERO_FACTOR * float(np.sqrt(np.mean(fv * fv)))
    scale = 2.0 / math.sqrt(sample.shell.n)
    m2 = scale * float(np.sum((2.0 * math.pi * b) ** 2 * np.abs(sample.half_coefficients)))
    roots, depth_hit, tangency = _scan(sample, line, t, fv, near_tol, m2, 1)
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and r - merged[-1] <= 2 * BISECT_TOL:
            continue
        merged.append(r)
    flags = ZeroFlags(refinement_depth_hit=depth_hit, near_tangency=tangency)
    return ZeroCount(count=len(merged), roots=np.array(merged), flags=flags)


def monte_carlo(
    shell: Shell,
    line: LineSegment,
    trials: int,
    seed: int,
    grid_factor: float = 8.0,
    threads: int = 1,
) -> MonteCarloReport:
    """Estimate mean and variance of the zero count over independent draws.

    Each trial uses its own substream spawned from the seed, so the counts
    (and therefore the whole report) do not depend on the thread count.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    streams = np.random.SeedSequence(seed).spawn(trials)

    def one_trial(i: int) -> int:
        sample = sample_wave(shell, np.random.default_rng(streams[i]))
        try:
            return count_zeros(sample, line, grid_factor).count
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"trial {i}: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(one_trial, range(trials)))
    else:
        counts = [one_trial(i) for i in range(trials)]

    total = sum(counts)
    total_sq = sum(c * c for c in counts)
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
        histogram=dict(sorted(Counter(counts).items())),
        seed=seed,
    )
