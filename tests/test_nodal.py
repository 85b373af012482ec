"""Zero counting and Monte-Carlo statistics of the count."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers_stats import negative_trend_p
from nodal_lab import nodal
from nodal_lab.arithmetic import BoundOverflowError
from nodal_lab.cli import parse_direction
from nodal_lab.diophantine import Direction
from nodal_lab.lattice import enumerate_shell
from nodal_lab.nodal import (
    DegenerateSampleError,
    MonteCarloReport,
    ZeroCount,
    ZeroFlags,
    count_zeros,
    monte_carlo,
)
from nodal_lab.randomwave import (
    LineSegment,
    WaveSample,
    evaluate_f,
    evaluate_f_prime,
    half_frequencies,
    sample_wave,
)
from test_randomwave import evaluate_F_complex

E1 = Direction.rational(1, 0, 0)
IRR = Direction.irrational(1.0, math.sqrt(2), math.sqrt(3))
TWO_PI = 2 * math.pi


def cosine_sample(extra=None, shift=0.0):
    """m=1 sample proportional to cos(2 pi (t - shift)) + extra along E1.

    a_(1,0,0) = e^{-2 pi i shift}; extra sits on (0,1,0), whose frequency
    along E1 is zero.
    """
    values = {(1, 0, 0): complex(np.exp(-1j * TWO_PI * shift)) if shift else 1.0}
    if extra is not None:
        values[(0, 1, 0)] = extra
    return WaveSample.from_coefficients(enumerate_shell(1), values)


def test_zero_count_validation():
    flags = ZeroFlags()
    assert not flags.refinement_depth_hit and not flags.near_tangency
    assert ZeroCount(np.array([0.1, 0.2]), flags).count == 2
    with pytest.raises(ValueError):
        ZeroCount(np.array([0.2, 0.1]), flags)
    with pytest.raises(ValueError):
        ZeroCount(np.array([0.1, 0.1]), flags)


def test_single_mode_two_roots():
    result = count_zeros(cosine_sample(), LineSegment(E1, 1.0))
    assert result.count == 2
    assert np.allclose(result.roots, [0.25, 0.75], atol=1e-9)
    assert result.flags == ZeroFlags()


def test_single_mode_short_segment_no_roots():
    result = count_zeros(cosine_sample(), LineSegment(E1, 0.2))
    assert result.count == 0
    assert result.roots.size == 0


def test_touch_without_crossing_counts_zero():
    # f(t) proportional to cos(2 pi t) + 1: a double root at t = 0.5, an
    # exact zero of the base grid and of every dyadic sub-grid, so the cells
    # beside it refine down to the depth limit
    result = count_zeros(cosine_sample(extra=1.0), LineSegment(E1, 1.0))
    assert result.count == 0
    assert result.flags.near_tangency
    assert result.flags.refinement_depth_hit


def test_lifted_touch_exhausts_refinement():
    # minimum value 1e-12 sits below the near-zero tolerance at every depth
    result = count_zeros(cosine_sample(extra=1.0 + 1e-12), LineSegment(E1, 1.0))
    assert result.count == 0
    assert result.flags.near_tangency
    assert result.flags.refinement_depth_hit


def test_exact_grid_zero_crossing():
    # shift the cosine so that f is exactly 0.0 at the grid point t = 5/16
    c0 = float(np.cos(TWO_PI * 0.3125))
    sample = cosine_sample(extra=-c0)
    line = LineSegment(E1, 1.0)
    assert evaluate_f(sample, line, 0.3125) == 0.0
    result = count_zeros(sample, line)
    assert result.count == 2
    assert abs(result.roots[0] - 0.3125) < 1e-9
    assert abs(result.roots[1] - 0.6875) < 1e-9


def test_degenerate_sample_raises():
    zero = WaveSample.from_coefficients(enumerate_shell(2), {})
    with pytest.raises(DegenerateSampleError):
        count_zeros(zero, LineSegment(IRR, 1.0))


def test_monte_carlo_rejects_empty_shell():
    with pytest.raises(ValueError, match="empty shell m=7"):
        monte_carlo(enumerate_shell(7), LineSegment(E1, 1.0), trials=4, seed=0)


def test_base_grid_past_its_budget_is_rejected(monkeypatch):
    # m=5, L=1 on E1: 33 grid points x 12 frequencies; rejected before allocating
    shell = enumerate_shell(5)
    sample = sample_wave(shell, np.random.default_rng(0))
    line = LineSegment(E1, 1.0)
    grid = nodal._base_grid(shell, line)
    entries = len(grid.t) * len(grid.b)
    monkeypatch.setattr(nodal, "GRID_ENTRIES", entries)
    count_zeros(sample, line)
    monkeypatch.setattr(nodal, "GRID_ENTRIES", entries - 1)
    with pytest.raises(BoundOverflowError, match="base grid") as info:
        count_zeros(sample, line)
    assert info.value.parameter == "length"


def test_refinement_past_the_grid_budget_is_rejected(monkeypatch):
    # opposite amplitudes on (-3,1,1) and (-1,3,-1), which share the key 2
    # along (1,2,3), make f exactly zero; at L = 500 its computed rounding
    # noise passes the degenerate test, and the windows grow eightfold per
    # level.  The base grid, 25,659 points x 12, fits 2^21 entries; the first
    # refinement level, 201,449 points, does not, and is never built
    monkeypatch.setattr(nodal, "GRID_ENTRIES", 1 << 21)
    a = 0.6 + 0.8j
    sample = WaveSample.from_coefficients(enumerate_shell(11), {(-3, 1, 1): a, (-1, 3, -1): -a})
    with pytest.raises(BoundOverflowError, match="refinement level 1 needs 201449 points") as info:
        count_zeros(sample, LineSegment(parse_direction("rat:1,2,3"), 500.0))
    assert info.value.parameter == "length"


def test_huge_amplitudes_are_rejected_before_refinement(monkeypatch):
    # at amplitudes of 2^520, f * f overflows: near_tol would be inf and every
    # grid point tiny, so refinement would open every cell at every level; the
    # depth cap bounds what a scan that refines anyway can allocate
    monkeypatch.setattr(nodal, "MAX_REFINE_DEPTH", 2)
    shell = enumerate_shell(5)
    line = LineSegment(E1, 1.0)
    sample = sample_wave(shell, np.random.default_rng(3))
    plain = count_zeros(sample, line)
    assert plain.count > 0
    for power in (-30, 480):  # scaling by a power of two is exact
        scaled = count_zeros(WaveSample(shell, sample.half_coefficients * 2.0**power), line)
        assert np.array_equal(scaled.roots, plain.roots)
        assert scaled.flags == plain.flags
    for power in (520, 1000):
        with pytest.raises(ValueError, match="overflow"):
            count_zeros(WaveSample(shell, sample.half_coefficients * 2.0**power), line)
    # at 2^-520 the mean of f^2 is no normal float64, and the products
    # f_i f_{i+1} of the sign tests would underflow to +-0
    for power in (-520, -1000):
        with pytest.raises(ValueError, match="underflow"):
            count_zeros(WaveSample(shell, sample.half_coefficients * 2.0**power), line)


@given(m=st.sampled_from([5, 101]), spec=st.sampled_from(["rat:1,0,0", "irr:std"]),
       seed=st.integers(0, 2**32 - 1), power=st.integers(-508, 300))
def test_count_is_unchanged_by_power_of_two_scaling(m, spec, seed, power):
    # f -> 2^power f is exact, so no verdict may read the amplitudes' scale:
    # an absolute degenerate threshold called f = 2^-45 g dead
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), 1.0)
    sample = sample_wave(shell, seed)
    scaled = WaveSample(shell, sample.half_coefficients * 2.0**power)
    plain, got = count_zeros(sample, line), count_zeros(scaled, line)
    assert (got.count, got.flags) == (plain.count, plain.flags)


def test_scale_free_degenerate_verdict():
    # two points of E(5) with distinct frequencies along E1: two zeros at any scale
    line = LineSegment(E1, 1.0)
    for factor in (1.0, 2.0**-45):
        sample = WaveSample.from_coefficients(
            enumerate_shell(5), {(1, 0, 2): factor, (0, 1, 2): 0.3 * factor})
        assert count_zeros(sample, line).count == 2
    # (-3,1,1) and (-1,3,-1) share the key 2 along (1,2,3), and opposite
    # amplitudes make f exactly zero; its computed values are rounding noise,
    # which an absolute threshold let into refinement at |a| >= 1e3
    shell = enumerate_shell(11)
    line = LineSegment(parse_direction("rat:1,2,3"), 1.0)
    for scale in (1.0, 1e3, 1e100):
        a = scale * (0.6 + 0.8j)
        sample = WaveSample.from_coefficients(shell, {(-3, 1, 1): a, (-1, 3, -1): -a})
        with pytest.raises(DegenerateSampleError):
            count_zeros(sample, line)


def dense_scan_count(sample, line, factor=800.0):
    """Sign changes on a much denser uniform grid; the reference count."""
    b = sample.shell.coords @ line.direction.components
    n_pts = int(math.ceil(factor * 2 * np.max(np.abs(b)) * line.length)) + 1
    fv = evaluate_f(sample, line, np.linspace(0, line.length, n_pts))
    return int(np.sum(fv[:-1] * fv[1:] < 0))


def test_counts_match_dense_scan():
    for m in (1, 2, 3, 5, 6):
        shell = enumerate_shell(m)
        for seed in range(20):
            sample = sample_wave(shell, 1000 * m + seed)
            for direction in (E1, IRR):
                line = LineSegment(direction, 1.0)
                result = count_zeros(sample, line)
                assert result.count == dense_scan_count(sample, line), (m, seed)


def test_monte_carlo_mean_matches_expectation():
    report = monte_carlo(enumerate_shell(1), LineSegment(E1, 1.0), trials=2000, seed=42)
    expected = 2 / math.sqrt(3)
    assert abs(report.mean - expected) < 3 * report.stderr
    assert report.trials == 2000 and report.m == 1


def test_monte_carlo_mean_direction_independent():
    shell = enumerate_shell(5)
    expected = 2 * math.sqrt(5) / math.sqrt(3)
    for direction in (E1, IRR):
        report = monte_carlo(shell, LineSegment(direction, 1.0), trials=800, seed=7)
        assert abs(report.mean - expected) < 3 * report.stderr


def test_monte_carlo_report_identities():
    report = monte_carlo(enumerate_shell(2), LineSegment(IRR, 1.0), trials=500, seed=3)
    weighted = sum(k * v for k, v in report.histogram.items()) / report.trials
    assert report.mean == weighted
    assert sum(report.histogram.values()) == report.trials
    assert report.stderr == math.sqrt(report.variance / report.trials)


def test_monte_carlo_deterministic_and_block_invariant(monkeypatch):
    shell = enumerate_shell(5)
    line = LineSegment(IRR, 1.0)
    a = monte_carlo(shell, line, trials=64, seed=11)
    b = monte_carlo(shell, line, trials=64, seed=11)
    monkeypatch.setattr(nodal, "BLOCK_TRIALS", 5)
    c = monte_carlo(shell, line, trials=64, seed=11)
    assert a == b == c
    tiny = monte_carlo(shell, line, trials=2, seed=1)
    assert tiny == monte_carlo(shell, line, trials=2, seed=1)
    with pytest.raises(ValueError):
        monte_carlo(shell, line, trials=1, seed=0)


def test_monte_carlo_degenerate_trial_reports_index(monkeypatch):
    shell = enumerate_shell(2)
    zero = WaveSample.from_coefficients(shell, {})
    monkeypatch.setattr(nodal, "sample_wave", lambda s, rng: zero)
    with pytest.raises(DegenerateSampleError, match="trial 0"):
        monte_carlo(shell, LineSegment(IRR, 1.0), trials=4, seed=0)


def test_monte_carlo_degenerate_trial_index_counts_earlier_blocks(monkeypatch):
    shell = enumerate_shell(2)
    zero = WaveSample.from_coefficients(shell, {})
    draws = iter([sample_wave(shell, i) for i in range(9)] + [zero] * 3)
    monkeypatch.setattr(nodal, "sample_wave", lambda s, rng: next(draws))
    monkeypatch.setattr(nodal, "BLOCK_TRIALS", 4)
    with pytest.raises(DegenerateSampleError, match="trial 9:"):
        monte_carlo(shell, LineSegment(IRR, 1.0), trials=12, seed=0)


def per_trial_counts(shell, line, trials, seed):
    """count_zeros over monte_carlo's substreams, one trial at a time."""
    streams = np.random.SeedSequence(seed).spawn(trials)
    return [count_zeros(sample_wave(shell, np.random.default_rng(s)), line)
            for s in streams]


ORACLE_TRIALS = {1: 200, 2: 200, 5: 200, 101: 80, 1009: 40}


@pytest.mark.parametrize("spec", ["rat:1,0,0", "irr:std", "halfrat:1,1,sqrt2"])
@pytest.mark.parametrize("m", sorted(ORACLE_TRIALS))
def test_monte_carlo_matches_count_zeros_per_trial(m, spec):
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), 1.0)
    trials = ORACLE_TRIALS[m]
    report = monte_carlo(shell, line, trials=trials, seed=1611)
    zeros = per_trial_counts(shell, line, trials, 1611)
    assert report.histogram == dict(sorted(Counter(z.count for z in zeros).items()))
    assert report.near_tangency_trials == sum(z.flags.near_tangency for z in zeros)
    assert report.depth_hit_trials == sum(z.flags.refinement_depth_hit for z in zeros)


EDGE_SAMPLES = {
    # f is exactly 0.0 at the grid point t = 5/16: a zero run, whose root is
    # the width-0 bracket [5/16, 5/16]
    "exact_grid_zero": (dict(extra=-float(np.cos(TWO_PI * 0.3125))), 2),
    # two roots 0.0045 apart inside the base cell (1/2, 9/16): only the
    # refinement window of that cell brackets them
    "hidden_pair": (dict(extra=1.0 - 1e-4, shift=1.0 / 32.0), 2),
    "touch": (dict(extra=1.0), 0),
    "depth_limit": (dict(extra=1.0 + 1e-12), 0),
    "plain": (dict(), 2),
}


def monte_carlo_over(monkeypatch, samples, line, block):
    """monte_carlo drawing the given samples in order, block trials at a time."""
    draws = iter(samples)
    monkeypatch.setattr(nodal, "sample_wave", lambda shell, rng: next(draws))
    monkeypatch.setattr(nodal, "BLOCK_TRIALS", block)
    return monte_carlo(samples[0].shell, line, trials=len(samples), seed=0)


def test_monte_carlo_matches_count_zeros_on_edge_samples(monkeypatch):
    samples = [cosine_sample(**kwargs) for kwargs, _ in EDGE_SAMPLES.values()]
    line = LineSegment(E1, 1.0)
    zeros = [count_zeros(s, line) for s in samples]
    assert [z.count for z in zeros] == [count for _, count in EDGE_SAMPLES.values()]
    for block in (1, 2, 32):
        report = monte_carlo_over(monkeypatch, samples * 3, line, block)
        expected = Counter(z.count for z in zeros * 3)
        assert report.histogram == dict(sorted(expected.items()))
        assert report.near_tangency_trials == 3 * sum(z.flags.near_tangency for z in zeros)
        assert report.depth_hit_trials == 3 * sum(
            z.flags.refinement_depth_hit for z in zeros)


def base_values(sample, line):
    """The base grid of one sample and f on it, as _scan computes them."""
    half = sample.half_coefficients[None]
    grid = nodal._base_grid(sample.shell, line)
    fv, _ = nodal._base_values(half.real, half.imag, grid, 2.0 / math.sqrt(sample.shell.n))
    return grid.t, fv[0]


def test_split_double_root_is_flagged(monkeypatch):
    # a double root at the base point 7/16, where the base-grid product
    # gives f = +4.5e-17 between two negative flanks: two sign-change cells
    # share that point, and their roots lie within 1e-8 of it
    sample = cosine_sample(extra=-1.0, shift=7 / 16)
    line = LineSegment(E1, 1.0)
    t, fv = base_values(sample, line)
    assert t[7] == 7 / 16
    assert fv[7] > 0.0 > max(fv[6], fv[8])
    result = count_zeros(sample, line)
    assert result.count == 2
    assert np.allclose(result.roots, 7 / 16, atol=1e-8)
    assert result.flags.near_tangency
    for block in (1, 2):
        report = monte_carlo_over(monkeypatch, [sample, sample], line, block)
        assert report.near_tangency_trials == 2


def two_roots_sample(c, level=1.0):
    """c (cos(2 pi t) - level cos(2 pi 0.495)) on E1: with level 1 its roots
    are 0.495, base point 8 of the 17 at L = 0.99, and 0.505."""
    return WaveSample.from_coefficients(enumerate_shell(1), {
        (1, 0, 0): c, (0, 1, 0): -c * level * math.cos(TWO_PI * 0.495)})


def test_split_flag_spares_two_simple_roots():
    # roots 0.495 and 0.505, both moved out by about 1e-15: the base-grid
    # product gives f = -3.6e-16 at 0.495, below near_tol, and both cells
    # beside it change sign, but w |f'| = 0.030 there fixes the signs of f a
    # refinement step away, so no rounding of f(0.495) can change the count
    sample = two_roots_sample(3.0, level=1.0 - 2.0**-52)
    line = LineSegment(E1, 0.99)
    t, fv = base_values(sample, line)
    assert t[8] == 0.495
    assert min(fv[7], fv[9]) > 0.0 > fv[8] > -1e-15
    result = count_zeros(sample, line)
    assert np.allclose(result.roots, [0.495, 0.505], rtol=0, atol=1e-9)
    assert not result.flags.near_tangency


def test_exact_grid_zero_beside_a_second_root_counts_both():
    # the base-grid product is exactly 0.0 at 0.495, its flanks share a
    # sign, and the second root, 0.505, lies in the cell after it: the run
    # and its flanks are refined, and both roots found without a flag
    line = LineSegment(E1, 0.99)
    for c in (1.0, 3.0):
        sample = two_roots_sample(c)
        _, fv = base_values(sample, line)
        assert fv[8] == 0.0 and min(fv[7], fv[9]) > 0.0, c
        result = count_zeros(sample, line)
        assert result.count == 2, c
        assert np.allclose(result.roots, [0.495, 0.505], rtol=0, atol=1e-9), c
        assert result.flags == ZeroFlags(), c


@pytest.mark.parametrize("gap,count", [(1e-12, 1), (3e-12, 2)])
def test_roots_within_twice_the_bisection_tolerance_merge(monkeypatch, gap, count):
    # two width-0 brackets, as exact grid zeros give: one root when they lie
    # within 2 * BISECT_TOL of each other, two beyond it
    line = LineSegment(E1, 1.0)
    scan = nodal._scan(amplitudes([cosine_sample()]), nodal._base_grid(enumerate_shell(1), line))

    def no_evaluation(*args):
        raise AssertionError("a width-0 bracket needs no evaluation of f")

    monkeypatch.setattr(nodal, "_phases", no_evaluation)
    monkeypatch.setattr(nodal, "_anchored_values", no_evaluation)
    at = np.array([0.25, 0.25 + gap])
    scan = dataclasses.replace(scan, row=np.zeros(2, dtype=int), lo=at, hi=at, f_lo=np.zeros(2),
                               level=np.zeros(2, dtype=int), near_tol=np.array([1e-10]),
                               m2=np.array([1.0]))
    assert nodal._counts(scan).tolist() == [count]
    roots = scan.locate(scan.row, scan.lo, scan.hi, scan.f_lo, scan.level)
    assert nodal._merge_roots(roots).size == count


def exact_root_count(sample, line):
    """Zeros of f on [0, L] for a rational direction a, from the roots of a
    polynomial, without the package's frequencies, keys or zero counter.

    With z = e^{2 pi i t / |a|}, f = z^-K P(z) / sqrt(N), where P's
    coefficient of z^(k + K) is C_k, the sum of a_mu over the whole shell
    with <mu, a> = k, and K = max |k|.  Counts the roots of P within 1e-6 of
    the unit circle whose argument lies in [0, 2 pi L / |a|]; L < |a|, so
    that the arc does not wrap.
    """
    a = np.array(line.direction.ints)
    norm = math.sqrt(a @ a)
    assert line.length < norm
    k = sample.shell.coords @ a
    big_k = int(np.abs(k).max())
    coeffs = np.zeros(2 * big_k + 1, dtype=np.complex128)
    np.add.at(coeffs, k + big_k, sample.coefficients)
    z = np.roots(coeffs[::-1])  # highest power first
    on_arc = np.mod(np.angle(z), TWO_PI) <= TWO_PI * line.length / norm
    return int(np.count_nonzero((np.abs(np.abs(z) - 1.0) < 1e-6) & on_arc))


@pytest.mark.parametrize("m,spec", [
    (5, "rat:1,0,0"), (101, "rat:1,0,0"), (1009, "rat:1,0,0"), (5, "rat:1,1,1"),
    (101, "rat:1,1,1"), (5, "rat:1,2,3"), (101, "rat:1,2,3")])
def test_count_zeros_matches_exact_polynomial_roots(m, spec):
    # rat:1,2,3 stays at m <= 101: at m = 1009 P has degree 236, and the
    # oracle takes about 28 s for 200 samples on one core
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), 0.37)
    for stream in np.random.SeedSequence(7).spawn(200):
        sample = sample_wave(shell, np.random.default_rng(stream))
        assert count_zeros(sample, line).count == exact_root_count(sample, line)


def zero_runs_per_segment(t, fv, seg):
    """The run rule of nodal._zero_runs, one segment and one point at a time:
    the roots, their segments, the zeros of the runs that count and the
    windows [left flank, right flank] of the runs whose flanks share a sign."""
    roots, root_seg, counted, windows = [], [], [], []
    for s in np.unique(seg):
        ts, fs = t[seg == s], fv[seg == s]
        start = int(np.flatnonzero(seg == s)[0])
        i = 0
        while i < fs.size:
            if fs[i] != 0.0:
                i += 1
                continue
            j = i
            while j + 1 < fs.size and fs[j + 1] == 0.0:
                j += 1
            if i == 0 or j + 1 == fs.size or fs[i - 1] * fs[j + 1] < 0:
                roots.append(0.5 * (ts[i] + ts[j]))
                root_seg.append(s)
                counted.extend(range(start + i, start + j + 1))
            else:
                windows.append((start + i - 1, start + j + 1))
            i = j + 1
    return roots, root_seg, counted, windows


def merged(windows):
    """Index windows [lo, hi], in order, merged where they share an end point."""
    out = []
    for lo, hi in windows:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def zero_runs_and_windows(t, fv, seg):
    """nodal._zero_runs' roots, root segments and counted zeros, and the
    windows _level refines when f' and the curvature and remainder bounds
    are 0 and near_tol is tiny, so that only the cells of a run of exact
    zeros can fail the exclusion tests."""
    roots, root_seg, counted = nodal._zero_runs(t, fv, seg)
    per_segment = np.zeros(seg.max() + 1)
    *_, lo, hi = nodal._level(t, fv, seg, per_segment + 1e-300, per_segment,
                              np.zeros_like(fv), per_segment)
    return (roots.tolist(), root_seg.tolist(), np.flatnonzero(counted).tolist(),
            list(zip(lo.tolist(), hi.tolist())))


ZERO_RUN_CASES = {
    # (segments of f values, roots as (segment, first, last point), windows
    # of same-sign runs as (segment, left flank, right flank))
    "zero after a segment ending in zero": ([[1.0, -2.0, 0.0], [0.0, 3.0, -1.0]],
                                            [(0, 2, 2), (1, 0, 0)], []),
    "two-point run, opposite flanks": ([[1.0, 0.0, 0.0, -1.0, 2.0]], [(0, 1, 2)], []),
    "same-sign flanks": ([[-1.0, 0.0, 0.0, -3.0], [2.0, 0.0, 1.0]], [], [(0, 0, 3), (1, 0, 2)]),
    "same-sign runs sharing a flank": ([[2.0, 0.0, 1.0, 0.0, 0.0, 3.0, 0.0]], [(0, 6, 6)],
                                       [(0, 0, 2), (0, 2, 5)]),
    "run at a segment's last point": ([[2.0, -1.0, 0.0, 0.0], [-1.0, 1.0]], [(0, 2, 3)], []),
    "no zeros": ([[1.0, -1.0], [2.0, 3.0]], [], []),
}


@pytest.mark.parametrize("case", sorted(ZERO_RUN_CASES))
def test_zero_runs_across_segment_boundaries(case):
    values, runs, windows = ZERO_RUN_CASES[case]
    fv = np.concatenate(values)
    seg = np.repeat(np.arange(len(values)), [len(v) for v in values])
    starts = np.cumsum([0] + [len(v) for v in values])
    t = np.concatenate([s + np.linspace(0.0, 1.0, len(v)) for s, v in enumerate(values)])
    roots, root_seg, counted, found = zero_runs_and_windows(t, fv, seg)
    assert roots == [0.5 * (t[starts[s] + i] + t[starts[s] + j]) for s, i, j in runs]
    assert root_seg == [s for s, _, _ in runs]
    assert counted == [starts[s] + k for s, i, j in runs for k in range(i, j + 1)]
    assert found == merged([(starts[s] + i, starts[s] + j) for s, i, j in windows])
    *oracle, oracle_windows = zero_runs_per_segment(t, fv, seg)
    assert [roots, root_seg, counted, found] == [*oracle, merged(oracle_windows)]


def test_zero_runs_match_the_per_segment_rule_on_random_runs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        fv = rng.choice([-1.0, 0.0, 0.0, 2.0], size=n)
        seg = np.cumsum(rng.random(n) < 0.2)
        t = np.cumsum(rng.random(n))
        *oracle, oracle_windows = zero_runs_per_segment(t, fv, seg)
        assert list(zero_runs_and_windows(t, fv, seg)) == [*oracle, merged(oracle_windows)]


def test_curvature_test_counts_the_noise():
    # the smaller |f|, 1.5, exceeds M2 w^2 / 8 = 1 by less than near_tol = 1:
    # the true value may be 0.5, from which f can dip to zero inside the
    # cell, so the cell is refined
    one = np.array([1.0])
    *_, lo, hi = nodal._level(np.array([0.0, 1.0]), np.array([1.5, 2.0]), np.array([0, 0]),
                              one, one, np.zeros(2), 10.0 * one)
    assert (lo.tolist(), hi.tolist()) == ([0], [1])


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_planted_exact_grid_zeros_count_alike(monkeypatch, c):
    # c cos(2 pi t) - c cos(2 pi t_k) is exactly 0.0 at each base point t_k:
    # a crossing there, except at t = 0, 1/2 and 1, where it touches
    line = LineSegment(E1, 1.0)
    grid_t = nodal._base_grid(enumerate_shell(1), line).t
    samples = [WaveSample.from_coefficients(
        enumerate_shell(1), {(1, 0, 0): c, (0, 1, 0): -c * float(np.cos(TWO_PI * t_k))})
        for t_k in grid_t]
    zeros = [count_zeros(s, line) for s in samples]
    for k, (t_k, z) in enumerate(zip(grid_t, zeros)):
        assert evaluate_f(samples[k], line, t_k) == 0.0
        if k not in (0, 8, 16):
            assert np.min(np.abs(z.roots - t_k)) <= 1e-12, k
    expected = dict(sorted(Counter(z.count for z in zeros).items()))
    for block in (1, 2, 16, 64):
        assert monte_carlo_over(monkeypatch, samples, line, block).histogram == expected


def test_hidden_pair_is_found_by_refinement():
    sample = cosine_sample(**EDGE_SAMPLES["hidden_pair"][0])
    line = LineSegment(E1, 1.0)
    grid = nodal._base_grid(sample.shell, line)
    scan = nodal._scan(sample.half_coefficients[None], grid)
    # both brackets are cells of the first refinement level
    assert np.allclose(scan.hi - scan.lo, [grid.t[1] / nodal.REFINE_RATIO] * 2, rtol=1e-12, atol=0)
    assert not scan.tangency[0] and not scan.depth_hit[0]
    roots = count_zeros(sample, line).roots
    assert np.allclose(roots, 17 / 32 + np.array([-1, 1]) * math.sqrt(2e-4) / TWO_PI,
                       atol=1e-6)


@pytest.mark.parametrize("block", [1, 7, 256])
@pytest.mark.parametrize("m,spec", [(5, "irr:std"), (101, "rat:1,0,0"),
                                    (1009, "halfrat:1,1,sqrt2")])
def test_monte_carlo_block_size_leaves_report_unchanged(monkeypatch, m, spec, block):
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), 1.0)
    default = monte_carlo(shell, line, trials=40, seed=5)
    monkeypatch.setattr(nodal, "BLOCK_TRIALS", block)
    assert monte_carlo(shell, line, trials=40, seed=5) == default


def test_monte_carlo_memory_does_not_grow_with_trials():
    # the trial streams are spawned per block and the counts kept as a
    # histogram, so 8x the trials costs no more than a fixed margin
    shell = enumerate_shell(1)
    line = LineSegment(E1, 1.0)
    monte_carlo(shell, line, trials=16, seed=0)  # first-call imports
    peaks = []
    for trials in (1000, 8000):
        tracemalloc.start()
        try:
            monte_carlo(shell, line, trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks


def amplitudes(samples):
    """The amplitude block of a list of samples, one row each."""
    return np.array([s.half_coefficients for s in samples])


def narrowed(samples, line, row, lo, hi, parts):
    """The first sign-change cell of width (hi - lo) / parts in each bracket,
    and f at its lower end, from evaluate_f of the bracket's own sample."""
    points = np.linspace(lo, hi, parts + 1)
    values = np.array([evaluate_f(samples[r], line, points[:, i])
                       for i, r in enumerate(row.tolist())]).T
    first = np.argmax(values[:-1] * values[1:] < 0, axis=0)
    pick = np.arange(row.size)
    return row, points[first, pick], points[first + 1, pick], values[first, pick]


def test_locate_mixes_bracket_levels_and_samples():
    shell = enumerate_shell(101)
    line = LineSegment(IRR, 1.0)
    grid = nodal._base_grid(shell, line)
    samples = [sample_wave(shell, seed) for seed in (5, 6)]
    scan = nodal._scan(amplitudes(samples), grid)
    base = scan.level == 1
    assert set(scan.row[base].tolist()) == {0, 1}
    # a level-d bracket is t[1] / REFINE_RATIO^(d - 1) wide
    groups = [(*narrowed(samples, line, scan.row[base], scan.lo[base], scan.hi[base],
                         nodal.REFINE_RATIO ** (level - 1)),
               np.full(base.sum(), level)) for level in (1, 2, 3)]
    row, lo, hi, f_lo, level = (np.concatenate(parts) for parts in zip(*groups))
    assert np.allclose(hi - lo, grid.t[1] / nodal.REFINE_RATIO ** (level - 1), rtol=1e-9)
    together = scan.locate(row, lo, hi, f_lo, level)
    alone = np.concatenate([scan.locate(*(a[i:i + 1] for a in (row, lo, hi, f_lo, level)))
                            for i in range(row.size)])
    assert np.all((lo <= together) & (together <= hi))
    assert np.max(np.abs(together - alone)) <= 2 * nodal.BISECT_TOL
    for i, sample in enumerate(samples):  # each midpoint is a root of its own sample
        roots = together[row == i]
        assert np.all(evaluate_f(sample, line, roots - 1e-9)
                      * evaluate_f(sample, line, roots + 1e-9) < 0)


@pytest.mark.parametrize("spec", ["irr:std", "halfrat:1,1,sqrt2"])
def test_roots_far_from_zero_lie_at_sign_changes(spec):
    # at L = 30 the brackets, and so the anchors of their passes, lie far
    # from t = 0, where lo + j step and the phases 2 pi b lo round the most:
    # every root lies within BISECT_TOL, plus the distance the base grid's
    # noise bound near_tol can move a zero of f, of a sign change of
    # evaluate_f
    shell = enumerate_shell(1009)
    line = LineSegment(parse_direction(spec), 30.0)
    grid = nodal._base_grid(shell, line)
    for seed in (0, 1):
        sample = sample_wave(shell, seed)
        roots = count_zeros(sample, line).roots
        near_tol = nodal._scan(amplitudes([sample]), grid).near_tol[0]
        reach = nodal.BISECT_TOL + near_tol / np.abs(evaluate_f_prime(sample, line, roots))
        lo = np.maximum(roots - reach, 0.0)
        hi = np.minimum(roots + reach, line.length)
        assert roots.size > 500, roots.size
        assert np.all(evaluate_f(sample, line, lo) * evaluate_f(sample, line, hi) <= 0.0), seed


def test_counts_without_close_brackets_build_no_phase_table(monkeypatch):
    # _counts locates only the brackets that could merge; with none, the
    # passes of locate are all empty and build no table
    shell = enumerate_shell(1009)
    scan = nodal._scan(amplitudes([sample_wave(shell, seed) for seed in range(16)]),
                       nodal._base_grid(shell, LineSegment(IRR, 1.0)))
    located = []

    def locate_spy(row, *brackets):
        located.append(row.size)
        return scan.locate(row, *brackets)

    def no_table(*args):
        raise AssertionError("an empty pass builds no phase table")

    monkeypatch.setattr(nodal, "_phases", no_table)
    counts = nodal._counts(dataclasses.replace(scan, locate=locate_spy))
    assert located == [0]
    assert counts.tolist() == np.bincount(scan.row, minlength=16).tolist()


def hermite_cubics(rng):
    """End data (f0, f1, d0, d1) of random cubics and of the special cases."""
    f0, f1, d0, d1 = rng.normal(size=(4, 400)) * np.array([[1.0], [1.0], [3.0], [3.0]])
    f1 = np.where(rng.random(400) < 0.5, f1, np.abs(f1) * np.sign(f0))  # half share a sign
    cases = {"random": (f0, f1, d0, d1),
             "critical at 0": (f0, f1, 0.0 * d0, d1),
             "critical at 1": (f0, f1, d0, 0.0 * d1),
             "quadratic (a = 0)": (f0, f1, d0, 2.0 * (f1 - f0) - d0),
             "linear (a = b = 0)": (f0, f1, f1 - f0, f1 - f0)}
    return {name: tuple(np.broadcast_arrays(*data)) for name, data in cases.items()}


def test_hermite_min_matches_dense_sampling():
    u = np.linspace(0.0, 1.0, 10_001)[:, None]
    for name, (f0, f1, d0, d1) in hermite_cubics(np.random.default_rng(6)).items():
        a = 2.0 * (f0 - f1) + d0 + d1
        b = 3.0 * (f1 - f0) - 2.0 * d0 - d1
        if name.startswith("quadratic"):
            assert np.all(np.abs(a) < 1e-14 * (np.abs(f0) + np.abs(f1) + np.abs(d0)))
        if name.startswith("linear"):
            assert np.all(np.abs(a) + np.abs(b) < 1e-14 * (np.abs(f0) + np.abs(f1)))
        h00, h01 = (1 + 2 * u) * (1 - u) ** 2, u * u * (3 - 2 * u)
        h10, h11 = u * (1 - u) ** 2, u * u * (u - 1)
        dense = np.min(np.sign(f0) * (f0 * h00 + f1 * h01 + d0 * h10 + d1 * h11), axis=0)
        closed = nodal._hermite_min(f0, f1, d0, d1)
        rounding = 1e-13 * (np.abs(f0) + np.abs(f1) + np.abs(d0) + np.abs(d1))
        # no sample point lies below the minimum; the nearest one to the true
        # minimiser is within 5e-5, where H exceeds it by at most |H''| / 2 * 5e-5^2
        curvature = np.maximum(np.abs(2 * b), np.abs(6 * a + 2 * b))
        assert np.all(closed <= dense + rounding), name
        assert np.all(dense - closed <= curvature * 1.25e-9 + rounding), name


def scan_levels(monkeypatch, samples, line):
    """_scan over a block, returning the arguments of its _level calls, one
    per depth level, the base level first."""
    calls = []
    level = nodal._level

    def spy(*args):
        calls.append(args)
        return level(*args)

    monkeypatch.setattr(nodal, "_level", spy)
    nodal._scan(amplitudes(samples), nodal._base_grid(samples[0].shell, line))
    monkeypatch.undo()
    return calls


def segment_rows(base_call, call):
    """Block row of each segment of a _level call.  Each segment carries its
    sample's near_tol, which the base level holds once per row, so the map
    holds where the samples' near_tol differ."""
    row_of = {tol: i for i, tol in enumerate(base_call[3].tolist())}
    assert len(row_of) == base_call[3].size
    return np.array([row_of[tol] for tol in call[3].tolist()], dtype=int)


def at_rows(evaluate, samples, line, rows, t):
    """evaluate (evaluate_f or evaluate_f_prime) of samples[rows[i]] at t[i]."""
    out = np.empty(t.size)
    for i in set(rows.tolist()):
        mine = np.flatnonzero(rows == i)
        for part in np.array_split(mine, mine.size // 2048 + 1):  # phase tables of 2048 rows
            out[part] = evaluate(samples[i], line, t[part])
    return out


def test_base_grid_slope_matches_evaluate_f_prime(monkeypatch):
    for m, spec in [(5, "irr:std"), (1009, "rat:1,0,0"), (1009, "halfrat:1,1,sqrt2")]:
        shell = enumerate_shell(m)
        line = LineSegment(parse_direction(spec), 1.0)
        samples = [sample_wave(shell, seed) for seed in range(3)]
        t, fv, seg, _, _, slope, _ = scan_levels(monkeypatch, samples, line)[0]
        direct = np.concatenate([evaluate_f_prime(s, line, t[seg == i])
                                 for i, s in enumerate(samples)])
        assert np.max(np.abs(slope - direct)) < 1e-12 * np.max(np.abs(direct)), (m, spec)


@pytest.mark.parametrize("spec", ["rat:1,0,0", "halfrat:1,1,sqrt2", "irr:std"])
@pytest.mark.parametrize("m,length", [(1009, 1.0), (10009, 1.0), (1009, 30.0)])
def test_refinement_slope_matches_evaluate_f_prime(monkeypatch, m, length, spec):
    # every refinement level, within the base grid's own bounds
    # (assert_base_values_match); at L = 30 the anchors reach t = 30
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), length)
    samples = [sample_wave(shell, seed) for seed in range(64)]
    calls = scan_levels(monkeypatch, samples, line)
    assert len(calls) >= 2  # the block reaches a refinement level
    f_max = np.max(np.abs(half_frequencies(shell, line.direction.components)))
    for depth, call in enumerate(calls[1:], 2):
        t, fv, seg, near_tol, _, slope, _ = call
        rows = segment_rows(calls[0], call)[seg]
        error = np.abs(fv - at_rows(evaluate_f, samples, line, rows, t))
        assert np.all(error < 0.05 * near_tol[seg]), (depth, np.max(error / near_tol[seg]))
        error = np.abs(slope - at_rows(evaluate_f_prime, samples, line, rows, t))
        assert np.all(error < 0.05 * TWO_PI * f_max * near_tol[seg]), depth


def assert_base_values_match(samples, line, grid):
    """_base_values of a block against evaluate_f and evaluate_f_prime at
    every grid point, within 0.05 near_tol for f and 0.05 * 2 pi f_max *
    near_tol for f', the noise bounds _level allows them."""
    half = amplitudes(samples)
    fv, slope = nodal._base_values(half.real, half.imag, grid,
                                   2.0 / math.sqrt(samples[0].shell.n))
    assert fv.shape == slope.shape == (len(samples), grid.t.size)
    f_max = np.max(np.abs(grid.b))
    for i, sample in enumerate(samples):
        near_tol = nodal.NEAR_ZERO_FACTOR * math.sqrt(np.mean(fv[i] ** 2))
        for part in np.array_split(np.arange(grid.t.size), grid.t.size // 2048 + 1):
            t = grid.t[part]
            assert np.max(np.abs(fv[i, part] - evaluate_f(sample, line, t))) < 0.05 * near_tol
            assert np.max(np.abs(slope[i, part] - evaluate_f_prime(sample, line, t))) < (
                0.05 * TWO_PI * f_max * near_tol)


@pytest.mark.parametrize("length", [1.0, 30.0])
@pytest.mark.parametrize("spec", ["rat:1,0,0", "halfrat:1,1,sqrt2", "irr:std"])
@pytest.mark.parametrize("m", [5, 101, 1009])
def test_base_values_match_evaluate_f(m, spec, length):
    # at L = 30 the anchors reach t = 30, where the phases 2 pi b t carry
    # the largest rounding (m = 1009: 0.02 near_tol at most)
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), length)
    samples = [sample_wave(shell, seed) for seed in (11, 12)]
    assert_base_values_match(samples, line, nodal._base_grid(shell, line))


@pytest.mark.parametrize("width", [1, nodal.BLOCK_TRIALS])
def test_base_values_at_the_chunk_edges(width):
    # grids whose last chunk lacks one point, is full, or holds only its anchor
    shell = enumerate_shell(101)
    samples = [sample_wave(shell, seed) for seed in range(width)]
    f_max = np.max(np.abs(half_frequencies(shell, IRR.components)))
    edges = {}
    for n_pts in range(150, 400):
        line = LineSegment(IRR, (n_pts - 1.5) / (2 * nodal.GRID_FACTOR * f_max))
        grid = nodal._base_grid(shell, line)
        assert grid.t.size == n_pts
        chunk = len(grid.offsets[0])
        assert len(grid.anchors[0]) == -(-n_pts // chunk)
        # (n_pts + 1) % chunk: 0 one point short of full chunks, 1 full, 2 one past
        edges.setdefault((n_pts + 1) % chunk, (line, grid))
    for rest in (0, 1, 2):
        assert_base_values_match(samples, *edges[rest])


def test_base_grid_scan_peaks_below_the_phase_table():
    # at m = 10009 the n_pts x N/2 cos and sin tables took 16 n_pts N/2
    # bytes; the grid and a scan of a full block now peak below that
    shell = enumerate_shell(10009)
    line = LineSegment(IRR, 1.0)
    half = amplitudes([sample_wave(shell, seed) for seed in range(nodal.BLOCK_TRIALS)])
    nodal._scan(half, nodal._base_grid(shell, line))  # first-call allocations
    tracemalloc.start()
    try:
        grid = nodal._base_grid(shell, line)
        nodal._scan(half, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 16 * grid.t.size * grid.b.size
    assert peak < table, (peak, table)


def refined_cells(t, fv, seg, *args):
    """Cells (index of their left point) inside a refinement window of _level."""
    *_, lo, hi = nodal._level(t, fv, seg, *args)
    return {cell for a, b in zip(lo.tolist(), hi.tolist()) for cell in range(a, b)}


@pytest.mark.parametrize("spec", ["rat:1,0,0", "irr:std"])
@pytest.mark.parametrize("m", [101, 1009, 10009])
def test_hermite_test_drops_only_cells_without_zeros(monkeypatch, m, spec):
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), 1.0)
    # at m = 10009 a few samples hold many cells and reach depth 2
    samples = [sample_wave(shell, 7000 + seed) for seed in range(8 if m == 10009 else 200)]
    calls = scan_levels(monkeypatch, samples, line)
    deep = 0  # cells dropped below the base level
    for depth, call in enumerate(calls, 1):
        t, fv, seg, near_tol, dip_tol, slope, remainder = call
        both = refined_cells(*call)
        # the curvature test alone: no cell lies above an infinite margin
        no_margin = np.full_like(remainder, np.inf)
        alone = refined_cells(t, fv, seg, near_tol, dip_tol, slope, no_margin)
        dropped = np.array(sorted(alone - both), dtype=int)
        if depth == 1:  # the curvature test alone opens many more
            assert len(dropped) > 5 * len(samples)
        else:
            deep += len(dropped)
        rows = np.repeat(segment_rows(calls[0], call)[seg[dropped]], 64)
        sub = np.linspace(t[dropped], t[dropped + 1], 64, axis=1)  # 64 points per cell
        values = at_rows(evaluate_f, samples, line, rows, sub.ravel()).reshape(sub.shape)
        lowest = np.min(np.sign(fv[dropped])[:, None] * values, axis=1)
        low = lowest <= 2.0 * near_tol[seg[dropped]]
        assert not np.any(low), (depth, rows[::64][low], t[dropped][low])
    assert deep > 0


def test_hermite_test_leaves_few_windows(monkeypatch):
    """Fewer than one base cell per trial opens a refinement window at m=1009."""
    shell = enumerate_shell(1009)
    line = LineSegment(IRR, 1.0)
    base_t = nodal._base_grid(shell, line).t
    cells = []
    sub_grids = nodal._sub_grids

    def spy(t, lo, hi):
        if np.array_equal(t[:base_t.size], base_t):  # windows of the base level
            cells.append(int(np.sum(hi - lo)))
        return sub_grids(t, lo, hi)

    monkeypatch.setattr(nodal, "_sub_grids", spy)
    monte_carlo(shell, line, trials=200, seed=2024)
    assert sum(cells) < 200


def test_refinement_points_stay_few(monkeypatch):
    """Fewer than ten sub-grid points per trial at m=10009, over every depth:
    the Hermite test runs on the refinement levels as on the base grid."""
    shell = enumerate_shell(10009)
    line = LineSegment(IRR, 1.0)
    points = []
    sub_grids = nodal._sub_grids

    def spy(t, lo, hi):
        sub = sub_grids(t, lo, hi)
        points.append(sub[0].size)
        return sub

    monkeypatch.setattr(nodal, "_sub_grids", spy)
    monte_carlo(shell, line, trials=200, seed=3)
    assert sum(points) < 10 * 200, sum(points)


def test_refinement_builds_no_phase_row_per_point(monkeypatch):
    """A refinement level builds cos and sin rows at its anchors, every
    REFINE_RATIO-th sub-grid point of each window and its last, and at
    REFINE_RATIO offsets: no row of its own for each sub-grid point."""
    shell = enumerate_shell(10009)
    line = LineSegment(IRR, 1.0)
    levels = []  # points, windows and the rows of each phase table, per level
    scanning = []
    scan, sub_grids, phases = nodal._scan, nodal._sub_grids, nodal._phases

    def scan_spy(*args):
        scanning.append(True)
        try:
            return scan(*args)
        finally:
            scanning.pop()

    def sub_grids_spy(t, lo, hi):
        sub = sub_grids(t, lo, hi)
        levels.append((sub[0].size, lo.size, []))
        return sub

    def phases_spy(t, b):
        # the base grid's tables come before any scan, locate's after it
        if scanning:
            levels[-1][2].append(np.size(t))
        return phases(t, b)

    monkeypatch.setattr(nodal, "_scan", scan_spy)
    monkeypatch.setattr(nodal, "_sub_grids", sub_grids_spy)
    monkeypatch.setattr(nodal, "_phases", phases_spy)
    monte_carlo(shell, line, trials=200, seed=3)
    assert levels
    for points, windows, rows in levels:
        assert len(rows) == 2 and nodal.REFINE_RATIO in rows, (points, windows, rows)
        assert sum(rows) - nodal.REFINE_RATIO <= points / nodal.REFINE_RATIO + windows, (
            points, windows, rows)


def shifted_sample(sample: WaveSample, base_point) -> WaveSample:
    """Sample of the same wave translated by a base point.

    F(base + x) has amplitudes a_mu * e^{2 pi i <mu, base>}, so shifting the
    evaluation segment is a phase rotation of the coefficients.
    """
    x0 = np.asarray(base_point, dtype=np.float64)
    phase = 2.0 * math.pi * half_frequencies(sample.shell, x0)
    return WaveSample(sample.shell, sample.half_coefficients * np.exp(1j * phase))


def test_shifted_sample_mean_invariance():
    # stationarity: a segment through a base point sees the same count law
    shell = enumerate_shell(2)
    line = LineSegment(IRR, 1.0)
    base = np.array([0.271, 0.613, 0.089])
    trials = 600
    streams = np.random.SeedSequence(19).spawn(trials)
    diffs = np.empty(trials)
    for i, ss in enumerate(streams):
        sample = sample_wave(shell, np.random.default_rng(ss))
        plain = count_zeros(sample, line).count
        moved = count_zeros(shifted_sample(sample, base), line).count
        diffs[i] = plain - moved
    stderr = np.std(diffs, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(diffs)) < 3 * stderr


def test_shifted_sample_values():
    shell = enumerate_shell(5)
    sample = sample_wave(shell, 123)
    base = np.array([0.2, 0.45, 0.9])
    moved = shifted_sample(sample, base)
    line = LineSegment(IRR, 1.0)
    for t in (0.0, 0.3, 0.8):
        shifted_val = evaluate_f(moved, line, t)
        direct = evaluate_F_complex(sample, base + t * IRR.components).real
        assert shifted_val == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("length", [1.0, 0.37])
@pytest.mark.parametrize("spec", ["rat:1,0,0", "irr:std", "halfrat:1,1,sqrt2"])
@pytest.mark.parametrize("m", [5, 101])
def test_zero_count_is_unchanged_by_reversing_the_segment(m, spec, length):
    # f(L - t) is f of the pair amplitudes conj(a e^{2 pi i b L})
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), length)
    turn = np.exp(1j * TWO_PI * length * half_frequencies(shell, line.direction.components))
    t = np.linspace(0.0, length, 7)
    for seed in range(8):
        sample = sample_wave(shell, seed)
        reversed_sample = WaveSample(shell, np.conj(sample.half_coefficients * turn))
        assert np.allclose(evaluate_f(reversed_sample, line, t),
                           evaluate_f(sample, line, length - t), rtol=0, atol=1e-12)
        assert count_zeros(reversed_sample, line).count == count_zeros(sample, line).count, seed


def test_variance_of_normalized_count_decreases():
    # past the smallest shells the normalized count concentrates; m=1 itself
    # sits below the asymptotic regime and is left out of the trend window
    variances = []
    for m in (2, 5, 10, 50, 101):
        report = monte_carlo(enumerate_shell(m), LineSegment(IRR, 1.0), trials=400, seed=29)
        variances.append(report.variance / m)
    assert negative_trend_p(variances) < 0.05
