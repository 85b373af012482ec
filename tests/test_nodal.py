"""Zero counting and Monte-Carlo statistics of the count."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

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
    # f(t) proportional to cos(2 pi t) + 1: a double root at t = 0.5
    result = count_zeros(cosine_sample(extra=1.0), LineSegment(E1, 1.0))
    assert result.count == 0
    assert result.flags.near_tangency
    assert not result.flags.refinement_depth_hit


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
    entries = nodal._base_grid(shell, line).cos_phase.size
    monkeypatch.setattr(nodal, "GRID_ENTRIES", entries)
    count_zeros(sample, line)
    monkeypatch.setattr(nodal, "GRID_ENTRIES", entries - 1)
    with pytest.raises(BoundOverflowError, match="base grid") as info:
        count_zeros(sample, line)
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
    # f is exactly 0.0 at the grid point t = 5/16: a zero run, not a bracket
    "exact_grid_zero": (dict(extra=-float(np.cos(TWO_PI * 0.3125))), 2),
    # two roots 0.0045 apart inside the base cell (1/2, 9/16): only the
    # refinement window of that cell brackets them
    "hidden_pair": (dict(extra=1.0 - 1e-4, shift=1.0 / 32.0), 2),
    "touch": (dict(extra=1.0), 0),
    "depth_limit": (dict(extra=1.0 + 1e-12), 0),
    "plain": (dict(), 2),
}


def test_monte_carlo_matches_count_zeros_on_edge_samples(monkeypatch):
    samples = [cosine_sample(**kwargs) for kwargs, _ in EDGE_SAMPLES.values()]
    line = LineSegment(E1, 1.0)
    zeros = [count_zeros(s, line) for s in samples]
    assert [z.count for z in zeros] == [count for _, count in EDGE_SAMPLES.values()]
    for block in (1, 2, 32):
        draws = iter(samples * 3)
        monkeypatch.setattr(nodal, "sample_wave", lambda shell, rng: next(draws))
        monkeypatch.setattr(nodal, "BLOCK_TRIALS", block)
        report = monte_carlo(enumerate_shell(1), line, trials=3 * len(samples), seed=0)
        expected = Counter(z.count for z in zeros * 3)
        assert report.histogram == dict(sorted(expected.items()))
        assert report.near_tangency_trials == 3 * sum(z.flags.near_tangency for z in zeros)
        assert report.depth_hit_trials == 3 * sum(
            z.flags.refinement_depth_hit for z in zeros)


def test_hidden_pair_is_found_by_refinement():
    sample = cosine_sample(**EDGE_SAMPLES["hidden_pair"][0])
    line = LineSegment(E1, 1.0)
    grid = nodal._base_grid(sample.shell, line)
    scan = nodal._scan([sample], grid)
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


def test_f_at_matches_evaluate_f():
    shell = enumerate_shell(1009)
    line = LineSegment(IRR, 1.0)
    samples = [sample_wave(shell, seed) for seed in (3, 4)]
    grid = nodal._base_grid(shell, line)
    lo = np.array([0, 17, 40, 400])
    hi = np.array([1, 20, 41, 402])
    t, starts, sizes = nodal._sub_grids(grid.t, lo, hi)
    owner = np.array([0, 0, 1, 1])
    values = nodal._scan(samples, grid).f_at(np.repeat(owner, sizes), t)
    direct = np.concatenate([
        evaluate_f(samples[i], line, t[a:a + size])
        for i, a, size in zip(owner, starts, sizes)])
    assert t.size == 9 + 25 + 9 + 17
    assert np.max(np.abs(values - direct)) < 1e-12 * np.max(np.abs(direct))


def narrowed(f_at, row, lo, hi, parts):
    """The first sign-change cell of width (hi - lo) / parts in each bracket."""
    points = np.linspace(lo, hi, parts + 1)
    values = np.array([f_at(row, p) for p in points])
    first = np.argmax(values[:-1] * values[1:] < 0, axis=0)
    pick = np.arange(row.size)
    return row, points[first, pick], points[first + 1, pick], values[first, pick]


def test_bisect_mixes_bracket_widths_and_samples():
    shell = enumerate_shell(101)
    line = LineSegment(IRR, 1.0)
    grid = nodal._base_grid(shell, line)
    samples = [sample_wave(shell, seed) for seed in (5, 6)]
    scan = nodal._scan(samples, grid)
    base = np.isclose(scan.hi - scan.lo, grid.t[1], rtol=1e-9)
    assert set(scan.row[base].tolist()) == {0, 1}
    groups = [narrowed(scan.f_at, scan.row[base], scan.lo[base], scan.hi[base], parts)
              for parts in (1, 8, 64)]
    row, lo, hi, f_lo = (np.concatenate(parts) for parts in zip(*groups))
    assert np.all(f_lo * scan.f_at(row, hi) < 0)
    together = nodal._bisect(scan.f_at, row, lo, hi, f_lo)
    apart = np.concatenate([nodal._bisect(scan.f_at, *group) for group in groups])
    assert np.all((lo <= together) & (together <= hi))
    assert np.max(np.abs(together - apart)) <= 2 * nodal.BISECT_TOL
    for i, sample in enumerate(samples):  # each midpoint is a root of its own sample
        roots = together[row == i]
        assert np.all(evaluate_f(sample, line, roots - 1e-9)
                      * evaluate_f(sample, line, roots + 1e-9) < 0)


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


def scan_base_level(monkeypatch, samples, line):
    """_scan over a block, returning the arguments of its base-level _level call."""
    calls = []
    level = nodal._level

    def spy(*args):
        calls.append(args)
        return level(*args)

    monkeypatch.setattr(nodal, "_level", spy)
    nodal._scan(samples, nodal._base_grid(samples[0].shell, line))
    monkeypatch.undo()
    return calls[0]


def test_base_grid_slope_matches_evaluate_f_prime(monkeypatch):
    for m, spec in [(5, "irr:std"), (1009, "rat:1,0,0"), (1009, "halfrat:1,1,sqrt2")]:
        shell = enumerate_shell(m)
        line = LineSegment(parse_direction(spec), 1.0)
        samples = [sample_wave(shell, seed) for seed in range(3)]
        t, fv, seg, _, _, slope, _ = scan_base_level(monkeypatch, samples, line)
        direct = np.concatenate([evaluate_f_prime(s, line, t[seg == i])
                                 for i, s in enumerate(samples)])
        assert np.max(np.abs(slope - direct)) < 1e-12 * np.max(np.abs(direct)), (m, spec)


def refined_cells(t, fv, seg, *args):
    """Base cells (index of their left point) inside a refinement window of _level."""
    _, lo, hi = nodal._level(t, fv, seg, *args)
    return set(np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)]).tolist())


@pytest.mark.parametrize("spec", ["rat:1,0,0", "irr:std"])
@pytest.mark.parametrize("m", [101, 1009])
def test_hermite_test_drops_only_cells_without_zeros(monkeypatch, m, spec):
    shell = enumerate_shell(m)
    line = LineSegment(parse_direction(spec), 1.0)
    samples = [sample_wave(shell, 7000 + seed) for seed in range(200)]
    t, fv, seg, near_tol, dip_tol, slope, remainder = scan_base_level(monkeypatch, samples, line)
    both = refined_cells(t, fv, seg, near_tol, dip_tol, slope, remainder)
    dropped = sorted(refined_cells(t, fv, seg, near_tol, dip_tol) - both)
    assert len(dropped) > 5 * len(samples)  # the curvature test alone opens many more
    for cell in dropped:
        i = seg[cell]
        sub = np.linspace(t[cell], t[cell + 1], 64)
        values = np.sign(fv[cell]) * evaluate_f(samples[i], line, sub)
        assert np.min(values) > 2.0 * near_tol[i], (i, t[cell])


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
