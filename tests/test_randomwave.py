"""Wave sampling, evaluation, and closed-form covariance."""

import math

import numpy as np
import pytest

from nodal_lab.diophantine import Direction
from nodal_lab.lattice import enumerate_shell
from nodal_lab.randomwave import (
    LineSegment,
    WaveSample,
    covariance,
    evaluate_f,
    evaluate_f_prime,
    sample_wave,
    second_moment_ratio,
)

E1 = Direction.rational(1, 0, 0)
IRR = Direction.irrational(1.0, math.sqrt(2), math.sqrt(3))


def evaluate_F_complex(sample, x) -> complex:
    """Full complex shell sum F(x) at one point x of the unit cube: the oracle
    for values of the wave off the segment."""
    x = np.asarray(x, dtype=np.float64)
    phase = 2 * math.pi * sample.shell.coords.astype(np.float64) @ x
    total = np.sum(sample.coefficients * np.exp(1j * phase))
    return complex(total) / math.sqrt(sample.shell.n)


def single_mode(m=1):
    """Sample with a_(1,0,0) = 1 and every other pair zero."""
    return WaveSample.from_coefficients(enumerate_shell(m), {(1, 0, 0): 1.0})


def test_shell_rows_pair_by_reversal():
    # the half-shell storage relies on row i mirroring row n-1-i
    for m in (1, 2, 5, 9, 50, 101):
        coords = enumerate_shell(m).coords
        assert np.array_equal(coords[::-1], -coords)


def test_line_segment_validation():
    seg = LineSegment(E1, 2.0)
    assert np.allclose(seg.point([0.0, 1.0]), [[0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        LineSegment(E1, 0.0)
    with pytest.raises(ValueError):
        LineSegment(E1, -1.0)
    with pytest.raises(ValueError, match="finite square"):
        LineSegment(E1, 1e200)  # L^2 overflows


def test_wave_sample_structure():
    shell = enumerate_shell(5)
    rng = np.random.default_rng(0)
    half = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    sample = WaveSample(shell, half)
    assert not sample.half_coefficients.flags.writeable
    full = sample.coefficients
    # conjugate symmetry across mirrored rows
    assert np.allclose(full[::-1], np.conj(full))
    with pytest.raises(ValueError):
        WaveSample(shell, half[:5])
    for bad in (math.nan, math.inf):
        # non-finite amplitudes would give count_zeros 0 roots with no flag
        with pytest.raises(ValueError, match="finite"):
            WaveSample(shell, np.full(12, bad))


def test_from_coefficients_mirrors_and_validates():
    shell = enumerate_shell(1)
    sample = WaveSample.from_coefficients(shell, {(0, 1, 0): 2 + 1j})
    full = dict(zip(map(tuple, shell.coords.tolist()), sample.coefficients))
    assert full[(0, 1, 0)] == 2 + 1j
    assert full[(0, -1, 0)] == 2 - 1j
    assert full[(1, 0, 0)] == 0
    # listing both members consistently is fine
    WaveSample.from_coefficients(shell, {(0, 1, 0): 2 + 1j, (0, -1, 0): 2 - 1j})
    with pytest.raises(ValueError):
        WaveSample.from_coefficients(shell, {(0, 1, 0): 1j, (0, -1, 0): 1j})
    with pytest.raises(ValueError):
        WaveSample.from_coefficients(shell, {(1, 1, 0): 1.0})
    with pytest.raises(ValueError, match="finite"):
        WaveSample.from_coefficients(enumerate_shell(5), {(1, 2, 0): math.nan})
    # integral floats are lattice points; fractional and non-finite coordinates
    # are not, and must not be truncated onto one
    assert WaveSample.from_coefficients(shell, {(1.0, 0, 0): 3.0}).half_coefficients.any()
    for mu in [(1.5, 0, 0), (0.9, 0, 1.2), (math.inf, 0, 0), (math.nan, 0, 0)]:
        with pytest.raises(ValueError, match="integer"):
            WaveSample.from_coefficients(shell, {mu: 1.0})
    # an integer past the float64 range is off the shell, not an overflow
    with pytest.raises(ValueError, match="not on the shell"):
        WaveSample.from_coefficients(shell, {(10**400, 0, 0): 1.0})


def test_sample_wave_deterministic_and_rejects_empty():
    shell = enumerate_shell(2)
    a = sample_wave(shell, 42)
    b = sample_wave(shell, 42)
    assert np.array_equal(a.half_coefficients, b.half_coefficients)
    assert not np.array_equal(a.half_coefficients, sample_wave(shell, 43).half_coefficients)
    with pytest.raises(ValueError):
        sample_wave(enumerate_shell(7), 1)


def test_sample_moments_and_field_variance():
    # >= 1e5 amplitude draws: means near 0, E|a|^2 near 1, E[F(x)^2] near 1
    shell = enumerate_shell(5)
    x = np.array([0.21, 0.53, 0.08])
    streams = np.random.SeedSequence(7).spawn(9000)
    coeffs = []
    f_vals = np.empty(len(streams))
    for i, ss in enumerate(streams):
        sample = sample_wave(shell, np.random.default_rng(ss))
        coeffs.append(sample.half_coefficients)
        f_vals[i] = evaluate_F_complex(sample, x).real
    draws = np.concatenate(coeffs)
    assert draws.size >= 100_000
    assert abs(np.mean(draws)) < 4 / math.sqrt(draws.size)
    assert 0.99 < np.mean(np.abs(draws) ** 2) < 1.01
    assert abs(np.mean(f_vals**2) - 1.0) < 3 * math.sqrt(2 / f_vals.size)


def test_evaluate_f_matches_F_on_the_segment():
    shell = enumerate_shell(5)
    sample = sample_wave(shell, 17)
    line = LineSegment(IRR, 2.0)
    rng = np.random.default_rng(19)
    t = rng.uniform(0, line.length, size=100)
    f = evaluate_f(sample, line, t)
    on_curve = np.array([evaluate_F_complex(sample, x).real for x in line.point(t)])
    assert np.max(np.abs(f - on_curve)) < 1e-12


def test_evaluate_f_single_mode_and_domain():
    sample = single_mode()
    line = LineSegment(E1, 1.0)
    t = np.linspace(0, 1, 7)
    assert np.allclose(evaluate_f(sample, line, t), 2 / math.sqrt(6) * np.cos(2 * math.pi * t))
    assert evaluate_f(sample, line, 0.5) == pytest.approx(-2 / math.sqrt(6))
    with pytest.raises(ValueError):
        evaluate_f(sample, line, -0.01)
    with pytest.raises(ValueError):
        evaluate_f(sample, line, 1.01)
    with pytest.raises(ValueError):
        evaluate_f_prime(sample, line, [0.3, 1.2])
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError):
            evaluate_f(sample, line, t)
    with pytest.raises(ValueError):
        evaluate_f_prime(sample, line, [0.1, math.nan])


def test_f_prime_matches_finite_differences():
    shell = enumerate_shell(9)
    sample = sample_wave(shell, 23)
    line = LineSegment(IRR, 1.5)
    step = 1e-6 * line.length
    t = np.linspace(0.1, 1.4, 40)
    deriv = evaluate_f_prime(sample, line, t)
    fd = (evaluate_f(sample, line, t + step) - evaluate_f(sample, line, t - step)) / (2 * step)
    assert np.all(np.abs(deriv - fd) <= 1e-6 * (1 + np.abs(deriv)))


def test_covariance_diagonal():
    shell = enumerate_shell(5)
    line = LineSegment(IRR, 1.0)
    cov = covariance(shell, line, 0.37, 0.37)
    assert cov.r == pytest.approx(1.0, abs=1e-12)
    assert cov.r1 == 0.0 and cov.r2 == 0.0
    for t1, t2 in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            covariance(shell, line, t1, t2)
    b = shell.coords @ IRR.components
    assert cov.r12 == pytest.approx(4 * math.pi**2 * np.mean(b * b))
    assert cov.r12 > 0


def test_covariance_single_frequency_shell():
    # m=1, alpha=(1,0,0): four frequencies 0 and two +-1
    line = LineSegment(E1, 1.0)
    shell = enumerate_shell(1)
    for tau in (0.13, 0.5, 0.9):
        cov = covariance(shell, line, tau, 0.0)
        assert cov.r == pytest.approx((2 * math.cos(2 * math.pi * tau) + 4) / 6, abs=1e-14)


def test_covariance_properties():
    rng = np.random.default_rng(29)
    shell = enumerate_shell(6)
    line = LineSegment(IRR, 2.0)
    for _ in range(25):
        t1, t2, delta = rng.uniform(0, 2, size=3)
        cov = covariance(shell, line, t1, t2)
        shifted = covariance(shell, line, t1 + delta, t2 + delta)
        mirrored = covariance(shell, line, t2, t1)
        assert abs(cov.r) <= 1 + 1e-12
        assert cov.r1 == -cov.r2
        assert shifted.r == pytest.approx(cov.r, abs=1e-12)
        assert mirrored.r == pytest.approx(cov.r, abs=1e-12)
        assert covariance(shell, line, t1, t1).r == pytest.approx(1.0, abs=1e-12)


def test_covariance_matches_empirical_product_moment():
    shell = enumerate_shell(2)
    line = LineSegment(IRR, 1.0)
    pairs = [(0.1, 0.7), (0.0, 0.05), (0.33, 0.9), (0.5, 0.5), (0.62, 0.18)]
    t_grid = np.array(sorted({t for pair in pairs for t in pair}))
    trials = 20_000
    streams = np.random.SeedSequence(101).spawn(trials)
    vals = np.empty((trials, t_grid.size))
    for i, ss in enumerate(streams):
        vals[i] = evaluate_f(sample_wave(shell, np.random.default_rng(ss)), line, t_grid)
    col = {t: j for j, t in enumerate(t_grid)}
    for t1, t2 in pairs:
        r = covariance(shell, line, t1, t2).r
        emp = np.mean(vals[:, col[t1]] * vals[:, col[t2]])
        stderr = math.sqrt((1 + r * r) / trials)
        assert abs(emp - r) < 3 * stderr


def test_second_moment_ratio_is_one_by_symmetry():
    # signed coordinate permutations fix every shell, forcing the directional
    # second moment to be isotropic: (1/N) sum <mu,alpha>^2 = m/3 for all alpha
    rng = np.random.default_rng(31)
    for m in (1, 2, 5, 50, 101):
        shell = enumerate_shell(m)
        for _ in range(5):
            d = Direction.irrational(*rng.standard_normal(3))
            assert second_moment_ratio(shell, d) == pytest.approx(1.0, abs=1e-12)
