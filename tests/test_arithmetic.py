"""Tests for the pair sums, variance bounds and Riesz energies."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from nodal_lab import arithmetic
from nodal_lab.arithmetic import (
    BoundMode,
    BoundOverflowError,
    check_rho,
    integral_sq,
    pair_sums,
    q_sum,
    r2_terms,
    riesz_energy,
    variance_bound,
)
from nodal_lab.cli import parse_direction
from nodal_lab.diophantine import Direction
from nodal_lab.geometry import kappa
from nodal_lab.lattice import ProjectedShell, enumerate_shell, project_shell
from nodal_lab.nodal import count_zeros, monte_carlo
from nodal_lab.randomwave import LineSegment, covariance, half_frequencies, sample_wave

from helpers_arithmetic import (
    dense_bound,
    dense_pair_tables,
    dense_q_sum,
    dense_r2_terms,
    dense_riesz_energy,
    dense_split_sums,
    half_pair_tables,
    half_q_sum,
    half_r2_terms,
    half_split_sums,
)
from helpers_stats import negative_trend_p

AXIS = Direction.rational(1, 0, 0)
IRR = Direction.irrational(1.0, math.sqrt(2.0), math.sqrt(3.0))
HALF = Direction.half_rational(1, 1, math.sqrt(2.0))


def random_direction(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        ints = rng.integers(-4, 5, size=3)
        if not ints.any():
            ints[0] = 1
        return Direction.rational(*ints)
    if kind == 1:
        u = int(rng.integers(-3, 4))
        v = int(rng.integers(1, 4))
        return Direction.half_rational(u, v, math.sqrt(2.0) + float(rng.integers(0, 3)))
    vec = rng.standard_normal(3)
    return Direction.irrational(*vec)


def pair_integral_oracle(beta, length):
    """|integral of e^{2 pi i t beta}|^2 by direct quadrature."""
    re, _ = integrate.quad(lambda t: math.cos(2.0 * math.pi * beta * t), 0.0, length,
                           epsabs=1e-14, limit=300)
    im, _ = integrate.quad(lambda t: math.sin(2.0 * math.pi * beta * t), 0.0, length,
                           epsabs=1e-14, limit=300)
    return re * re + im * im


def reduced_square_integral(func, length):
    """Integral of func(t1 - t2)^2 over [0, length]^2 via the lag reduction."""
    val, _ = integrate.quad(lambda tau: func(tau) ** 2 * (length - tau), 0.0, length,
                            epsabs=1e-13, epsrel=1e-12, limit=500)
    return 2.0 * val


class TestIntegralSq:
    def test_known_values(self):
        assert integral_sq(0.0, 1.0) == 1.0
        assert integral_sq(0.0, 0.25) == 0.0625
        assert integral_sq(1.0, 1.0) == pytest.approx(0.0, abs=1e-30)
        assert integral_sq(0.5, 1.0) == pytest.approx(4.0 / math.pi**2, rel=1e-14)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            beta = float(rng.uniform(-8.0, 8.0))
            length = float(rng.uniform(0.2, 2.5))
            assert integral_sq(beta, length) == pytest.approx(
                pair_integral_oracle(beta, length), abs=1e-11)

    def test_vectorized_matches_scalar(self):
        betas = np.array([-3.5, -1.0, 0.0, 1e-15, 0.5, 2.75])
        vec = integral_sq(betas, 0.8)
        assert vec.shape == betas.shape
        for b, v in zip(betas, vec):
            assert v == integral_sq(float(b), 0.8)

    def test_minimum_bound(self):
        rng = np.random.default_rng(11)
        for length in (0.35, 1.0, 2.5):
            beta = rng.uniform(-40.0, 40.0, size=1_000_000)
            vals = integral_sq(beta, length)
            with np.errstate(divide="ignore"):
                cap = np.minimum(length**2, 1.0 / (math.pi**2 * beta**2))
            assert np.all(vals <= cap * (1.0 + 1e-12))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            integral_sq(1.0, 0.0)
        with pytest.raises(ValueError, match="length"):
            integral_sq(1.0, -2.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf,
                                      np.array([0.5, math.nan, 0.0])])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            integral_sq(beta, 1.0)

    def test_zero_and_tiny_beta_give_length_squared(self):
        betas = np.array([0.0, -0.0, 1e-300, -1e-15, 1e-14, 2e-14])
        vals = integral_sq(betas, 0.5)
        assert vals[:5].tolist() == [0.25] * 5
        assert vals[5] == pytest.approx(0.25, rel=1e-12)  # the quotient, finite


class TestQSum:
    def test_unit_shell_axis(self):
        shell = enumerate_shell(1)
        line = LineSegment(AXIS, 1.0)
        assert q_sum(shell, line) == pytest.approx(0.5, abs=1e-16)

    def test_small_length_limit(self):
        shell = enumerate_shell(5)
        line = LineSegment(IRR, 1e-4)
        ratio = q_sum(shell, line) / 1e-8
        assert abs(ratio - 1.0) < 1e-5

    def test_matches_covariance_quadrature(self):
        rng = np.random.default_rng(23)
        admissible = [m for m in range(1, 51) if enumerate_shell(m).n > 0]
        for _ in range(4):
            m = int(rng.choice(admissible))
            shell = enumerate_shell(m)
            line = LineSegment(random_direction(rng), float(rng.uniform(0.3, 2.0)))
            oracle = reduced_square_integral(
                lambda tau: covariance(shell, line, tau, 0.0).r, line.length)
            assert q_sum(shell, line) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("pair_sum", [
        q_sum,
        r2_terms,
        lambda shell, line: pair_sums(shell, line.direction, 0.1),
        lambda shell, line: monte_carlo(shell, line, trials=4, seed=0),
    ], ids=["q_sum", "r2_terms", "pair_sums", "monte_carlo"])
    def test_rejects_empty_shell(self, pair_sum):
        # half_frequencies, which all of them read, rejects the empty shell
        with pytest.raises(ValueError, match="m=7"):
            pair_sum(enumerate_shell(7), LineSegment(AXIS, 1.0))

    @pytest.mark.parametrize("pair_sum", [q_sum, r2_terms])
    def test_overflowing_sum_raises(self, pair_sum):
        # L^2 is finite at L = 1e154, but the sum of the pairs' L^2 terms is not
        line = LineSegment(parse_direction("irr:std"), 1e154)
        with pytest.raises(BoundOverflowError, match="overflows") as err:
            pair_sum(enumerate_shell(5), line)
        assert err.value.parameter == "length"


class TestR2Terms:
    def test_rr_equals_q_sum(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 5, 9, 50):
            shell = enumerate_shell(m)
            line = LineSegment(random_direction(rng), float(rng.uniform(0.3, 2.0)))
            assert r2_terms(shell, line).rr == q_sum(shell, line)

    def test_unit_shell_oracle(self):
        terms = r2_terms(enumerate_shell(1), LineSegment(AXIS, 1.0))
        assert terms.rr == pytest.approx(0.5, abs=1e-16)
        assert terms.r1r1 == pytest.approx(1.0 / 18.0, abs=1e-16)
        assert terms.r2r2 == terms.r1r1
        assert terms.r12r12 == pytest.approx(1.0 / 18.0, abs=1e-16)

    def test_derivative_terms_bounded_by_rr(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = int(rng.choice([2, 3, 5, 6, 9, 10, 11, 50]))
            shell = enumerate_shell(m)
            line = LineSegment(random_direction(rng), float(rng.uniform(0.2, 2.0)))
            terms = r2_terms(shell, line)
            slack = terms.rr * (1.0 + 1e-12)
            assert 0.0 <= terms.r1r1 <= slack
            assert 0.0 <= terms.r12r12 <= slack

    def test_matches_derivative_quadrature(self):
        shell = enumerate_shell(5)
        line = LineSegment(IRR, 0.9)
        terms = r2_terms(shell, line)
        m = shell.m
        quad_r1 = reduced_square_integral(
            lambda tau: covariance(shell, line, tau, 0.0).r1, line.length)
        assert 4.0 * math.pi**2 * m * terms.r1r1 == pytest.approx(quad_r1, rel=1e-8)
        quad_r12 = reduced_square_integral(
            lambda tau: covariance(shell, line, tau, 0.0).r12, line.length)
        assert 16.0 * math.pi**4 * m * m * terms.r12r12 == pytest.approx(
            quad_r12, rel=1e-8)


class TestPairSums:
    def test_unit_shell_axis_split(self):
        shell = enumerate_shell(1)
        parts = pair_sums(shell, AXIS, 0.0, "relative")
        assert parts.s_zero == 18
        assert parts.s_small == 18
        assert parts.inv_sq_sum == pytest.approx(16.5, rel=1e-15)
        assert parts.inv_dist_sq_sum == pytest.approx(8.5, rel=1e-15)

    def test_zero_threshold_small_equals_zero(self):
        rng = np.random.default_rng(41)
        shell = enumerate_shell(9)
        for _ in range(6):
            direction = random_direction(rng)
            for mode in ("relative", "absolute"):
                parts = pair_sums(shell, direction, 0.0, mode)
                assert parts.s_small == parts.s_zero

    def test_monotone_in_rho(self):
        shell = enumerate_shell(50)
        prev = None
        for rho in (0.0, 0.01, 0.1, 0.5, 2.0):
            parts = pair_sums(shell, IRR, rho, "absolute")
            if prev is not None:
                assert parts.s_small >= prev.s_small
                assert parts.inv_sq_sum <= prev.inv_sq_sum + 1e-12
                assert parts.inv_dist_sq_sum <= prev.inv_dist_sq_sum + 1e-12
            prev = parts

    def test_zero_pairs_bounded_by_plane_capacity(self):
        directions = [Direction.rational(*t) for t in
                      [(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (3, 2, 1)]]
        for m in (1, 2, 5, 9, 50, 101):
            shell = enumerate_shell(m)
            cap = shell.n * kappa(shell)
            for direction in directions:
                parts = pair_sums(shell, direction, 0.0, "absolute")
                assert shell.n <= parts.s_zero <= cap

    def test_half_rational_exact_zeros(self):
        direction = Direction.half_rational(0, 1, math.sqrt(2.0))
        parts = pair_sums(enumerate_shell(1), direction, 0.0, "absolute")
        assert parts.s_zero == 8

        shell = enumerate_shell(9)
        u, v = HALF.uv
        count = 0
        for p in shell.coords:
            for q in shell.coords:
                if v * (p[0] - q[0]) + u * (p[1] - q[1]) == 0 and p[2] == q[2]:
                    count += 1
        assert pair_sums(shell, HALF, 0.0, "absolute").s_zero == count

    def test_irrational_near_zero_warning(self, caplog):
        pretend = Direction.irrational(1.0, 1.0, 1.0)
        shell = enumerate_shell(2)
        with caplog.at_level(logging.WARNING, logger="nodal_lab.arithmetic"):
            parts = pair_sums(shell, pretend, 0.0, "absolute")
        assert parts.s_zero > shell.n
        assert any("off-diagonal" in rec.message for rec in caplog.records)

    def test_inverse_square_tail_capacity_bound(self):
        triples = [(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (3, 2, 1)]
        for m in (1, 2, 5, 9, 50, 101, 149):
            shell = enumerate_shell(m)
            cap = shell.n * kappa(shell) * math.pi**2 / 3.0
            for triple in triples:
                direction = Direction.rational(*triple)
                norm_sq = sum(t * t for t in direction.ints)
                parts = pair_sums(shell, direction, 0.0, "absolute")
                assert parts.inv_sq_sum <= norm_sq * cap * (1.0 + 1e-12)

    def test_validation(self):
        shell = enumerate_shell(2)
        with pytest.raises(ValueError, match="rho"):
            pair_sums(shell, AXIS, -0.1)
        with pytest.raises(ValueError, match="rho"):
            pair_sums(shell, AXIS, math.nan)
        with pytest.raises(ValueError, match="mode"):
            pair_sums(shell, AXIS, 0.1, "sideways")
        with pytest.raises(ValueError, match="m=7"):
            pair_sums(enumerate_shell(7), AXIS, 0.1)


class TestVarianceBound:
    def test_rational_example(self):
        shell = enumerate_shell(1)
        report = variance_bound(shell, LineSegment(AXIS, 1.0), BoundMode.RATIONAL)
        assert report.bound_value == report.q_value
        assert report.bound_value == pytest.approx(0.5, abs=1e-16)
        assert report.kappa == 4
        assert report.envelope == {0.0: pytest.approx(4.0 / 6.0)}
        assert report.rho is None
        assert not report.conjecture_assumed

    def test_bound_dominates_q_sum(self):
        rng = np.random.default_rng(43)
        cases = []
        for m in (5, 9, 50):
            cases.append((m, IRR, BoundMode.IRRATIONAL))
            cases.append((m, HALF, BoundMode.HALF_RATIONAL))
            cases.append((m, IRR, BoundMode.CONDITIONAL))
            cases.append((m, HALF, BoundMode.CONDITIONAL))
            cases.append((m, AXIS, BoundMode.CONDITIONAL))
        for m, direction, mode in cases:
            shell = enumerate_shell(m)
            line = LineSegment(direction, float(rng.uniform(0.3, 1.5)))
            report = variance_bound(shell, line, mode)
            assert report.q_value <= report.bound_value * (1.0 + 1e-12)

    def test_default_rho_values(self):
        shell = enumerate_shell(5)
        root = math.sqrt(5.0)
        irr = variance_bound(shell, LineSegment(IRR, 1.0), BoundMode.IRRATIONAL)
        assert irr.rho == pytest.approx(root ** (-6.0 / 7.0), rel=1e-15)
        half = variance_bound(shell, LineSegment(HALF, 1.0), BoundMode.HALF_RATIONAL)
        assert half.rho == pytest.approx(root ** (-4.0 / 5.0), rel=1e-15)
        cond = variance_bound(shell, LineSegment(IRR, 1.0), BoundMode.CONDITIONAL)
        assert cond.rho == pytest.approx(root ** (3.0 / 8.0), rel=1e-15)
        assert cond.conjecture_assumed

    def test_envelope_curves(self):
        # m^-(exponent - eps), the default rho = 3^rho_power at m = 9, and
        # whether the mode rests on the conjecture, for each split mode
        shell = enumerate_shell(9)
        for mode, direction, exponent, rho_power, conjecture in (
                (BoundMode.IRRATIONAL, IRR, 1.0 / 7.0, -6.0 / 7.0, False),
                (BoundMode.HALF_RATIONAL, HALF, 1.0 / 5.0, -4.0 / 5.0, False),
                (BoundMode.CONDITIONAL, AXIS, 1.0 / 4.0, 3.0 / 8.0, True)):
            report = variance_bound(shell, LineSegment(direction, 1.0), mode)
            assert set(report.envelope) == {0.01, 0.05}
            for eps, value in report.envelope.items():
                assert value == pytest.approx(9.0 ** -(exponent - eps), rel=1e-15)
            assert report.rho == pytest.approx(3.0 ** rho_power, rel=1e-15)
            assert report.conjecture_assumed is conjecture

    def test_mode_requires_matching_direction(self):
        shell = enumerate_shell(5)
        with pytest.raises(ValueError, match="rational"):
            variance_bound(shell, LineSegment(IRR, 1.0), BoundMode.RATIONAL)
        with pytest.raises(ValueError, match="half_rational"):
            variance_bound(shell, LineSegment(AXIS, 1.0), BoundMode.HALF_RATIONAL)
        with pytest.raises(ValueError, match="irrational"):
            variance_bound(shell, LineSegment(HALF, 1.0), BoundMode.IRRATIONAL)

    def test_custom_rho_and_extras_pass_through(self):
        shell = enumerate_shell(5)
        report = variance_bound(shell, LineSegment(IRR, 1.0), BoundMode.IRRATIONAL,
                                rho=0.25)
        assert report.rho == 0.25
        assert report.q_value <= report.bound_value * (1.0 + 1e-12)

    # kappa, s_zero, inv_sq_sum, q_value, bound_value, as recorded from the
    # unmodified package in perfbench/reference.json, except that the sums
    # over antipodal classes add in another order: the irrational m=101
    # inv_sq_sum and m=1009 q_value each moved by one ulp
    @pytest.mark.parametrize("m,direction,mode,expected", [
        (101, AXIS, BoundMode.RATIONAL,
         (18, 1920, 3319.835847389243, 0.06802721088435375, 0.06802721088435375)),
        (1009, AXIS, BoundMode.RATIONAL,
         (16, 2720, 1979.917298954643, 0.04722222222222222, 0.04722222222222222)),
        (101, IRR, BoundMode.IRRATIONAL,
         (18, 168, 4951578.946116076, 0.05175636126195175, 0.2024206805100498)),
        (1009, IRR, BoundMode.IRRATIONAL,
         (16, 240, 3291073.7216422795, 0.01810889251389811, 0.11917149271909598)),
    ])
    def test_pinned_report_values(self, m, direction, mode, expected):
        report = variance_bound(enumerate_shell(m), LineSegment(direction, 1.0), mode)
        assert (report.kappa, report.s_zero, report.inv_sq_sum, report.q_value,
                report.bound_value) == expected

    @pytest.mark.parametrize("direction,mode", [
        (AXIS, BoundMode.RATIONAL),
        (IRR, BoundMode.IRRATIONAL),
        (HALF, BoundMode.HALF_RATIONAL),
        (AXIS, BoundMode.CONDITIONAL),
        (IRR, BoundMode.CONDITIONAL),
        (HALF, BoundMode.CONDITIONAL),
    ])
    def test_matches_separate_pair_sums(self, direction, mode):
        for m in (5, 9, 101):
            shell = enumerate_shell(m)
            line = LineSegment(direction, 0.8)
            report = variance_bound(shell, line, mode)
            q_val = q_sum(shell, line)
            whole = pair_sums(shell, direction, 0.0, "absolute")
            assert report.q_value == q_val
            assert report.s_zero == whole.s_zero
            assert report.inv_sq_sum == whole.inv_sq_sum
            n_sq = shell.n * shell.n
            l_sq = line.length * line.length
            pi_sq = math.pi * math.pi
            rho = report.rho
            if mode is BoundMode.RATIONAL:
                bound = q_val
            elif mode is BoundMode.CONDITIONAL:
                parts = pair_sums(shell, direction, rho, "absolute")
                bound = (l_sq * parts.s_small + parts.inv_sq_sum / pi_sq) / n_sq
            else:
                parts = pair_sums(shell, direction, rho, "relative")
                tail = parts.inv_dist_sq_sum / (pi_sq * rho * rho)
                bound = (l_sq * parts.s_small + tail) / n_sq
            assert report.bound_value == bound

    def test_rejects_nan_rho(self):
        shell = enumerate_shell(5)
        with pytest.raises(ValueError, match="rho"):
            variance_bound(shell, LineSegment(IRR, 1.0), BoundMode.IRRATIONAL, rho=math.nan)

    def test_rejects_infinite_rho(self):
        shell = enumerate_shell(5)
        with pytest.raises(ValueError, match="rho"):
            pair_sums(shell, AXIS, math.inf)
        with pytest.raises(ValueError, match="rho"):
            variance_bound(shell, LineSegment(AXIS, 1.0), BoundMode.CONDITIONAL, rho=math.inf)

    @pytest.mark.parametrize("rho", [0.0, 1e-200, 1e-160])
    def test_relative_split_modes_reject_rho_with_zero_square(self, rho):
        # the tail divides by rho^2, which is 0 here (1e-200 underflows) or
        # so small that 1/(pi^2 rho^2) overflows (1e-160)
        shell = enumerate_shell(5)
        for mode, direction in ((BoundMode.IRRATIONAL, IRR), (BoundMode.HALF_RATIONAL, HALF)):
            with pytest.raises(ValueError, match="rho\\^2"):
                check_rho(mode, rho)
            with pytest.raises(ValueError, match="rho\\^2"):
                variance_bound(shell, LineSegment(direction, 1.0), mode, rho=rho)
        check_rho(BoundMode.CONDITIONAL, rho)

    def test_overflowing_tail_raises(self):
        # 1/(pi^2 rho^2) is finite at rho = 1e-154, but the tail sum is not
        shell = enumerate_shell(5)
        for mode, direction in ((BoundMode.IRRATIONAL, IRR), (BoundMode.HALF_RATIONAL, HALF)):
            check_rho(mode, 1e-154)
            with pytest.raises(ValueError, match="overflows"):
                variance_bound(shell, LineSegment(direction, 1.0), mode, rho=1e-154)

    def test_rational_mode_rejects_rho(self):
        shell = enumerate_shell(5)
        with pytest.raises(ValueError, match="rational bound uses no rho"):
            variance_bound(shell, LineSegment(AXIS, 1.0), BoundMode.RATIONAL, rho=0.3)
        report = variance_bound(shell, LineSegment(AXIS, 1.0), BoundMode.RATIONAL)
        assert report.rho is None and report.bound_value == report.q_value
        conditional = variance_bound(shell, LineSegment(AXIS, 1.0), BoundMode.CONDITIONAL,
                                     rho=0.3)
        assert conditional.rho == 0.3

    def test_report_invariants(self):
        shell = enumerate_shell(9)
        line = LineSegment(HALF, 0.8)
        report = variance_bound(shell, line, BoundMode.HALF_RATIONAL)
        n_sq = shell.n**2
        assert report.s_zero >= shell.n
        assert report.q_value >= line.length**2 * report.s_zero / n_sq - 1e-15
        assert report.inv_sq_sum > 0.0
        assert report.m == 9 and report.length == 0.8


class TestRieszEnergy:
    def test_two_antipodal_points(self):
        config = ProjectedShell(m=0, unit_points=np.array([[0.0, 0.0, 1.0],
                                                           [0.0, 0.0, -1.0]]))
        result = riesz_energy(config, 1.0)
        assert result.energy == pytest.approx(1.0, rel=1e-15)
        assert result.limit_i == 1.0
        assert result.normalized_gap == pytest.approx(0.75, rel=1e-15)

    def test_matches_brute_force(self):
        projected = project_shell(enumerate_shell(5))
        sigma = 1.3
        pts = projected.unit_points
        brute = 0.0
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i != j:
                    brute += np.linalg.norm(pts[i] - pts[j]) ** -sigma
        result = riesz_energy(projected, sigma)
        assert result.energy == pytest.approx(brute, rel=1e-12)
        assert result.n == projected.n

    def test_limit_constant(self):
        config = project_shell(enumerate_shell(1))
        assert riesz_energy(config, 1.0).limit_i == 1.0
        assert riesz_energy(config, 0.5).limit_i == pytest.approx(
            math.sqrt(2.0) / 1.5, rel=1e-15)

    def test_gap_shrinks_with_shell_size(self):
        gaps = [riesz_energy(project_shell(enumerate_shell(m)), 1.0).normalized_gap
                for m in (5, 101)]
        assert gaps[1] < gaps[0]

    def test_gap_trend_is_decreasing(self):
        gaps = [riesz_energy(project_shell(enumerate_shell(m)), 1.0).normalized_gap
                for m in (1, 2, 5, 21, 101, 1009)]
        assert negative_trend_p(gaps) < 0.05

    def test_validation(self):
        config = project_shell(enumerate_shell(5))
        for sigma in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(ValueError, match="sigma"):
                riesz_energy(config, sigma)
        lonely = ProjectedShell(m=0, unit_points=np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="two points"):
            riesz_energy(lonely, 1.0)
        broken = ProjectedShell(m=0, unit_points=np.array([[0.0, 0.0, 1.0],
                                                           [math.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            riesz_energy(broken, 1.0)
        # 2 - 2<p, q> is 8 for this antipodal pair, not the true squared distance 16
        long = ProjectedShell(m=0, unit_points=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]]))
        with pytest.raises(ValueError, match="norm 1"):
            riesz_energy(long, 1.0)

    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    def test_coincident_points_in_different_tiles(self, monkeypatch, rows):
        pts = project_shell(enumerate_shell(1)).unit_points.copy()
        monkeypatch.setattr(arithmetic, "TILE_ENTRIES", rows * len(pts))
        # each point's own (zero) distance on the diagonal blocks is left out
        assert riesz_energy(ProjectedShell(m=1, unit_points=pts), 1.0).energy == \
            pytest.approx(dense_riesz_energy(pts, 1.0), rel=1e-12)
        pts[5] = pts[0]  # rows 0 and 5 lie in different tiles unless rows == 6
        with pytest.raises(ValueError, match="coincident"):
            riesz_energy(ProjectedShell(m=1, unit_points=pts), 1.0)


TILE_DIRECTIONS = ["rat:1,0,0", "rat:1,1,1", "irr:std", "halfrat:1,1,sqrt2"]


def modes_for(direction):
    return [BoundMode(direction.rationality.value), BoundMode.CONDITIONAL]


def assert_pair_sums_match(got, want):
    assert (got.s_zero, got.s_small) == (want.s_zero, want.s_small)
    assert got.inv_sq_sum == pytest.approx(want.inv_sq_sum, rel=1e-12)
    assert got.inv_dist_sq_sum == pytest.approx(want.inv_dist_sq_sum, rel=1e-12)


def assert_tiles_match_dense(shell, direction):
    """Every tiled pair sum of one shell against the dense N x N oracle."""
    line = LineSegment(direction, 0.8)
    assert q_sum(shell, line) == pytest.approx(dense_q_sum(shell, line), rel=1e-12)
    terms, want = r2_terms(shell, line), dense_r2_terms(shell, line)
    for name in ("rr", "r1r1", "r2r2", "r12r12"):
        assert getattr(terms, name) == pytest.approx(getattr(want, name), rel=1e-12)
    tables = dense_pair_tables(shell, direction)
    for rho in (0.0, 0.05, 0.3, 2.0):
        for split in ("relative", "absolute"):
            assert_pair_sums_match(pair_sums(shell, direction, rho, split),
                                   dense_split_sums(tables, rho, split))
    for mode in modes_for(direction):
        report = variance_bound(shell, line, mode)
        q_val, whole, bound = dense_bound(shell, line, mode, report.rho)
        assert report.s_zero == whole.s_zero
        assert report.inv_sq_sum == pytest.approx(whole.inv_sq_sum, rel=1e-12)
        assert report.q_value == pytest.approx(q_val, rel=1e-12)
        assert report.bound_value == pytest.approx(bound, rel=1e-12)
    projected = project_shell(shell)
    assert riesz_energy(projected, 1.3).energy == pytest.approx(
        dense_riesz_energy(projected.unit_points, 1.3), rel=1e-12)


class TestTiledPairSums:
    """The block-triangular row tiles against the dense N x N oracle."""

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("spec", TILE_DIRECTIONS)
    @pytest.mark.parametrize("m", [1, 2, 5, 9, 101])
    def test_small_tiles_match_dense(self, monkeypatch, m, spec, rows):
        shell = enumerate_shell(m)
        monkeypatch.setattr(arithmetic, "TILE_ENTRIES", rows * shell.n)
        assert_tiles_match_dense(shell, parse_direction(spec))

    @pytest.mark.parametrize("spec", TILE_DIRECTIONS)
    def test_default_tiles_match_dense(self, spec):
        shell = enumerate_shell(3001)
        assert shell.n == 480 and shell.n * shell.n > arithmetic.TILE_ENTRIES
        assert_tiles_match_dense(shell, parse_direction(spec))

    @pytest.mark.parametrize("spec", TILE_DIRECTIONS)
    def test_single_tile_is_the_dense_sum(self, spec):
        # N^2 <= TILE_ENTRIES: one tile, reduced exactly as the whole signed
        # half table, and to rounding as the N x N table
        shell = enumerate_shell(101)
        direction = parse_direction(spec)
        line = LineSegment(direction, 0.8)
        assert q_sum(shell, line) == half_q_sum(shell, line)
        assert q_sum(shell, line) == pytest.approx(dense_q_sum(shell, line), rel=1e-12)
        terms, want = r2_terms(shell, line), dense_r2_terms(shell, line)
        assert terms == half_r2_terms(shell, line)
        for name in ("rr", "r1r1", "r2r2", "r12r12"):
            assert getattr(terms, name) == pytest.approx(getattr(want, name), rel=1e-12)
        half, dense = half_pair_tables(shell, direction), dense_pair_tables(shell, direction)
        for split in ("relative", "absolute"):
            got = pair_sums(shell, direction, 0.3, split)
            assert got == half_split_sums(half, 0.3, split)
            assert_pair_sums_match(got, dense_split_sums(dense, 0.3, split))
        projected = project_shell(shell)
        assert riesz_energy(projected, 1.0).energy == \
            dense_riesz_energy(projected.unit_points, 1.0)

    @pytest.mark.parametrize("spec", TILE_DIRECTIONS)
    @pytest.mark.parametrize("m", [1, 5, 9, 101, 1009])
    def test_signed_half_tables_hold_every_dense_summand(self, m, spec):
        # the summands over antipodal classes, counted twice, are the N x N
        # table's summands bit for bit; only the order of addition differs
        shell = enumerate_shell(m)
        direction = parse_direction(spec)
        half = half_pair_tables(shell, direction)
        tiles = arithmetic._pair_tables(shell, direction)(0, shell.n // 2)
        for got, want in zip(tiles, half):
            assert np.array_equal(got, want)
        beta, zero, dist_sq, inv_beta_sq = half
        dense_beta, dense_zero, dense_dist_sq, dense_inv_beta_sq = \
            dense_pair_tables(shell, direction)

        def doubled(values):
            return np.sort(np.repeat(values.ravel(), 2))

        pairs = [(np.abs(beta), np.abs(dense_beta)),
                 (integral_sq(beta, 0.8), integral_sq(dense_beta, 0.8)),
                 (inv_beta_sq, dense_inv_beta_sq),
                 (dist_sq, dense_dist_sq)]
        for folded, dense in pairs:
            assert np.array_equal(doubled(folded), np.sort(dense.ravel()))
        assert 2 * int(zero.sum()) == int(dense_zero.sum())

    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_near_zero_warning_fires_once_with_dense_count(self, monkeypatch, caplog, rows):
        pretend = Direction.irrational(1.0, 1.0, 1.0)
        shell = enumerate_shell(9)
        monkeypatch.setattr(arithmetic, "TILE_ENTRIES", rows * shell.n)
        extra = int(dense_pair_tables(shell, pretend)[1].sum()) - shell.n
        assert extra > 0
        calls = [lambda: pair_sums(shell, pretend, 0.0, "absolute"),
                 lambda: pair_sums(shell, pretend, 0.3, "relative"),
                 lambda: variance_bound(shell, LineSegment(pretend, 1.0),
                                        BoundMode.IRRATIONAL)]
        for call in calls:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="nodal_lab.arithmetic"):
                call()
            warnings = [rec for rec in caplog.records if "off-diagonal" in rec.message]
            assert len(warnings) == 1
            assert warnings[0].args[1] == extra


def test_pair_sums_memory_stays_below_one_dense_table():
    """Each pair sum at N=1920 peaks below one N x N float64 table (29.5 MB)
    and below ten float64 tiles of TILE_ENTRIES entries (5.2 MB)."""
    shell = enumerate_shell(10001)
    assert shell.n == 1920
    dense_bytes = shell.n * shell.n * 8
    direction = parse_direction("irr:std")
    line = LineSegment(direction, 1.0)
    projected = project_shell(shell)
    calls = {
        "q_sum": lambda: q_sum(shell, line),
        "pair_sums relative": lambda: pair_sums(shell, direction, 0.01, "relative"),
        "pair_sums absolute": lambda: pair_sums(shell, direction, 0.0, "absolute"),
        "r2_terms": lambda: r2_terms(shell, line),
        "riesz_energy": lambda: riesz_energy(projected, 1.0),
    }
    tracemalloc.start()
    try:
        for name, call in calls.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < dense_bytes, f"{name} peaked at {peak} bytes"
            assert peak < 10 * arithmetic.TILE_ENTRIES * 8, f"{name} peaked at {peak} bytes"
    finally:
        tracemalloc.stop()


def test_shell_out_of_antipodal_order_is_rejected():
    # rows 0 and 5 of the m=1 shell are antipodes; moving row 5 into the half
    # shell would fold (mu, -mu) in and leave another pair out, silently
    shell = enumerate_shell(1)
    shuffled = dataclasses.replace(shell, coords=shell.coords[[0, 5, 1, 2, 3, 4]])
    line = LineSegment(IRR, 1.0)
    calls = [lambda: half_frequencies(shuffled, IRR.components),
             lambda: q_sum(shuffled, line),
             lambda: pair_sums(shuffled, IRR, 0.3),
             lambda: r2_terms(shuffled, line),
             lambda: variance_bound(shuffled, line, BoundMode.IRRATIONAL),
             lambda: count_zeros(sample_wave(shuffled, 0), line)]
    for call in calls:
        with pytest.raises(ValueError, match="antipode"):
            call()
    assert q_sum(shell, line) == pytest.approx(dense_q_sum(shell, line), rel=1e-12)
