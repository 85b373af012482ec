"""Tests for the pair sums, variance bounds and Riesz energies."""

import dataclasses
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from nodal_lab import arithmetic, randomwave
from nodal_lab.arithmetic import (
    BoundMode,
    BoundOverflowError,
    bound_mode,
    check_rho,
    integral_sq,
    pair_sums,
    q_sum,
    r2_terms,
    riesz_energy,
    variance_bound,
)
from nodal_lab.cli import ZETA_CATALOG, parse_direction
from nodal_lab.diophantine import Direction, Rationality
from nodal_lab.geometry import kappa
from nodal_lab.lattice import ProjectedShell, Shell, classify_m, enumerate_shell, project_shell
from nodal_lab.nodal import count_zeros, monte_carlo
from nodal_lab.randomwave import (
    LineSegment,
    covariance,
    half_frequencies,
    line_frequencies,
    sample_wave,
    second_moment_ratio,
)

from helpers_arithmetic import (
    dense_bound,
    dense_pair_tables,
    dense_q_sum,
    dense_r2_terms,
    dense_riesz_energy,
    dense_split_sums,
    exact_small_mask,
    half_pair_tables,
    half_q_sum,
    half_r2_terms,
    half_riesz_energy,
    half_split_sums,
    mp_pair_sums,
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
        for length in (math.inf, 1e200):  # the square overflows
            with pytest.raises(ValueError, match="length"):
                integral_sq(0.3, length)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf,
                                      np.array([0.5, math.nan, 0.0])])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            integral_sq(beta, 1.0)

    def test_overflowing_phase_gives_zero(self):
        # pi L beta overflows (sin(inf) is NaN) or pi^2 beta^2 does; the
        # value, at most 1 / (pi beta)^2, is then below the smallest normal
        # float64.  A warning fails the test too.
        assert integral_sq(1e308, 1.0) == 0.0
        assert integral_sq(1e300, 1e150) == 0.0
        vals = integral_sq(np.array([-1e308, 1e160, 0.5]), 1.0)
        assert vals[:2].tolist() == [0.0, 0.0]
        assert vals[2] == pytest.approx(4.0 / math.pi**2, rel=1e-14)

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
        lambda shell, line: variance_bound(shell, line, BoundMode.RATIONAL),
        lambda shell, line: sample_wave(shell, 0),
        lambda shell, line: covariance(shell, line, 0.0, 0.0),
        lambda shell, line: project_shell(shell),
        lambda shell, line: kappa(shell),
    ], ids=["q_sum", "r2_terms", "pair_sums", "monte_carlo", "variance_bound",
            "sample_wave", "covariance", "project_shell", "kappa"])
    def test_rejects_empty_shell(self, pair_sum):
        # one lattice check, which half_frequencies and every other reader of
        # the shell's points call, rejects the empty shell
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

    @pytest.mark.parametrize("length", [1e-20, 1e-50])
    def test_r1r1_keeps_its_digits_at_tiny_lengths(self, length):
        # as L -> 0, integral_sq - L^2 -> -(pi L beta)^2 L^2 / 3, and with
        # sum w = 0 and sum b^2 = N m / 3 over the shell, r1r1 / L^4 tends to
        # 2 pi^2 m / 27 (3.6554 on E(5)); r1r1 goes subnormal below L ~ 1e-77
        terms = r2_terms(enumerate_shell(5), LineSegment(IRR, length))
        assert terms.r1r1 / length**4 == pytest.approx(2 * math.pi**2 * 5 / 27, rel=1e-12)


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

    @pytest.mark.parametrize("spec", ["rat:1,0,0", "rat:1,1,1", "halfrat:1,1,sqrt2", "irr:std"])
    @pytest.mark.parametrize("own", [True, False], ids=["own", "conditional"])
    @given(m=st.sampled_from([m for m in range(1, 301) if classify_m(m).primitive]),
           log_length=st.floats(-3.0, 3.0))
    def test_bound_dominates_q_sum_property(self, spec, own, m, log_length):
        # at every admissible m <= 300 and L log-uniform in [1e-3, 1e3], in
        # the direction's own mode and in the conditional one
        direction = parse_direction(spec)
        mode = bound_mode(direction) if own else BoundMode.CONDITIONAL
        line = LineSegment(direction, 10.0 ** log_length)
        report = variance_bound(enumerate_shell(m), line, mode)
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

    @pytest.mark.parametrize("direction,own", [(AXIS, BoundMode.RATIONAL),
                                               (IRR, BoundMode.IRRATIONAL),
                                               (HALF, BoundMode.HALF_RATIONAL)])
    @pytest.mark.parametrize("by_value", [False, True])
    def test_bound_mode_maps_each_class(self, direction, own, by_value):
        assert bound_mode(direction) is own
        # callers that pass BoundMode(direction.rationality.value) get the same mode
        assert bound_mode(direction) is BoundMode(direction.rationality.value)
        article = {BoundMode.RATIONAL: "a", BoundMode.IRRATIONAL: "an",
                   BoundMode.HALF_RATIONAL: "a"}
        for mode in BoundMode:
            given = mode.value if by_value else mode
            if mode in (own, BoundMode.CONDITIONAL):
                assert bound_mode(direction, given) is mode
                continue
            with pytest.raises(ValueError) as info:
                bound_mode(direction, given)
            assert str(info.value) == (f"mode {mode.value} needs {article[mode]} {mode.value} "
                                       f"direction, got {own.value}")

    def test_custom_rho_and_extras_pass_through(self):
        shell = enumerate_shell(5)
        report = variance_bound(shell, LineSegment(IRR, 1.0), BoundMode.IRRATIONAL,
                                rho=0.25)
        assert report.rho == 0.25
        assert report.q_value <= report.bound_value * (1.0 + 1e-12)

    # kappa, s_zero, inv_sq_sum, q_value, bound_value, as recorded from the
    # unmodified package in perfbench/reference.json, except that the sums
    # over antipodal classes add in another order: the irrational m=101
    # inv_sq_sum and m=1009 q_value each moved by one ulp.  The rational
    # inv_sq_sum values moved by one ulp each when the rational sums went over
    # frequency classes; the exact sums are 3319.835847389243149901... and
    # 1979.917298954643129150..., so both old and new values lie within one
    # ulp of them
    @pytest.mark.parametrize("m,direction,mode,expected", [
        (101, AXIS, BoundMode.RATIONAL,
         (18, 1920, 3319.8358473892436, 0.06802721088435375, 0.06802721088435375)),
        (1009, AXIS, BoundMode.RATIONAL,
         (16, 2720, 1979.9172989546435, 0.04722222222222222, 0.04722222222222222)),
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

    @pytest.mark.parametrize("mode", [BoundMode.IRRATIONAL, BoundMode.CONDITIONAL])
    def test_overflowing_small_pairs_raise(self, mode):
        # q_sum's L^2 terms are the zero pairs alone and stay finite at
        # L = 1e153, but L^2 s_small of the split does not
        shell = enumerate_shell(5)
        line = LineSegment(IRR, 1e153)
        assert math.isfinite(q_sum(shell, line))
        with pytest.raises(BoundOverflowError, match=(
                f"the {mode.value} bound overflows at m=5 for length=1e\\+153")) as err:
            variance_bound(shell, line, mode)
        assert err.value.parameter == "length"

    @pytest.mark.parametrize("spec", ["irr:std", "halfrat:1,1,sqrt2"])
    def test_absolute_splits_build_no_distance_tile(self, monkeypatch, spec):
        # the conditional bound reads no |mu - mu'|: both of its splits are
        # absolute and it sums no 1/|mu - mu'|^2 tail
        def no_distances(*args, **kwargs):
            raise AssertionError("built a |mu - mu'|^2 tile")

        shell = enumerate_shell(101)
        line = LineSegment(parse_direction(spec), 0.8)
        want = variance_bound(shell, line, BoundMode.CONDITIONAL)
        monkeypatch.setattr(arithmetic, "_signed_dist_sq", no_distances)
        assert variance_bound(shell, line, BoundMode.CONDITIONAL) == want

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
        # rows 0 and 1 of the half shell coincide, and so do their antipodes
        # 5 and 4, which keeps the antipodal order; they lie in different
        # tiles when rows == 1
        pts[1] = pts[0]
        pts[4] = pts[5]
        with pytest.raises(ValueError, match="coincident"):
            riesz_energy(ProjectedShell(m=1, unit_points=pts), 1.0)


TILE_DIRECTIONS = ["rat:1,0,0", "rat:1,1,1", "irr:std", "halfrat:1,1,sqrt2"]
# half-rational lines whose zero pairs lie off the swaps (x, y, z) <-> (y, x, z)
MORE_HALF_RATIONAL = ["halfrat:0,1,sqrt2", "halfrat:2,3,sqrt3"]


# (1, -1, 0) . alpha = -2e-4 / |alpha|: pairs with 0 < |beta| < 1e-3
NEAR_ZERO = Direction.irrational(1.0, 1.0 + 2e-4, math.sqrt(2.0), label="irr:near-zero")
ORACLE_DIRECTIONS = [parse_direction(spec) for spec in TILE_DIRECTIONS] + [NEAR_ZERO]


def modes_for(direction):
    return [bound_mode(direction), BoundMode.CONDITIONAL]


def assert_pair_sums_match(got, want):
    assert (got.s_zero, got.s_small) == (want.s_zero, want.s_small)
    assert got.inv_sq_sum == pytest.approx(want.inv_sq_sum, rel=1e-12)
    assert got.inv_dist_sq_sum == pytest.approx(want.inv_dist_sq_sum, rel=1e-12)


def oracle_split_sums(shell, direction, tables, rho, split):
    """dense_split_sums of the dense tables; for a rational direction with the
    exact small mask, as the kernels decide it, not the float64 beta's."""
    small = None
    if direction.rationality is Rationality.RATIONAL:
        small = exact_small_mask(shell, direction, rho, split)
    return dense_split_sums(tables, rho, split, small)


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
                                   oracle_split_sums(shell, direction, tables, rho, split))
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


def assert_classes_hold_every_dense_key_difference(shell, direction):
    """Twice the signed class table, each entry k_i -+ k_j counted h_i h_j
    times, is the multiset of the N x N table's key differences: the class
    sums add every dense summand, each exactly as often as the dense sum."""
    ints = np.array(direction.ints, dtype=np.int64)
    keys, counts, _ = randomwave._frequency_classes(shell, direction)
    keys, counts = keys.astype(np.int64), counts.astype(np.int64)
    assert np.array_equal(np.sort(np.repeat(keys, counts)),
                          np.sort(shell.coords[: shell.n // 2] @ ints))
    table = np.abs(keys[:, None] - np.stack((keys, -keys))[:, None, :])
    weights = np.broadcast_to(counts[:, None] * counts[None, :], table.shape)
    values, inverse = np.unique(table, return_inverse=True)
    class_counts = np.bincount(inverse.ravel(), weights=weights.ravel())
    dense = shell.coords @ ints
    dense_values, dense_counts = np.unique(np.abs(dense[:, None] - dense[None, :]),
                                           return_counts=True)
    assert np.array_equal(values, dense_values)
    assert np.array_equal(2 * class_counts.astype(np.int64), dense_counts)


class TestTiledPairSums:
    """The block-triangular row tiles against the dense N x N oracle."""

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("spec", TILE_DIRECTIONS + MORE_HALF_RATIONAL)
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
        # half table, and to rounding as the N x N table.  A rational
        # direction's sums run over frequency classes instead, not over this
        # table: they match the 40-digit oracle to 1e-14.
        shell = enumerate_shell(101)
        direction = parse_direction(spec)
        line = LineSegment(direction, 0.8)
        rational = direction.rationality is Rationality.RATIONAL
        terms, want = r2_terms(shell, line), dense_r2_terms(shell, line)
        if rational:
            q, r1r1, r12r12 = mp_pair_sums(shell, line)
            assert q_sum(shell, line) == pytest.approx(q, rel=1e-14)
            assert terms.r1r1 == pytest.approx(r1r1, rel=1e-14)
            assert terms.r12r12 == pytest.approx(r12r12, rel=1e-14)
        else:
            assert q_sum(shell, line) == half_q_sum(shell, line)
            assert terms == half_r2_terms(shell, line)
        assert q_sum(shell, line) == pytest.approx(dense_q_sum(shell, line), rel=1e-12)
        for name in ("rr", "r1r1", "r2r2", "r12r12"):
            assert getattr(terms, name) == pytest.approx(getattr(want, name), rel=1e-12)
        half, dense = half_pair_tables(shell, direction), dense_pair_tables(shell, direction)
        for split in ("relative", "absolute"):
            got = pair_sums(shell, direction, 0.3, split)
            if not rational:
                assert got == half_split_sums(half, 0.3, split)
            assert_pair_sums_match(got, oracle_split_sums(shell, direction, dense, 0.3, split))
            # rho = 0: the split behind the s_zero and inv_sq_sum bounds reports
            if not rational:
                assert pair_sums(shell, direction, 0.0, split) == half_split_sums(half, 0.0, split)
        projected = project_shell(shell)
        energy = riesz_energy(projected, 1.0).energy
        assert energy == half_riesz_energy(projected.unit_points, 1.0)
        assert energy == pytest.approx(dense_riesz_energy(projected.unit_points, 1.0),
                                       rel=1e-12)

    @pytest.mark.parametrize("spec", TILE_DIRECTIONS)
    @pytest.mark.parametrize("m", [1, 5, 9, 101, 1009])
    def test_signed_half_tables_hold_every_dense_summand(self, m, spec):
        # the summands over antipodal classes, counted twice, are the N x N
        # table's summands bit for bit; only the order of addition differs
        shell = enumerate_shell(m)
        direction = parse_direction(spec)
        if direction.rationality is Rationality.RATIONAL:
            # a rational direction's beta-only sums run over frequency classes
            assert_classes_hold_every_dense_key_difference(shell, direction)
            return
        half = half_pair_tables(shell, direction)
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

    @pytest.mark.parametrize("rows", [1, 10, 83])
    def test_ragged_tiles_reuse_stale_buffers_safely(self, monkeypatch, rows):
        # the 84 half-shell rows of m=101 run as tiles of rows x (84 - lo)
        # entries per block, smaller each time, the last one holding 1 row
        # (rows 1 and 83) or 4 (rows 10); every tile is a view into the first
        # tile's buffers, whose stale entries no sum may read
        shell = enumerate_shell(101)
        half = shell.n // 2
        monkeypatch.setattr(arithmetic, "TILE_ENTRIES", rows * shell.n)
        tile_rows = [min(rows, half - lo) for lo in range(0, half, rows)]
        assert len(tile_rows) > 1 and tile_rows[-1] == (4 if rows == 10 else 1)
        for direction in ORACLE_DIRECTIONS:
            tables = dense_pair_tables(shell, direction)
            for rho in (0.0, 0.05, 0.3, 2.0):
                for split in ("relative", "absolute"):
                    assert_pair_sums_match(
                        pair_sums(shell, direction, rho, split),
                        oracle_split_sums(shell, direction, tables, rho, split))
        projected = project_shell(shell)
        assert riesz_energy(projected, 1.3).energy == pytest.approx(
            half_riesz_energy(projected.unit_points, 1.3), rel=1e-12)

    def test_tiles_are_views_of_one_buffer_per_dtype(self):
        # m = 10001: 960 half rows, 34 per tile, in 29 tiles; the first and
        # largest tile spans each flat buffer whole
        half = enumerate_shell(10001).n // 2
        dtypes = (np.float64, bool)
        tiles = []

        def tile_sums(lo, hi, *views):
            assert [(v.shape, v.dtype) for v in views] == [
                ((2, hi - lo, half - lo), np.dtype(dtype)) for dtype in dtypes]
            tiles.append(views)
            return (hi - lo,)

        assert arithmetic._over_half_shell(10001, half, dtypes, tile_sums) == (2 * half,)
        assert len(tiles) == 29
        bases = [view.base for view in tiles[0]]
        for view, base in zip(tiles[0], bases):
            assert base.ndim == 1 and view.size == base.size
            assert view.ctypes.data == base.ctypes.data
        for views in tiles:
            assert all(view.base is base for view, base in zip(views, bases))

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8, 2.0**51, 1e300])
    def test_pair_differences_are_the_subtraction_bit_for_bit(self, scale):
        # each entry of the (x_i, 1) @ (1, -+x_j) product is x_i -+ x_j
        # rounded once, sign of zero and overflow to inf included
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(301) * scale
            if scale == 2.0**51:
                x = np.rint(x)  # the exact integer keys of a rational direction
            x[:3] = 0.0
            out = np.empty((2, 43, 284))
            with np.errstate(over="ignore"):
                arithmetic._pair_cross(x, np.ones_like(x))(17, 60, out)
                want = x[17:60, None] - np.stack((x, -x))[:, None, 17:]
            assert np.array_equal(out, want)
            assert np.array_equal(np.signbit(out), np.signbit(want))

    @pytest.mark.parametrize("rho", [0.0, 0.019, 0.3, 2.0, 1e300, 1.0, 1.0 - 2.0**-50])
    @pytest.mark.parametrize("direction", [IRR, HALF, AXIS,
                                           parse_direction("rat:1,1000,2147483647")])
    def test_relative_split_candidates_give_the_whole_tile_mask(self, direction, rho):
        # the float64 threshold runs only on the keys that can pass it; a
        # rational direction's integer keys |k| are decided exactly, as
        # k^2 <= rho^2 |a|^2 d^2 (along AXIS, k = d for the pairs that differ
        # in x alone: at rho = 1 and just below it the float64 threshold
        # cannot tell whether they pass)
        rational = direction.rationality is Rationality.RATIONAL
        shell = enumerate_shell(101 if rational else 1009)
        half = shell.coords[: shell.n // 2]
        if rational:
            b = (half @ np.array(direction.ints)).astype(np.float64)
        else:
            b = half_frequencies(shell, direction.components)
        key = np.abs(b[:, None] - np.stack((b, -b))[:, None, :])
        gram = (half @ half.T).astype(np.float64)
        dist_sq = np.stack((2.0 * shell.m - 2.0 * gram, 2.0 * shell.m + 2.0 * gram))
        small = np.empty(key.shape, dtype=bool)
        if rational:
            norm_sq = sum(c * c for c in direction.ints)
            arithmetic._relative_small(rho, norm_sq, shell.m)(key, dist_sq, small)
            limit = Fraction(rho) ** 2 * norm_sq
            want = [int(k) ** 2 <= limit * int(d) for k, d in zip(key.flat, dist_sq.flat)]
            assert small.ravel().tolist() == want
        else:
            arithmetic._float_relative_small(rho, shell.m)(key, dist_sq, small)
            assert np.array_equal(small, key <= rho * np.sqrt(dist_sq))

    @pytest.mark.parametrize("uv_slope", [(1, 1, "sqrt2"), (0, 1, "sqrt2"), (2, 3, "sqrt3"),
                                          (2**30, 2**30 - 1, "sqrt5")])
    def test_half_rational_zero_pairs_are_keyed_under_the_cap(self, uv_slope):
        # every pair whose int64 key differences are both 0 has a float key
        # |beta| within the rounding bound of _half_rational_zero_pairs, far
        # under the cap, so the candidate test marks exactly those pairs
        u, v, slope = uv_slope
        direction = Direction.half_rational(u, v, ZETA_CATALOG[slope])
        assert direction.uv == (u, v)
        for m in [*range(1, 300), 1009, 3001, 10001]:
            shell = enumerate_shell(m)
            if shell.n == 0:
                continue
            beta, zero = half_pair_tables(shell, direction)[:2]
            key = np.abs(beta)
            root_m = math.sqrt(m)
            assert key[zero].max() < 8.1 * 2.0**-53 * root_m <= arithmetic._ZERO_KEY_CAP * root_m
            got = np.zeros(key.shape, dtype=bool)
            zero_pairs = arithmetic._half_rational_zero_pairs(
                shell.coords[: shell.n // 2], direction.uv, m)
            zero_pairs(0, key, got)
            assert np.array_equal(got, zero), m

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


class TestPhaseTiles:
    """integral_sq tiles whose numerators come from per-row phases."""

    @pytest.mark.parametrize("length", [1e-3, 0.8, 7.3])
    @pytest.mark.parametrize("direction", ORACLE_DIRECTIONS, ids=lambda d: d.label)
    @pytest.mark.parametrize("m", [5, 101])
    def test_matches_mpmath(self, m, direction, length):
        # at L = 1e-3 every entry has |pi L beta| < 1 and comes from integral_sq
        pytest.importorskip("mpmath")
        shell = enumerate_shell(m)
        line = LineSegment(direction, length)
        q, r1r1, r12r12 = mp_pair_sums(shell, line)
        terms = r2_terms(shell, line)
        assert q_sum(shell, line) == pytest.approx(q, rel=1e-14)
        assert terms.rr == pytest.approx(q, rel=1e-14)
        assert terms.r12r12 == pytest.approx(r12r12, rel=1e-14)
        # r1r1's summands w_i w_j integral_sq carry both signs and nearly
        # cancel at small L (sum w = 0); summing w_i w_j (integral_sq - L^2)
        # keeps it accurate relative to itself
        assert abs(terms.r1r1 - r1r1) <= 1e-14 * abs(r1r1)

    def test_integral_sq_deficit_matches_mpmath(self):
        # L^2 - integral_sq = L^2 (1 - (sin x / x)^2) at x = pi L beta, within
        # 2 ulp over |x| <= 1 and exactly 0 at x = 0
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate(([1e-150, 1e-8, 1e-4], np.linspace(1e-3, 1.0, 200)))
        xs = np.concatenate((xs, -xs))
        got = arithmetic._integral_sq_deficit(xs, 2.5)
        with mpmath.workdps(40):
            for x, value in zip(xs, got):
                x = mpmath.mpf(float(x))
                want = float(2.5 * (1 - (mpmath.sin(x) / x) ** 2))
                assert value == pytest.approx(want, rel=4.5e-16)
        assert arithmetic._integral_sq_deficit(np.zeros(3), 2.5).tolist() == [0.0] * 3

    @pytest.mark.parametrize("m", [5, 101])
    def test_near_zero_direction_has_tiny_pair_frequencies(self, m):
        beta = np.abs(half_pair_tables(enumerate_shell(m), NEAR_ZERO)[0])
        assert np.any((beta > 0) & (beta < 1e-3))

    @pytest.mark.parametrize("length", [1e-3, 0.8, 7.3])
    @pytest.mark.parametrize("direction", ORACLE_DIRECTIONS, ids=lambda d: d.label)
    def test_near_entries_are_integral_sq(self, direction, length):
        # the entries with |pi L beta| < 1, every zero pair among them, are
        # integral_sq's own values bit for bit
        shell = enumerate_shell(101)
        b = half_frequencies(shell, direction.components)
        half = shell.n // 2
        views = [np.empty((2, half, half), dtype) for dtype in arithmetic._INTEGRAL_SQ_DTYPES]
        eye, _, _ = arithmetic._integral_sq_tiles(b, length)(0, half, *views)
        beta = half_pair_tables(shell, direction)[0]
        near = np.abs(math.pi * length * beta) < 1
        assert np.count_nonzero(near) >= shell.n // 2
        assert np.array_equal(eye[near], integral_sq(beta[near], length))


# rat:1,1000,2147483647 gives every half-shell point a key of its own up to
# m = 10^5 (|mu_1|, |mu_2| < 500); rat:1,0,2147483647 keys share a class
# between (x, y, z) and (x, -y, z)
CLASS_DIRECTIONS = ["rat:1,0,0", "rat:1,1,1", "rat:1,2,3", "rat:1,0,2147483647",
                    "rat:1,1000,2147483647"]


class TestFrequencyClasses:
    """Rational pair sums over frequency classes against the dense N x N and
    the 40-digit oracles."""

    @pytest.mark.parametrize("spec", CLASS_DIRECTIONS)
    @pytest.mark.parametrize("m", [1, 2, 5, 9, 101, 3001])
    def test_class_sums_match_oracles(self, monkeypatch, m, spec):
        pytest.importorskip("mpmath")
        shell = enumerate_shell(m)
        direction = parse_direction(spec)
        n_classes = len(randomwave._frequency_classes(shell, direction)[0])
        tables = dense_pair_tables(shell, direction)
        splits = [(rho, split) for rho in (0.0, 0.05, 0.3, 2.0)
                  for split in ("relative", "absolute")]
        split_sums = [oracle_split_sums(shell, direction, tables, rho, split)
                      for rho, split in splits]
        lines = [LineSegment(direction, length) for length in (1e-3, 0.8, 7.3)]
        oracles = [(dense_q_sum(shell, line), dense_r2_terms(shell, line),
                    mp_pair_sums(shell, line)) for line in lines]
        for rows in (1, 7):
            # rows classes per tile; the point sweep gets at most as many
            monkeypatch.setattr(arithmetic, "TILE_ENTRIES", rows * 2 * n_classes)
            for line, (dense_q, dense_terms, (q, r1r1, r12r12)) in zip(lines, oracles):
                terms = r2_terms(shell, line)
                assert terms.rr == q_sum(shell, line)
                assert terms.rr == pytest.approx(dense_q, rel=1e-12)
                assert terms.r12r12 == pytest.approx(dense_terms.r12r12, rel=1e-12)
                if line.length > 1e-3:
                    # at L = 1e-3 the dense w_i w_j integral_sq sum cancels
                    # most of its digits; the 40-digit oracle checks r1r1 there
                    assert terms.r1r1 == pytest.approx(dense_terms.r1r1, rel=1e-12)
                assert terms.rr == pytest.approx(q, rel=1e-14)
                assert terms.r1r1 == pytest.approx(r1r1, rel=1e-14)
                assert terms.r12r12 == pytest.approx(r12r12, rel=1e-14)
            for (rho, split), want in zip(splits, split_sums):
                assert_pair_sums_match(pair_sums(shell, direction, rho, split), want)

    def test_distinct_keys_give_one_class_per_point(self):
        shell = enumerate_shell(3001)
        distinct = parse_direction("rat:1,1000,2147483647")
        keys, counts, _ = randomwave._frequency_classes(shell, distinct)
        assert len(keys) == shell.n // 2 and np.all(counts == 1)
        keys, counts, _ = randomwave._frequency_classes(shell, parse_direction("rat:1,1,1"))
        assert len(keys) < shell.n // 4 and counts.sum() == shell.n // 2

    @pytest.mark.parametrize("spec,m,rho,split,exact,float_beta", [
        # rho = 1/sqrt(2) rounded down: the pairs with |k| = 1 have
        # |beta| = 1/sqrt(2) > rho, but the float64 component 1/sqrt(2)
        # rounds down to rho itself, so the float beta of (e1, e3) equals rho
        ("rat:1,1,0", 1, 0.7071067811865475, "absolute", 12, 28),
        # rho = 2/sqrt(3) rounded up: the pairs with |k| = 2 have
        # |beta| = 2/sqrt(3) < rho, but their float beta 3c - c, with c the
        # float64 component 1/sqrt(3), rounds above rho
        ("rat:1,1,1", 3, 1.1547005383792517, "absolute", 50, 38),
        # rho = 0.3 of the test grid: the pairs with |k| = 21 and
        # |mu - mu'|^2 = 350 meet 21^2 = 0.09 * 14 * 350 exactly, so the
        # float64 rho, just below 0.3, leaves them out; the float beta and
        # float threshold rho sqrt(350) put some of them in
        ("rat:1,2,3", 101, 0.3, "relative", 8556, 8560),
    ])
    def test_split_is_exact_where_float_beta_is_not(self, spec, m, rho, split, exact,
                                                    float_beta):
        # the kernels decide |k| <= rho |a| (absolute) and
        # |k| <= rho |a| |mu - mu'| (relative) in exact arithmetic; the dense
        # float oracle compares the float64 beta = b_i - b_j with a float64
        # threshold, and its rounding moves a pair across a threshold that
        # sits on it.  The exact rational count agrees with the kernels.
        shell = enumerate_shell(m)
        direction = parse_direction(spec)
        want = int(exact_small_mask(shell, direction, rho, split).sum())
        got = pair_sums(shell, direction, rho, split).s_small
        dense = dense_split_sums(dense_pair_tables(shell, direction), rho, split).s_small
        assert (want, got, dense) == (exact, exact, float_beta)

    def test_key_limit_is_exact_for_huge_rho(self):
        assert arithmetic._key_limit(0.0, 14) == 0
        assert arithmetic._key_limit(2.0, 14) == 7
        assert arithmetic._key_limit(1e300, 3) == 2**53
        shell = enumerate_shell(5)
        direction = parse_direction("rat:1,2,3")
        for split in ("relative", "absolute"):
            sums = pair_sums(shell, direction, 1e300, split)
            assert sums.s_small == shell.n * shell.n and sums.inv_sq_sum == 0.0

    def test_keys_past_exact_float64_are_rejected(self):
        # k = 2^22 (2^31 - 1) is past 2^52, where float64 key differences
        # would round; such a shell can only be built by hand
        shell = Shell(m=2**44, coords=np.array([[2**22, 0, 0], [-2**22, 0, 0]]))
        direction = parse_direction("rat:2147483647,1,0")
        line = LineSegment(direction, 1.0)
        for call in (lambda: q_sum(shell, line), lambda: r2_terms(shell, line),
                     lambda: pair_sums(shell, direction, 0.3, "relative")):
            with pytest.raises(ValueError, match="2\\^52"):
                call()

    def test_overflowing_class_sum_raises(self):
        line = LineSegment(parse_direction("rat:1,1,1"), 1e154)
        for pair_sum in (q_sum, r2_terms):
            with pytest.raises(BoundOverflowError, match="overflows"):
                pair_sum(enumerate_shell(5), line)


def test_pair_sums_memory_stays_below_one_dense_table():
    """Each pair sum at N=1920 peaks below one N x N float64 table (29.5 MB)
    and below ten float64 tiles of TILE_ENTRIES entries (5.2 MB)."""
    shell = enumerate_shell(10001)
    assert shell.n == 1920
    dense_bytes = shell.n * shell.n * 8
    projected = project_shell(shell)
    calls = {"riesz_energy": lambda: riesz_energy(projected, 1.0)}
    # irr:std runs the point sweeps; the rational directions run class sweeps
    # of 488 and, with every key distinct, 960 classes
    for spec in ("irr:std", "rat:1,0,2147483647", "rat:1,1000,2147483647"):
        direction = parse_direction(spec)
        line = LineSegment(direction, 1.0)
        calls.update({
            f"q_sum {spec}": lambda line=line: q_sum(shell, line),
            f"pair_sums relative {spec}":
                lambda d=direction: pair_sums(shell, d, 0.01, "relative"),
            f"pair_sums absolute {spec}":
                lambda d=direction: pair_sums(shell, d, 0.0, "absolute"),
            f"r2_terms {spec}": lambda line=line: r2_terms(shell, line),
        })
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
             lambda: count_zeros(sample_wave(shuffled, 0), line),
             lambda: riesz_energy(project_shell(shuffled), 1.0),
             lambda: line_frequencies(shuffled, IRR),
             lambda: covariance(shuffled, line, 0.3, 0.1),
             lambda: second_moment_ratio(shuffled, IRR)]
    for call in calls:
        with pytest.raises(ValueError, match="antipode"):
            call()
    assert q_sum(shell, line) == pytest.approx(dense_q_sum(shell, line), rel=1e-12)
