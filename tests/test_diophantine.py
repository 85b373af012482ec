"""Dirichlet searches and integer direction approximations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nodal_lab.diophantine import (
    Direction,
    Rationality,
    approx_direction,
    dirichlet_1d,
    dirichlet_simultaneous,
)


def test_direction_constructors_and_canonical_sign():
    d = Direction.rational(-2, 0, 4)
    assert d.ints == (1, 0, -2)  # reduced and sign-flipped
    assert d.rationality is Rationality.RATIONAL
    assert abs(np.linalg.norm(d.components) - 1) < 1e-12
    d2 = Direction.irrational(-1.0, -math.sqrt(2), math.sqrt(3))
    assert d2.components[0] > 0
    d3 = Direction.half_rational(2, 4, math.sqrt(5))
    assert d3.uv == (1, 2)
    assert abs(d3.components[1] / d3.components[0] - 0.5) < 1e-12
    assert abs(d3.components[2] / d3.components[0] - math.sqrt(5)) < 1e-12


def test_direction_rejects_degenerate():
    with pytest.raises(ValueError):
        Direction.rational(0, 0, 0)
    with pytest.raises(ValueError):
        Direction.half_rational(1, 0, math.sqrt(2))
    with pytest.raises(ValueError):
        Direction.irrational(0.0, 0.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: Direction.rational(1, 2**62, 0),
    lambda: Direction.rational(1, 2**63 - 1, 0),
    lambda: Direction.rational(1, 10**20 - 1, 0),
    lambda: Direction.rational(-(2**31), 0, 1),
    lambda: Direction.half_rational(2**62, 1, math.sqrt(2)),
    lambda: Direction.half_rational(1, 2**31, math.sqrt(2)),
])
def test_integer_directions_reject_entries_past_limit(build):
    with pytest.raises(ValueError, match="INT_DIRECTION_LIMIT"):
        build()


def test_integer_directions_reduce_before_the_limit():
    assert Direction.rational(2**31, 2**32, 0).ints == (1, 2, 0)
    assert Direction.rational(1, 2**31 - 1, -(2**31 - 1)).ints == (1, 2**31 - 1, -(2**31 - 1))
    assert Direction.half_rational(2**33, 2**32, math.sqrt(2)).uv == (2, 1)


@pytest.mark.parametrize("build", [
    lambda: Direction.irrational(math.nan, 1.0, 1.0),
    lambda: Direction.irrational(1.0, 1.0, math.nan),
    lambda: Direction.irrational(math.inf, 1.0, 1.0),
    lambda: Direction.irrational(1.0, -math.inf, 1.0),
    lambda: Direction.half_rational(1, 1, math.nan),
    lambda: Direction.half_rational(1, 1, math.inf),
    lambda: Direction.half_rational(1, 1, -math.inf),
    lambda: Direction(components=np.array([math.nan, 0.0, 0.0]),
                      rationality=Rationality.IRRATIONAL),
])
def test_direction_rejects_non_finite(build):
    # a NaN norm fails every comparison, so these once built without error
    with pytest.raises(ValueError, match="finite"):
        build()


def test_dirichlet_1d_examples():
    assert dirichlet_1d(math.sqrt(2), 5) == (7, 5)
    assert dirichlet_1d(1 / 3, 3) == (1, 3)
    assert dirichlet_1d(math.pi, 10) == (22, 7)


def test_dirichlet_simultaneous_examples():
    assert dirichlet_simultaneous(math.sqrt(2), math.sqrt(3), 2) == (1, 1, 2)
    assert dirichlet_simultaneous(0.5, 0.5, 2) == (2, 1, 1)
    assert dirichlet_simultaneous(0.0, 0.0, 9) == (1, 0, 0)


def test_dirichlet_guarantees_exact_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        zeta = float(rng.uniform(-10, 10))
        h = int(rng.integers(1, 40))
        p, q = dirichlet_1d(zeta, h)
        assert 1 <= q <= h
        assert abs(Fraction(zeta) - Fraction(p, q)) < Fraction(1, q * h)
    for _ in range(100):
        z1, z2 = (float(x) for x in rng.uniform(-5, 5, size=2))
        h = int(rng.integers(1, 12))
        q, p1, p2 = dirichlet_simultaneous(z1, z2, h)
        assert 1 <= q <= h * h
        assert abs(Fraction(z1) - Fraction(p1, q)) < Fraction(1, q * h)
        assert abs(Fraction(z2) - Fraction(p2, q)) < Fraction(1, q * h)


def test_dirichlet_rejects_bad_input():
    with pytest.raises(ValueError):
        dirichlet_1d(1.0, 0)
    with pytest.raises(ValueError):
        dirichlet_1d(math.inf, 5)
    with pytest.raises(ValueError):
        dirichlet_simultaneous(0.1, 0.2, 0)
    with pytest.raises(ValueError, match="finite"):
        dirichlet_simultaneous(math.inf, 0.2, 3)
    with pytest.raises(ValueError, match="H must be"):
        approx_direction(Direction.irrational(1.0, math.sqrt(2), math.sqrt(3)), 0)


def test_approx_direction_irrational_example():
    d = Direction.irrational(1.0, math.sqrt(2), math.sqrt(3))
    ap = approx_direction(d, 10)
    assert ap.norm <= 300
    assert ap.angle_err < 6 * math.sqrt(2) / (ap.norm * 10)
    assert ap.tau is None


def test_approx_direction_half_rational_example():
    d = Direction.half_rational(1, 1, math.sqrt(2))  # alpha = (1, 1, sqrt2)/2
    ap = approx_direction(d, 10)
    assert ap.tau == 3.0  # max(|u|, v, 1/alpha1) + 1 = max(1, 1, 2) + 1
    q, qu, pv = ap.a
    assert q == qu  # a = (q*v, q*u, p*v) with u = v = 1
    assert ap.norm < math.sqrt(3) * 9 * 10
    assert ap.angle_err < 2 * math.sqrt(3) * 9 / (ap.norm * 10)


def test_approx_direction_rejects_rational():
    with pytest.raises(ValueError, match="exact integer direction"):
        approx_direction(Direction.rational(1, 0, 0), 5)


def test_approx_direction_invariants_random():
    rng = np.random.default_rng(29)
    for h in (1, 2, 5, 10, 50):
        for _ in range(20):
            d = Direction.irrational(*rng.standard_normal(3))
            ap = approx_direction(d, h)
            assert ap.norm <= 3 * h * h
            assert ap.angle_err < 6 * math.sqrt(2) / (ap.norm * h)
        for _ in range(20):
            u = int(rng.integers(-5, 6))
            v = int(rng.integers(1, 6))
            zeta = float(rng.uniform(-2, 2)) * math.sqrt(3) + math.sqrt(2)
            d = Direction.half_rational(u, v, zeta)
            ap = approx_direction(d, h)
            tau = ap.tau
            assert ap.norm < math.sqrt(3) * tau * tau * h
            assert ap.angle_err < 2 * math.sqrt(3) * tau * tau / (ap.norm * h)

