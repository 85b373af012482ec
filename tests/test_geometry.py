"""Cap/segment parameterizations, exact plane counts, and count bounds."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers_geometry import (chi_exact, kappa_all_anchors, kappa_brute, region_contains,
                              sample_sphere)
from nodal_lab import geometry
from nodal_lab.arithmetic import BoundMode, _default_rho
from nodal_lab.cli import parse_direction
from nodal_lab.geometry import (
    KAPPA_M_LIMIT,
    CapSpec,
    cap_from,
    cone_region,
    count_in,
    covering_bound,
    kappa,
    segment_from,
    slab_region,
    slicing_bound,
)
from nodal_lab.lattice import Shell, enumerate_shell


def quadruple_residuals(cap):
    r, s, h, k, theta = cap.r_sphere, cap.s, cap.h, cap.k, cap.theta
    scale = max(1.0, r * r)
    return (
        abs(k * k + h * h - s * s) / scale,
        abs(s * s - 2 * r * h) / scale,
        abs(s - 2 * r * math.sin(theta / 4.0)) / max(1.0, r),
    )


def test_cap_hemisphere_example():
    cap = cap_from(1.0, theta=math.pi)
    assert abs(cap.s - math.sqrt(2)) < 1e-12
    assert abs(cap.h - 1.0) < 1e-12
    assert abs(cap.k - 1.0) < 1e-12


def test_cap_r2_h1_example():
    cap = cap_from(2.0, h=1.0)
    assert abs(cap.s - 2.0) < 1e-12
    assert abs(cap.theta - 2 * math.pi / 3) < 1e-12
    assert abs(cap.k - math.sqrt(3)) < 1e-12


def test_cap_degenerate_point():
    cap = cap_from(1.0, h=0.0)
    assert cap.s == cap.k == cap.theta == 0.0


def test_cap_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        cap_from(1.0, h=2.5)
    with pytest.raises(ValueError):
        cap_from(1.0, theta=7.0)
    with pytest.raises(ValueError):
        cap_from(1.0, s=-0.1)
    with pytest.raises(ValueError):
        cap_from(1.0, k=1.2)
    with pytest.raises(ValueError):
        cap_from(1.0)
    with pytest.raises(ValueError):
        cap_from(1.0, h=0.1, s=0.2)


def test_cap_beyond_hemisphere_keeps_identities():
    cap = cap_from(1.0, s=1.9)
    assert max(quadruple_residuals(cap)) < 1e-9
    assert cap.h > 1.0
    whole = cap_from(1.0, s=2.0)
    assert abs(whole.h - 2.0) < 1e-12 and abs(whole.theta - 2 * math.pi) < 1e-12


def test_cap_quadruple_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        r = float(rng.uniform(0.1, 50.0))
        which = rng.integers(4)
        if which == 0:
            cap = cap_from(r, h=float(rng.uniform(0, r)))
        elif which == 1:
            cap = cap_from(r, s=float(rng.uniform(0, math.sqrt(2) * r)))
        elif which == 2:
            cap = cap_from(r, k=float(rng.uniform(0, r)))
        else:
            cap = cap_from(r, theta=float(rng.uniform(0, math.pi)))
        assert max(quadruple_residuals(cap)) < 1e-9
        assert 0.0 <= cap.h <= r + 1e-12
        assert 0.0 <= cap.theta <= math.pi + 1e-12


def test_segment_hemisphere_example():
    seg = segment_from(1.0, (0, 0, 1), h=1.0, offset=0.0)
    assert abs(seg.theta - math.pi) < 1e-12
    assert seg.lo == -1.0 and seg.hi == 0.0


def test_segment_degenerate_circle():
    seg = segment_from(1.0, (0, 0, 1), h=0.0, offset=0.3)
    assert seg.theta == 0.0
    assert abs(seg.k - math.sqrt(1 - 0.09)) < 1e-12


def test_segment_theta_from_height_difference():
    seg = segment_from(2.0, (0, 0, 1), h=1.0, offset=0.0)
    # two-plane opening angle from the polar-angle difference of the planes
    expected = 2 * (math.acos(-0.5) - math.acos(0.0))
    assert abs(seg.theta - expected) < 1e-12
    assert abs(seg.theta - math.pi / 3) < 1e-12


def test_segment_straddle_rejected():
    with pytest.raises(ValueError, match="split"):
        segment_from(1.0, (0, 0, 1), h=0.8, offset=0.4)


def inside(shell, region):
    """The shell rows a single-part region contains."""
    return shell.coords[region.contains(shell.coords)].tolist()


def test_count_in_cap_examples():
    shell = enumerate_shell(1)
    cap1 = cap_from(1.0, s=0.5, direction=(1, 0, 0))
    assert count_in(shell, cap1) == 1 and inside(shell, cap1) == [[1, 0, 0]]
    assert count_in(shell, cap_from(1.0, s=1.9, direction=(1, 0, 0))) == 5
    shell2 = enumerate_shell(2)
    cap3 = cap_from(math.sqrt(2), s=0.1, direction=np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
    assert count_in(shell2, cap3) == 1 and inside(shell2, cap3) == [[1, 1, 0]]


def test_count_radius_mismatch():
    with pytest.raises(ValueError, match="radius mismatch"):
        count_in(enumerate_shell(2), cap_from(1.0, s=0.5))
    with pytest.raises(ValueError, match="radius mismatch"):
        count_in(enumerate_shell(2), segment_from(1.0, (0, 0, 1), h=0.5, offset=1.0))
    with pytest.raises(ValueError, match="radius mismatch"):
        count_in(enumerate_shell(2), slab_region((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.3))


def test_count_in_segment_examples():
    # the band |z| <= 0.5 on E(2), split at the equator, holds the four
    # points with z = 0
    shell2 = enumerate_shell(2)
    band = (segment_from(math.sqrt(2), (0, 0, 1), h=0.5, offset=0.5),
            segment_from(math.sqrt(2), (0, 0, 1), h=0.5, offset=0.0))
    assert count_in(shell2, band) == 4
    assert all(p[2] == 0 for p in shell2.coords[region_contains(band, shell2.coords, 0.0)])
    shell1 = enumerate_shell(1)
    up = segment_from(1.0, (0, 0, 1), h=0.5, offset=1.0)
    assert count_in(shell1, up) == 1 and inside(shell1, up) == [[0, 0, 1]]
    empty = segment_from(1.0, (0, 0, 1), h=0.0, offset=1 / math.pi)
    assert count_in(shell1, empty) == 0


def test_count_in_split_pair_counts_the_shared_plane_once():
    # the band |z| <= 0.3 around the equator of E(1) splits into two closed
    # segments that both hold the four points with z = 0
    shell = enumerate_shell(1)
    pair = slab_region((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.3)
    assert isinstance(pair, tuple)
    assert [count_in(shell, part) for part in pair] == [4, 4]
    assert count_in(shell, pair) == 4


def test_kappa_examples():
    assert kappa(enumerate_shell(1)) == 4
    assert kappa(enumerate_shell(2)) == 6
    assert kappa(enumerate_shell(3)) == 4
    # 101 and 1009 as recorded in the benchmark reference; 3001 checked once
    # against the every-anchor search (about 84 s), 10001 against a kappa
    # keyed by primitive int64 normals (about 14 s)
    assert kappa(enumerate_shell(101)) == 18
    assert kappa(enumerate_shell(1009)) == 16
    assert kappa(enumerate_shell(3001)) == 24
    assert kappa(enumerate_shell(10001)) == 48
    # the shells up to m = 3000 whose planted start falls short, so that the
    # sweep must climb: each checked once against the every-anchor search
    assert kappa(enumerate_shell(1269)) == 18
    assert kappa(enumerate_shell(1502)) == 14
    assert kappa(enumerate_shell(2329)) == 18


def kappa_in_row_blocks(sh):
    """kappa with its default blocks, then with blocks of about N and 7N keys."""
    got = [kappa(sh)]
    for rows in (1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BLOCK_ENTRIES", rows * sh.n)
            got.append(kappa(sh))
    return got


def test_kappa_matches_brute_force():
    for m in range(1, 151):
        sh = enumerate_shell(m)
        if sh.n:
            assert kappa_in_row_blocks(sh) == [kappa_brute(sh)] * 3, m


def test_kappa_matches_every_anchor_search():
    for m in (101, 1009):
        sh = enumerate_shell(m)
        assert kappa_in_row_blocks(sh) == [kappa_all_anchors(sh)] * 3, m


def test_kappa_ignores_the_row_order():
    rng = np.random.default_rng(20)
    for m, want in ((101, 18), (1009, 16), (3001, 24)):
        coords = enumerate_shell(m).coords
        assert kappa(Shell(m, coords[rng.permutation(len(coords))])) == want, m


@pytest.mark.parametrize("coords", [
    [[1, 0, 0]],
    [[1, 0, 0], [-1, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
])
def test_kappa_of_at_most_three_points(coords):
    # too few points for a run test, whose c = best - 2 would be 0 or less
    sh = Shell(1, np.array(coords, dtype=np.int64))
    assert kappa(sh) == kappa_brute(sh) == len(coords)


def test_orbit_order_is_exact_for_any_int64_coords():
    # (0, 2^54, 2^54 + 1) and (0, 2^54, 2^54) round to one float64 row
    big = 2**54
    pts = np.array([[0, big, big], [big + 1, 0, big], [1, 0, 0], [0, big, big + 1],
                    [0, 0, -1], [big, -big, 0], [0, -1, 0]], dtype=np.int64)
    ordered, starts = geometry._orbit_order(pts)
    assert starts.tolist() == [0, 3, 5]
    assert sorted(map(tuple, ordered.tolist())) == sorted(map(tuple, pts.tolist()))
    assert {tuple(x) for x in ordered[:3].tolist()} == {(1, 0, 0), (0, 0, -1), (0, -1, 0)}
    assert {tuple(x) for x in ordered[3:5].tolist()} == {(0, big, big), (big, -big, 0)}


def _orbits(m):
    """The orbits of E(m) under the signed coordinate permutations."""
    orbits = {}
    for point in enumerate_shell(m).coords.tolist():
        orbits.setdefault(tuple(sorted(map(abs, point))), []).append(point)
    return tuple(orbits.values())


SMALL_SHELL_ORBITS = tuple(orbits for orbits in map(_orbits, range(1, 101)) if orbits)


@st.composite
def orbit_unions(draw):
    """Unions of one to three orbits of a shell E(m), m <= 100, with at most
    100 points, in a random row order.  Two orbits never suffice for a set
    whose maximal planes all miss its largest orbit (none has entries up to
    6), so three are allowed; E(65) is the smallest such shell."""
    count = draw(st.integers(1, 3))
    orbits = draw(st.sampled_from([o for o in SMALL_SHELL_ORBITS if len(o) >= count]))
    chosen = draw(st.lists(st.sampled_from(orbits), min_size=count, max_size=count,
                           unique_by=lambda orbit: tuple(orbit[0]))
                  .filter(lambda union: sum(map(len, union)) <= 100))
    points = [point for orbit in chosen for point in orbit]
    m = sum(x * x for x in points[0])
    return Shell(m, np.array(draw(st.permutations(points)), dtype=np.int64))


@given(orbit_unions())
@example(Shell(65, enumerate_shell(65).coords))
def test_kappa_matches_brute_force_on_orbit_unions(sh):
    want = kappa_brute(sh)
    assert kappa(sh) == want
    # the planted start counts a real plane, so it can only fall short
    assert geometry._planted_count(sh.coords) <= want


def test_kappa_rejects_empty():
    with pytest.raises(ValueError):
        kappa(enumerate_shell(7))


def test_kappa_rejects_shells_past_exact_ratio_keys():
    # 4096 * (the m=1 shell), built by hand: enumerate_shell(4**12) takes seconds
    m = 4**12
    coords = 2**12 * np.concatenate([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
    sh = Shell(m, coords)
    assert m == KAPPA_M_LIMIT
    with pytest.raises(ValueError, match="2\\^24"):
        kappa(sh)


def test_kappa_keys_a_plane_once_whatever_the_signs():
    # a flat point set: in the row of (0, 1, 0) every key is n_z / n_x with
    # n_x = 0, and n_z changes sign from one side of the y axis to the other
    coords = np.array([[0, 0, 0], [0, 1, 0], [-2, 1, 0], [-1, -1, 0], [1, -1, 0], [1, 0, 0]])
    sh = Shell(1, coords)
    assert kappa(sh) == kappa_brute(sh) == 6


def test_kappa_recount_catches_colliding_keys():
    # points far outside |x|^2 = m void the exactness of the ratio keys: as
    # floats, (2^54, 2^54 + 1, 0) and (1, 1, 0) give the same key in the row
    # of (0, 0, 1), though only the second lies on the plane x = y
    coords = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 0], [2**54, 2**54 + 1, 0]])
    with pytest.raises(RuntimeError, match="holds 3 shell points"):
        kappa(Shell(1, coords))


def test_covering_bound_example_and_theta_zero():
    shell2 = enumerate_shell(2)
    chi_fn = lambda r, s: chi_exact(shell2, s)
    seg = segment_from(math.sqrt(2), (0, 0, 1), h=0.5, offset=0.5)
    bound = covering_bound(math.sqrt(2), seg.k, seg.theta, 1.0, chi_fn)
    assert bound >= count_in(shell2, seg)
    assert covering_bound(math.sqrt(2), seg.k, 0.0, 1.0, chi_fn) == 0
    with pytest.raises(ValueError):
        covering_bound(math.sqrt(2), seg.k, seg.theta, 2.0, chi_fn)


def test_covering_bound_dominates_brute_counts():
    rng = np.random.default_rng(5)
    for m in (2, 5, 9):
        sh = enumerate_shell(m)
        r = math.sqrt(m)
        for _ in range(20):
            hi = float(rng.uniform(0.05 * r, r))
            h = float(rng.uniform(0, hi))
            beta = sample_sphere(rng, 1.0, 1)[0]
            seg = segment_from(r, beta, h=h, offset=hi)
            if seg.theta <= 0:
                continue
            omega = float(rng.uniform(0.1 * r, 0.9 * r))
            bound = covering_bound(r, seg.k, seg.theta, omega,
                                   lambda rr, s: chi_exact(sh, s))
            assert bound >= count_in(sh, seg)


def test_slicing_bound_examples():
    assert slicing_bound(enumerate_shell(2), (0, 0, 1), 1.0) == 12
    assert slicing_bound(enumerate_shell(2), (0, 0, 1), 0.0) == 6
    sh1 = enumerate_shell(1)
    b = (1, 1, 1)
    bound = slicing_bound(sh1, b, 0.5)
    assert bound == math.floor(4 * (1 + math.sqrt(3) * 0.5))
    # compare against a brute slab count in the rational direction
    beta = np.array(b) / math.sqrt(3)
    seg = segment_from(1.0, beta, h=0.5, offset=float(beta @ np.array([1, 0, 0])) + 0.25)
    assert bound >= count_in(sh1, seg)
    with pytest.raises(ValueError):
        slicing_bound(sh1, (0, 0, 0), 0.5)
    for bad in ((0.5, 0, 1), (1.9, 0, 0), (math.nan, 0, 1)):
        with pytest.raises(ValueError, match="integer 3-vector"):
            slicing_bound(enumerate_shell(2), bad, 1.0)


def test_slicing_bound_dominates_rational_segments():
    rng = np.random.default_rng(9)
    for m in (2, 5, 9, 50):
        sh = enumerate_shell(m)
        r = math.sqrt(m)
        for _ in range(25):
            b = rng.integers(-3, 4, size=3)
            if not b.any():
                continue
            beta = b / np.linalg.norm(b)
            hi = float(rng.uniform(0.05 * r, r))
            h = float(rng.uniform(0, hi))
            seg = segment_from(r, beta, h=h, offset=hi)
            assert slicing_bound(sh, b, h) >= count_in(sh, seg)


def test_k_theta_vs_height_inequality():
    rng = np.random.default_rng(13)
    for _ in range(300):
        r = float(rng.uniform(0.5, 20.0))
        hi = float(rng.uniform(1e-3 * r, r))
        h = float(rng.uniform(1e-6 * r, hi))
        seg = segment_from(r, (0, 0, 1), h=h, offset=hi)
        assert seg.k * seg.theta <= 8.0 * seg.h + 1e-12


def test_cone_region_pole_is_small_cap():
    reg = cone_region((0.0, 0.0, 2.0), (0.0, 0.0, 1.0), 0.05)
    assert isinstance(reg, CapSpec)
    assert reg.s <= 4 * 0.05 * 2.0  # cap radius within 4*c*R
    assert reg.theta <= 8 * 0.05 * (1 + 0.05**2)


def test_cone_region_limit_theta_to_zero():
    thetas = []
    for c in (0.1, 0.01, 0.001):
        reg = cone_region((2.0, 0.0, 0.0), (1.0, 0.0, 0.0), c)
        assert isinstance(reg, CapSpec)
        thetas.append(reg.theta)
    assert thetas == sorted(thetas, reverse=True)
    assert thetas[-1] < 0.01


def test_cone_region_contains_b_itself():
    b_point = np.array([0.0, 0.0, 2.0])
    reg = cone_region(b_point, (1.0, 0.0, 0.0), 0.05)
    assert region_contains(reg, b_point[None, :]).all()


def test_cone_region_rejection_sampling():
    rng = np.random.default_rng(17)
    cases = [
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.05),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.05),
        ((0.6, 0.0, 0.8), (0.0, 0.0, 1.0), 0.2),
        ((0.6, 0.0, -0.8), (0.2, 0.0, np.sqrt(0.96)), 0.35),
    ]
    for b_dir, beta, c in cases:
        b_point = np.asarray(b_dir) * 3.0 / np.linalg.norm(b_dir)
        reg = cone_region(b_point, np.asarray(beta), c)
        pts = sample_sphere(rng, 3.0, 20000)
        diff = b_point - pts
        lhs = np.abs(diff @ np.asarray(beta))
        qualifying = lhs <= c * np.linalg.norm(diff, axis=1)
        assert region_contains(reg, pts[qualifying]).all()
        # the guard-angle form holds for every segment part returned
        parts = reg if isinstance(reg, tuple) else (reg,)
        total_theta = sum(p.theta for p in parts)
        assert total_theta <= 8 * c * (1 + c * c) + 1e-12


def test_slab_region_pole_cap():
    reg = slab_region((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.3)
    assert isinstance(reg, CapSpec)
    assert reg.h <= 0.6 + 1e-12


def test_slab_region_equator_split():
    reg = slab_region((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.3)
    assert isinstance(reg, tuple) and len(reg) == 2
    total_height = sum(p.h for p in reg)
    assert abs(total_height - 0.6) < 1e-12


def test_slab_region_large_c_degenerates():
    # from a pole, c past R reaches below the equator: a split pair of total
    # height R + c; from c >= 2R the slab covers the whole sphere, returned
    # as its two closed hemispheres
    reg = slab_region((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 1.5)
    assert isinstance(reg, tuple)
    # [z0 - c, z0 + c] clamped at the pole: height R - (z0 - c) = 1.5
    assert abs(sum(p.h for p in reg) - 1.5) < 1e-12
    whole = slab_region((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 2.5)
    assert [(p.lo, p.hi) for p in whole] == [(0.0, 1.0), (-1.0, 0.0)]
    assert sum(p.h for p in whole) == 2.0
    shell = enumerate_shell(1)
    assert count_in(shell, whole) == shell.n


def test_slab_region_rejection_sampling():
    rng = np.random.default_rng(19)
    cases = [
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.3),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.3),
        ((0.6, 0.0, 0.8), (0.0, 1.0, 0.0), 0.1),
    ]
    for b_dir, beta, c in cases:
        b_point = np.asarray(b_dir) * 2.0 / np.linalg.norm(b_dir)
        reg = slab_region(b_point, np.asarray(beta), c)
        pts = sample_sphere(rng, 2.0, 20000)
        qualifying = np.abs((b_point - pts) @ np.asarray(beta)) <= c
        assert region_contains(reg, pts[qualifying]).all()


def test_regions_hold_each_points_small_pairs():
    # criterion 4 compares sums over B; here every B is checked on its own
    # against the direct count of its partners B'
    for m in (5, 50, 101):
        shell = enumerate_shell(m)
        pts = shell.coords.astype(np.float64)
        rho = _default_rho(BoundMode.CONDITIONAL, m)
        for label in ("rat:1,1,0", "irr:std"):
            alpha = parse_direction(label).components
            for b in pts:
                direct = int((np.abs((b - pts) @ alpha) <= rho).sum())
                assert count_in(shell, slab_region(b, alpha, rho)) == direct, (m, label, b)
        alpha = parse_direction("irr:std").components
        rho = _default_rho(BoundMode.IRRATIONAL, m)
        for b in pts:
            diff = b - pts
            direct = int((np.abs(diff @ alpha) <= rho * np.linalg.norm(diff, axis=1)).sum())
            assert count_in(shell, cone_region(b, alpha, rho)) >= direct, (m, b)
            whole = slab_region(b, alpha, 2.5 * shell.radius)
            assert count_in(shell, whole) == shell.n, (m, b)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, match", [
    (lambda: cap_from(1.0, h=0.5, direction=(NAN, 0, 1)), "unit vector"),
    (lambda: cap_from(NAN, theta=1.0), "r_sphere"),
    (lambda: cap_from(INF, h=1.0), "r_sphere"),
    (lambda: segment_from(2.0, (0, 0, 1), h=NAN, offset=1.0), "h must be"),
    (lambda: segment_from(2.0, (0, 0, 1), h=0.5, offset=NAN), "offset"),
    (lambda: segment_from(INF, (0, 0, 1), h=0.5, offset=1.0), "r_sphere"),
    (lambda: slab_region((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), NAN), "c must be"),
    (lambda: slab_region((NAN, 0.0, 0.0), (0.0, 0.0, 1.0), 0.3), "finite point"),
    (lambda: cone_region((INF, 0.0, 0.0), (0.0, 0.0, 1.0), 0.3), "finite point"),
    (lambda: covering_bound(2.0, NAN, 1.0, 1.0, lambda r, s: 1), "k and theta"),
    (lambda: covering_bound(2.0, 1.0, INF, 1.0, lambda r, s: 1), "k and theta"),
    (lambda: covering_bound(INF, 1.0, 1.0, 1.0, lambda r, s: 1), "omega"),
    (lambda: slicing_bound(enumerate_shell(2), (0, 0, 1), NAN), "h out of range"),
])
def test_non_finite_inputs_raise_named_errors(build, match):
    with pytest.raises(ValueError, match=match):
        build()
