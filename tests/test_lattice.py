"""Shell enumeration against independent brute-force oracles."""

import math

import numpy as np
import pytest

from nodal_lab import lattice
from nodal_lab.lattice import (
    SHELL_M_LIMIT,
    Shell,
    classify_m,
    enumerate_shell,
    project_shell,
    scale_check,
)


def brute_shell(m):
    """Triple-loop oracle, deliberately different from the library's (x, y) grid
    plus square-root-of-remainder enumeration."""
    r = math.isqrt(m)
    pts = []
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if x * x + y * y + z * z == m:
                    pts.append((x, y, z))
    return sorted(pts)


def dense_grid_shell(m):
    """The whole (2 isqrt(m) + 1)^2 grid of (x, y) with an exact square-root
    test on m - x^2 - y^2, both signs of z, sorted lexicographically: the
    enumerator the octant search replaced, kept as its oracle."""
    rx = math.isqrt(m)
    axis = np.arange(-rx, rx + 1, dtype=np.int64)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    rem = m - gx * gx - gy * gy
    ok = rem >= 0
    xs, ys, rem = gx[ok], gy[ok], rem[ok]
    z = np.rint(np.sqrt(rem.astype(np.float64))).astype(np.int64)
    sq = z * z == rem
    xs, ys, z = xs[sq], ys[sq], z[sq]
    pts = np.concatenate([np.stack([xs, ys, z], axis=1),
                          np.stack([xs, ys, -z], axis=1)[z > 0]])
    return pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]


def assert_matches_dense_grid(m):
    coords = enumerate_shell(m).coords
    assert coords.dtype == np.int64 and coords.flags.c_contiguous
    assert not coords.flags.writeable
    want = dense_grid_shell(m)
    assert coords.shape == want.shape and np.array_equal(coords, want), m


def test_octant_enumeration_matches_dense_grid():
    # rows, order, dtype and the read-only flag, for every m <= 3000 (the
    # empty shells 7, 28 and 60 and the shells with zero coordinates, squares
    # and m = 2 among them) and two larger shells, whose octant grid at
    # m = 100001 runs as two chunks
    assert dense_grid_shell(7).shape == dense_grid_shell(28).shape == (0, 3)
    assert dense_grid_shell(60).shape == (0, 3)
    assert (dense_grid_shell(2) == 0).any() and (dense_grid_shell(2500) == 0).any()
    for m in [*range(1, 3001), 10001, 100001]:
        assert_matches_dense_grid(m)


@pytest.mark.parametrize("cells", [1, 7, 60])
def test_octant_chunks_change_no_row(monkeypatch, cells):
    # one x row per chunk (cells 1 and 7 are below every row's length), or
    # ragged chunks of several rows
    monkeypatch.setattr(lattice, "_OCTANT_CHUNK_CELLS", cells)
    for m in [*range(1, 120), 2500, 3001]:
        assert_matches_dense_grid(m)


def test_enumeration_stops_at_the_shell_limit():
    # m = 10^12 once asked numpy for a 29 TiB grid
    assert SHELL_M_LIMIT == 2**24
    for m in (SHELL_M_LIMIT, SHELL_M_LIMIT + 1, 10**12):
        with pytest.raises(ValueError, match="below 2\\^24"):
            enumerate_shell(m)


def r3_counts(limit):
    """Independent r_3 table via convolving the r_2 table with squares."""
    r = math.isqrt(limit)
    r2 = np.zeros(limit + 1, dtype=np.int64)
    for x in range(-r, r + 1):
        ymax = math.isqrt(limit - x * x)
        ys = np.arange(-ymax, ymax + 1)
        np.add.at(r2, x * x + ys * ys, 1)
    r3 = np.zeros(limit + 1, dtype=np.int64)
    for z in range(-r, r + 1):
        zz = z * z
        r3[zz:] += r2[: limit + 1 - zz]
    return r3


def test_m1_is_the_six_unit_vectors():
    shell = enumerate_shell(1)
    assert shell.n == 6
    expected = {
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    }
    assert set(map(tuple, shell.coords.tolist())) == expected


def test_shell_size_and_class_come_from_rows():
    coords = enumerate_shell(5).coords
    assert Shell(5, coords[:22]).n == 22
    for m in (1, 5, 7, 28):
        assert Shell(m, enumerate_shell(m).coords).m_class == classify_m(m)


def test_m7_is_empty():
    shell = enumerate_shell(7)
    assert shell.n == 0
    assert shell.coords.tolist() == []
    assert not shell.m_class.representable


def test_m5_cardinality_and_brute_equality():
    shell = enumerate_shell(5)
    assert shell.n == 24
    assert [tuple(p) for p in shell.coords.tolist()] == brute_shell(5)


def test_enumeration_matches_brute_force_smallish_m():
    for m in range(1, 130):
        shell = enumerate_shell(m)
        assert [tuple(p) for p in shell.coords.tolist()] == brute_shell(m), m


def test_points_are_lexicographically_sorted_and_distinct():
    for m in (2, 9, 50, 101):
        pts = [tuple(p) for p in enumerate_shell(m).coords.tolist()]
        assert pts == sorted(pts)
        assert len(pts) == len(set(pts))


def test_antipodal_closure():
    for m in (1, 2, 3, 5, 6, 9, 50, 101):
        pts = set(map(tuple, enumerate_shell(m).coords.tolist()))
        for p in pts:
            assert (-p[0], -p[1], -p[2]) in pts


def test_component_bound_and_nonempty_for_admissible():
    for m in range(1, 300):
        shell = enumerate_shell(m)
        if shell.m_class.primitive:
            assert shell.n >= 1
        if shell.n:
            assert int(np.abs(shell.coords).max()) <= math.isqrt(m)


def test_classify_examples():
    assert classify_m(7).representable is False
    assert classify_m(28).representable is False  # 28 = 4 * 7
    c2 = classify_m(2)
    assert c2.representable and c2.primitive
    assert classify_m(4).primitive is False
    assert classify_m(8).primitive is False
    assert classify_m(3).residue == 3


def test_classify_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_m(0)
    with pytest.raises(ValueError):
        enumerate_shell(-3)


def test_representable_iff_nonempty():
    counts = r3_counts(2000)
    for m in range(1, 2001):
        assert (counts[m] > 0) == classify_m(m).representable, m


def test_counts_match_independent_table():
    counts = r3_counts(600)
    for m in range(1, 601):
        assert enumerate_shell(m).n == counts[m], m


def test_scale_check_examples_and_range():
    assert scale_check(1)
    assert scale_check(7)  # both shells empty
    assert scale_check(5)
    for m in range(1, 120):
        assert scale_check(m), m


def test_projection_unit_norms():
    for m in (1, 2, 9):
        proj = project_shell(enumerate_shell(m))
        norms = np.linalg.norm(proj.unit_points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_projection_m2_vectors():
    proj = project_shell(enumerate_shell(2))
    assert proj.n == 12
    got = {tuple(np.round(v * math.sqrt(2)).astype(int)) for v in proj.unit_points}
    assert got == {tuple(p) for p in enumerate_shell(2).coords.tolist()}


def test_projection_m9_count():
    assert project_shell(enumerate_shell(9)).n == 30
    assert len(brute_shell(9)) == 30


def test_projection_rejects_empty_shell():
    with pytest.raises(ValueError):
        project_shell(enumerate_shell(7))
