"""Shared brute-force geometry oracles for the test suite (not collected)."""

import itertools
import math

import numpy as np


def sample_sphere(rng, radius, size):
    """Uniform points on the sphere of given radius."""
    v = rng.standard_normal((size, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * v


def kappa_brute(shell):
    """Exact max points-per-plane by direct enumeration over all triples.

    Every plane through >= 3 shell points is the affine span of some triple;
    planes through exactly 2 points contribute the floor value min(n, 2).
    """
    pts = shell.coords
    n = len(pts)
    if n <= 2:
        return n
    best = 2
    triples = np.array(list(itertools.combinations(range(n), 3)))
    a = pts[triples[:, 1]] - pts[triples[:, 0]]
    b = pts[triples[:, 2]] - pts[triples[:, 0]]
    normals = np.cross(a, b)
    offsets = np.einsum("ij,ij->i", normals, pts[triples[:, 0]])
    for chunk in range(0, len(normals), 4096):
        nn = normals[chunk:chunk + 4096]
        dd = offsets[chunk:chunk + 4096]
        counts = (nn @ pts.T == dd[:, None]).sum(axis=1)
        best = max(best, int(counts.max()))
    return best


def kappa_all_anchors(shell):
    """Exact max points-per-plane with every shell point as an anchor.

    Planes through an anchor are keyed by the primitive, sign-canonical
    normal of (Q - anchor) x (Q' - anchor); a normal hit by C(j, 2) pairs
    carries j further points, so that plane holds j + 1 shell points.
    """
    pts = shell.coords
    n = len(pts)
    best = min(n, 2)
    for i in range(n):
        diffs = np.delete(pts, i, axis=0) - pts[i]
        j, l = np.triu_indices(len(diffs), k=1)
        normals = np.cross(diffs[j], diffs[l])
        normals //= np.gcd.reduce(np.abs(normals), axis=1)[:, None]
        first = np.take_along_axis(
            normals, (normals != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
        normals *= np.where(first < 0, -1, 1)[:, None]
        _, counts = np.unique(normals, axis=0, return_counts=True)
        cmax = int(counts.max())
        on_plane = (1 + math.isqrt(1 + 8 * cmax)) // 2
        assert on_plane * (on_plane - 1) == 2 * cmax, "pair count is not triangular"
        best = max(best, on_plane + 1)
    return best


def _pair_candidates(pts, radius):
    """Candidate cap centers from point pairs: geodesic midpoints, plus an
    equatorial frame for antipodal pairs (whose midpoint is undefined)."""
    cands = []
    n = len(pts)
    for i in range(n):
        sums = pts[i] + pts[i + 1:]
        norms = np.linalg.norm(sums, axis=1)
        good = norms > 1e-9 * radius
        if good.any():
            cands.append(radius * sums[good] / norms[good][:, None])
        if (~good).any():
            p = pts[i]
            helper = np.array([1.0, 0.0, 0.0])
            if abs(p[0]) > 0.9 * radius:
                helper = np.array([0.0, 1.0, 0.0])
            e1 = np.cross(p, helper)
            e1 *= radius / np.linalg.norm(e1)
            e2 = np.cross(p, e1)
            e2 *= radius / np.linalg.norm(e2)
            diag1 = (e1 + e2) / math.sqrt(2.0)
            diag2 = (e1 - e2) / math.sqrt(2.0)
            cands.append(np.stack([e1, -e1, e2, -e2, diag1, -diag1, diag2, -diag2]))
    return cands


def chi_exact(shell, s, slack=1e-9):
    """Max shell points in any closed cap of chord radius s.

    The maximizing cap can be shrunk to the minimal enclosing cap of its point
    set, whose center is a point direction, a pair midpoint, or a triple
    circumcenter, so scanning those candidate centers is exhaustive.  A small
    inflation ``slack`` guards against ties lost to rounding; it can only
    overestimate, which is the safe direction for upper-bound checks.
    """
    radius = shell.radius
    if s >= 2.0 * radius:
        return shell.n
    if s < 0:
        raise ValueError("cap radius must be nonnegative")
    pts = shell.coords.astype(np.float64)
    n = len(pts)
    cands = [pts.copy()]
    cands.extend(_pair_candidates(pts, radius))
    if n >= 3:
        triples = np.array(list(itertools.combinations(range(n), 3)))
        a = pts[triples[:, 1]] - pts[triples[:, 0]]
        b = pts[triples[:, 2]] - pts[triples[:, 0]]
        normals = np.cross(a, b)
        norms = np.linalg.norm(normals, axis=1)
        ok = norms > 1e-12
        centers = radius * normals[ok] / norms[ok][:, None]
        cands.append(centers)
        cands.append(-centers)
    centers = np.concatenate(cands, axis=0)
    # closed cap |c - p| <= s on the sphere means <c, p> >= R^2 - s^2/2
    cut = radius * radius - 0.5 * s * s - slack * radius * radius
    best = 0
    for chunk in range(0, len(centers), 8192):
        dots = centers[chunk:chunk + 8192] @ pts.T
        best = max(best, int((dots >= cut).sum(axis=1).max()))
    return best


def region_contains(region, points, atol=1e-9):
    """Containment across the region union type (single spec or split pair)."""
    if isinstance(region, tuple):
        inside = np.zeros(len(np.atleast_2d(points)), dtype=bool)
        for part in region:
            inside |= part.contains(points, atol=atol)
        return inside
    return region.contains(points, atol=atol)
