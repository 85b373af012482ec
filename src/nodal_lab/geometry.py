"""Spherical caps and segments on the sphere of radius R = sqrt(m).

A cap of height h satisfies k^2 + h^2 = s^2 = 2*R*h with opening angle
theta = 4*arcsin(sqrt(h/2R)); equivalently the cap's polar angle is
theta/2, so a segment cut out by two parallel planes at signed heights
lo <= hi along beta has opening angle 2*(arccos(lo/R) - arccos(hi/R)).
These are the two region shapes the cap and segment counts bound.  A
segment lies in one hemisphere (both planes on one side of the center);
segment_from builds it from its height h and the height of its top plane.

kappa(shell) is the exact maximal number of shell points on any single
plane.  It starts from a planted plane: the densest plane n . x = c over 13
small normals n (the x = c, x +- y = c and x +- y +- z = c types), counted
exactly from one (N x 13) int64 product.  On almost every shell that count
already is kappa, and the sweep below only verifies it.  The points are
ordered by orbit of the 48 signed coordinate permutations, largest orbit
first, and planes are counted through the first point of each orbit against
the points of that orbit and the later ones: since orbits are invariant,
that suffix holds every plane whole once.  Each plane through the anchor
and a second point q is keyed against the points after q by the float64
ratio of two entries of its normal; both entries are sums of integer
products of magnitude at most 2m from one GEMM, so they are exact, and the
correctly rounded ratios tell planes apart while m < 2^24.  The rows of all
anchors are swept in order of q and sorted in blocks of about 2^16 keys; a
block is only asked whether it holds a plane denser than the best so far,
and every such plane is recounted in int64.

cone_region and slab_region build the regions around a point B that hold
the small pairs of the relative and absolute pair splits: a cap, a segment,
or a band that leaves one hemisphere split at the equator into two closed
segments.  count_in counts the shell points in any of these.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Shell, _check_nonempty

__all__ = [
    "CapSpec",
    "SegmentSpec",
    "cap_from",
    "segment_from",
    "count_in",
    "kappa",
    "covering_bound",
    "slicing_bound",
    "cone_region",
    "slab_region",
]

# kappa's plane keys tell planes apart for m < KAPPA_M_LIMIT; see kappa
KAPPA_M_LIMIT = 2**24
# kappa sorts its plane keys in blocks of about this many (rows * columns)
_BLOCK_ENTRIES = 2**16
# the normals of kappa's planted planes: x, y or z = c, the six x +- y = c
# type and the four x +- y +- z = c type, one column each
_PLANTED_NORMALS = np.array([
    [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1],
    [1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1],
], dtype=np.int64).T
# e_i x d has the entries _CROSS_SIGN[i] * d[_CROSS_PERM[i]]
_CROSS_PERM = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_CROSS_SIGN = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=np.int64)


def _unit(direction) -> np.ndarray:
    beta = np.asarray(direction, dtype=np.float64)
    if beta.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {beta.shape}")
    norm = float(np.linalg.norm(beta))
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"direction must be a unit vector, |beta| = {norm}")
    beta = beta / norm
    beta.setflags(write=False)
    return beta


@dataclass(frozen=True, eq=False)
class CapSpec:
    """Spherical cap around R*beta: points p on the sphere with |p - R*beta| <= s.

    Parameters obey the hemisphere convention 0 <= h <= R, 0 <= theta <= pi.
    """

    r_sphere: float
    direction: np.ndarray = field(repr=False)
    s: float
    h: float
    k: float
    theta: float

    def contains(self, points, atol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = np.linalg.norm(pts - self.r_sphere * self.direction, axis=1)
        return d <= self.s + atol


@dataclass(frozen=True, eq=False)
class SegmentSpec:
    """Spherical segment: the slab offset - h <= <p, beta> <= offset on the sphere.

    ``offset`` is the signed height of the top base plane along beta and ``k``
    the radius of the larger base circle.  Both planes lie on one side of the
    center (hemisphere convention); ``contains`` tests the closed slab.
    """

    r_sphere: float
    direction: np.ndarray = field(repr=False)
    h: float
    k: float
    theta: float
    offset: float

    @property
    def lo(self) -> float:
        return self.offset - self.h

    @property
    def hi(self) -> float:
        return self.offset

    def contains(self, points, atol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        t = pts @ self.direction
        return (t >= self.lo - atol) & (t <= self.hi + atol)


def _cap_params_from_h(r: float, h: float) -> tuple[float, float, float, float]:
    # the identities k^2 + h^2 = s^2 = 2Rh and s = 2R sin(theta/4) hold on
    # the whole closed-cap family 0 <= h <= 2R, not just the hemisphere range
    s = math.sqrt(2.0 * r * h)
    k = math.sqrt(max(2.0 * r * h - h * h, 0.0))
    theta = 4.0 * math.asin(min(1.0, math.sqrt(h / (2.0 * r))))
    return s, h, k, theta


def cap_from(r_sphere: float, *, s=None, h=None, k=None, theta=None,
             direction=(0.0, 0.0, 1.0)) -> CapSpec:
    """Build a cap from the sphere radius and exactly one of s, h, k, theta.

    The hemisphere convention covers h <= R (s <= sqrt(2)*R, theta <= pi),
    but closed caps up to the whole sphere (h = 2R) are accepted so that
    counting near-antipodal caps works.  The k -> h inversion takes the
    hemisphere branch h = R - sqrt(R^2 - k^2).
    """
    if not 0.0 < r_sphere < math.inf:
        raise ValueError(f"r_sphere must be positive and finite, got {r_sphere}")
    given = [(name, val) for name, val in
             (("s", s), ("h", h), ("k", k), ("theta", theta)) if val is not None]
    if len(given) != 1:
        raise ValueError(f"give exactly one of s, h, k, theta; got {len(given)}")
    name, val = given[0]
    val = float(val)
    r = float(r_sphere)
    tol = 1e-12 * max(1.0, r)
    if name == "h":
        if not -tol <= val <= 2.0 * r + tol:
            raise ValueError(f"h out of range [0, 2R]: h={val}, R={r}")
        hh = min(max(val, 0.0), 2.0 * r)
    elif name == "s":
        if not -tol <= val <= 2.0 * r + tol:
            raise ValueError(f"s out of range [0, 2R]: s={val}, R={r}")
        hh = min(max(val, 0.0), 2.0 * r) ** 2 / (2.0 * r)
    elif name == "k":
        if not -tol <= val <= r + tol:
            raise ValueError(f"k out of range [0, R]: k={val}, R={r}")
        kk = min(max(val, 0.0), r)
        hh = r - math.sqrt(r * r - kk * kk)
    else:
        if not -tol <= val <= 2.0 * math.pi + tol:
            raise ValueError(f"theta out of range [0, 2pi]: theta={val}")
        th = min(max(val, 0.0), 2.0 * math.pi)
        hh = 2.0 * r * math.sin(th / 4.0) ** 2
    ss, hh, kk, th = _cap_params_from_h(r, min(hh, 2.0 * r))
    return CapSpec(r_sphere=r, direction=_unit(direction), s=ss, h=hh, k=kk, theta=th)


def _segment_between(r: float, direction, lo: float, hi: float) -> SegmentSpec:
    """Assemble a hemisphere segment from exact plane heights lo <= hi."""
    phi_hi = math.acos(min(1.0, max(-1.0, hi / r)))
    phi_lo = math.acos(min(1.0, max(-1.0, lo / r)))
    theta = 2.0 * (phi_lo - phi_hi)
    # larger base circle = plane closer to the equator
    k = math.sqrt(max(r * r - min(hi * hi, lo * lo), 0.0))
    return SegmentSpec(r_sphere=r, direction=_unit(direction),
                       h=hi - lo, k=k, theta=max(theta, 0.0), offset=hi)


def segment_from(r_sphere: float, direction, *, h, offset) -> SegmentSpec:
    """Build the hemisphere segment [offset - h, offset] along the direction.

    A slab with planes on both sides of the center raises with instructions
    to split it.
    """
    r = float(r_sphere)
    if not 0.0 < r < math.inf:
        raise ValueError(f"r_sphere must be positive and finite, got {r}")
    tol = 1e-12 * max(1.0, r)
    offset = float(offset)
    if not abs(offset) <= r + tol:
        raise ValueError(f"offset out of range [-R, R]: offset={offset}, R={r}")
    offset = min(max(offset, -r), r)
    hh = float(h)
    if not -tol <= hh < math.inf:
        raise ValueError(f"h must be nonnegative and finite, got {hh}")
    lo = offset - max(hh, 0.0)
    if lo < -r - tol:
        raise ValueError(f"lower plane below the sphere: offset-h={lo}, R={r}")
    lo = max(lo, -r)
    if offset > tol and lo < -tol:
        raise ValueError(
            "segment straddles the equator; split it into two hemisphere segments")
    return _segment_between(r, direction, lo, offset)


def _check_radius(shell: Shell, r_sphere: float) -> None:
    if abs(r_sphere - shell.radius) > 1e-9 * max(1.0, shell.radius):
        raise ValueError(
            f"radius mismatch: region has R={r_sphere}, shell has sqrt(m)={shell.radius}")


def count_in(shell: Shell, region) -> int:
    """Count the shell points in a closed region: a CapSpec, a SegmentSpec,
    or a pair of segments split at the equator, which counts as the union of
    its two parts (so the equator plane both parts hold counts once)."""
    parts = region if isinstance(region, tuple) else (region,)
    inside = np.zeros(shell.n, dtype=bool)
    for part in parts:
        _check_radius(shell, part.r_sphere)
        inside |= part.contains(shell.coords)
    return int(inside.sum())


def _orbit_order(pts: np.ndarray):
    """The points grouped by orbit of the 48 signed coordinate permutations
    (rows of equal sorted |mu|, compared as exact int64), largest orbit
    first, and the index of each orbit's first point in that order."""
    _, label, size = np.unique(np.sort(np.abs(pts), axis=1), axis=0,
                               return_inverse=True, return_counts=True)
    by_size = np.argsort(-size, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(len(by_size))
    order = np.argsort(rank[label.ravel()], kind="stable")
    starts = np.cumsum(size[by_size]) - size[by_size]
    return pts[order], starts


def _planted_count(pts: np.ndarray) -> int:
    """The most points on one plane n . x = c, over the 13 normals n of
    _PLANTED_NORMALS: the longest run of equal int64 heights n . x in any
    column of the sorted (N x 13) product."""
    heights = np.sort(pts @ _PLANTED_NORMALS, axis=0).T
    # each row of edges marks where a run starts, and its end; the rows
    # joined end to end keep each run between two consecutive marks
    edges = np.ones((heights.shape[0], heights.shape[1] + 1), dtype=bool)
    edges[:, 1:-1] = heights[:, 1:] != heights[:, :-1]
    return int(np.diff(np.flatnonzero(edges)).max())


def _axis_crosses(d: np.ndarray) -> np.ndarray:
    """e_0 x d, e_1 x d and e_2 x d for each vector d on the last axis, on
    a new axis before it: signed permutations of d's entries."""
    return _CROSS_SIGN * d[..., _CROSS_PERM]


def kappa(shell: Shell) -> int:
    """Exact kappa(sqrt(m)): the maximal number of shell points on one plane.

    The 48 signed coordinate permutations G map the shell onto itself and
    planes onto planes holding as many points.  The points are ordered by
    orbit (rows of equal sorted |mu|), largest orbit first, and the anchor
    p_i is the first point of orbit i; only the points of its suffix S_i,
    orbits i, i+1, ..., are keyed against it.  That sees every plane whole
    once: for a plane P let j be the earliest orbit with a point x = g(p_j)
    on P.  Then g^-1(P) passes through p_j, and since orbits are
    G-invariant, all its points lie in orbits j, j+1, ....  So kappa is the
    most points of S_i on one plane through p_i, over all anchors i.  Any
    order of the orbits would do; largest first keys the fewest pairs.

    Planes through p and a second point q are keyed by one ratio each.  With
    d_r = r - p, the plane through p, q, r has normal n = d_q x d_r, which is
    orthogonal to d_q.  Let k be the axis of d_q's largest entry and i, j the
    other two: since d_q[k] != 0, n . d_q = 0 gives n_k from (n_i, n_j), and
    (n_i, n_j) is (0, 0) only for r = q (three sphere points are never
    collinear).  So the key
    n_i / n_j, with n_j = 0 mapped to +inf, names the plane.  A plane is
    complete in the row of its first point q of S_i, so a row keys only the
    points r > q of S_i, and the other entries of its block are NaN, which
    equals nothing.  A run of c equal keys in the row of q is a plane holding
    p, q and c more points, so kappa is the longest run plus 2.

    The rows (p, q) of all anchors are swept in order of q, in blocks of
    about _BLOCK_ENTRIES keys that are generated one at a time.  A block's
    rows share the columns r > q of its first row, and their q lie within
    half a row of it, so both parts come from one float64 GEMM against the
    points, n_i = (e_i x d_q) . r - (e_i x d_q) . p, whose anchor term
    meets a row of ones.  The vector e_i x d_q is a signed permutation of
    d_q's entries (_axis_crosses), and the anchor term an int64 row dot
    product.  Both dot products are integers of magnitude at most
    |d_q| |r| <= 2m, so every product, sum and difference is exact, and the
    keys are those of n_i = (e_i x d_q) . d_r.  The GEMM writes into one
    buffer that every block reuses; the keys overwrite the n_i, and their
    sorted copy the n_j.  At m = 101, 1009 and 10001 this keys 23,620,
    62,538 and 25.4M pairs, where keying every anchor against all (N-1)^2
    pairs took 111,556, 342,726 and 154.7M.

    Equal planes have proportional normals, hence the same rational ratio and
    the same correctly rounded key.  Distinct planes keep distinct keys while
    m < 2^24 (KAPPA_M_LIMIT): if x = a/b != y = c/d with |a|, |c| <= 4m and
    1 <= |b|, |d| <= 4m, then |x - y| = |ad - bc| / |bd| >= 1 / |bd|, while
    rounding moves each by at most 2^-53 |x| <= 2^-53 * 4m / |b|, so both
    round together only if 1 <= 2^-53 * 4m (|b| + |d|) <= 2^-53 * 32 m^2.

    The best so far starts at a planted count: the most points on one plane
    n . x = c over the 13 small normals n of _PLANTED_NORMALS, counted
    exactly as the longest run in each sorted column of one (N x 13) int64
    product (or 3, if that is more: any three points lie on a plane).  On
    2,500 of the 2,503 shells with N >= 4 and m <= 3000 this already is kappa;
    m = 1269, 1502 and 2329 fall 2 short.

    Each sorted block is only asked whether it holds a run one longer than
    the best so far, and its first such row is taken.  That row's plane is
    complete: any earlier point of S_i on it would give an earlier row of the
    same anchor a longer run, which this block or an earlier one would have
    taken first.  The run is recounted in int64 as the points x of S_i with
    n.x == n.p, and a recount that disagrees raises RuntimeError.  So the
    best so far is always the exact count of a real plane, hence at most
    kappa.  And a plane that still holds more points than the best so far
    when the row of its first point q of S_i comes up gives that row a run
    long enough for its block to take, so the sweep ends at kappa.  Both
    steps hold for any start that is the exact count of a real plane; a
    start at kappa leaves the sweep nothing to recount.
    """
    _check_nonempty(shell)
    if shell.m >= KAPPA_M_LIMIT:
        raise ValueError(
            f"kappa's ratio keys are exact only for m < 2^24 = {KAPPA_M_LIMIT}; "
            f"got m={shell.m}")
    n = shell.n
    if n <= 3:
        return n
    pts, starts = _orbit_order(shell.coords)
    # the points as columns over a row of ones, which meets the anchor term
    exact = np.vstack([pts.T, np.ones(n, dtype=np.int64)]).astype(np.float64)
    # the rows of q are (p_0, q), ..., (p_o, q) for q in orbit o, less (q, q)
    row_count = np.searchsorted(starts, np.arange(n), side="right")
    row_count[starts] -= 1
    first_row = np.concatenate([[0], np.cumsum(row_count)])
    best = max(3, _planted_count(pts))
    # every block's n_i and n_j rows in one buffer: a block's rows hold at
    # most max(width, _BLOCK_ENTRIES) keys
    buffer = np.empty(2 * max(n, _BLOCK_ENTRIES))
    lo = 0
    while lo < first_row[-1]:
        q_lo = np.searchsorted(first_row, lo, side="right") - 1
        width = n - 1 - q_lo
        if width < best - 1:  # no later row has keys enough to beat best
            break
        # a block ends within width/2 points of its first q, so NaN padding
        # fills less than half of any row
        rows = np.arange(lo, min(lo + max(1, _BLOCK_ENTRIES // width),
                                 first_row[q_lo + 1 + width // 2]))
        q = np.searchsorted(first_row, rows, side="right") - 1
        a = starts[rows - first_row[q]]
        d = pts[q] - pts[a]
        k = np.abs(d).argmax(axis=1)
        crosses, each = _axis_crosses(d), np.arange(len(rows))
        u = np.concatenate([crosses[each, (k + 1) % 3], crosses[each, (k + 2) % 3]])
        anchor = (u * pts[np.tile(a, 2)]).sum(axis=1)
        ij = buffer[:2 * len(rows) * width].reshape(2 * len(rows), width)
        np.matmul(np.column_stack([u, -anchor]).astype(np.float64), exact[:, q_lo + 1:], out=ij)
        n_i, n_j = ij[:len(rows)], ij[len(rows):]
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = np.divide(n_i, n_j, out=n_i)
        keys[keys == -np.inf] = np.inf  # n_j = 0: one plane, whatever the signs
        keys[np.arange(width) < (q - q_lo)[:, None]] = np.nan  # r <= q
        runs = n_j  # the n_j are spent: sort a copy of the keys in their place
        runs[...] = keys
        runs.sort(axis=1)
        while True:
            c = best - 2  # a run of c + 1 equal keys makes kappa best + 1
            hit = runs[:, c:] == runs[:, :-c]
            if not hit.any():
                break
            row, col = np.unravel_index(hit.argmax(), hit.shape)
            on_plane = keys[row] == runs[row, col]
            p = pts[a[row]]
            normal = _axis_crosses(d[row]) @ (pts[q_lo + 1 + on_plane.argmax()] - p)
            count = int((pts[a[row]:] @ normal == p @ normal).sum())
            if count != on_plane.sum() + 2:
                raise RuntimeError(
                    f"kappa: {on_plane.sum()} keys share one plane through two "
                    f"points, but it holds {count} shell points (m={shell.m})")
            best = count
        lo = rows[-1] + 1
    return best


def covering_bound(r_sphere: float, k: float, theta: float, omega: float,
                   chi_fn) -> int:
    """Segment-count bound by covering the segment with caps of radius
    (2*pi + 1/2)*Omega: chi * ceil(k/Omega) * ceil(R*theta/Omega).

    chi_fn(R, s) supplies the cap-count bound.  theta = 0 yields factor 0 and
    hence bound 0: a zero-angle segment is a circle that may still hold
    lattice points, so callers must use theta > 0 (or the slab form).
    """
    if not 0.0 < omega < r_sphere < math.inf:
        raise ValueError(f"omega out of range (0, R): omega={omega}, R={r_sphere}")
    if not (0.0 <= k < math.inf and 0.0 <= theta < math.inf):
        raise ValueError(f"k and theta must be nonnegative and finite, got k={k}, theta={theta}")
    chi = int(chi_fn(r_sphere, (2.0 * math.pi + 0.5) * omega))
    return chi * math.ceil(k / omega) * math.ceil(r_sphere * theta / omega)


def slicing_bound(shell: Shell, b, h: float) -> int:
    """Segment-count bound for rational directions b/|b|: the slab of height h
    meets at most 1 + |b|*h lattice planes, each holding at most kappa points."""
    raw = np.asarray(b, dtype=np.float64)
    whole = np.isfinite(raw) & (raw == np.trunc(raw))  # NaN and inf fail, and 0.5
    if not (raw.shape == (3,) and whole.all() and raw.any()):
        raise ValueError(f"b must be a nonzero integer 3-vector, got {b}")
    b = raw.astype(np.int64)
    if not 0.0 <= h <= shell.radius + 1e-9:
        raise ValueError(f"h out of range [0, R]: h={h}")
    return math.floor(kappa(shell) * (1.0 + float(np.linalg.norm(b)) * h))


def _snap(x: float, tol: float = 1e-12) -> float:
    return 0.0 if abs(x) < tol else x


def _band_region(r: float, beta: np.ndarray, z_lo: float, z_hi: float):
    """Region of the sphere with scaled heights in [z_lo, z_hi] (z in [-1, 1]):
    a cap when the band holds a pole and stays in that pole's hemisphere, a
    segment when it holds no pole and stays in one hemisphere, and otherwise
    its two closed halves split at the equator (the upper one first).  The
    whole sphere is the last case: its two hemispheres."""
    z_lo, z_hi = _snap(max(z_lo, -1.0)), _snap(min(z_hi, 1.0))
    if z_hi >= 1.0 and z_lo >= 0.0:
        return cap_from(r, h=r * (1.0 - z_lo), direction=beta)
    if z_lo <= -1.0 and z_hi <= 0.0:
        return cap_from(r, h=r * (1.0 + z_hi), direction=-beta)
    if z_lo >= 0.0 or z_hi <= 0.0:
        return _segment_between(r, beta, r * z_lo, r * z_hi)
    return (
        _segment_between(r, beta, 0.0, r * z_hi),
        _segment_between(r, beta, r * z_lo, 0.0),
    )


def cone_region(B, beta, c: float):
    """Smallest polar band certain to contain every sphere point B' with
    |<B - B', beta>| <= c * |B - B'|.

    Writing z = <B, beta>/R = cos(phi), the chord condition factors into
    |phi' - phi| <= 2*arcsin(c), so the region is the band of polar angles
    [phi - delta, phi + delta] with delta = 2*arcsin(c): a segment of opening
    angle 4*delta <= 8c(1+c^2), or a cap of radius at most 4cR when the band
    swallows a pole.  Returns a CapSpec, a SegmentSpec, or a pair of
    SegmentSpecs split at the equator when the band leaves one hemisphere.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c out of range (0, 1): {c}")
    B = np.asarray(B, dtype=np.float64)
    r = float(np.linalg.norm(B))
    if not 0.0 < r < math.inf:
        raise ValueError(f"B must be a nonzero finite point, got {B.tolist()}")
    beta = _unit(beta)
    z = min(1.0, max(-1.0, float(B @ beta) / r))
    phi = math.acos(z)
    delta = 2.0 * math.asin(c)
    z_lo = math.cos(min(phi + delta, math.pi))
    z_hi = math.cos(max(phi - delta, 0.0))
    return _band_region(r, beta, z_lo, z_hi)


def slab_region(B, beta, c: float):
    """Region of sphere points B' with |<B - B', beta>| <= c: the slab of
    height 2c centered at the height of B, clamped to the sphere.

    Near a pole the region becomes a cap of height at most 2c; a slab that
    reaches both poles (c >= 2R always does) is the whole sphere, returned
    as its two closed hemispheres.
    """
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    B = np.asarray(B, dtype=np.float64)
    r = float(np.linalg.norm(B))
    if not 0.0 < r < math.inf:
        raise ValueError(f"B must be a nonzero finite point, got {B.tolist()}")
    beta = _unit(beta)
    z0 = min(1.0, max(-1.0, float(B @ beta) / r))
    return _band_region(r, beta, z0 - c / r, z0 + c / r)
