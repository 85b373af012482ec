"""Dense pair-table oracles for the tiled pair sums (not collected).

The dense_* oracles are the whole-table formulas the tiled kernels in
nodal_lab.arithmetic replaced: every pair (i, j) is one entry of an N x N
array, each reduction runs once over the whole array, and nothing is folded
by symmetry.  The kernels run over antipodal classes instead, so they add
the same summands in another order and match these oracles to rounding.

The half_* oracles build the kernels' summands as one whole (2, N/2, N/2)
table: half-shell rows against the signed columns H and -H, nothing tiled.
Each reduction runs once over that table and is doubled, the way a kernel
reduces its single tile when N/2 rows fit in one, so those sums are equal.
The tables of half_pair_tables (beta, the zero mask, dist^2 and 1/beta^2)
hold every entry of the N x N tables, bit for bit: twice each multiset of
the signed half table is the dense one.  half_integral_sq takes the
numerators sin(pi L beta) from per-row phases by angle subtraction, as the
kernels do, so its summands match the dense integral_sq table to rounding
only; so do the unit-sphere distances of half_riesz_energy.
"""

import math
from fractions import Fraction

import numpy as np

from nodal_lab.arithmetic import (
    IRRATIONAL_ZERO_TOL,
    PI_SQ,
    BoundMode,
    PairSums,
    SquaredCovarianceTerms,
    _integral_sq_deficit,
    integral_sq,
)
from nodal_lab.diophantine import Rationality
from nodal_lab.randomwave import half_frequencies, line_frequencies


def dense_pair_frequencies(shell, direction):
    """N x N pair frequencies beta = <mu - mu', alpha>, rows mu, columns mu'."""
    b = line_frequencies(shell, direction)
    return b[:, None] - b[None, :]


def dense_pair_tables(shell, direction):
    """Pair frequency matrix, exact zero mask, squared pair distances, and
    1/beta^2 (0 on the zero pairs), each N x N."""
    coords = shell.coords
    beta = dense_pair_frequencies(shell, direction)
    gram = coords @ coords.T
    dist_sq = (2 * shell.m - 2 * gram).astype(np.float64)
    if direction.rationality is Rationality.RATIONAL:
        dots = coords @ np.array(direction.ints, dtype=np.int64)
        num = dots[:, None] - dots[None, :]
        zero = num == 0
        norm_sq = float(sum(c * c for c in direction.ints))
        num_f = num.astype(np.float64)
        inv_beta_sq = norm_sq / np.where(zero, np.inf, num_f * num_f)
    elif direction.rationality is Rationality.HALF_RATIONAL:
        u, v = direction.uv
        plane = v * coords[:, 0] + u * coords[:, 1]
        height = coords[:, 2]
        zero = (plane[:, None] == plane[None, :]) & (height[:, None] == height[None, :])
        inv_beta_sq = 1.0 / np.where(zero, np.inf, beta * beta)
    else:
        zero = np.abs(beta) <= IRRATIONAL_ZERO_TOL
        inv_beta_sq = 1.0 / np.where(zero, np.inf, beta * beta)
    return beta, zero, dist_sq, inv_beta_sq


def exact_small_mask(shell, direction, rho, mode):
    """The N x N small-pair mask of a rational direction a in exact integer
    arithmetic, rho taken as the binary fraction it is: k^2 <= rho^2 |a|^2
    (absolute) or k^2 <= rho^2 |a|^2 |mu - mu'|^2 (relative) for the integer
    k = <mu - mu', a>, compared as Python integers."""
    coords = shell.coords
    keys = coords @ np.array(direction.ints, dtype=np.int64)
    key = np.abs(keys[:, None] - keys[None, :]).astype(object)
    dist_sq = 1
    if mode == "relative":
        dist_sq = (2 * shell.m - 2 * (coords @ coords.T)).astype(object)
    limit = Fraction(rho) ** 2 * sum(c * c for c in direction.ints)
    return (key * key * limit.denominator <= dist_sq * limit.numerator).astype(bool)


def dense_split_sums(tables, rho, mode, small=None):
    """PairSums from the tables of dense_pair_tables; small, if given, is the
    small-pair mask in place of the float64 comparison of beta with the
    threshold."""
    beta, zero, dist_sq, inv_beta_sq = tables
    if small is None:
        if mode == "relative":
            small = np.abs(beta) <= rho * np.sqrt(dist_sq)
        else:
            small = np.abs(beta) <= rho
    small = small | zero
    tail = ~small
    inv_dist = 1.0 / np.where(dist_sq == 0.0, np.inf, dist_sq)
    return PairSums(
        s_zero=int(zero.sum()),
        s_small=int(small.sum()),
        inv_sq_sum=float(np.sum(inv_beta_sq[tail])),
        inv_dist_sq_sum=float(np.sum(inv_dist[tail])),
    )


def dense_q_sum(shell, line):
    return float(np.mean(integral_sq(dense_pair_frequencies(shell, line.direction),
                                     line.length)))


def dense_r2_terms(shell, line):
    w = line_frequencies(shell, line.direction) / math.sqrt(shell.m)
    eye = integral_sq(dense_pair_frequencies(shell, line.direction), line.length)
    n_sq = shell.n * shell.n
    r1r1 = float(w @ eye @ w) / n_sq
    w_sq = w * w
    return SquaredCovarianceTerms(rr=float(np.sum(eye)) / n_sq, r1r1=r1r1,
                                  r12r12=float(w_sq @ eye @ w_sq) / n_sq)


def dense_bound(shell, line, mode, rho):
    """(q_value, whole-shell PairSums, bound_value) of variance_bound."""
    tables = dense_pair_tables(shell, line.direction)
    whole = dense_split_sums(tables, 0.0, "absolute")
    q_val = float(np.mean(integral_sq(tables[0], line.length)))
    n_sq = shell.n * shell.n
    l_sq = line.length * line.length
    if mode is BoundMode.RATIONAL:
        return q_val, whole, q_val
    if mode is BoundMode.CONDITIONAL:
        parts = dense_split_sums(tables, rho, "absolute")
        return q_val, whole, (l_sq * parts.s_small + parts.inv_sq_sum / PI_SQ) / n_sq
    parts = dense_split_sums(tables, rho, "relative")
    tail = parts.inv_dist_sq_sum / (PI_SQ * rho * rho)
    return q_val, whole, (l_sq * parts.s_small + tail) / n_sq


def dense_riesz_energy(points, sigma):
    """Sum |P_i - P_j|^-sigma over distinct ordered pairs, from one N x N table."""
    pts = np.asarray(points, dtype=np.float64)
    dist_sq = np.clip(2.0 - 2.0 * (pts @ pts.T), 0.0, None)
    dists = np.sqrt(dist_sq[~np.eye(len(pts), dtype=bool)])
    return float(np.sum(dists**-sigma))


def _signed_differences(x):
    """x_i - x_j over rows i of the half shell and columns j of H and -H."""
    return x[:, None] - np.stack((x, -x))[:, None, :]


def half_pair_tables(shell, direction):
    """The tables of dense_pair_tables over the half shell: rows H, columns H
    and -H, each of shape (2, N/2, N/2)."""
    half = shell.coords[: shell.n // 2]
    beta = _signed_differences(half_frequencies(shell, direction.components))
    gram = half @ half.T
    dist_sq = (2 * shell.m - 2 * np.stack((gram, -gram))).astype(np.float64)
    if direction.rationality is Rationality.RATIONAL:
        num = _signed_differences(half @ np.array(direction.ints, dtype=np.int64))
        zero = num == 0
        norm_sq = float(sum(c * c for c in direction.ints))
        num_f = num.astype(np.float64)
        inv_beta_sq = norm_sq / np.where(zero, np.inf, num_f * num_f)
    elif direction.rationality is Rationality.HALF_RATIONAL:
        u, v = direction.uv
        zero = ((_signed_differences(v * half[:, 0] + u * half[:, 1]) == 0)
                & (_signed_differences(half[:, 2]) == 0))
        inv_beta_sq = 1.0 / np.where(zero, np.inf, beta * beta)
    else:
        zero = np.abs(beta) <= IRRATIONAL_ZERO_TOL
        inv_beta_sq = 1.0 / np.where(zero, np.inf, beta * beta)
    return beta, zero, dist_sq, inv_beta_sq


def half_split_sums(tables, rho, mode):
    """PairSums from the tables of half_pair_tables, each total doubled."""
    beta, zero, dist_sq, inv_beta_sq = tables
    if mode == "relative":
        small = np.abs(beta) <= rho * np.sqrt(dist_sq)
    else:
        small = np.abs(beta) <= rho
    small |= zero
    tail = ~small
    inv_dist = 1.0 / np.where(dist_sq == 0.0, np.inf, dist_sq)
    return PairSums(
        s_zero=int(2 * np.sum(zero)),
        s_small=int(2 * np.sum(small)),
        inv_sq_sum=float(2 * np.sum(inv_beta_sq[tail])),
        inv_dist_sq_sum=float(2 * np.sum(inv_dist[tail])),
    )


def half_integral_sq(shell, line):
    """integral_sq over the signed half table of pair frequencies, built as
    the kernels build a tile: sin(pi L (b_i -+ b_j)) from the per-row phases
    sin(pi L b) and cos(pi L b) in one product per signed block, and
    integral_sq itself where |pi L beta| < 1.  Returns the table, beta and
    that near mask."""
    b = half_frequencies(shell, line.direction.components)
    beta = _signed_differences(b)
    x = math.pi * line.length * b
    s, c = np.sin(x), np.cos(x)
    num = np.stack((s, c), axis=1) @ np.stack((np.stack((c, -s)), np.stack((c, s))))
    with np.errstate(divide="ignore", invalid="ignore"):
        eye = num * num / (PI_SQ * beta * beta)
    near = np.abs(beta) < 1.0 / (math.pi * line.length)
    eye[near] = integral_sq(beta[near], line.length)
    return eye, beta, near


def half_q_sum(shell, line):
    return float(2 * np.sum(half_integral_sq(shell, line)[0]) / (shell.n * shell.n))


def half_r2_terms(shell, line):
    """r2_terms from the whole signed half table; r1r1 sums
    w_i w_j (integral_sq - L^2) as the kernels do, with the near entries'
    difference from _integral_sq_deficit."""
    w = half_frequencies(shell, line.direction.components) / math.sqrt(shell.m)
    w_sq = w * w
    eye, beta, near = half_integral_sq(shell, line)
    n_sq = shell.n * shell.n
    l_sq = line.length * line.length
    shifted = eye - l_sq
    shifted[near] = -_integral_sq_deficit(math.pi * line.length * beta[near], l_sq)
    r1r1 = float(2 * np.vdot(w @ shifted, np.stack((w, -w)))) / n_sq
    return SquaredCovarianceTerms(
        rr=float(2 * np.sum(eye)) / n_sq, r1r1=r1r1,
        r12r12=float(2 * np.vdot(w_sq @ eye, np.stack((w_sq, w_sq)))) / n_sq)


def half_riesz_energy(points, sigma):
    """The Riesz energy of antipodal points from one signed half table: rows
    H, columns H and -H, each point's own pair left out, the sum doubled."""
    pts = np.asarray(points, dtype=np.float64)
    half = pts[: len(pts) // 2]
    gram = half @ half.T
    dist_sq = np.clip(2.0 - 2.0 * np.stack((gram, -gram)), 0.0, None)
    keep = np.ones(dist_sq.shape, dtype=bool)
    np.fill_diagonal(keep[0], False)
    return float(2 * np.sum(np.sqrt(dist_sq[keep]) ** -sigma))


def mp_pair_sums(shell, line, dps=40):
    """q_sum and the r2_terms sums of one shell at dps digits with mpmath.

    For a rational direction a the frequencies are the exact k/|a|, with
    k = <mu, a> an integer, and each pair's beta is its integer key
    difference over |a|.  Otherwise the float64 half-shell frequencies b,
    the kernels' input, are taken as exact.  Either way the half shell is
    extended to the whole shell by the antipodes.  Each pair's
    sin^2(pi L beta)/(pi beta)^2 is evaluated at dps digits from the exact
    beta, once per distinct |beta|, and every ordered pair is summed.
    Returns (q, r1r1, r12r12), each over N^2 (q is also rr).
    """
    import mpmath

    direction = line.direction
    with mpmath.workdps(dps):
        if direction.rationality is Rationality.RATIONAL:
            ints = np.array(direction.ints, dtype=np.int64)
            half = [int(k) for k in shell.coords[: shell.n // 2] @ ints]
            unit = 1 / mpmath.sqrt(sum(c * c for c in direction.ints))
        else:
            half = [mpmath.mpf(float(v)) for v in half_frequencies(shell, direction.components)]
            unit = mpmath.mpf(1)
        # frequency f = key * unit, so beta = (key_i - key_j) * unit
        keys = half + [-k for k in reversed(half)]
        pi_length = mpmath.pi * mpmath.mpf(line.length)
        root_m = mpmath.sqrt(shell.m)
        w = [k * unit / root_m for k in keys]
        w_sq = [v * v for v in w]
        values = {}

        def summand(lag):
            # pi^2 integral_sq(beta) = sin^2(pi L beta) / beta^2
            lag = abs(lag)
            if lag not in values:
                beta = lag * unit
                values[lag] = (mpmath.sin(pi_length * beta) / beta) ** 2 if lag else \
                    pi_length * pi_length
            return values[lag]

        q = r1r1 = r12r12 = mpmath.mpf(0)
        for i, k in enumerate(keys):
            # the diagonal pair once, the pairs right of it twice for (j, i)
            row = [summand(k - g) for g in keys[i:]]
            row[1:] = [2 * v for v in row[1:]]
            q += mpmath.fsum(row)
            r1r1 += w[i] * mpmath.fdot(row, w[i:])
            r12r12 += w_sq[i] * mpmath.fdot(row, w_sq[i:])
        scale = mpmath.pi * mpmath.pi * shell.n * shell.n
        return tuple(float(total / scale) for total in (q, r1r1, r12r12))
