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
Their tables hold every summand of the N x N table, bit for bit: twice each
multiset of the signed half table is the dense one.
"""

import math

import numpy as np

from nodal_lab.arithmetic import (
    IRRATIONAL_ZERO_TOL,
    PI_SQ,
    BoundMode,
    PairSums,
    SquaredCovarianceTerms,
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


def dense_split_sums(tables, rho, mode):
    """PairSums from the tables of dense_pair_tables."""
    beta, zero, dist_sq, inv_beta_sq = tables
    if mode == "relative":
        small = np.abs(beta) <= rho * np.sqrt(dist_sq)
    else:
        small = np.abs(beta) <= rho
    small |= zero
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


def half_q_sum(shell, line):
    beta = half_pair_tables(shell, line.direction)[0]
    return float(2 * np.sum(integral_sq(beta, line.length)) / (shell.n * shell.n))


def half_r2_terms(shell, line):
    w = half_frequencies(shell, line.direction.components) / math.sqrt(shell.m)
    w_sq = w * w
    eye = integral_sq(half_pair_tables(shell, line.direction)[0], line.length)
    n_sq = shell.n * shell.n
    r1r1 = float(2 * np.vdot(w @ eye, np.stack((w, -w)))) / n_sq
    return SquaredCovarianceTerms(
        rr=float(2 * np.sum(eye)) / n_sq, r1r1=r1r1,
        r12r12=float(2 * np.vdot(w_sq @ eye, np.stack((w_sq, w_sq)))) / n_sq)
