"""Exact pair sums over the shell and the variance bounds built from them.

Everything here reduces to the oscillatory integral

    integral_sq(beta, L) = |integral_0^L e^{2 pi i t beta} dt|^2
                         = sin^2(pi L beta) / (pi beta)^2,   L^2 at beta = 0,

evaluated at the pair frequencies beta = <mu - mu', alpha> and combined in
O(N^2) double sums: the normalized pair sum q_sum, the squared-covariance
terms, and the split sums (zero pairs, small pairs, inverse-square tails)
that the variance theorems chain together.  Whether a pair frequency is
exactly zero is decided in integer arithmetic whenever the direction's
declared rationality allows it; only fully irrational directions fall back
to a tolerance.

The bound evaluation reports two numbers per mode: the exact intermediate
quantity (a rigorous upper bound for q_sum by construction) and the
theorem's nominal asymptotic envelope, which carries unknowable constants
and is reported for a small family of epsilon values.
"""

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .diophantine import Direction, Rationality
from .geometry import kappa
from .lattice import ProjectedShell, Shell
from .randomwave import LineSegment, line_frequencies

__all__ = [
    "PairSums",
    "SquaredCovarianceTerms",
    "BoundMode",
    "BoundReport",
    "RieszResult",
    "check_mode",
    "check_rho",
    "integral_sq",
    "q_sum",
    "r2_terms",
    "pair_sums",
    "variance_bound",
    "riesz_energy",
    "ENVELOPE_EPSILONS",
]

log = logging.getLogger(__name__)

PI_SQ = math.pi * math.pi
ZERO_BETA_TOL = 1e-14
IRRATIONAL_ZERO_TOL = 1e-10
ENVELOPE_EPSILONS = (0.01, 0.05)


def integral_sq(beta, length: float):
    """Squared modulus of the segment integral of e^{2 pi i t beta}.

    Vectorized over beta; length must be positive.  The value is continuous
    at beta = 0 where it equals length^2.
    """
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    b = np.asarray(beta, dtype=np.float64)
    scalar = b.ndim == 0
    b = np.atleast_1d(b)
    out = np.full(b.shape, length * length)
    nz = np.abs(b) > ZERO_BETA_TOL
    s = np.sin(math.pi * length * b[nz])
    out[nz] = (s * s) / (PI_SQ * b[nz] * b[nz])
    return float(out[0]) if scalar else out


def _pair_frequencies(shell: Shell, direction: Direction) -> np.ndarray:
    """N x N pair frequencies beta = <mu - mu', alpha>, rows mu, columns mu'."""
    b = line_frequencies(shell, direction)
    return b[:, None] - b[None, :]


def q_sum(shell: Shell, line: LineSegment) -> float:
    """Normalized pair sum (1/N^2) * sum over ordered pairs of integral_sq."""
    if shell.n == 0:
        raise ValueError(f"q_sum needs a nonempty shell (m={shell.m})")
    return float(np.mean(integral_sq(_pair_frequencies(shell, line.direction), line.length)))


@dataclass(frozen=True)
class SquaredCovarianceTerms:
    """Pair-sum forms of the integrated squared covariance and derivatives.

    rr is exactly the double integral of r^2 over the parameter square;
    r1r1 and r2r2 carry one weight w = <mu/|mu|, alpha> per index, r12r12
    the squared weights.  With these normalizations each derivative term is
    at most rr, since |w| <= 1.
    """

    rr: float
    r1r1: float
    r2r2: float
    r12r12: float


def r2_terms(shell: Shell, line: LineSegment) -> SquaredCovarianceTerms:
    """Evaluate the four squared-covariance pair sums exactly."""
    if shell.n == 0:
        raise ValueError(f"r2_terms needs a nonempty shell (m={shell.m})")
    w = line_frequencies(shell, line.direction) / math.sqrt(shell.m)
    eye = integral_sq(_pair_frequencies(shell, line.direction), line.length)
    n_sq = shell.n * shell.n
    rr = float(np.sum(eye)) / n_sq
    r1r1 = float(w @ eye @ w) / n_sq
    w_sq = w * w
    r12r12 = float(w_sq @ eye @ w_sq) / n_sq
    return SquaredCovarianceTerms(rr=rr, r1r1=r1r1, r2r2=r1r1, r12r12=r12r12)


@dataclass(frozen=True)
class PairSums:
    """Split pair counts and inverse-square tails for one threshold rho.

    inv_sq_sum runs over the pairs above the threshold with weight
    1/<mu-mu', alpha>^2; inv_dist_sq_sum over the same pairs with weight
    1/|mu-mu'|^2 (used by the relative-split bounds).
    """

    s_zero: int
    s_small: int
    inv_sq_sum: float
    inv_dist_sq_sum: float


def _pair_tables(shell: Shell, direction: Direction):
    """Pair frequency matrix, exact zero mask, squared pair distances, and
    1/beta^2 (0 on the zero pairs)."""
    coords = shell.coords
    beta = _pair_frequencies(shell, direction)
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
        extra = int(zero.sum()) - shell.n
        if extra > 0:
            log.warning(
                "irrational direction %s: %d off-diagonal pair(s) within %g of zero",
                direction,
                extra,
                IRRATIONAL_ZERO_TOL,
            )
        inv_beta_sq = 1.0 / np.where(zero, np.inf, beta * beta)
    return beta, zero, dist_sq, inv_beta_sq


def _check_split(rho: float, mode: str) -> None:
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if mode not in ("relative", "absolute"):
        raise ValueError(f"mode must be 'relative' or 'absolute', got {mode!r}")


def _split_sums(tables, rho: float, mode: str) -> PairSums:
    """PairSums from the tables of _pair_tables; see pair_sums."""
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


def pair_sums(shell: Shell, direction: Direction, rho: float, mode: str = "relative") -> PairSums:
    """Count zero and small pairs and sum the inverse squares of the tail.

    mode "relative" uses the threshold |<mu-mu', alpha>| <= rho * |mu-mu'|,
    mode "absolute" the plain |<mu-mu', alpha>| <= rho.  Zero pairs always
    count as small; the tails run over the strictly-above-threshold pairs.
    """
    if shell.n == 0:
        raise ValueError(f"pair_sums needs a nonempty shell (m={shell.m})")
    _check_split(rho, mode)
    return _split_sums(_pair_tables(shell, direction), rho, mode)


class BoundMode(enum.Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"
    HALF_RATIONAL = "half_rational"
    CONDITIONAL = "conditional"


def check_mode(mode: BoundMode, direction: Direction) -> None:
    """Raise ValueError unless mode's theorem covers the direction's class.

    The rational, irrational and half-rational modes share their value with
    the Rationality they need; the conditional mode takes any direction.
    """
    if mode is not BoundMode.CONDITIONAL and mode.value != direction.rationality.value:
        raise ValueError(
            f"mode {mode.value} needs a {mode.value} direction, "
            f"got {direction.rationality.value}"
        )


def check_rho(mode: BoundMode, rho: float | None) -> None:
    """Raise ValueError if rho is given to the rational bound, which uses none."""
    if rho is not None and mode is BoundMode.RATIONAL:
        raise ValueError(f"the rational bound uses no rho, got {rho}")


_MODE_EXPONENT = {
    BoundMode.IRRATIONAL: 1.0 / 7.0,
    BoundMode.HALF_RATIONAL: 1.0 / 5.0,
    BoundMode.CONDITIONAL: 1.0 / 4.0,
}


def _default_rho(mode: BoundMode, m: int) -> float | None:
    root = math.sqrt(m)
    if mode is BoundMode.IRRATIONAL:
        return root ** (-6.0 / 7.0)
    if mode is BoundMode.HALF_RATIONAL:
        return root ** (-4.0 / 5.0)
    if mode is BoundMode.CONDITIONAL:
        return root ** (3.0 / 8.0)
    return None


@dataclass(frozen=True)
class BoundReport:
    """Variance-bound evaluation: exact intermediate plus nominal envelope.

    s_zero and inv_sq_sum describe the whole shell (all nonzero pairs);
    bound_value is the mode's exact split bound, which dominates q_value by
    construction.  envelope maps epsilon to the theorem's nominal curve
    (kappa/N for the rational theorem, m^-(exponent - epsilon) otherwise).
    """

    m: int
    direction: Direction
    length: float
    kappa: int
    s_zero: int
    inv_sq_sum: float
    q_value: float
    rho: float | None
    mode: BoundMode
    bound_value: float
    envelope: dict[float, float] = field(repr=False)
    conjecture_assumed: bool = False


def variance_bound(
    shell: Shell,
    line: LineSegment,
    mode: BoundMode,
    rho: float | None = None,
) -> BoundReport:
    """Evaluate the exact intermediate bound and envelope for one theorem.

    The rational theorem's intermediate is q_sum itself.  The irrational and
    half-rational theorems split pairs at |beta| <= rho * |mu - mu'| and pay
    L^2 per small pair plus 1/(pi^2 rho^2 |mu - mu'|^2) per tail pair; the
    conditional theorem splits at |beta| <= rho and pays L^2 per small pair
    plus 1/(pi^2 beta^2) per tail pair.  Each split dominates q_sum exactly,
    term by term.  q_value, s_zero, inv_sq_sum and bound_value equal what
    q_sum and pair_sums give, from one set of pair tables.
    """
    direction = line.direction
    check_mode(mode, direction)
    check_rho(mode, rho)
    rho_used = rho if rho is not None else _default_rho(mode, shell.m)
    split = "absolute" if mode is BoundMode.CONDITIONAL else "relative"
    if mode is not BoundMode.RATIONAL:
        _check_split(rho_used, split)
    kap = kappa(shell)
    n_sq = shell.n * shell.n
    length = line.length

    tables = _pair_tables(shell, direction)
    whole = _split_sums(tables, 0.0, "absolute")
    if mode is not BoundMode.RATIONAL:
        parts = _split_sums(tables, rho_used, split)
    beta = tables[0]
    del tables  # only beta stays alive while integral_sq allocates
    q_val = float(np.mean(integral_sq(beta, length)))

    if mode is BoundMode.RATIONAL:
        bound = q_val
    elif mode is BoundMode.CONDITIONAL:
        bound = (length * length * parts.s_small + parts.inv_sq_sum / PI_SQ) / n_sq
    else:
        tail = parts.inv_dist_sq_sum / (PI_SQ * rho_used * rho_used)
        bound = (length * length * parts.s_small + tail) / n_sq

    if mode is BoundMode.RATIONAL:
        envelope = {0.0: kap / shell.n}
    else:
        exponent = _MODE_EXPONENT[mode]
        envelope = {
            eps: float(shell.m) ** -(exponent - eps) for eps in ENVELOPE_EPSILONS
        }

    return BoundReport(
        m=shell.m,
        direction=direction,
        length=length,
        kappa=kap,
        s_zero=whole.s_zero,
        inv_sq_sum=whole.inv_sq_sum,
        q_value=q_val,
        rho=rho_used,
        mode=mode,
        bound_value=bound,
        envelope=envelope,
        conjecture_assumed=mode is BoundMode.CONDITIONAL,
    )


@dataclass(frozen=True)
class RieszResult:
    """Riesz energy of a unit-sphere configuration and its N^2 normalization."""

    sigma: float
    energy: float
    n: int
    limit_i: float
    normalized_gap: float


def riesz_energy(projected: ProjectedShell, sigma: float) -> RieszResult:
    """Sum |P_i - P_j|^-sigma over distinct ordered pairs of unit points.

    For shells projected to the unit sphere the normalized energy E/N^2
    approaches I(sigma) = 2^(1-sigma)/(2-sigma) as the shell grows.
    """
    if not 0.0 < sigma < 2.0:
        raise ValueError(f"sigma must lie in (0, 2), got {sigma}")
    pts = np.asarray(projected.unit_points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    gram = pts @ pts.T
    dist_sq = np.clip(2.0 - 2.0 * gram, 0.0, None)
    off = ~np.eye(n, dtype=bool)
    dists = np.sqrt(dist_sq[off])
    if np.any(dists == 0.0):
        raise ValueError("coincident points give a divergent energy")
    energy = float(np.sum(dists**-sigma))
    limit_i = 2.0 ** (1.0 - sigma) / (2.0 - sigma)
    return RieszResult(
        sigma=sigma,
        energy=energy,
        n=n,
        limit_i=limit_i,
        normalized_gap=abs(energy / (n * n) - limit_i),
    )
