"""Gaussian waves on the 3-torus and their restriction to a straight segment.

A wave is F(x) = (1/sqrt(N)) * sum over the shell of a_mu * e^{2 pi i <mu, x>}
with complex Gaussian amplitudes tied by a_{-mu} = conj(a_mu), which makes F
real valued.  Restricting to the segment gamma(t) = t*alpha turns F into a
one-dimensional trigonometric process f(t) whose covariance r and derivatives
r1, r2, r12 have closed-form shell sums.

Amplitudes are stored once per antipodal pair, so the conjugate symmetry is
structural rather than checked.  The lexicographic ordering of shell
coordinates pairs row i with row n-1-i (negation reverses the order), which
keeps the half-shell bookkeeping index-free.

The restricted wave has one home here, which the zero counter uses too.  The
frequencies b = <mu, alpha> are computed only by ``half_frequencies``, one
per pair; ``line_frequencies`` mirrors them onto the whole shell.  One phase
table, ``_phases``, gives cos and sin of 2 pi b t, and one restriction
formula, ``_restrict``, sums f = (2/sqrt(N)) * sum (cos Re a - sin Im a)
over the pairs.  f' needs no formula of its own: differentiating each term
multiplies a by 2 pi i b, so f' is f of the pair amplitudes 2 pi i b a,
whose parts are (-2 pi b Im a, 2 pi b Re a) (``_slope_parts``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .diophantine import Direction
from .lattice import Shell, _antipodal_half, _check_nonempty

__all__ = [
    "LineSegment",
    "WaveSample",
    "CovarianceValues",
    "sample_wave",
    "evaluate_f",
    "evaluate_f_prime",
    "covariance",
    "line_frequencies",
    "second_moment_ratio",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LineSegment:
    """Straight segment gamma(t) = t*alpha for t in [0, length]."""

    direction: Direction
    length: float

    def __post_init__(self):
        length = float(self.length)
        if not (math.isfinite(length * length) and length > 0):
            raise ValueError(
                f"segment length must be positive with a finite square, got {self.length}")
        object.__setattr__(self, "length", length)

    def point(self, t):
        """Map parameter values to points t*alpha (vectorized over t)."""
        t = np.asarray(t, dtype=np.float64)
        return t[..., None] * self.direction.components


@dataclass(frozen=True, eq=False)
class WaveSample:
    """One draw of the ensemble: a complex amplitude per antipodal pair.

    ``half_coefficients[i]`` is a_mu for the i-th shell row; the amplitude of
    the mirrored row n-1-i is its conjugate by construction.
    """

    shell: Shell
    half_coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        half = np.array(self.half_coefficients, dtype=np.complex128)
        if half.shape != (self.shell.n // 2,):
            raise ValueError(
                f"need {self.shell.n // 2} pair amplitudes, got shape {half.shape}"
            )
        if not np.isfinite(half).all():
            raise ValueError("pair amplitudes must be finite")
        half.setflags(write=False)
        object.__setattr__(self, "half_coefficients", half)

    @property
    def coefficients(self) -> np.ndarray:
        """Full amplitude vector aligned with the rows of shell.coords."""
        h = self.shell.n // 2
        full = np.empty(self.shell.n, dtype=np.complex128)
        full[:h] = self.half_coefficients
        full[h:] = np.conj(self.half_coefficients[::-1])
        return full

    @classmethod
    def from_coefficients(cls, shell: Shell, values) -> "WaveSample":
        """Build a sample from an explicit {mu: a_mu} mapping.

        Pairs not mentioned get amplitude zero.  Setting mu fixes -mu to the
        conjugate; listing both with inconsistent values is an error, and so
        is a coordinate that is no integer (integral floats such as 1.0 are
        integers).
        """
        n = shell.n
        h = n // 2
        index = {tuple(row): i for i, row in enumerate(shell.coords.tolist())}
        half = np.zeros(h, dtype=np.complex128)
        seen: dict[int, complex] = {}
        for mu, value in dict(values).items():
            try:
                raw = np.asarray(mu, dtype=np.float64)
            except OverflowError:  # an integer past the float64 range is no shell point
                raise ValueError(f"{mu} is not on the shell m={shell.m}") from None
            if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):  # NaN and inf fail, and 0.5
                raise ValueError(f"{mu} is no lattice point: its coordinates must be integers")
            key = tuple(int(c) for c in raw)
            if key not in index:
                raise ValueError(f"{key} is not on the shell m={shell.m}")
            i = index[key]
            pair = min(i, n - 1 - i)
            stored = complex(value) if i < h else complex(value).conjugate()
            if pair in seen and abs(seen[pair] - stored) > 1e-12:
                raise ValueError(f"amplitudes for {key} and its antipode conflict")
            seen[pair] = stored
            half[pair] = stored
        return cls(shell, half)


@dataclass(frozen=True)
class CovarianceValues:
    """Covariance of (f(t1), f(t2)), its derivatives r1 = -r2 and mixed r12."""

    r: float
    r1: float
    r12: float

    @property
    def r2(self) -> float:
        return -self.r1


def sample_wave(shell: Shell, rng_seed) -> WaveSample:
    """Draw amplitudes: one complex standard Gaussian per antipodal pair.

    Real and imaginary parts are independent with variance 1/2 each, so
    E|a_mu|^2 = 1.  ``rng_seed`` may be an integer seed or a numpy Generator
    (the latter lets callers hand in per-trial substreams).
    """
    _check_nonempty(shell)
    rng = np.random.default_rng(rng_seed)  # a Generator is returned as it is
    z = rng.standard_normal((shell.n // 2, 2)) * math.sqrt(0.5)
    return WaveSample(shell, z[:, 0] + 1j * z[:, 1])


def line_frequencies(shell: Shell, direction: Direction) -> np.ndarray:
    """Frequencies <mu, alpha> of the restricted process, one per shell row:
    those of half_frequencies, then their negatives for the mirrored rows."""
    h = half_frequencies(shell, direction.components)
    return np.concatenate((h, -h[::-1]))


def half_frequencies(shell: Shell, v) -> np.ndarray:
    """<mu, v> over the half shell, one value per antipodal pair.

    The half shell is the first n//2 rows of shell.coords (row i mirrors row
    n-1-i).  v is one vector of three components, or a 3 x k matrix whose
    columns are vectors; the result then has one column per vector.  Raises
    ValueError on the empty shell, which has no frequencies, and if the rows
    are not in that antipodal order (as they are in lexicographic order): the
    half shell would then miss some pairs and count others twice.
    """
    _check_nonempty(shell)
    return _antipodal_half(shell.coords, shell.m).astype(np.float64) @ v


def _phases(t, b):
    """cos and sin of 2 pi b t: the axes of t, then one axis over b."""
    phase = TWO_PI * np.asarray(t)[..., None] * b
    return np.cos(phase), np.sin(phase, out=phase)  # sin reuses the buffer once cos is taken


def _restrict(cos, sin, re, im, scale):
    """f from a phase table: scale * sum (cos Re a - sin Im a) over the pairs,
    with re and im the parts of the pair amplitudes a (one row per sample)."""
    return scale * (cos @ re.T - sin @ im.T)


def _slope_parts(w, re, im):
    """Parts of the pair amplitudes i w a; with w = 2 pi b their f is the f' of a."""
    return -w * im, w * re


def _evaluate(shell: Shell, line: LineSegment, t, re, im):
    """f at t in [0, L] of the pair amplitudes with parts re and im."""
    t = np.asarray(t, dtype=np.float64)
    # NaN fails both comparisons, so it is rejected with the out-of-range t
    if not np.all((t >= 0.0) & (t <= line.length)):
        raise ValueError(f"t must lie in [0, {line.length}]")
    cos, sin = _phases(np.atleast_1d(t), half_frequencies(shell, line.direction.components))
    vals = _restrict(cos, sin, re, im, 2.0 / math.sqrt(shell.n))
    return float(vals[0]) if t.ndim == 0 else vals


def evaluate_f(sample: WaveSample, line: LineSegment, t):
    """Restriction f(t) = F(t*alpha); vectorized over t in [0, L]."""
    a = sample.half_coefficients
    return _evaluate(sample.shell, line, t, a.real, a.imag)


def evaluate_f_prime(sample: WaveSample, line: LineSegment, t):
    """Derivative f'(t): f of the pair amplitudes 2 pi i <mu, alpha> a."""
    a = sample.half_coefficients
    b = half_frequencies(sample.shell, line.direction.components)
    return _evaluate(sample.shell, line, t, *_slope_parts(TWO_PI * b, a.real, a.imag))


def covariance(shell: Shell, line: LineSegment, t1: float, t2: float) -> CovarianceValues:
    """Closed-form covariance r(t1,t2) and derivatives r1, r2, r12.

    r depends on tau = t1 - t2 only; r1 = dr/dt1 = -r2, and r12 is the mixed
    second derivative, positive on the diagonal.
    """
    b = line_frequencies(shell, line.direction)
    tau = float(t1) - float(t2)
    if not math.isfinite(tau):
        raise ValueError(f"t1 and t2 must be finite with a finite difference, got {t1}, {t2}")
    cos_part, sin_part = _phases(tau, b)
    r = float(np.mean(cos_part))
    r1 = float(np.mean(-TWO_PI * b * sin_part))
    r12 = float(np.mean((TWO_PI * b) ** 2 * cos_part))
    return CovarianceValues(r=r, r1=r1, r12=r12)


def second_moment_ratio(shell: Shell, direction: Direction) -> float:
    """Diagnostic (3/m) * (1/N) * sum <mu, alpha>^2; equals 1 when the shell
    spreads its directional energy isotropically along alpha."""
    b = line_frequencies(shell, direction)
    return float(3.0 / shell.m * np.mean(b * b))
