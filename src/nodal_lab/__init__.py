"""Nodal intersections of arithmetic random waves on the three-torus.

The package enumerates lattice-point shells |mu|^2 = m, restricts the random
Laplace eigenfunction F to straight line segments, counts the zeros of that
restriction, and evaluates the exact pair-sum bounds on the zero-count
variance for rational, irrational, and half-rational direction classes.  The
``nodal-lab`` command exposes the same pipeline as CSV/JSON report runs.
"""

from .arithmetic import (
    BoundMode,
    BoundReport,
    PairSums,
    RieszResult,
    SquaredCovarianceTerms,
    integral_sq,
    pair_sums,
    q_sum,
    r2_terms,
    riesz_energy,
    variance_bound,
)
from .diophantine import (
    Direction,
    Rationality,
    RationalApprox,
    approx_direction,
    dirichlet_1d,
    dirichlet_simultaneous,
)
from .geometry import (
    CapSpec,
    SegmentSpec,
    cap_from,
    cone_region,
    count_in,
    covering_bound,
    kappa,
    segment_from,
    slab_region,
    slicing_bound,
)
from .lattice import (
    MClass,
    ProjectedShell,
    Shell,
    classify_m,
    enumerate_shell,
    project_shell,
    scale_check,
)
from .nodal import (
    DegenerateSampleError,
    MonteCarloReport,
    ZeroCount,
    ZeroFlags,
    count_zeros,
    monte_carlo,
)
from .randomwave import (
    CovarianceValues,
    LineSegment,
    WaveSample,
    covariance,
    evaluate_f,
    evaluate_f_prime,
    line_frequencies,
    sample_wave,
    second_moment_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "BoundMode",
    "BoundReport",
    "CapSpec",
    "CovarianceValues",
    "DegenerateSampleError",
    "Direction",
    "LineSegment",
    "MClass",
    "MonteCarloReport",
    "PairSums",
    "ProjectedShell",
    "Rationality",
    "RationalApprox",
    "RieszResult",
    "SegmentSpec",
    "Shell",
    "SquaredCovarianceTerms",
    "WaveSample",
    "ZeroCount",
    "ZeroFlags",
    "approx_direction",
    "cap_from",
    "classify_m",
    "cone_region",
    "count_in",
    "count_zeros",
    "covariance",
    "covering_bound",
    "dirichlet_1d",
    "dirichlet_simultaneous",
    "enumerate_shell",
    "evaluate_f",
    "evaluate_f_prime",
    "integral_sq",
    "kappa",
    "line_frequencies",
    "monte_carlo",
    "pair_sums",
    "project_shell",
    "q_sum",
    "r2_terms",
    "riesz_energy",
    "sample_wave",
    "scale_check",
    "second_moment_ratio",
    "segment_from",
    "slab_region",
    "slicing_bound",
    "variance_bound",
]
