"""The public surface: the names the package exports, pinned so that any
addition or deletion shows up as a one-line change here."""

import importlib
import pkgutil

import nodal_lab

PUBLIC = [
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
    "RationalApprox",
    "Rationality",
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


def test_package_exports_the_pinned_names():
    assert sorted(nodal_lab.__all__) == PUBLIC


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(nodal_lab.__path__):
        module = importlib.import_module(f"nodal_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"nodal_lab.{info.name}.{name}"
    for name in nodal_lab.__all__:
        assert hasattr(nodal_lab, name), name
