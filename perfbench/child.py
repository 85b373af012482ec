"""One report in a cold interpreter: the benchmark's only view into nodal-lab.

    python3 child.py {run,probe,trace} JOB_JSON MARK_PATH REPORT_PATH

``run`` produces the report the way a user does: ``nodal-lab`` via
``cli.main`` for cli jobs, the library pair sums for pairs jobs.  ``probe``
stops at the first layer call, so it measures set-up alone.  ``trace``
replays the same calls with a span around each public layer function and
returns the replayed rows.

The mark file receives monotonic timestamps of the first layer call
(``lattice.classify_m`` or ``lattice.enumerate_shell``) and of the finished
report, the rows of library and replayed jobs, and in trace mode the spans
and counters.  Layer functions are wrapped by rebinding their names in the
loaded ``nodal_lab`` modules; the package source is not modified.
"""

import functools
import importlib
import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

import nodal_lab  # noqa: E402  (imports every layer module)
import nodal_lab.cli as cli  # noqa: E402
from nodal_lab import arithmetic, geometry, lattice, nodal, randomwave  # noqa: E402

from jobs import cli_argv  # noqa: E402

GRID_FACTOR = 8.0  # count_zeros's default grid_factor


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent_index, op]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.monotonic_ns(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.monotonic_ns()
            self._stack.pop()


def _rebind(module: str, name: str, make) -> None:
    """Replace every binding of ``nodal_lab.<module>.<name>`` in the package."""
    original = getattr(importlib.import_module(f"nodal_lab.{module}"), name)
    wrapped = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nodal_lab" or mod_name.startswith("nodal_lab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def _pair_entries(args, result):
    return {"arithmetic.pair_entries": args[0].n ** 2}


def _zero_counts(args, result):
    return {"nodal.roots": result.count,
            "nodal.near_tangency_trials": int(result.flags.near_tangency),
            "nodal.depth_hit_trials": int(result.flags.refinement_depth_hit)}


# (module, public function, counters taken from (args, result))
LAYER_CALLS = (
    ("lattice", "enumerate_shell", lambda args, r: {"lattice.shell_n": r.n}),
    ("geometry", "kappa", lambda args, r: {"geometry.kappa_calls": 1}),
    ("arithmetic", "q_sum", _pair_entries),
    ("arithmetic", "pair_sums", _pair_entries),
    ("arithmetic", "r2_terms", _pair_entries),
    ("arithmetic", "riesz_energy",
     lambda args, r: {"arithmetic.pair_entries": len(args[0].unit_points) ** 2}),
    ("arithmetic", "variance_bound", None),
    ("nodal", "count_zeros", _zero_counts),
    ("randomwave", "sample_wave", None),
)


def install_tracer(tracer: Tracer) -> None:
    for module, name, count in LAYER_CALLS:
        def make(fn, span_name=f"{module}.{name}", count=count):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
                if count is not None:
                    tracer.counters.update(count(args, result))
                return result
            return traced
        _rebind(module, name, make)


def install_first_call_hook(mark: dict, probe: bool, mark_path: str) -> None:
    """Record the first layer call; a probe writes its mark and exits there."""
    def make(fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if "first_call" not in mark:
                mark["first_call"] = time.monotonic_ns()
                if probe:
                    _write(mark_path, mark)
                    os._exit(0)
            return fn(*args, **kwargs)
        return hooked
    for name in ("classify_m", "enumerate_shell"):
        _rebind("lattice", name, make)


def default_rho(direction, m: int) -> float | None:
    """The split threshold ``variance_bound`` uses by default for the direction.

    Restated here because ``variance_bound`` itself would also compute
    ``kappa``, which takes hours at the large shell.
    """
    kind = direction.rationality.value
    if kind == "irrational":
        return math.sqrt(m) ** (-6.0 / 7.0)
    if kind == "half_rational":
        return math.sqrt(m) ** (-4.0 / 5.0)
    return None


def pair_rows(job: dict, tracer: Tracer | None = None) -> list[dict]:
    """q_sum, the pair sums variance_bound makes, and r2_terms, per shell."""
    rows = []
    direction = cli.parse_direction(job["dir"])
    line = randomwave.LineSegment(direction, 1.0)
    for m in job["m"]:
        if tracer is not None:
            tracer.op = f"pairs {m} {job['dir']}"
        shell = lattice.enumerate_shell(m)
        row = {"key": f"{m}|{job['dir']}", "q_sum": arithmetic.q_sum(shell, line)}
        splits = [("whole", 0.0, "absolute")]
        rho = default_rho(direction, m)
        if rho is not None:
            splits.append(("split", rho, "relative"))
        for label, threshold, mode in splits:
            sums = arithmetic.pair_sums(shell, direction, threshold, mode)
            row.update({f"{label}.{f}": getattr(sums, f)
                        for f in ("s_zero", "s_small", "inv_sq_sum", "inv_dist_sq_sum")})
        terms = arithmetic.r2_terms(shell, line)
        row.update({f"r2.{f}": getattr(terms, f) for f in ("rr", "r1r1", "r2r2", "r12r12")})
        rows.append(row)
    return rows


def row_seed(seed: int, m: int) -> int:
    """Per-row seed, derived from (seed, m) as the simulate report does."""
    return int(np.random.SeedSequence((seed, m)).generate_state(1, np.uint64)[0])


def replay_simulate(job: dict, tracer: Tracer) -> list[dict]:
    """monte_carlo's trials, one sample_wave and count_zeros call at a time.

    Also counts the sign changes on count_zeros's base grid, to find the
    trials that refinement did not change.
    """
    rows = []
    direction = cli.parse_direction(job["dir"])
    line = randomwave.LineSegment(direction, 1.0)
    for m in job["m"]:
        tracer.op = f"simulate {m} {job['dir']}"
        shell = lattice.enumerate_shell(m)
        seed = row_seed(job["seed"], m)
        f_max = float(np.max(np.abs(randomwave.line_frequencies(shell, direction))))
        n_pts = max(int(math.ceil(GRID_FACTOR * 2.0 * f_max * line.length)) + 1, 2)
        grid = np.linspace(0.0, line.length, n_pts)
        counts = []
        for stream in np.random.SeedSequence(seed).spawn(job["trials"]):
            with tracer.span("bench.trial"):
                sample = randomwave.sample_wave(shell, np.random.default_rng(stream))
                try:
                    zc = nodal.count_zeros(sample, line)
                except nodal.DegenerateSampleError:
                    tracer.counters["nodal.degenerate_trials"] += 1
                    continue
            counts.append(zc.count)
            with tracer.span("bench.base_grid"):
                fv = randomwave.evaluate_f(sample, line, grid)
                changes = int(np.count_nonzero(fv[:-1] * fv[1:] < 0.0))
            tracer.counters["nodal.base_grid_points"] += n_pts
            tracer.counters["nodal.base_grid_exact_trials"] += int(changes == zc.count)
        histogram = {str(k): v for k, v in sorted(Counter(counts).items())}
        rows.append({"key": f"{m}|{job['dir']}", "seed": seed, "histogram": histogram})
    return rows


def replay_bounds(job: dict, tracer: Tracer) -> list[dict]:
    """A cold kappa in its own span, then variance_bound, per shell."""
    rows = []
    direction = cli.parse_direction(job["dir"])
    line = randomwave.LineSegment(direction, 1.0)
    mode = arithmetic.BoundMode(direction.rationality.value)
    for m in job["m"]:
        tracer.op = f"bounds {m} {job['dir']}"
        shell = lattice.enumerate_shell(m)
        geometry.kappa(shell)
        report = arithmetic.variance_bound(shell, line, mode)
        rows.append({"key": f"{m}|{job['dir']}", "mode": mode.value,
                     **{f: getattr(report, f) for f in
                        ("kappa", "s_zero", "inv_sq_sum", "q_value", "bound_value")}})
    return rows


def replay_riesz(job: dict, tracer: Tracer) -> list[dict]:
    rows = []
    for m in job["m"]:
        tracer.op = f"riesz {m}"
        shell = lattice.enumerate_shell(m)
        result = arithmetic.riesz_energy(lattice.project_shell(shell), 1.0)
        rows.append({"key": str(m), "energy": result.energy,
                     "normalized_gap": result.normalized_gap})
    return rows


def replay(job: dict, tracer: Tracer) -> list[dict]:
    if job["kind"] == "pairs":
        return pair_rows(job, tracer)
    return {"simulate": replay_simulate, "bounds": replay_bounds,
            "riesz": replay_riesz}[job["command"]](job, tracer)


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def main(argv: list[str]) -> int:
    mode, job_text, mark_path, report_path = argv
    job = json.loads(job_text)
    mark: dict = {}
    if not Path(nodal_lab.__file__).resolve().is_relative_to(SRC):
        mark["error"] = f"nodal_lab imported from {nodal_lab.__file__}, not from {SRC}"
        _write(mark_path, mark)
        return 3
    status = 0
    try:
        install_first_call_hook(mark, mode == "probe", mark_path)
        if mode == "trace":
            tracer = Tracer()
            install_tracer(tracer)
            mark["rows"] = replay(job, tracer)
            mark["spans"] = tracer.spans
            mark["counters"] = dict(tracer.counters)
        elif job["kind"] == "pairs":
            mark["rows"] = pair_rows(job)
        else:
            status = cli.main(cli_argv(job, report_path))
        mark["done"] = time.monotonic_ns()
    except Exception:  # the report failed; the parent counts it
        mark["error"] = traceback.format_exc()
        status = 1
    _write(mark_path, mark)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
