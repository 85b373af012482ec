"""Workload definitions and result checks for the nodal-lab benchmark.

A workload is a list of jobs.  Each job is one report, run in its own cold
interpreter by ``child.py``: either a ``nodal-lab`` command (simulate,
bounds, riesz) or, for the large shell, the library pair sums that
``variance_bound`` makes.  Only the simulate jobs depend on the seed.

A job's result is a list of rows, each with a ``key`` naming the row and the
values the checks read.  ``check`` compares them with the reference values
recorded from the unmodified package and applies the invariants that hold
for every seed.
"""

import json
import math
from pathlib import Path

DEFAULT_SEED = 1611
SIM_TRIALS = 100
SIM_MS = (101, 1009)
SIM_DIRS = ("rat:1,0,0", "irr:std")
BOUNDS_MS = (101, 1009)
BOUNDS_DIRS = ("rat:1,0,0", "irr:std")
LARGE_M = 10001
LARGE_DIRS = ("rat:1,1,1", "halfrat:1,1,sqrt2", "irr:std")

WORKLOADS = ("simulate", "bounds", "large-shell")

# Relative tolerance for float result values; integers and histograms match
# exactly.  Reports print 17 significant digits, so unchanged arithmetic
# reproduces the values bit for bit; the tolerance admits a summation order
# change and nothing a wrong result would produce.
FLOAT_RTOL = 1e-9
BOUND_SLACK = 1e-12
MEAN_STDERRS = 5.0

# Values recorded in reference.json per command; pairs jobs record every value.
REFERENCE_FIELDS = {
    "simulate": ("histogram", "mean", "variance"),
    "bounds": ("kappa", "s_zero", "inv_sq_sum", "q_value", "bound_value"),
    "riesz": ("energy", "normalized_gap"),
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def simulate_seed(seed: int) -> int:
    """The ``nodal-lab simulate --seed`` value a benchmark seed maps to."""
    return seed % 2**32


def jobs(workload: str, seed: int) -> list[dict]:
    """The reports of one repetition of ``workload``, in run order."""
    if workload == "simulate":
        return [{"kind": "cli", "command": "simulate", "m": [m], "dir": d,
                 "trials": SIM_TRIALS, "seed": simulate_seed(seed)}
                for m in SIM_MS for d in SIM_DIRS]
    if workload == "bounds":
        return [{"kind": "cli", "command": "bounds", "m": list(BOUNDS_MS), "dir": d}
                for d in BOUNDS_DIRS]
    if workload == "large-shell":
        return ([{"kind": "cli", "command": "riesz", "m": [LARGE_M]}]
                + [{"kind": "pairs", "m": [LARGE_M], "dir": d} for d in LARGE_DIRS])
    raise ValueError(f"unknown workload {workload!r}")


def job_name(job: dict) -> str:
    parts = [job.get("command", job["kind"]), ",".join(map(str, job["m"]))]
    if "dir" in job:
        parts.append(job["dir"])
    return " ".join(parts)


def cli_argv(job: dict, out: str) -> list[str]:
    """``nodal-lab`` arguments for a cli job, writing a JSON report to ``out``."""
    argv = [job["command"], "--m", ",".join(map(str, job["m"]))]
    if "dir" in job:
        argv += ["--dir", job["dir"]]
    if job["command"] == "simulate":
        argv += ["--trials", str(job["trials"]), "--seed", str(job["seed"])]
    return argv + ["--format", "json", "--out", out]


def report_rows(job: dict, payload: dict) -> list[dict]:
    """Checked values of a ``nodal-lab --format json`` report."""
    rows = []
    for row in payload["rows"]:
        if job["command"] == "simulate":
            values = {f: row[f] for f in ("seed", "mean", "variance", "stderr",
                                          "expected_mean", "histogram")}
            key = f"{row['m']}|{row['direction']}"
        elif job["command"] == "bounds":
            values = {f: row[f] for f in ("mode", "kappa", "s_zero", "inv_sq_sum",
                                          "q_value", "bound_value")}
            key = f"{row['m']}|{row['direction']}"
        else:
            values = {f: row[f] for f in ("energy", "normalized_gap")}
            key = str(row["m"])
        rows.append({"key": key, **values})
    return rows


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _same(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return False
        return math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    return expected == actual


def check(job: dict, rows: list[dict], reference: dict, seed: int) -> list[str]:
    """Problems with one job's rows; an empty list means the report is correct."""
    problems = []
    name = job_name(job)
    expected_keys = _expected_keys(job)
    got_keys = [row["key"] for row in rows]
    if got_keys != expected_keys:
        return [f"{name}: rows {got_keys}, expected {expected_keys}"]
    ref_rows = reference["rows"].get(name, {})
    use_ref = job.get("command") != "simulate" or (
        seed == reference["seed"] and job["trials"] == reference["trials"])
    for row in rows:
        if use_ref:
            ref = ref_rows.get(row["key"])
            if ref is None:
                problems.append(f"{name} {row['key']}: no reference row")
                continue
            for field, value in ref.items():
                if field not in row:
                    problems.append(f"{name} {row['key']}: missing {field}")
                elif not _same(value, row[field]):
                    problems.append(
                        f"{name} {row['key']}: {field}={row[field]!r}, reference {value!r}")
        problems += [f"{name} {row['key']}: {p}" for p in _invariants(job, row)]
    return problems


def _expected_keys(job: dict) -> list[str]:
    if job.get("command") == "riesz":
        return [str(m) for m in job["m"]]
    return [f"{m}|{job['dir']}" for m in job["m"]]


def _invariants(job: dict, row: dict) -> list[str]:
    problems = []
    if job.get("command") == "simulate":
        gap = abs(row["mean"] - row["expected_mean"])
        if not gap <= MEAN_STDERRS * row["stderr"]:
            problems.append(f"mean {row['mean']!r} is {gap:.4g} from expected_mean, "
                            f"over {MEAN_STDERRS:g} stderr ({row['stderr']:.4g})")
        if sum(row["histogram"].values()) != job["trials"]:
            problems.append("histogram does not sum to the trial count")
    if job.get("command") == "bounds" and row["mode"] != "rational":
        if not row["q_value"] <= row["bound_value"] * (1.0 + BOUND_SLACK):
            problems.append(f"q_value {row['q_value']!r} > bound_value {row['bound_value']!r}")
    return problems
