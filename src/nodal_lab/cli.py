"""Reproducible experiment driver emitting CSV or JSON reports.

Commands: ``shell`` (residue classes and shell sizes), ``wave`` (one seeded
wave per shell with restriction diagnostics), ``simulate`` (Monte Carlo
zero-count statistics), ``bounds`` (variance-bound reports), ``riesz``
(sphere energies of projected shells), and ``verify`` (a battery of exact
invariant checks, nonzero exit status on any violation).

Determinism contract: a fixed configuration and seed produce byte-identical
reports across runs.  Each row derives its own integer seed from (seed, m),
so rows are independent and reproducible in isolation.  Direction specs
name their rationality explicitly: ``rat:a,b,c`` for integer directions,
``halfrat:u,v,<name>`` with a cataloged irrational slope, and
``irr:<name>`` from a catalog of square-root direction triples.
"""

import argparse
import csv
import io
import json
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arithmetic import (
    BoundMode,
    BoundOverflowError,
    bound_mode,
    check_rho,
    integral_sq,
    pair_sums,
    q_sum,
    riesz_energy,
    variance_bound,
)
from .diophantine import Direction, dirichlet_1d
from .geometry import KAPPA_M_LIMIT, kappa
from .lattice import (
    SHELL_M_LIMIT,
    ProjectedShell,
    Shell,
    classify_m,
    enumerate_shell,
    project_shell,
    scale_check,
)
from .nodal import count_zeros, monte_carlo
from .randomwave import (
    LineSegment,
    WaveSample,
    check_length,
    evaluate_f,
    sample_wave,
    second_moment_ratio,
)

__all__ = [
    "ExperimentConfig",
    "UsageError",
    "IRRATIONAL_CATALOG",
    "ZETA_CATALOG",
    "parse_direction",
    "parse_args",
    "parse_report",
    "run",
    "main",
    "SCHEMA_VERSION",
]

log = logging.getLogger(__name__)

SCHEMA_VERSION = 3
COMMANDS = ("shell", "wave", "simulate", "bounds", "riesz", "verify")
MODES = tuple(mode.value for mode in BoundMode)
FORMATS = ("csv", "json")
MEAN_FACTOR = 2.0 / math.sqrt(3.0)

IRRATIONAL_CATALOG = {
    "std": (1.0, math.sqrt(2.0), math.sqrt(3.0)),
    "s235": (math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)),
    "s257": (math.sqrt(2.0), math.sqrt(5.0), math.sqrt(7.0)),
    "s137": (1.0, math.sqrt(3.0), math.sqrt(7.0)),
}

ZETA_CATALOG = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "sqrt7": math.sqrt(7.0),
    "sqrt11": math.sqrt(11.0),
}


class UsageError(ValueError):
    """Invalid configuration; names the offending flag."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _checked(flag: str, check, *args, **kwargs):
    """check(*args, **kwargs), a library check of the value that flag gives;
    its ValueError becomes a UsageError naming flag, with the same message."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(flag, str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI invocation: command, inputs and output routing.  The field
    defaults are the command line's: parse_args passes only the given flags."""

    command: str
    m_list: tuple[int, ...]
    direction: str = "rat:1,0,0"
    length: float = 1.0
    trials: int = 200
    seed: int = 0
    rho: float | None = None
    mode: str | None = None
    sigma: float = 1.0
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError("command", f"unknown command {self.command!r}")
        if not self.m_list and self.command != "verify":
            raise UsageError("--m", "needs at least one shell number")
        for m in self.m_list:
            if not isinstance(m, int) or m < 1:
                raise UsageError("--m", f"shell numbers must be positive integers, got {m}")
            if self.command == "bounds" and m >= KAPPA_M_LIMIT:
                raise UsageError(
                    "--m", f"bounds needs kappa, which is exact only for m < {KAPPA_M_LIMIT}, "
                    f"got {m}")
            if m >= SHELL_M_LIMIT:
                raise UsageError(
                    "--m", f"shells are enumerated only for m < {SHELL_M_LIMIT}, got {m}")
        _checked("--len", check_length, self.length)
        if self.seed < 0:
            raise UsageError("--seed", f"seed must be a nonnegative integer, got {self.seed}")
        if self.command == "simulate" and self.trials < 2:
            raise UsageError("--trials", f"simulate needs at least 2 trials, got {self.trials}")
        if self.mode is not None and self.mode not in MODES:
            raise UsageError("--mode", f"unknown mode {self.mode!r}")
        if not 0.0 < self.sigma < 2.0:
            raise UsageError("--sigma", f"sigma must lie in (0, 2), got {self.sigma}")
        if self.format not in FORMATS:
            raise UsageError("--format", f"unknown format {self.format!r}")
        if self.rho is not None and not 0 <= self.rho < math.inf:
            raise UsageError("--rho", f"rho must be nonnegative and finite, got {self.rho}")
        if self.command in ("wave", "simulate", "bounds"):
            direction = parse_direction(self.direction)
            if self.command == "bounds":
                mode = _checked("--mode", bound_mode, direction, self.mode)
                _checked("--rho", check_rho, mode, self.rho)


def parse_direction(spec: str) -> Direction:
    """Parse ``rat:a,b,c``, ``halfrat:u,v,<name>`` or ``irr:<name>``."""
    kind, _, rest = spec.partition(":")
    if kind == "rat":
        try:
            a, b, c = (int(tok) for tok in rest.split(","))
        except ValueError:
            raise UsageError("--dir", f"expected rat:a,b,c with integers, got {spec!r}") from None
        return _checked("--dir", Direction.rational, a, b, c)
    if kind == "halfrat":
        tokens = rest.split(",")
        if len(tokens) != 3:
            raise UsageError("--dir", f"expected halfrat:u,v,<name>, got {spec!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise UsageError("--dir", f"u and v must be integers in {spec!r}") from None
        zeta = ZETA_CATALOG.get(tokens[2])
        if zeta is None:
            raise UsageError(
                "--dir", f"unknown slope {tokens[2]!r}; choose from {sorted(ZETA_CATALOG)}")
        return _checked("--dir", Direction.half_rational, u, v, zeta, label=spec)
    if kind == "irr":
        triple = IRRATIONAL_CATALOG.get(rest)
        if triple is None:
            raise UsageError(
                "--dir", f"unknown direction {rest!r}; choose from {sorted(IRRATIONAL_CATALOG)}")
        return Direction.irrational(*triple, label=spec)
    raise UsageError("--dir", f"direction must start with rat:, halfrat: or irr:, got {spec!r}")


def _row_seed(seed: int, m: int) -> int:
    """Deterministic per-shell seed derived from the run seed."""
    return int(np.random.SeedSequence((seed, m)).generate_state(1, np.uint64)[0])


def _admissible_shells(config: ExperimentConfig):
    """Yield (m, shell) for admissible m, warning on skipped rows."""
    for m in config.m_list:
        if not classify_m(m).primitive:
            log.warning("m=%d is inadmissible (residue %d mod 8); row skipped", m, m % 8)
            continue
        yield m, enumerate_shell(m)


def _run_shell(config: ExperimentConfig) -> list[dict]:
    rows = []
    for m in config.m_list:
        cls = classify_m(m)
        rows.append({
            "m": m,
            "residue_mod8": cls.residue,
            "representable": cls.representable,
            "primitive": cls.primitive,
            "n": enumerate_shell(m).n,
        })
    return rows


def _wave_columns(config: ExperimentConfig, line: LineSegment, m: int, shell: Shell) -> dict:
    row_seed = _row_seed(config.seed, m)
    sample = sample_wave(shell, np.random.default_rng(np.random.SeedSequence(row_seed)))
    values = evaluate_f(sample, line, np.linspace(0.0, config.length, 257))
    return {
        "seed": row_seed,
        "f_start": float(values[0]),
        "f_rms": float(np.sqrt(np.mean(values**2))),
        "f_max_abs": float(np.max(np.abs(values))),
        "zero_count": count_zeros(sample, line).count,
        "second_moment_ratio": second_moment_ratio(shell, line.direction),
    }


def _simulate_columns(config: ExperimentConfig, line: LineSegment, m: int, shell: Shell) -> dict:
    report = monte_carlo(shell, line, config.trials, _row_seed(config.seed, m))
    return {
        "trials": report.trials,
        "seed": report.seed,
        "mean": report.mean,
        "variance": report.variance,
        "stderr": report.stderr,
        "expected_mean": MEAN_FACTOR * config.length * math.sqrt(m),
        "histogram": report.histogram,
        "near_tangency_trials": report.near_tangency_trials,
        "depth_hit_trials": report.depth_hit_trials,
    }


def _bounds_columns(config: ExperimentConfig, line: LineSegment, m: int, shell: Shell) -> dict:
    report = variance_bound(shell, line, bound_mode(line.direction, config.mode), rho=config.rho)
    return {
        "mode": report.mode.value,
        "rho": report.rho,
        "kappa": report.kappa,
        "s_zero": report.s_zero,
        "inv_sq_sum": report.inv_sq_sum,
        "q_value": report.q_value,
        "bound_value": report.bound_value,
        "envelope": report.envelope,
        "conjecture_assumed": report.conjecture_assumed,
    }


def _riesz_columns(config: ExperimentConfig, line: None, m: int, shell: Shell) -> dict:
    result = riesz_energy(project_shell(shell), config.sigma)
    return {
        "sigma": result.sigma,
        "energy": result.energy,
        "limit_i": result.limit_i,
        "normalized_gap": result.normalized_gap,
    }


_COLUMNS = {
    "wave": _wave_columns,
    "simulate": _simulate_columns,
    "bounds": _bounds_columns,
    "riesz": _riesz_columns,
}


def _shell_rows(config: ExperimentConfig) -> list[dict]:
    """One row per admissible shell: m and n; the segment's direction and
    length for every command but riesz, which takes no segment; then the
    command's own columns."""
    line, segment = None, {}
    if config.command != "riesz":
        line = LineSegment(parse_direction(config.direction), config.length)
        segment = {"direction": config.direction, "length": config.length}
    columns = _COLUMNS[config.command]
    return [{"m": m, "n": shell.n, **segment, **columns(config, line, m, shell)}
            for m, shell in _admissible_shells(config)]


def _verify_checks(config: ExperimentConfig):
    """Yield (name, passed, detail) for the exact invariant battery."""
    axis = Direction.rational(1, 0, 0)
    std = Direction.irrational(*IRRATIONAL_CATALOG["std"], label="irr:std")
    half = Direction.half_rational(1, 1, ZETA_CATALOG["sqrt2"], label="halfrat:1,1,sqrt2")

    bad = [m for m in range(1, 61) if not scale_check(m)]
    yield "shell_scaling", not bad, f"E(4m)=2E(m) checked for m<=60; failures: {bad}"

    wrong = [m for m in range(1, 501)
             if (enumerate_shell(m).n == 0) == classify_m(m).representable]
    yield "empty_shells", not wrong, f"r3(m)=0 exactly on 4^l(8k+7), m<=500; failures: {wrong}"

    shell1 = enumerate_shell(1)
    q1 = q_sum(shell1, LineSegment(axis, 1.0))
    s_zero = pair_sums(shell1, axis, 0.0, "absolute").s_zero
    ok = abs(q1 - 0.5) < 1e-15 and s_zero == 18
    yield "pair_sum_example", ok, f"q={q1!r}, s_zero={s_zero} (want 0.5 and 18)"

    rng = np.random.default_rng(0)
    beta = rng.uniform(-30.0, 30.0, size=100_000)
    vals = integral_sq(beta, 1.0)
    with np.errstate(divide="ignore"):
        cap = np.minimum(1.0, 1.0 / (math.pi**2 * beta**2))
    worst = float(np.max(vals / cap))
    yield "oscillatory_min_bound", worst <= 1.0 + 1e-12, f"max ratio {worst!r} over 1e5 draws"

    failures = []
    for m in (1, 2, 5, 9, 50, 101):
        shell = enumerate_shell(m)
        cap_m = shell.n * kappa(shell)
        for triple in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
            zeros = pair_sums(shell, Direction.rational(*triple), 0.0, "absolute").s_zero
            if zeros > cap_m:
                failures.append((m, triple))
    yield "plane_capacity", not failures, f"s_zero <= N*kappa; failures: {failures}"

    bad_pairs = []
    rng = np.random.default_rng(1)
    for h_param in (3, 7, 20):
        for _ in range(25):
            zeta = float(rng.uniform(0.0, 1.0))
            p, q = dirichlet_1d(zeta, h_param)
            err = abs(Fraction(zeta) - Fraction(p, q))
            if not (1 <= q <= h_param and err < Fraction(1, q * h_param)):
                bad_pairs.append((zeta, h_param))
    yield "dirichlet_guarantee", not bad_pairs, f"|z - p/q| < 1/(qH); failures: {bad_pairs}"

    worst = 0.0
    for m in (5, 101):
        shell = enumerate_shell(m)
        for direction in (axis, std, half):
            worst = max(worst, abs(second_moment_ratio(shell, direction) - 1.0))
    yield "wave_isotropy", worst <= 1e-12, f"max |ratio-1| = {worst!r}"

    sample = WaveSample.from_coefficients(shell1, {(1, 0, 0): 1.0})
    zc = count_zeros(sample, LineSegment(axis, 1.0))
    ok = bool(zc.count == 2 and not zc.flags.near_tangency
              and max(abs(zc.roots[0] - 0.25), abs(zc.roots[1] - 0.75)) < 1e-9)
    yield "cosine_roots", ok, f"count={zc.count}, roots={zc.roots}"

    shell5 = enumerate_shell(5)
    line = LineSegment(axis, 1.0)
    rep_a = monte_carlo(shell5, line, 60, 11)
    trial_by_trial = Counter(
        count_zeros(sample_wave(shell5, np.random.default_rng(stream)), line).count
        for stream in np.random.SeedSequence(11).spawn(60))
    same = rep_a.histogram == trial_by_trial
    yield "mc_block_determinism", same, (
        "60-trial histogram identical in one block and trial by trial")

    expected = MEAN_FACTOR * math.sqrt(5.0)
    gap = abs(rep_a.mean - expected)
    yield "mc_mean_sanity", gap <= 5.0 * rep_a.stderr, (
        f"|mean-{expected:.6f}| = {gap:.4f} vs 5*stderr = {5 * rep_a.stderr:.4f}")

    violations = []
    for m in (5, 9):
        shell = enumerate_shell(m)
        for direction, mode in ((std, BoundMode.IRRATIONAL),
                                (half, BoundMode.HALF_RATIONAL),
                                (axis, BoundMode.CONDITIONAL)):
            report = variance_bound(shell, LineSegment(direction, 1.0), mode)
            if report.q_value > report.bound_value * (1.0 + 1e-12):
                violations.append((m, mode.value))
    yield "bound_dominates_q", not violations, f"q_sum <= bound_value; failures: {violations}"

    pair = ProjectedShell(m=0, unit_points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    result = riesz_energy(pair, 1.0)
    ok = abs(result.energy - 1.0) < 1e-12 and result.limit_i == 1.0
    yield "riesz_example", ok, f"antipodal energy {result.energy!r}, I(1)={result.limit_i!r}"

    gaps = [riesz_energy(project_shell(enumerate_shell(m)), 1.0).normalized_gap
            for m in (5, 21, 101)]
    ok = gaps[0] > gaps[1] > gaps[2]
    yield "riesz_gap_shrinks", ok, f"gaps at m=5,21,101: {[f'{g:.4f}' for g in gaps]}"


def _run_verify(config: ExperimentConfig) -> list[dict]:
    return [{"check": name, "passed": passed, "detail": detail}
            for name, passed, detail in _verify_checks(config)]


_RUNNERS = {"shell": _run_shell, **dict.fromkeys(_COLUMNS, _shell_rows), "verify": _run_verify}


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return ";".join(f"{_csv_cell(k)}:{_csv_cell(v)}" for k, v in value.items())
    return str(value)


def _to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(list(rows[0].keys()))
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row.values()])
    return buf.getvalue()


def _json_value(value):
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


def _to_json(command: str, rows: list[dict]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_INT_KEY_COLUMNS = frozenset({"histogram"})
_FLOAT_KEY_COLUMNS = frozenset({"envelope"})


def parse_report(text: str) -> tuple[str, list[dict]]:
    """Re-parse an emitted JSON report into (command, rows).

    Nested mapping keys are restored to their native types, so a parsed
    report compares equal to the in-memory rows it was written from.
    """
    payload = json.loads(text)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {payload.get('schema_version')!r}")
    rows = []
    for raw in payload["rows"]:
        row = {}
        for key, value in raw.items():
            if isinstance(value, dict) and key in _INT_KEY_COLUMNS:
                value = {int(k): v for k, v in value.items()}
            elif isinstance(value, dict) and key in _FLOAT_KEY_COLUMNS:
                value = {float(k): v for k, v in value.items()}
            row[key] = value
        rows.append(row)
    return payload["command"], rows


def run(config: ExperimentConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    config.validate()
    try:
        rows = _RUNNERS[config.command](config)
    except BoundOverflowError as exc:
        flag = {"length": "--len", "rho": "--rho"}[exc.parameter]
        raise UsageError(flag, str(exc)) from None
    text = _to_csv(rows) if config.format == "csv" else _to_json(config.command, rows)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError("--out", str(exc)) from None
    else:
        sys.stdout.write(text)
    if config.command == "verify":
        return 0 if all(row["passed"] for row in rows) else 1
    return 0


def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError("--m", f"expected comma-separated integers, got {text!r}") from None


def parse_args(argv) -> ExperimentConfig:
    parser = argparse.ArgumentParser(
        prog="nodal-lab", argument_default=argparse.SUPPRESS,
        description="Lattice-shell wave experiments: shells, samples, zero counts, bounds.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--m", default="1", help="comma-separated shell numbers")
    parser.add_argument("--dir", dest="direction",
                        help="rat:a,b,c | halfrat:u,v,<slope> | irr:<name>")
    parser.add_argument("--len", dest="length", type=float, help="segment length")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rho", type=float, help="pair-split threshold override")
    parser.add_argument("--mode", choices=MODES,
                        help="bound mode (default: match the direction)")
    parser.add_argument("--sigma", type=float, help="Riesz energy exponent in (0, 2)")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=FORMATS)
    given = vars(parser.parse_args(argv))
    return ExperimentConfig(m_list=_parse_m_list(given.pop("m")), **given)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
