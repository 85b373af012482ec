"""nodal-lab benchmark: cold-process reports, checked, timed from outside.

    python3 perfbench/run.py --workload {simulate,bounds,large-shell}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each report runs in a fresh interpreter (``child.py``),
so the package's in-process caches never carry over between repetitions.
The workload is repeated until ``--seconds`` have passed (at least once).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(median wall time per repetition, median set-up time, peak RSS).  With
``--trace 1`` every repetition is run once plain and once with spans around
the layer calls, and the last line reports the per-layer metrics; the spans
are written to ``.perfbench_runs/trace-<workload>-seed<seed>.json``.

``--write-reference`` records the result values of every workload at the
default seed into ``reference.json``; run it only on a known-good tree.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import jobs as workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUNS_DIR = ROOT / ".perfbench_runs"

CHILD_TIMEOUT_S = 150.0
# Starting another repetition must not push a run past this.
RUN_BUDGET_S = 150.0
MIN_SETUP_SAMPLES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ("geometry.kappa", "arithmetic.q_sum", "arithmetic.pair_sums",
               "arithmetic.r2_terms", "arithmetic.riesz_energy",
               "arithmetic.variance_bound", "nodal.count_zeros",
               "randomwave.sample_wave", "lattice.enumerate_shell")
LAYER_COUNTS = ("geometry.kappa_calls", "arithmetic.pair_entries",
                "nodal.base_grid_points", "nodal.roots", "nodal.near_tangency_trials",
                "nodal.depth_hit_trials", "nodal.degenerate_trials", "lattice.shell_n")
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "nodal.trial_ms_p50": "ms",
    "nodal.trial_ms_p99": "ms",
    "nodal.base_grid_exact_ratio": "ratio",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    """The inherited environment with one BLAS/OpenMP thread and no thread override."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NODAL_LAB_THREADS", "PYTHONPATH", "PYTHONHOME")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "?") + " " + deps[k].get("version", "?")
                for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "pinned": {var: "1" for var in THREAD_VARS}}


class Runner:
    """Starts child processes one at a time and collects what they report."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.count = 0

    def run(self, job: dict, mode: str) -> dict:
        self.count += 1
        mark_path = self.workdir / f"{self.count}.mark.json"
        report_path = self.workdir / f"{self.count}.report.json"
        log_path = self.workdir / f"{self.count}.stderr"
        cmd = [sys.executable, str(CHILD), mode, json.dumps(job), str(mark_path),
               str(report_path)]
        with open(log_path, "wb") as log:
            spawned = time.monotonic_ns()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log)
            status, rss_kb = _wait(proc, spawned / 1e9 + CHILD_TIMEOUT_S)
        result = {"job": job, "mode": mode, "status": status, "rss_mb": rss_kb / 1024.0,
                  "problems": []}
        mark = _read_json(mark_path)
        if status != 0 or mark is None or "first_call" not in mark or (
                mode != "probe" and "done" not in mark):
            detail = (mark or {}).get("error") or log_path.read_text(errors="replace")[-2000:]
            result["problems"].append(
                f"{workloads.job_name(job)} ({mode}): exit status {status}\n{detail}")
            return result
        result["setup_s"] = (mark["first_call"] - spawned) / 1e9
        if mode == "probe":
            return result
        result["wall_s"] = (mark["done"] - mark["first_call"]) / 1e9
        if mode == "trace" or job["kind"] == "pairs":
            result["rows"] = mark["rows"]
        else:
            payload = _read_json(report_path)
            if payload is None:
                result["problems"].append(f"{workloads.job_name(job)}: no readable report")
                return result
            result["report_bytes"] = report_path.stat().st_size
            result["rows"] = workloads.report_rows(job, payload)
        result["spans"] = mark.get("spans", [])
        result["counters"] = mark.get("counters", {})
        return result


def _wait(proc: subprocess.Popen, deadline: float) -> tuple[int, int]:
    """Reap the child with its resource usage; kill it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.005)


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def run_reports(runner: Runner, job_list: list[dict], mode: str, reference: dict,
                seed: int) -> list[dict]:
    """One repetition; each result carries the problems its checks found."""
    results = [runner.run(job, mode) for job in job_list]
    if mode == "run":
        for res in results:
            if not res["problems"]:
                res["problems"] += workloads.check(res["job"], res["rows"], reference, seed)
    return results


def compare_replay(traced: list[dict], plain: list[dict]) -> None:
    """Each replayed value must equal the plain report's value exactly."""
    for tres, pres in zip(traced, plain):
        if tres["problems"] or pres["problems"]:
            continue
        plain_rows = {row["key"]: row for row in pres["rows"]}
        for row in tres["rows"]:
            ref = plain_rows.get(row["key"], {})
            for field, value in row.items():
                if ref.get(field) != value:
                    tres["problems"].append(
                        f"{workloads.job_name(tres['job'])} {row['key']}: replayed "
                        f"{field}={value!r}, report has {ref.get(field)!r}")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover, in seconds."""
    own = [(end - start) / 1e9 for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= (end - start) / 1e9
    return own


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and per-operation detail."""
    busy = defaultdict(float)
    counts = Counter()
    trials_ms = []
    ops = defaultdict(lambda: defaultdict(float))
    for res in traced:
        counts.update(res.get("counters", {}))
        spans = res.get("spans", [])
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, op = span
            busy[name] += own
            ops[op][f"{name}_s"] += own
            if name == "bench.trial":
                trials_ms.append((end - start) / 1e6)
                ops[op]["trials"] += 1
                ops[op]["trial_ms_total"] += (end - start) / 1e6
    trials = len(trials_ms) + counts["nodal.degenerate_trials"]
    metrics = {f"{name}_s": busy[name] for name in LAYER_TIMES}
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    metrics["nodal.trial_ms_p50"] = _percentile(trials_ms, 0.5)
    metrics["nodal.trial_ms_p99"] = _percentile(trials_ms, 0.99)
    metrics["nodal.base_grid_exact_ratio"] = (
        counts["nodal.base_grid_exact_trials"] / trials if trials else 0.0)
    metrics["cli.report_bytes"] = sum(res.get("report_bytes", 0) for res in plain)
    return metrics, {op: dict(v) for op, v in ops.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict,
            workdir: Path) -> dict:
    runner = Runner(workdir)
    job_list = workloads.jobs(workload, seed)
    runner.run(job_list[0], "probe")  # warm the bytecode and file caches
    start = time.monotonic()
    reps = []  # (plain results, traced results or None)
    while True:
        rep_start = time.monotonic()
        plain = run_reports(runner, job_list, "run", reference, seed)
        traced = None
        if trace:
            traced = run_reports(runner, job_list, "trace", reference, seed)
            compare_replay(traced, plain)
        reps.append((plain, traced))
        now = time.monotonic()
        if now - start >= seconds or (now - start) + (now - rep_start) > RUN_BUDGET_S:
            break
    results = [res for plain, traced in reps for res in plain + (traced or [])]
    setups = [res["setup_s"] for res in results if "setup_s" in res]
    if not trace:
        for i in range(max(0, MIN_SETUP_SAMPLES - len(setups))):
            probe = runner.run(job_list[i % len(job_list)], "probe")
            results.append(probe)
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
    reports = [res for res in results if res["mode"] != "probe"]
    problems = [p for res in results for p in res["problems"]]
    failed = sum(1 for res in reports if res["problems"])
    summary = {"attempted": len(reports), "failed": failed, "problems": problems,
               "repetitions": len(reps)}
    if any("wall_s" not in res for res in reports):
        return summary

    def wall(rep):
        return sum(res["wall_s"] for res in rep)

    plain_wall = statistics.median(wall(plain) for plain, _ in reps)
    if not trace:
        summary["metrics"] = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(res["rss_mb"] for res in reports),
        }
        return summary
    per_rep = [layer_metrics(traced, plain) for plain, traced in reps]
    metrics = {name: statistics.median(m[name] for m, _ in per_rep) for name in per_rep[0][0]}
    metrics["trace.overhead_s"] = (
        statistics.median(wall(traced) for _, traced in reps) - plain_wall)
    summary["metrics"] = metrics
    summary["trace"] = {
        "ops": per_rep[0][1],
        "processes": [{"job": workloads.job_name(res["job"]), "spans": res["spans"]}
                      for _, traced in reps for res in traced],
    }
    return summary


def write_reference(workdir: Path) -> None:
    seed = workloads.DEFAULT_SEED
    runner = Runner(workdir)
    rows = {}
    for workload in workloads.WORKLOADS:
        for res in (runner.run(job, "run") for job in workloads.jobs(workload, seed)):
            if res["problems"]:
                raise SystemExit("\n".join(res["problems"]))
            fields = workloads.REFERENCE_FIELDS.get(res["job"].get("command"))
            rows[workloads.job_name(res["job"])] = {
                row["key"]: {k: v for k, v in row.items()
                             if k != "key" and (fields is None or k in fields)}
                for row in res["rows"]}
    reference = {"seed": seed, "trials": workloads.SIM_TRIALS, "rows": rows}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nodal_lab" / "cli.py").is_file():
        print(f"no nodal-lab source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        if args.write_reference:
            write_reference(workdir)
            return 0
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          workloads.load_reference(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    for problem in summary["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in summary.get("metrics", {}).items()}
    if "trace" in summary:
        trace_path = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                       "metrics": summary["metrics"], **summary["trace"]}, handle)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    shown = " ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    print(f"# {args.workload} seed={args.seed} repetitions={summary['repetitions']} {shown} "
          f"fail_ratio={summary['failed'] / summary['attempted']:.4g} "
          f"({summary['failed']}/{summary['attempted']} reports)")
    print(json.dumps({"correct": not summary["problems"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
