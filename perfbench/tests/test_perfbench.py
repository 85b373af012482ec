"""Self-tests of the nodal-lab benchmark.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout; the cold-process tests start a few
short child interpreters (about 15 s in all).
"""

import copy
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_second_cold_process_still_pays_kappa(tmp_path):
    runner = run.Runner(tmp_path)
    job = {"kind": "cli", "command": "bounds", "m": [29], "dir": "rat:1,0,0"}
    first, second = runner.run(job, "trace"), runner.run(job, "trace")
    assert first["problems"] == [] and second["problems"] == []
    kappa_s = [run.layer_metrics([res], [])[0]["geometry.kappa_s"] for res in (first, second)]
    assert kappa_s[1] > 0.02
    assert kappa_s[1] > 0.3 * kappa_s[0]


def test_perturbed_reference_raises_fail_ratio(tmp_path):
    reference = jobs.load_reference()
    clean = run.measure("large-shell", jobs.DEFAULT_SEED, 0, False, reference, tmp_path)
    assert clean["failed"] == 0 and clean["attempted"] == 4

    perturbed = copy.deepcopy(reference)
    perturbed["rows"]["riesz 10001"]["10001"]["energy"] *= 1.0 + 1e-6
    worse = run.measure("large-shell", jobs.DEFAULT_SEED, 0, False, perturbed, tmp_path)
    assert worse["failed"] == 1 and worse["attempted"] == 4
    assert worse["failed"] / worse["attempted"] > clean["failed"] / clean["attempted"]


def test_seed_changes_simulate_inputs_only():
    assert jobs.jobs("simulate", 1) != jobs.jobs("simulate", 2)
    for workload in ("bounds", "large-shell"):
        assert jobs.jobs(workload, 1) == jobs.jobs(workload, 2)

    # Seed-free reports are held to the same reference values at every seed.
    reference = jobs.load_reference()
    for job in jobs.jobs("bounds", 7):
        name = jobs.job_name(job)
        mode = "rational" if job["dir"].startswith("rat:") else "irrational"
        keys = [f"{m}|{job['dir']}" for m in job["m"]]
        rows = [{"key": key, "mode": mode, **reference["rows"][name][key]} for key in keys]
        assert jobs.check(job, rows, reference, seed=7) == []
        rows[0]["kappa"] += 1
        assert jobs.check(job, rows, reference, seed=7) != []


def test_metric_names_and_units_match_the_code():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
