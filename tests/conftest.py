"""Shared pytest hooks: prints the acceptance-criteria summary table, and
runs every hypothesis test from a fixed seed so that the suite stays
deterministic."""

import os
import sys

from hypothesis import settings

# no __pycache__ in src/, from this process or the ones a test starts: a
# checkout holding bytecode starts faster than a fresh one
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    if module is None or not module.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(module.CRITERIA):
        name = module.CRITERIA[number]
        if number in module.RESULTS:
            _, ok, detail = module.RESULTS[number]
            status = "PASS" if ok else "FAIL"
        else:
            status, detail = "NOT RUN", ""
        suffix = f" [{detail}]" if detail else ""
        terminalreporter.write_line(f"criterion {number} ({name}): {status}{suffix}")
