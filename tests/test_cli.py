"""Tests for the experiment driver: config handling, reports, determinism."""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from nodal_lab import cli, nodal
from nodal_lab.cli import (
    ExperimentConfig,
    UsageError,
    main,
    parse_args,
    parse_direction,
    parse_report,
    run,
)
from nodal_lab.diophantine import Rationality
from nodal_lab.lattice import SHELL_M_LIMIT, enumerate_shell

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def make_config(**overrides):
    base = dict(command="shell", m_list=(1,))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("overrides,field", [
        (dict(command="orbit"), "command"),
        (dict(m_list=()), "--m"),
        (dict(m_list=(0,)), "--m"),
        (dict(length=0.0), "--len"),
        (dict(command="simulate", trials=1), "--trials"),
        (dict(mode="best"), "--mode"),
        (dict(sigma=2.0), "--sigma"),
        (dict(format="xml"), "--format"),
        (dict(seed=-1), "--seed"),
        (dict(rho=-1.0), "--rho"),
        (dict(rho=math.nan), "--rho"),
        (dict(command="wave", direction="rat:one,0,0"), "--dir"),
        (dict(length=math.inf), "--len"),
        (dict(length=1e200), "--len"),
    ])
    def test_validate_names_offending_field(self, overrides, field):
        config = make_config(**overrides)
        with pytest.raises(UsageError) as info:
            config.validate()
        assert info.value.field == field


class TestDirectionSpecs:
    def test_rational(self):
        direction = parse_direction("rat:2,0,-4")
        assert direction.rationality is Rationality.RATIONAL
        assert direction.ints == (1, 0, -2)

    def test_half_rational(self):
        direction = parse_direction("halfrat:1,2,sqrt3")
        assert direction.rationality is Rationality.HALF_RATIONAL
        assert direction.uv == (1, 2)
        assert direction.zeta == math.sqrt(3.0)
        assert direction.label == "halfrat:1,2,sqrt3"

    def test_irrational_catalog(self):
        direction = parse_direction("irr:std")
        assert direction.rationality is Rationality.IRRATIONAL
        expected = 1.0 / math.sqrt(6.0)
        assert direction.components[0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        "rat:1,0", "rat:a,b,c", "rat:0,0,0", "halfrat:1,1", "halfrat:1,1,pi",
        "halfrat:1,0,sqrt2", "irr:pi", "spiral:1,2,3", "rat",
    ])
    def test_bad_specs_name_the_flag(self, spec):
        with pytest.raises(UsageError) as info:
            parse_direction(spec)
        assert info.value.field == "--dir"


class TestArgParsing:
    def test_full_flag_set(self):
        config = parse_args([
            "bounds", "--m", "5,9", "--dir", "irr:s235", "--len", "0.5",
            "--trials", "32", "--seed", "7", "--rho", "0.2",
            "--mode", "conditional", "--sigma", "1.5",
            "--out", "x.csv", "--format", "json",
        ])
        assert config == ExperimentConfig(
            command="bounds", m_list=(5, 9), direction="irr:s235", length=0.5,
            trials=32, seed=7, rho=0.2, mode="conditional", sigma=1.5,
            out="x.csv", format="json")

    def test_defaults(self):
        config = parse_args(["shell"])
        assert config.m_list == (1,)
        assert config.direction == "rat:1,0,0"
        assert config.format == "csv"


class TestShellCommand:
    def test_unrepresentable_row(self, tmp_path):
        out = tmp_path / "shell.csv"
        run(make_config(m_list=(7,), out=str(out)))
        rows = read_csv(out)
        assert rows == [{"m": "7", "residue_mod8": "7", "representable": "false",
                         "primitive": "false", "n": "0"}]

    def test_mixed_rows(self, tmp_path):
        out = tmp_path / "shell.csv"
        run(make_config(m_list=(1, 4, 7), out=str(out)))
        rows = read_csv(out)
        assert [r["n"] for r in rows] == ["6", "6", "0"]
        assert [r["primitive"] for r in rows] == ["true", "false", "false"]


class TestSimulateCommand:
    def test_mean_matches_expectation(self, tmp_path):
        out = tmp_path / "sim.csv"
        config = make_config(command="simulate", m_list=(1,), trials=2000,
                             seed=42, out=str(out))
        assert run(config) == 0
        row = read_csv(out)[0]
        mean = float(row["mean"])
        stderr = float(row["stderr"])
        expected = float(row["expected_mean"])
        assert expected == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
        assert abs(mean - expected) <= 3.0 * stderr

    def test_histogram_column_accounts_for_all_trials(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(make_config(command="simulate", m_list=(5,), trials=40, seed=3,
                        out=str(out)))
        cell = read_csv(out)[0]["histogram"]
        assert re.fullmatch(r"\d+:\d+(;\d+:\d+)*", cell)
        assert sum(int(kv.split(":")[1]) for kv in cell.split(";")) == 40

    def test_inadmissible_rows_skipped_with_warning(self, tmp_path, caplog):
        out = tmp_path / "sim.csv"
        config = make_config(command="simulate", m_list=(4, 1, 7), trials=16,
                             out=str(out))
        with caplog.at_level("WARNING", logger="nodal_lab.cli"):
            run(config)
        rows = read_csv(out)
        assert [r["m"] for r in rows] == ["1"]
        skipped = [rec for rec in caplog.records if "skipped" in rec.message]
        assert len(skipped) == 2

    def test_rows_independent_of_list_context(self, tmp_path):
        alone = tmp_path / "alone.csv"
        both = tmp_path / "both.csv"
        run(make_config(command="simulate", m_list=(5,), trials=30, seed=8,
                        out=str(alone)))
        run(make_config(command="simulate", m_list=(1, 5), trials=30, seed=8,
                        out=str(both)))
        assert read_csv(alone)[0] == read_csv(both)[1]

    def test_stable_columns(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(make_config(command="simulate", m_list=(5,), trials=20, seed=4,
                        out=str(out)))
        with open(out, newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["m", "n", "direction", "length", "trials", "seed", "mean",
                          "variance", "stderr", "expected_mean", "histogram",
                          "near_tangency_trials", "depth_hit_trials"]
        row = read_csv(out)[0]
        assert 0 <= int(row["near_tangency_trials"]) <= 20
        assert 0 <= int(row["depth_hit_trials"]) <= int(row["near_tangency_trials"])


class TestDeterminism:
    def test_byte_identical_across_block_sizes_and_reruns(self, tmp_path, monkeypatch):
        texts = []
        for name, block in [("a", 256), ("b", 7), ("c", 256)]:
            monkeypatch.setattr(nodal, "BLOCK_TRIALS", block)
            out = tmp_path / f"{name}.csv"
            run(make_config(command="simulate", m_list=(1, 2), trials=60,
                            seed=9, out=str(out)))
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_json_reports_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            run(make_config(command="bounds", m_list=(5, 9), direction="irr:std",
                            format="json", out=str(out)))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestJsonReports:
    def test_round_trip_rows(self, tmp_path):
        out = tmp_path / "sim.json"
        config = make_config(command="simulate", m_list=(1, 5), trials=24,
                             seed=2, format="json", out=str(out))
        run(config)
        text = out.read_text()
        command, rows = parse_report(text)
        assert command == "simulate"
        assert rows == cli._run_simulate(config)
        assert json.loads(text)["schema_version"] == 3
        assert all(isinstance(row["near_tangency_trials"], int) for row in rows)

    def test_round_trip_bounds_envelope_keys(self, tmp_path):
        out = tmp_path / "bounds.json"
        config = make_config(command="bounds", m_list=(5,), direction="irr:std",
                             format="json", out=str(out))
        run(config)
        _, rows = parse_report(out.read_text())
        assert rows == cli._run_bounds(config)
        assert set(rows[0]["envelope"]) == {0.01, 0.05}

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema_version"):
            parse_report(json.dumps({"schema_version": 4, "command": "x", "rows": []}))


class TestBoundsCommand:
    def test_stable_columns(self, tmp_path):
        out = tmp_path / "bounds.csv"
        run(make_config(command="bounds", m_list=(5,), direction="rat:1,0,0",
                        out=str(out)))
        with open(out, newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["m", "n", "direction", "length", "mode", "rho", "kappa",
                          "s_zero", "inv_sq_sum", "q_value", "bound_value", "envelope",
                          "conjecture_assumed"]

    def test_mode_defaults_to_direction(self, tmp_path):
        out = tmp_path / "bounds.csv"
        run(make_config(command="bounds", m_list=(5,),
                        direction="halfrat:1,1,sqrt2", out=str(out)))
        row = read_csv(out)[0]
        assert row["mode"] == "half_rational"
        assert row["conjecture_assumed"] == "false"

    def test_mode_mismatch_is_usage_error(self):
        config = make_config(command="bounds", m_list=(5,), direction="rat:1,0,0",
                             mode="irrational")
        with pytest.raises(UsageError, match="--mode"):
            run(config)

    def test_rho_in_rational_mode_is_usage_error(self, tmp_path, capsys):
        config = make_config(command="bounds", m_list=(5,), direction="rat:1,0,0",
                             rho=0.3, out=str(tmp_path / "bounds.csv"))
        with pytest.raises(UsageError, match="--rho"):
            run(config)
        assert main(["bounds", "--m", "5", "--rho", "0.3"]) == 2
        assert "--rho" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_infinite_rho_is_usage_error(self, capsys):
        # JSON has no Infinity, and rho = inf would report the trivial bound 1
        assert main(["bounds", "--m", "5", "--mode", "conditional", "--rho", "inf",
                     "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "--rho" in captured.err and captured.out == ""

    @pytest.mark.parametrize("direction", ["irr:std", "halfrat:1,1,sqrt2"])
    @pytest.mark.parametrize("rho", ["0", "1e-200", "1e-160"])
    def test_rho_with_zero_square_is_usage_error(self, capsys, monkeypatch, direction, rho):
        def refuse(m):
            raise AssertionError(f"enumerated m={m}")

        monkeypatch.setattr(cli, "enumerate_shell", refuse)
        assert main(["bounds", "--m", "5", "--dir", direction, "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert "--rho" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag,value", [("--rho", "1e-154"), ("--len", "1e154")])
    def test_overflowing_bound_is_usage_error(self, capsys, flag, value):
        # 1/(pi^2 rho^2) and L^2 are finite here, but the bound's sums are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--m", "5", "--dir", "irr:std", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {flag}: ")
        assert captured.err.count("\n") == 1 and "overflows" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("direction", [
        "rat:1,4611686018427387904,0", "rat:1,9223372036854775807,0",
        "rat:1,99999999999999999999,0", "halfrat:4611686018427387904,1,sqrt2",
    ])
    def test_direction_past_int_limit_is_usage_error(self, capsys, monkeypatch, direction):
        def refuse(m):
            raise AssertionError(f"enumerated m={m}")

        monkeypatch.setattr(cli, "enumerate_shell", refuse)
        assert main(["bounds", "--m", "101", "--dir", direction]) == 2
        captured = capsys.readouterr()
        assert "--dir" in captured.err and captured.out == ""

    @pytest.mark.parametrize("direction,m", [
        ("rat:1,2147483647,0", 101), ("halfrat:2147483647,1,sqrt2", 5)])
    def test_s_zero_at_int_limit_matches_exact_count(self, tmp_path, direction, m):
        out = tmp_path / "bounds.csv"
        run(make_config(command="bounds", m_list=(m,), direction=direction, out=str(out)))
        # zero pairs counted in Python ints: <mu, a> for rat:a, and the
        # pair (v*x + u*y, z) for halfrat:u,v (zeta irrational)
        d = parse_direction(direction)
        coords = enumerate_shell(m).coords.tolist()
        if d.ints is not None:
            keys = [sum(c * a for c, a in zip(mu, d.ints)) for mu in coords]
        else:
            u, v = d.uv
            keys = [(v * x + u * y, z) for x, y, z in coords]
        expected = sum(count * count for count in Counter(keys).values())
        assert int(read_csv(out)[0]["s_zero"]) == expected

    def test_m_past_kappa_range_is_usage_error(self, capsys, monkeypatch):
        def refuse(m):
            raise AssertionError(f"enumerated m={m}")

        monkeypatch.setattr(cli, "enumerate_shell", refuse)
        # 2^24 + 1 (1 mod 8) is the least admissible m past kappa's exact range
        assert main(["bounds", "--m", str(2**24 + 1), "--dir", "irr:std"]) == 2
        assert "--m" in capsys.readouterr().err


class TestRieszCommand:
    def test_sigma_flows_through(self, tmp_path):
        out = tmp_path / "riesz.csv"
        run(make_config(command="riesz", m_list=(5,), sigma=0.5, out=str(out)))
        row = read_csv(out)[0]
        assert float(row["limit_i"]) == pytest.approx(math.sqrt(2.0) / 1.5, rel=1e-15)
        assert float(row["energy"]) > 0.0


class TestVerifyCommand:
    def test_passes_and_exits_zero(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert run(make_config(command="verify", out=str(out))) == 0
        rows = read_csv(out)
        assert len(rows) >= 10
        assert all(row["passed"] == "true" for row in rows)

    def test_violation_gives_nonzero_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "scale_check", lambda m: False)
        out = tmp_path / "verify.csv"
        assert run(make_config(command="verify", out=str(out))) == 1
        rows = read_csv(out)
        assert any(row["passed"] == "false" for row in rows)


class TestMain:
    def test_shell_to_stdout(self, capsys):
        assert main(["shell", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "m,residue_mod8,representable,primitive,n"
        assert "2,2,true,true,12" in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["simulate", "--m", "1", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "--trials" in err

    def test_bad_direction_reported(self, capsys):
        assert main(["simulate", "--m", "1", "--dir", "rat:x,y,z"]) == 2
        assert "--dir" in capsys.readouterr().err

    def test_negative_seed_reported(self, capsys):
        assert main(["simulate", "--m", "1", "--trials", "4", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "wave"])
    def test_grid_past_its_budget_is_usage_error(self, capsys, monkeypatch, command):
        # m=5 at the default length needs 33 points x 12 frequencies
        monkeypatch.setattr(nodal, "GRID_ENTRIES", 395)
        assert main([command, "--m", "5", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --len: the base grid at m=5 needs 33 ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_m_past_the_shell_limit_is_usage_error(self, capsys, monkeypatch, command):
        # 10^12 once died in enumerate_shell, asking numpy for a 29 TiB grid
        def refuse(m):
            raise AssertionError(f"enumerated m={m}")

        monkeypatch.setattr(cli, "enumerate_shell", refuse)
        for m in (SHELL_M_LIMIT, 10**12):
            assert main([command, "--m", str(m)]) == 2
            captured = capsys.readouterr()
            if command == "bounds":
                want = "usage error: --m: bounds needs kappa"
            else:
                want = f"usage error: --m: shells are enumerated only for m < {SHELL_M_LIMIT}"
            assert captured.err.startswith(want)
            assert captured.err.count("\n") == 1 and captured.out == ""


def test_reports_leave_numpy_ma_unimported():
    # importing numpy.ma takes 13-17 ms in a fresh interpreter (np.unique
    # without a return_* flag does it in numpy 2.4): a cost no report needs
    code = """
import contextlib, io, sys
from nodal_lab.cli import main
argvs = [["bounds", "--m", "101", "--dir", spec]
         for spec in ("rat:1,0,0", "irr:std", "halfrat:1,1,sqrt2")]
argvs += [["simulate", "--m", "101", "--trials", "4"], ["riesz", "--m", "101,1009"]]
with contextlib.redirect_stdout(io.StringIO()):
    print([main(argv) for argv in argvs], "numpy.ma" in sys.modules, file=sys.stderr)
"""
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0] False", done.stderr


def readme_examples():
    """(argv, stdout lines) of each `$ nodal-lab ...` example in the README's
    "Command line" section; an example's output runs to the next blank line."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples, current = [], None
    for line in section.splitlines():
        if line.startswith("$ nodal-lab "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None and line and not line.startswith("```"):
            current[1].append(line)
        else:
            current = None
    return examples


def test_readme_examples_match_the_cli(capsys):
    # an expected line ending in "..." matches as a prefix
    examples = readme_examples()
    assert examples
    for argv, want in examples:
        assert main(argv) == 0
        got = capsys.readouterr().out.splitlines()
        assert len(got) == len(want), argv
        for line, expected in zip(got, want):
            if expected.endswith("..."):
                assert line.startswith(expected[:-3]), argv
            else:
                assert line == expected, argv
