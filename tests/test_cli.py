import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetbai import c_star_interval, load_instance, read_records, run_episode, save_instance
from hetbai import cli
from hetbai.cli import dispatch, load_sweep_config
from hetbai.simulator import POLICIES, RECORD_FIELDS

from helpers import chain_three_arm, make_instance, nan_eigh, symmetric_two_arm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
MINI_RATINGS = os.path.join(DATA_DIR, "mini_ratings.csv")


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(symmetric_two_arm(), str(path))
    return str(path)


@pytest.fixture
def tie_file(tmp_path):
    path = tmp_path / "tie.json"
    save_instance(make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0}), str(path))
    return str(path)


def test_readme_command_block_names_every_long_option():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {
        line.split()[1]: set(re.findall(r"--[a-z-]+", line))
        for line in block.splitlines()
        if line.startswith("hetbai ")
    }
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {option}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help" and option not in documented.get(name, ())
    ]
    assert missing == []


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: hetbai")

    def test_unknown_flag(self, capsys):
        assert dispatch(["validate", "--frob", "x.json"]) == 1

    def test_missing_required_flag(self, capsys):
        assert dispatch(["run", "--delta", "0.1"]) == 1


class TestValidate:
    def test_admissible_exits_zero(self, instance_file, capsys):
        assert dispatch(["validate", instance_file]) == 0
        assert "admissible" in capsys.readouterr().out

    def test_tie_exits_two_with_message(self, tie_file, capsys):
        assert dispatch(["validate", tie_file]) == 2
        out = capsys.readouterr().out
        assert "tied best arm" in out
        assert "inadmissible" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert dispatch(["validate", str(tmp_path / "nope.json")]) == 2

    def test_module_entry_point(self, tie_file, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "hetbai.cli", "validate", tie_file],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "tied best arm at client 1" in proc.stdout

    def test_bad_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"K": 2}')
        assert dispatch(["validate", str(path)]) == 2

    def test_non_number_mean_exits_two_with_message(self, instance_file, capsys):
        doc = json.loads(Path(instance_file).read_text())
        doc["means"][0]["mu"] = [1.0]
        with open(instance_file, "w") as fh:
            json.dump(doc, fh)
        assert dispatch(["validate", instance_file]) == 2
        assert "mu must be a number" in capsys.readouterr().err


class TestSolve:
    def test_symmetric_fixture(self, instance_file, capsys):
        assert dispatch(["solve", instance_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["G"], [0.7071067811865475] * 2, atol=1e-8)
        np.testing.assert_allclose(doc["omega"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-10)
        assert math.isclose(doc["g_tilde_star"], 0.5, rel_tol=1e-10)
        np.testing.assert_allclose(doc["c_star_interval"], [2.0, 4.0], rtol=1e-10)

    def test_inadmissible_rejected(self, tie_file):
        assert dispatch(["solve", tie_file]) == 2

    def test_eigensolver_non_convergence_exits_two(self, instance_file, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg._umath_linalg, "eigh_lo", nan_eigh)
        assert dispatch(["solve", instance_file]) == 2
        assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"

    def test_c_star_interval_matches_library(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_instance(chain_three_arm(), str(path))
        assert dispatch(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c_star_interval"] == list(c_star_interval(load_instance(str(path))))


class TestRun:
    def test_identical_output_for_identical_flags(self, instance_file, capsys):
        args = ["run", "--instance", instance_file, "--delta", "0.1",
                "--lambda", "0.5", "--seed", "7"]
        assert dispatch(args) == 0
        first = capsys.readouterr().out
        assert dispatch(args) == 0
        assert capsys.readouterr().out == first
        lines = first.strip().splitlines()
        assert lines[0] == "policy,lambda,delta,seed,tau,rounds,correct,recommendation"
        assert len(lines) == 2

    def test_policy_choices_are_the_simulator_policies(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        (policy,) = [a for a in sub.choices["run"]._actions if a.dest == "policy"]
        assert tuple(policy.choices) == POLICIES
        assert policy.default == POLICIES[0]

    def test_negative_seed_is_domain_error(self, instance_file, capsys):
        args = ["run", "--instance", instance_file, "--delta", "0.1",
                "--lambda", "0.5", "--seed", "-1"]
        assert dispatch(args) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    def test_delta_whose_reciprocal_overflows_exits_two_at_once(self, instance_file, tmp_path):
        # 1/1e-310 overflows, so the threshold would be inf or nan and no episode would stop;
        # a subprocess with a timeout, because the old behaviour was a hang
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "hetbai.cli", "run", "--instance", instance_file,
             "--delta", "1e-310", "--lambda", "0.5", "--seed", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "delta 1e-310 too small: 1/delta overflows" in proc.stderr

    def test_step_cap_below_one_is_domain_error(self, instance_file, capsys):
        args = ["run", "--instance", instance_file, "--delta", "0.1",
                "--lambda", "0.5", "--seed", "1", "--step-cap", "-5"]
        assert dispatch(args) == 2
        assert "step_cap must be a positive integer, got -5" in capsys.readouterr().err

    def test_lambda_that_vanishes_against_one_exits_two_at_once(self, instance_file, tmp_path):
        # 1 + 1e-17 == 1, so the schedule would never pass its first instant;
        # a subprocess with a timeout, because the old behaviour was a hang
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "hetbai.cli", "run", "--instance", instance_file,
             "--delta", "0.1", "--lambda", "1e-17", "--seed", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "lambda must not vanish against 1 (1 + lambda == 1), got 1e-17" in proc.stderr

    def test_uniform_policy_flag(self, instance_file, capsys):
        args = ["run", "--instance", instance_file, "--delta", "0.1",
                "--lambda", "0.5", "--seed", "7", "--policy", "uniform"]
        assert dispatch(args) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("uniform,")


class TestSweepCommand:
    def write_config(self, tmp_path, instance_file, **overrides):
        doc = {"instance": os.path.basename(instance_file), "deltas": [0.1],
               "lambda": 0.5, "repetitions": 2}
        doc.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_end_to_end(self, tmp_path, instance_file, capsys):
        config = self.write_config(tmp_path, instance_file)
        out = tmp_path / "records.csv"
        assert dispatch(["sweep", "--config", config, "--out", str(out)]) == 0
        records = read_records(str(out))
        assert len(records) == 2
        assert [r.seed for r in records] == [0, 1]

    def test_env_seed_override(self, tmp_path, instance_file, monkeypatch):
        config = self.write_config(tmp_path, instance_file)
        out = tmp_path / "records.csv"
        monkeypatch.setenv("HETBAI_SEED", "500")
        assert dispatch(["sweep", "--config", config, "--out", str(out)]) == 0
        assert [r.seed for r in read_records(str(out))] == [500, 501]

    def test_bad_env_seed_is_domain_error(self, tmp_path, instance_file, monkeypatch):
        config = self.write_config(tmp_path, instance_file)
        monkeypatch.setenv("HETBAI_SEED", "soup")
        assert dispatch(["sweep", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2

    def test_negative_config_seed_rejected_before_sweeping(
        self, tmp_path, instance_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "sweep", None)  # reaching the sweep would raise TypeError
        config = self.write_config(tmp_path, instance_file, seed=-3)
        assert dispatch(["sweep", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        assert "seed must be non-negative, got -3" in capsys.readouterr().err

    def test_negative_env_seed_rejected_before_sweeping(
        self, tmp_path, instance_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "sweep", None)
        monkeypatch.setenv("HETBAI_SEED", "-9")
        config = self.write_config(tmp_path, instance_file)
        assert dispatch(["sweep", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        assert "seed must be non-negative, got -9" in capsys.readouterr().err

    def test_lambda_too_large_for_a_float_rejected_before_sweeping(
        self, tmp_path, instance_file, monkeypatch, capsys
    ):
        # a 401-digit JSON integer: exactly in (0, inf), but no float holds it
        monkeypatch.setattr(cli, "sweep", None)
        config = self.write_config(tmp_path, instance_file, **{"lambda": 10**400})
        assert '"lambda": 1000' in Path(config).read_text()
        assert dispatch(["sweep", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        assert "lambda must be a positive finite number, got 1000" in capsys.readouterr().err

    def test_non_number_lambda_and_delta_exit_two_naming_both(
        self, tmp_path, instance_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "sweep", None)
        config = self.write_config(tmp_path, instance_file, **{"lambda": "0.1", "deltas": [[0.1]]})
        assert dispatch(["sweep", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "lambda must be a number, got '0.1'" in err
        assert "delta must be a number, got [0.1]" in err

    def test_step_cap_writes_finished_records_and_exits_two(self, tmp_path, capsys):
        # wide gap: delta=0.5 stops within a step cap of 20, delta=1e-300 runs past it
        v = make_instance([(0, 1), (0, 1)], {(0, 0): 10.0, (0, 1): 0.0, (1, 0): 10.0, (1, 1): 0.0})
        save_instance(v, str(tmp_path / "wide.json"))
        config = self.write_config(
            tmp_path, str(tmp_path / "wide.json"), deltas=[0.5, 1e-300], step_cap=20
        )
        out = tmp_path / "records.csv"
        assert dispatch(["sweep", "--config", config, "--out", str(out)]) == 2
        assert read_records(str(out)) == [
            run_episode(v, "het-ts", 0.5, 0.5, seed, step_cap=20) for seed in (0, 1)
        ]
        err = capsys.readouterr().err
        assert "delta=1e-300, seed=2; delta=1e-300, seed=3" in err
        assert "seed=0" not in err and "seed=1" not in err

    def test_workers_flag(self, tmp_path, instance_file):
        config = self.write_config(tmp_path, instance_file)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert dispatch(["sweep", "--config", config, "--out", str(out1)]) == 0
        assert dispatch(["sweep", "--config", config, "--out", str(out2), "--workers", "2"]) == 0
        assert read_records(str(out1)) == read_records(str(out2))


class TestLoadSweepConfig:
    def write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_minimal_config_gets_defaults(self, tmp_path, instance_file):
        path = self.write(tmp_path, {"instance": instance_file, "deltas": [0.1, 0.2]})
        config = load_sweep_config(path)
        assert config.policy == "het-ts"
        assert config.lam == 0.01
        assert config.repetitions == 4
        assert config.base_seed == 0
        assert config.workers == 1
        assert config.deltas == (0.1, 0.2)

    def test_step_cap_field(self, tmp_path, instance_file):
        path = self.write(tmp_path, {"instance": instance_file, "deltas": [0.1]})
        assert load_sweep_config(path).step_cap == 10**8
        path = self.write(tmp_path, {"instance": instance_file, "deltas": [0.1], "step_cap": 2**53})
        assert load_sweep_config(path).step_cap == 2**53

    @pytest.mark.parametrize(
        "value, message",
        [
            (0, "step_cap must be a positive integer, got 0"),
            (2**53 + 1, "step_cap must be at most 2**53, got 9007199254740993"),
            (20.0, "step_cap must be a positive integer, got 20.0"),
            (True, "step_cap must be a positive integer, got True"),
            ("20", "step_cap must be a positive integer, got '20'"),
        ],
    )
    def test_bad_step_cap_listed_with_the_other_violations(
        self, tmp_path, instance_file, value, message
    ):
        path = self.write(
            tmp_path, {"instance": instance_file, "deltas": [0.1], "step_cap": value, "workers": 0}
        )
        with pytest.raises(ValueError) as exc:
            load_sweep_config(path)
        assert message in str(exc.value)
        assert "workers must be a positive integer, got 0" in str(exc.value)

    def test_relative_instance_path_resolves_against_config(self, tmp_path):
        save_instance(symmetric_two_arm(), str(tmp_path / "v.json"))
        path = self.write(tmp_path, {"instance": "v.json", "deltas": [0.1]})
        assert load_sweep_config(path).instance == symmetric_two_arm()

    def test_delta_out_of_range_rejected(self, tmp_path, instance_file):
        path = self.write(tmp_path, {"instance": instance_file, "deltas": [1.5]})
        with pytest.raises(ValueError, match="outside"):
            load_sweep_config(path)

    def test_zero_lambda_rejected(self, tmp_path, instance_file):
        path = self.write(tmp_path, {"instance": instance_file, "deltas": [0.1], "lambda": 0})
        with pytest.raises(ValueError, match="lambda"):
            load_sweep_config(path)

    def test_lambda_that_vanishes_against_one_rejected(self, tmp_path, instance_file):
        path = self.write(tmp_path, {"instance": instance_file, "deltas": [0.1], "lambda": 1e-17})
        with pytest.raises(ValueError, match=r"1 \+ lambda == 1\), got 1e-17"):
            load_sweep_config(path)

    def test_violations_listed_exhaustively(self, tmp_path, instance_file):
        path = self.write(
            tmp_path,
            {"instance": instance_file, "deltas": [2.0], "lambda": -1,
             "repetitions": 0, "mystery": True},
        )
        with pytest.raises(ValueError) as exc:
            load_sweep_config(path)
        message = str(exc.value)
        for needle in ("mystery", "delta", "lambda", "repetitions"):
            assert needle in message

    def test_infinite_lambda_listed_with_the_other_violations(self, tmp_path, instance_file):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"instance": instance_file, "deltas": [0.1], "lambda": math.inf,
                        "workers": 0, "seed": "one"})
        )
        assert '"lambda": Infinity' in path.read_text()
        with pytest.raises(ValueError) as exc:
            load_sweep_config(str(path))
        message = str(exc.value)
        for needle in ("lambda must be a positive finite number, got inf",
                       "workers must be a positive integer, got 0",
                       "seed must be an integer, got 'one'"):
            assert needle in message

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"instance": "v.json", "deltas": [0.1]', "invalid sweep config JSON: "),
            ('["v.json", [0.1]]', "sweep config must be a JSON object"),
            ('{"instance": "v.json"}', "invalid sweep config: missing required field 'deltas'"),
            ('{"instance": "v.json", "deltas": 0.1}', "invalid sweep config: deltas must be a list, got 0.1"),
            ('{"instance": 3, "deltas": [0.1]}', "invalid sweep config: instance must be a path string"),
        ],
        ids=["invalid-json", "not-an-object", "no-deltas", "deltas-not-a-list", "instance-not-a-string"],
    )
    def test_file_level_rejections(self, tmp_path, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_sweep_config(str(path))

    def test_unknown_policy_rejected(self, tmp_path, instance_file):
        path = self.write(
            tmp_path, {"instance": instance_file, "deltas": [0.1], "policy": "greedy"}
        )
        with pytest.raises(ValueError, match="policy"):
            load_sweep_config(path)


class TestIngestCommand:
    def test_writes_instance_and_labels_sidecar(self, tmp_path, capsys):
        out = tmp_path / "movie.json"
        assert dispatch(["ingest", "--ratings", MINI_RATINGS, "--out", str(out)]) == 0
        instance = load_instance(str(out))
        assert instance.means == ((50.0, 20.0), (90.0, 50.0))
        labels = json.loads((tmp_path / "movie.labels.json").read_text())
        assert labels["clients"] == ["north", "south"]
        assert labels["arms"] == ["alpha", "beta"]
        assert any("gamma" in msg for msg in labels["dropped"])

    def test_skipped_rows_reported_on_stderr(self, tmp_path, capsys):
        lines = Path(MINI_RATINGS).read_text().splitlines(keepends=True)
        path = tmp_path / "ratings.csv"
        path.write_text("".join(lines[:2] + ["north,alpha\n"] + lines[2:]))
        assert dispatch(["ingest", "--ratings", str(path), "--out", str(tmp_path / "movie.json")]) == 0
        assert capsys.readouterr().err == "skipped line 3: expected 3 fields, got 2\n"

    def test_labels_out_flag(self, tmp_path):
        out, labels_path = tmp_path / "movie.json", tmp_path / "names.json"
        argv = ["ingest", "--ratings", MINI_RATINGS, "--out", str(out), "--labels-out", str(labels_path)]
        assert dispatch(argv) == 0
        assert json.loads(labels_path.read_text())["arms"] == ["alpha", "beta"]
        assert not (tmp_path / "movie.labels.json").exists()

    def test_min_samples_flag(self, tmp_path):
        out = tmp_path / "movie.json"
        assert dispatch(
            ["ingest", "--ratings", MINI_RATINGS, "--out", str(out), "--min-samples", "9"]
        ) == 0
        instance = load_instance(str(out))
        assert instance.num_arms == 3  # gamma survives at the lower threshold


class TestCsvReaderErrors:
    @pytest.mark.parametrize("command", ["ingest", "report"])
    def test_oversized_field_exits_two(self, tmp_path, capsys, command):
        # a stray opening quote on line 3 makes one field past the CSV reader's limit
        header = "client,arm,rating" if command == "ingest" else ",".join(RECORD_FIELDS)
        row = "a,x,1" if command == "ingest" else "het-ts,0.5,0.1,1,8,4,true,1;2"
        path = tmp_path / "input.csv"
        head, last = row.rsplit(",", 1)
        rest = f"{row}\n" * (csv.field_size_limit() // len(row))
        path.write_text(f'{header}\n{row}\n{head},"{last}\n' + rest)
        flag = "--ratings" if command == "ingest" else "--records"
        argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
        assert dispatch(argv) == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReportCommand:
    def test_aggregates_records(self, tmp_path, instance_file):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "instance": instance_file, "deltas": [0.1, 0.2],
            "lambda": 0.5, "repetitions": 2,
        }))
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.csv"
        assert dispatch(["sweep", "--config", str(config), "--out", str(records)]) == 0
        assert dispatch(["report", "--records", str(records), "--out", str(summary)]) == 0
        lines = summary.read_text().strip().splitlines()
        assert lines[0] == "policy,lambda,delta,n,mean_tau,std_tau,mean_rounds,error_rate"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "row, message",
        [("greedy,0.5,0.1,0,8,4,true,1;2", "policy must be one of het-ts, uniform, got 'greedy'"),
         ("het-ts,0.5,0.1,0,-8,4,true,1;2", "tau must be a positive integer, got -8"),
         ("het-ts,abc,0.1,0,8,4,true,1;2", "lambda must be a number, got 'abc'"),
         ("het-ts,0.5,0.1,0,8,4,true", "malformed record row: ['het-ts', '0.5', '0.1', '0', '8', '4', 'true']")],
        ids=["policy", "tau", "lambda", "arity"],
    )
    def test_bad_record_field_exits_two(self, tmp_path, capsys, row, message):
        records = tmp_path / "records.csv"
        records.write_text("policy,lambda,delta,seed,tau,rounds,correct,recommendation\n"
                           "het-ts,0.5,0.1,1,8,4,true,1;2\n" + row + "\n")
        summary = tmp_path / "summary.csv"
        assert dispatch(["report", "--records", str(records), "--out", str(summary)]) == 2
        assert f"line 3: {message}" in capsys.readouterr().err
        assert not summary.exists()

    def test_bad_correct_flag_exits_two(self, tmp_path, capsys):
        # read as incorrect, this row would report error_rate 1.0
        records = tmp_path / "records.csv"
        records.write_text("policy,lambda,delta,seed,tau,rounds,correct,recommendation\n"
                           "het-ts,0.5,0.1,0,8,4,yes,1;2\n")
        summary = tmp_path / "summary.csv"
        assert dispatch(["report", "--records", str(records), "--out", str(summary)]) == 2
        assert "line 2: correct must be true or false, got 'yes'" in capsys.readouterr().err
        assert not summary.exists()
