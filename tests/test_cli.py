"""CLI tests: flag handling, output formats, determinism, round-trips."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbpriors
from nbpriors import DiscreteMeasure, DomainError, ExperimentSpec, experiments, special_functions
from nbpriors.cli import main

# Directory holding the nbpriors package these tests import (``src`` in a checkout).
PACKAGE_ROOT = str(Path(nbpriors.__file__).resolve().parents[1])

TINY_GRID = {
    "schema_version": 1,
    "n": 80,
    "replications": 6,
    "rows": [
        {"alpha": 0.5, "theta": 1, "r": 2},
        {"alpha": 0.9, "theta": 10, "r": 11},
    ],
}


def run_python(*args, env_overrides=None, cwd=None):
    """Run the interpreter in a child process that inherits this process's environment.

    ``env_overrides`` apply on top of ``os.environ``; a replaced environment
    would lose the interpreter's setup.  The package root goes first on the
    child's ``PYTHONPATH``, so a relative ``PYTHONPATH=src`` still finds the
    package under test when ``cwd`` is another directory.
    """
    env = {**os.environ, **(env_overrides or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd, timeout=600)


def run_cli(*args, env_overrides=None, cwd=None):
    """Run the CLI in a child process; see ``run_python`` for its environment."""
    return run_python("-m", "nbpriors.cli", *args, env_overrides=env_overrides, cwd=cwd)


class TestSample:
    def test_dirichlet_json(self):
        res = run_cli("sample", "--process", "dirichlet", "--theta", "3", "--n", "500", "--seed", "7")
        assert res.returncode == 0, res.stderr
        measure = DiscreteMeasure.from_json(res.stdout)
        assert len(measure) == 500
        assert abs(math.fsum(measure.weights.tolist()) - 1.0) <= 1e-12
        assert measure.provenance["process"] == "dirichlet"

    def test_csv_round_trip(self):
        res = run_cli("sample", "--process", "stable", "--alpha", "0.5", "--n", "50", "--seed", "3",
                      "--output", "csv")
        assert res.returncode == 0, res.stderr
        measure = DiscreteMeasure.from_csv(res.stdout)
        assert len(measure) == 50

    def test_ranked_stick_breaking(self):
        res = run_cli("sample", "--process", "pdp_stick", "--alpha", "0.5", "--theta", "2", "--sticks", "50",
                      "--ranked", "--seed", "8")
        assert res.returncode == 0, res.stderr
        measure = DiscreteMeasure.from_json(res.stdout)
        assert measure.provenance["params"]["ranked"] is True
        weights = measure.weights.tolist()
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_epsilon_truncation(self):
        res = run_cli("sample", "--process", "dirichlet", "--theta", "3", "--epsilon", "1e-4",
                      "--seed", "5")
        assert res.returncode == 0, res.stderr
        measure = DiscreteMeasure.from_json(res.stdout)
        assert measure.provenance["truncation"]["mode"] == "epsilon_rule"

    def test_byte_identical_repeats(self):
        args = ("sample", "--process", "pdp_series", "--alpha", "0.5", "--theta", "2", "--n", "300",
                "--seed", "11")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_missing_process_is_domain_error(self):
        res = run_cli("sample", "--theta", "3", "--seed", "1")
        assert res.returncode == 1
        assert "process" in res.stderr

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sample.json"
        cfg.write_text(json.dumps({"process": "dirichlet", "params": {"theta": 5.0},
                                   "truncation": {"mode": "fixed_count", "n": 40}, "seed": 9}))
        res = run_cli("sample", "--config", str(cfg), "--theta", "3")
        assert res.returncode == 0, res.stderr
        measure = DiscreteMeasure.from_json(res.stdout)
        assert measure.provenance["params"]["theta"] == 3.0
        assert measure.provenance["seed"] == [9]

    def test_extended_dp_takes_theta_as_its_concentration(self, tmp_path):
        cfg = tmp_path / "extended.json"
        cfg.write_text(json.dumps({"process": "extended_dp", "params": {"concentration": 3.0},
                                   "truncation": {"mode": "fixed_count", "n": 300}, "seed": 3}))
        from_config = run_cli("sample", "--config", str(cfg))
        from_flags = run_cli("sample", "--process", "extended_dp", "--theta", "3", "--n", "300", "--seed", "3")
        assert from_config.returncode == 0, from_config.stderr
        assert from_flags.returncode == 0, from_flags.stderr
        assert from_flags.stdout == from_config.stdout
        assert DiscreteMeasure.from_json(from_flags.stdout).provenance["params"]["concentration"] == 3.0

    def test_extended_dp_order_must_be_a_nonnegative_integer(self):
        base = ("sample", "--process", "extended_dp", "--theta", "3", "--n", "50", "--seed", "1")
        for bad in ("2.5", "-0.5"):
            res = run_cli(*base, "--r", bad)
            assert res.returncode == 1, res.stdout
            assert "r must be a nonnegative integer" in res.stderr
        res = run_cli(*base, "--r", "2")
        assert res.returncode == 0, res.stderr
        assert DiscreteMeasure.from_json(res.stdout).provenance["params"]["r"] == 2

    PKP_TAIL = {"kind": "gamma", "theta": 3.0}

    def test_pkp_takes_its_tail_from_the_config(self, tmp_path):
        cfg = tmp_path / "pkp.json"
        cfg.write_text(json.dumps({"process": "pkp", "params": {"tail": self.PKP_TAIL}}))
        res = run_cli("sample", "--config", str(cfg), "--r", "3", "--n", "100", "--seed", "6")
        assert res.returncode == 0, res.stderr
        measure = DiscreteMeasure.from_json(res.stdout)
        assert len(measure) == 97  # indices 4..100
        assert measure.provenance["params"] == {"r": 3.0, "tail": self.PKP_TAIL}

    def test_pkp_without_a_tail_is_a_domain_error(self):
        res = run_cli("sample", "--process", "pkp", "--r", "3", "--n", "100", "--seed", "6")
        assert res.returncode == 1, res.stdout
        assert res.stderr == "error: process 'pkp' is missing parameter 'tail'\n"

    def test_pkp_randomized_path_at_order_zero_is_a_domain_error(self, tmp_path):
        cfg = tmp_path / "pkp.json"
        cfg.write_text(json.dumps({"process": "pkp", "params": {"tail": self.PKP_TAIL, "randomized": True}}))
        res = run_cli("sample", "--config", str(cfg), "--r", "0", "--n", "20", "--seed", "1")
        assert res.returncode == 1, res.stdout
        assert res.stderr == "error: the randomized path needs r > 0\n"
        assert res.stdout == ""

    def test_extended_dp_level_past_the_arrival_bound_is_a_resource_limit(self):
        res = run_cli("sample", "--process", "extended_dp", "--theta", "3", "--n", "200000000")
        assert res.returncode == 1, res.stdout
        assert res.stderr == "error: n 200000000 exceeds the hard bound 100000000\n"
        assert res.stdout == ""

    def test_stick_count_past_the_arrival_bound_is_a_resource_limit(self):
        res = run_cli("sample", "--process", "pdp_stick", "--alpha", "0.5", "--theta", "2", "--sticks", "2000000000")
        assert res.returncode == 1, res.stdout
        assert res.stderr == "error: sticks 2000000000 exceeds the hard bound 100000000\n"
        assert res.stdout == ""

    def test_extended_dp_order_read_as_a_real_acts_as_its_integer(self, tmp_path):
        cfg = tmp_path / "extended.json"
        cfg.write_text(json.dumps({"process": "extended_dp", "params": {"concentration": 3, "r": "2.0"}, "seed": 3}))
        from_config = run_cli("sample", "--config", str(cfg), "--n", "50")
        from_flags = run_cli("sample", "--process", "extended_dp", "--theta", "3", "--r", "2", "--n", "50",
                             "--seed", "3")
        assert "Traceback" not in from_config.stderr
        assert (from_config.returncode, from_config.stdout, from_config.stderr) == (
            from_flags.returncode, from_flags.stdout, from_flags.stderr)

    @pytest.mark.parametrize("process, params", [
        ("dirichlet", {"theta": "x"}),
        ("extended_dp", {"concentration": 3, "r": "x"}),
    ])
    def test_non_numeric_config_value_is_a_domain_error(self, process, params, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"process": process, "params": params,
                                   "truncation": {"mode": "fixed_count", "n": 50}, "seed": 1}))
        res = run_cli("sample", "--config", str(cfg))
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and "'x'" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("process, params, truncation", [
        ("dirichlet", {"theta": 3}, {"mode": "fixed_count", "n": 50}),
        # the cap binds: these points stop by the rule only after about 2,000
        ("pdp_series", {"alpha": 0.5, "theta": 2}, {"mode": "epsilon_rule", "epsilon": 1e-6}),
    ])
    def test_config_hard_cap_string_acts_as_its_number(self, process, params, truncation, tmp_path):
        outputs = []
        for hard_cap in ("100", 100):
            cfg = tmp_path / f"cfg_{hard_cap!r}.json"
            cfg.write_text(json.dumps({"process": process, "params": params, "seed": 1,
                                       "truncation": {**truncation, "hard_cap": hard_cap}}))
            res = run_cli("sample", "--config", str(cfg))
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]

    def test_non_numeric_config_seed_is_a_domain_error(self, tmp_path):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"process": "dirichlet", "params": {"theta": 3}, "seed": "x"}))
        res = run_cli("sample", "--config", str(cfg), "--n", "50")
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and "seed must be an integer" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("config, message", [
        ({"seed": 2.7, "truncation": {"mode": "fixed_count", "n": 50}}, "seed must be an integer, got 2.7"),
        ({"seed": 1, "truncation": {"mode": "fixed_count", "n": 10.9}}, "n must be an integer, got 10.9"),
        ({"seed": 1, "truncation": {"mode": "fixed_count", "n": 50, "hard_cap": 99.9}},
         "hard_cap must be an integer, got 99.9"),
    ], ids=["seed", "n", "hard_cap"])
    def test_fractional_config_integer_is_a_domain_error(self, config, message, tmp_path):
        cfg = tmp_path / "frac.json"
        cfg.write_text(json.dumps({"process": "dirichlet", "params": {"theta": 3}, **config}))
        res = run_cli("sample", "--config", str(cfg))
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and message in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("config, message", [
        ({"truncation": ["n"]}, "truncation must be an object, got list"),
        ({"params": [1, 2]}, "params must be an object, got list"),
    ], ids=["truncation", "params"])
    def test_config_field_that_is_not_an_object_is_a_domain_error(self, config, message, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"process": "dirichlet", "params": {"theta": 3}, "seed": 1, **config}))
        res = run_cli("sample", "--config", str(cfg), "--n", "50")
        assert (res.returncode, res.stderr, res.stdout) == (1, f"error: {message}\n", "")

    @pytest.mark.parametrize("truncation, message", [
        ([], "truncation must be an object, got list"),
        (0, "truncation must be an object, got 0"),
        ("", "truncation must be an object, got str"),
        (False, "truncation must be an object, got False"),
        ({}, "fixed_count needs a positive index bound n, got None"),
    ], ids=["list", "zero", "string", "false", "object"])
    def test_falsy_truncation_is_read_not_dropped(self, truncation, message, tmp_path, capsys):
        # only null or an absent key means no truncation, in a spec and in a sample config alike
        spec = {"process": "dirichlet", "params": {"theta": 3}, "replications": 2, "truncation": truncation}
        with pytest.raises(DomainError, match=f"^experiment spec field 'truncation' does not read: {message}$"):
            ExperimentSpec.from_dict(spec)
        cfg = tmp_path / "falsy.json"
        cfg.write_text(json.dumps({"process": "dirichlet", "params": {"theta": 3}, "truncation": truncation}))
        assert main(["sample", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_numeric_failure_prints_one_line(self):
        res = run_cli("sample", "--process", "pdp_series", "--alpha", "0.5", "--theta", "1e-300", "--n", "50",
                      "--seed", "1")
        assert res.returncode == 2, res.stderr
        assert res.stderr.splitlines() == ["numeric failure: gamma mixing draw degenerated to 0.0 at r=2e-300"]
        assert res.stdout == ""

    def test_extreme_alpha_draw_prints_no_warning(self):
        res = run_cli("sample", "--process", "pdp_series", "--alpha", "1e-200", "--theta", "1", "--n", "50",
                      "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert len(json.loads(res.stdout)["weights"]) == 50

    def test_unreadable_config(self):
        res = run_cli("sample", "--config", "/nonexistent/cfg.json", "--process", "dirichlet")
        assert res.returncode == 1
        assert "config" in res.stderr

    def test_config_that_does_not_parse_is_a_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{bad")
        assert main(["sample", "--config", str(cfg), "--process", "dirichlet", "--n", "50"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: config {cfg} does not parse: ")
        cfg.write_bytes(b"\xff{")  # not UTF-8
        assert main(["sample", "--config", str(cfg), "--process", "dirichlet", "--n", "50"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read config {cfg}: ")

    def test_unknown_config_key_is_a_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"proces": "dirichlet", "params": {"theta": 3}, "seed": 1}))
        assert main(["sample", "--config", str(cfg), "--process", "dirichlet", "--n", "50"]) == 1
        assert capsys.readouterr() == ("", f"error: unknown config {cfg} fields: ['proces']\n")

    @pytest.mark.parametrize("args, process, key", [
        (("sample", "--process", "stable", "--alpha", "0.5", "--theta", "2", "--n", "10"), "stable", "theta"),
        (("sample", "--process", "dirichlet", "--alpha", "0.7", "--theta", "3", "--n", "10"), "dirichlet", "alpha"),
        (("sample", "--process", "pdp_stick", "--alpha", "0.5", "--theta", "2", "--sticks", "5", "--r", "3"),
         "pdp_stick", "r"),
        (("clusters", "--process", "stable", "--alpha", "0.5", "--theta", "2", "--reps", "2"), "stable", "theta"),
    ], ids=["stable_theta", "dirichlet_alpha", "pdp_stick_r", "clusters_stable_theta"])
    def test_parameter_the_process_does_not_read_is_a_domain_error(self, args, process, key, capsys):
        # each of these once sampled without a word and left the key out of the provenance
        assert main(list(args)) == 1
        assert capsys.readouterr() == ("", f"error: unknown {process} params fields: ['{key}']\n")

    def test_n_and_epsilon_together_are_a_domain_error(self, capsys):
        # --n was once dropped without a word and the epsilon rule sampled
        args = ["sample", "--process", "dirichlet", "--theta", "3", "--n", "10", "--epsilon", "1e-3"]
        assert main(args) == 1
        assert capsys.readouterr() == ("", "error: sample takes --n or --epsilon, not both\n")
        assert main(args[:-2]) == 0 and main([*args[:4], *args[6:]]) == 0

    @pytest.mark.parametrize("config, flags, outcome", [
        ({"process": "extended_dp", "params": {"concentration": 3, "n": 2000}}, ("--n", "50"), {"n": 50}),
        ({"process": "pdp_stick", "params": {"alpha": 0.5, "theta": 2, "sticks": 100}}, ("--n", "5"), {"sticks": 5}),
        (None, ("--process", "pdp_stick", "--alpha", "0.5", "--theta", "2", "--sticks", "100", "--n", "5"),
         "sample takes --n or --sticks, not both"),
        (None, ("--process", "pdp_stick", "--alpha", "0.5", "--theta", "2", "--sticks", "100", "--epsilon", "1e-3"),
         "sample --process pdp_stick takes no --epsilon: its size is not a truncation"),
        ({"process": "extended_dp", "params": {"concentration": 3, "n": 2000}}, ("--epsilon", "1e-3"),
         "sample --process extended_dp takes no --epsilon: its size is not a truncation"),
    ], ids=["extended_dp_n_over_config", "pdp_stick_n_over_config", "n_and_sticks", "pdp_stick_epsilon",
            "extended_dp_epsilon"])
    def test_n_sets_the_level_and_the_stick_count(self, config, flags, outcome, tmp_path, capsys):
        # the config's size once won over --n, --n lost to --sticks, and --epsilon was ignored without a word
        args = ["sample", *flags, "--seed", "7"]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "cfg.json")]
        code = main(args)
        out, err = capsys.readouterr()
        if isinstance(outcome, str):
            assert (code, out, err) == (1, "", f"error: {outcome}\n")
        else:
            params = json.loads(out)["provenance"]["params"]
            assert code == 0 and {key: params[key] for key in outcome} == outcome


class TestKsTable:
    @pytest.fixture()
    def grid_path(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(TINY_GRID))
        return str(path)

    def test_runs_and_parses(self, grid_path):
        from nbpriors import parse_ks_table_result

        res = run_cli("ks-table", "--config", grid_path, "--seed", "42")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["replications"] == 6
        rows = parse_ks_table_result(payload)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 < row["mean_distance"] < 1.0
            assert row["failures"] == []

    def test_jobs_do_not_change_bytes(self, grid_path):
        base = ("ks-table", "--config", grid_path, "--seed", "42")
        one = run_cli(*base, "--jobs", "1")
        four = run_cli(*base, "--jobs", "4")
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout

    def test_zero_jobs_is_a_domain_error(self, grid_path):
        res = run_cli("ks-table", "--config", grid_path, "--seed", "42", "--jobs", "0")
        assert res.returncode == 1
        assert "--jobs" in res.stderr

    def test_csv_output(self, grid_path):
        from nbpriors.cli import parse_csv_table

        res = run_cli("ks-table", "--config", grid_path, "--seed", "42", "--output", "csv")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "alpha,theta,r,mean_distance,std_error,replications"
        rows = parse_csv_table(res.stdout)
        assert len(rows) == 2
        assert all(0.0 < row["mean_distance"] < 1.0 for row in rows)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,x\n", "CSV row 1, column 'b': 'x' is not a number"),
        ("a,b\n1,2\n3\n", "CSV row has 1 cells, header has 2"),
        ("\n", "empty CSV table"),
        ("a,a\n1,2\n", "CSV header repeats a column: 'a,a'"),
    ], ids=["non_numeric", "short_row", "empty", "repeated_column"])
    def test_bad_csv_table_is_a_domain_error(self, text, message):
        from nbpriors.cli import parse_csv_table

        with pytest.raises(DomainError, match=message):
            parse_csv_table(text)

    def test_json_rows_embed_spec(self, grid_path):
        res = run_cli("ks-table", "--config", grid_path, "--seed", "42")
        payload = json.loads(res.stdout)
        for row in payload["rows"]:
            assert row["spec"]["process"] == "pdp_series"
            assert row["spec"]["truncation"]["n"] == 80

    @pytest.mark.parametrize("row, message", [
        ({"alpha": "x", "theta": 1, "r": 2}, "alpha must be a real number"),
        (0.5, "needs alpha, theta, r"),
        ({"alpha": 0.5, "theta": 1, "r": 2.5}, "r must be a nonnegative integer"),
        ({"alpha": 1.5, "theta": 1, "r": 2}, "need alpha in (0,1) and a finite theta > 0"),
        ({"alpha": 0.5, "theta": 0, "r": 2}, "need alpha in (0,1) and a finite theta > 0"),
        ({"alpha": 0.5, "theta": 1.0, "r": 2, "n": 5}, "unknown row fields: ['n']"),
    ], ids=["non_numeric_alpha", "row_not_an_object", "fractional_r", "alpha_out_of_range", "theta_not_positive",
            "unread_key"])
    def test_bad_grid_row_is_a_domain_error(self, row, message, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**TINY_GRID, "rows": [row]}))
        res = run_cli("ks-table", "--config", str(path), "--seed", "42")
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and message in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_row_no_seed_can_draw_is_a_domain_error(self):
        res = run_cli("ks-table", "--n", "3", "--reps", "2")
        assert res.returncode == 1, res.stdout
        assert res.stderr == (
            "error: grid row {'alpha': 0.1, 'theta': 1.0, 'r': 10}: fixed_count n=3 retains 0 points past index 10; "
            "need at least 2\n"
        )
        assert res.stdout == ""

    def test_empty_grid_rows_is_a_domain_error(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**TINY_GRID, "rows": []}))
        res = run_cli("ks-table", "--config", str(path), "--seed", "42")
        assert res.returncode == 1, res.stdout
        assert res.stderr == "error: grid config needs at least one row\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("field, value", [("n", 80.5), ("replications", 6.7)])
    def test_fractional_grid_integer_is_a_domain_error(self, field, value, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**TINY_GRID, field: value}))
        res = run_cli("ks-table", "--config", str(path), "--seed", "42")
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and f"{field} must be an integer, got {value}" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("extra, message", [
        ({"reps": 3}, "unknown config {path} fields: ['reps']"),
        ({"process": "dirichlet"}, "ks-table runs pdp_series only, got process 'dirichlet'"),
    ], ids=["unknown_key", "other_process"])
    def test_config_key_it_does_not_run_is_a_domain_error(self, extra, message, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**TINY_GRID, **extra}))
        assert main(["ks-table", "--config", str(path), "--reps", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")

    def test_bundled_grid_reads_as_a_config(self, tmp_path, capsys):
        from nbpriors.cli import default_grid_config

        path = tmp_path / "table2.json"
        path.write_text(json.dumps({**default_grid_config(), "seed": 5}))
        assert main(["ks-table", "--config", str(path), "--n", "310", "--reps", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["seed"], len(payload["rows"])) == (5, 9)

    def test_default_grid_shape(self):
        from nbpriors.cli import default_grid_config

        cfg = default_grid_config()
        assert cfg["n"] == 400
        assert cfg["replications"] == 500
        assert len(cfg["rows"]) == 9
        assert {"alpha": 0.1, "theta": 100, "r": 300} in cfg["rows"]


class TestWeightsAndClusters:
    def test_weights_json(self):
        from nbpriors import WeightProfile

        res = run_cli("weights", "--theta", "3", "--r-grid", "0,3", "--reps", "25",
                      "--points-per-r", "120", "--seed", "2")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        profile = WeightProfile.from_dict(payload)
        assert profile.r_grid == [0, 3]
        assert profile.mean_weights.shape == (2, 10)
        assert profile.mean_weights[0].sum() <= 1.0

    def test_weights_with_underflowed_weights(self):
        # at theta = 0.01 some draws keep fewer than ten representable weights; those count as 0.0
        from nbpriors import WeightProfile

        res = run_cli("weights", "--theta", "0.01", "--reps", "5", "--seed", "1")
        assert res.returncode == 0, res.stderr
        profile = WeightProfile.from_dict(json.loads(res.stdout))
        assert profile.mean_weights.shape == (4, 10)
        assert (profile.mean_weights >= 0.0).all()

    def test_weights_csv(self):
        from nbpriors.cli import parse_csv_table

        res = run_cli("weights", "--theta", "3", "--r-grid", "0", "--reps", "10",
                      "--points-per-r", "60", "--top-k", "4", "--seed", "2", "--output", "csv")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "r,w1,w2,w3,w4"
        rows = parse_csv_table(res.stdout)
        assert rows[0]["r"] == 0 and rows[0]["w1"] > rows[0]["w2"]

    def test_clusters(self):
        from nbpriors import GrowthDiagnostic

        res = run_cli("clusters", "--process", "dirichlet", "--theta", "3",
                      "--n-grid", "50,100", "--reps", "30", "--seed", "4")
        assert res.returncode == 0, res.stderr
        diag = GrowthDiagnostic.from_dict(json.loads(res.stdout))
        assert diag.normalizer == "log_n"
        assert diag.n_grid == [50, 100]
        assert diag.kn_means[0] <= diag.kn_means[1]

    def test_clusters_without_flags_uses_theta_3(self):
        from nbpriors import GrowthDiagnostic

        res = run_cli("clusters")
        assert res.returncode == 0, res.stderr
        diag = GrowthDiagnostic.from_dict(json.loads(res.stdout))
        assert diag.process == "dirichlet"
        assert diag.params == {"theta": 3.0}

    def test_stable_clusters_take_no_default_theta(self):
        from nbpriors import GrowthDiagnostic

        res = run_cli("clusters", "--process", "stable", "--alpha", "0.5", "--n-grid", "20,40", "--reps", "5")
        assert res.returncode == 0, res.stderr
        assert GrowthDiagnostic.from_dict(json.loads(res.stdout)).params == {"alpha": 0.5}

    def test_sample_size_past_the_arrival_bound_is_a_resource_limit(self):
        res = run_cli("clusters", "--n-grid", "2000000000", "--reps", "2")
        assert res.returncode == 1, res.stdout
        assert res.stderr == "error: n 2000000000 exceeds the hard bound 100000000\n"
        assert res.stdout == ""

    def test_order_past_the_arrival_bound_is_a_resource_limit(self):
        # each draw would hold the 200,000,000 arrivals before its 400 points, so the order alone is past the bound
        res = run_cli("weights", "--r-grid", "200000000", "--reps", "1")
        message = "error: r 200000000 exceeds the hard bound 100000000\n"
        assert (res.returncode, res.stderr, res.stdout) == (1, message, "")

    def test_dirichlet_clusters_reject_n_of_1(self):
        res = run_cli("clusters", "--n-grid", "1", "--reps", "2", "--seed", "1")
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "n_grid" in res.stderr
        assert "Traceback" not in res.stderr
        res = run_cli("clusters", "--process", "stable", "--alpha", "0.5", "--n-grid", "1", "--reps", "2")
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("command, grid", [("weights", "--r-grid"), ("clusters", "--n-grid")])
    def test_config_holds_only_a_seed(self, command, grid, tmp_path, capsys):
        # a theta in the config was once ignored without a word, the default 3 sampled instead
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 50, "seed": 4}))
        args = [command, "--config", str(cfg), "--reps", "2", grid, "3"]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: unknown config {cfg} fields: ['theta']\n")
        cfg.write_text(json.dumps({"seed": 4}))
        assert main(args) == 0
        from_config = capsys.readouterr().out
        assert main([*args[:1], *args[3:], "--seed", "4"]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize("args", [
        ("clusters", "--n-grid", ""),
        ("weights", "--r-grid", ""),
    ])
    def test_empty_grid_is_a_domain_error(self, args):
        res = run_cli(*args, "--reps", "2", "--seed", "1", "--output", "csv")
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and "grid" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("args", [
        ("weights", "--r-grid", "0"),
        ("clusters",),
    ])
    def test_zero_replications_is_a_domain_error(self, args):
        res = run_cli(*args, "--reps", "0", "--seed", "1")
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error:") and "replications" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("command", ["ks-table", "weights", "clusters"])
    def test_replications_past_the_arrival_bound_are_a_resource_limit(self, command, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "_replicate", None)  # the bound is checked before any seed is listed
        assert main([command, "--reps", "100000001"]) == 1
        assert capsys.readouterr() == ("", "error: replications 100000001 exceeds the hard bound 100000000\n")

    def test_bad_grid_flag(self):
        res = run_cli("clusters", "--n-grid", "50,zebra", "--theta", "3", "--seed", "1")
        assert res.returncode == 1


class TestOutputFiles:
    def test_out_file_and_env_dir(self, tmp_path):
        # Separate output and working directories tell "placed under
        # $NBPRIORS_OUTPUT_DIR" apart from "written relative to the cwd".
        out_dir, work_dir = tmp_path / "out", tmp_path / "work"
        out_dir.mkdir()
        work_dir.mkdir()
        res = run_cli("sample", "--process", "dirichlet", "--theta", "3", "--n", "30",
                      "--seed", "1", "--out", "m.json",
                      env_overrides={"NBPRIORS_OUTPUT_DIR": str(out_dir)}, cwd=work_dir)
        assert res.returncode == 0, res.stderr
        written = out_dir / "m.json"
        assert written.exists()
        measure = DiscreteMeasure.from_json(written.read_text())
        assert len(measure) == 30


class TestImport:
    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats dominates import time and only the equivalence test needs it
        res = run_python("-c", "import sys, nbpriors.cli; print('scipy.stats' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


class TestSelftest:
    def test_exit_zero_and_reports(self):
        res = run_cli("selftest")
        assert res.returncode == 0, res.stdout + res.stderr
        lines = [ln for ln in res.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 10
        assert all(ln.startswith("PASS") for ln in lines)

    def test_planted_failure_is_reported_under_optimize(self):
        # -O strips assert statements, so a check built on them would pass here
        code = ("import sys; from nbpriors import cli, special_functions as sf; real = sf.log_gamma; "
                "sf.log_gamma = lambda a: real(a) + 0.1; sys.exit(cli.main(['selftest']))")
        res = run_python("-O", "-c", code)
        assert res.returncode == 3, res.stdout + res.stderr
        failed = [ln for ln in res.stdout.splitlines() if ln.startswith("FAIL")]
        expected = "FAIL special function reference values (ln Γ(1): 0.1, expected 0.0 within 1e-14)"
        assert failed == [expected], res.stdout
        assert res.stdout.splitlines()[-1] == "1 check(s) failed"

    def test_nan_quantile_fails_its_roundtrip_point(self, monkeypatch, capsys):
        # a NaN ln x was skipped like an underflowed one, so only the subnormal table row caught it
        monkeypatch.setattr(special_functions, "gamma_quantile_upper", lambda shape, y: math.nan)
        assert main(["selftest"]) == 3
        failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert failed == ["FAIL survival quantile roundtrip (ln x at Q(0.001, x) = 0.05: nan)"]

    def test_package_holds_no_assert(self):
        # python -O strips assert statements, so a check in the package has to raise
        for path in sorted(Path(PACKAGE_ROOT, "nbpriors").glob("*.py")):
            found = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
            assert not found, f"{path.name} has assert statements on lines {found}"

    def test_counts_are_read_only_through_as_count(self):
        # one reader decides what a valid count is: outside errors.py no call reads an integer through
        # as_number(..., int) and nothing is compared with MAX_ARRIVALS; a seed is an integer but not a count
        def names(nodes):
            return {getattr(node, "id", getattr(node, "attr", None)) for node in nodes}

        for path in sorted(Path(PACKAGE_ROOT, "nbpriors").glob("*.py")):
            if path.name == "errors.py":
                continue
            found = []
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and names([node.func]) == {"as_number"}:
                    kinds = node.args[2:] + [keyword.value for keyword in node.keywords if keyword.arg == "kind"]
                    name = node.args[0].value if node.args and isinstance(node.args[0], ast.Constant) else None
                    if "int" in names(kinds) and name != "seed":
                        found.append(node.lineno)
                if isinstance(node, ast.Compare) and "MAX_ARRIVALS" in names([node.left, *node.comparators]):
                    found.append(node.lineno)
            assert not found, f"{path.name} reads a count past errors.as_count on lines {found}"

    def test_provenance_is_written_only_in_assemble(self):
        # one writer of a measure's provenance: outside random_measures._assemble nothing writes the keys
        # "generator_id" or "truncation_warning", and no call passes a flag that is read from the data
        keys, flags = {"generator_id", "truncation_warning"}, {"sorted_by_weight", "truncation_warning"}
        for path in sorted(Path(PACKAGE_ROOT, "nbpriors").glob("*.py")):
            tree = ast.parse(path.read_text())
            writer = {node for fn in ast.walk(tree) if path.name == "random_measures.py"
                      and getattr(fn, "name", None) == "_assemble" for node in ast.walk(fn)}
            found = []
            for node in ast.walk(tree):
                named = {keyword.arg for keyword in node.keywords} if isinstance(node, ast.Call) else set()
                written = node.keys if isinstance(node, ast.Dict) else []
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    written = [node.slice]
                if named & flags or node not in writer and (named | {getattr(k, "value", None) for k in written}) & keys:
                    found.append(node.lineno)
            assert not found, f"{path.name} writes provenance past random_measures._assemble on lines {found}"

    def test_text_is_parsed_only_in_errors(self):
        # one reader per text format: outside errors.py no call parses JSON text (json.load, json.loads) or
        # splits a CSV line into cells (.split(",")); the --r-grid/--n-grid option lists are not tables
        for path in sorted(Path(PACKAGE_ROOT, "nbpriors").glob("*.py")):
            if path.name == "errors.py":
                continue
            tree = ast.parse(path.read_text())
            lists = {node for fn in ast.walk(tree) if getattr(fn, "name", None) == "_parse_int_list"
                     for node in ast.walk(fn)}
            found = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node not in lists:
                    owner = getattr(node.func.value, "id", None)
                    cells = node.func.attr == "split" and [ast.unparse(arg) for arg in node.args] == ["','"]
                    if cells or (owner == "json" and node.func.attr in ("load", "loads")):
                        found.append(node.lineno)
            assert not found, f"{path.name} parses text past errors.as_json and errors.as_table on lines {found}"

    def test_weight_rows_are_summed_without_math_fsum(self):
        # a row normaliser divides by numpy's pairwise sum: math.fsum over a Python list of the row costs a
        # quarter of a clusters run; only DiscreteMeasure.__post_init__ (input from outside) and the selftest
        # check a sum with it
        allowed = {("random_measures.py", "__post_init__"), ("cli.py", "measure_invariants")}
        for path in sorted(Path(PACKAGE_ROOT, "nbpriors").glob("*.py")):
            tree = ast.parse(path.read_text())
            checks = {node for fn in ast.walk(tree) if (path.name, getattr(fn, "name", None)) in allowed
                      for node in ast.walk(fn)}
            found = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node not in checks
                     and getattr(node.func.value, "id", None) == "math" and node.func.attr == "fsum"]
            assert not found, f"{path.name} calls math.fsum on lines {found}"
