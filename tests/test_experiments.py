"""Unit tests for the Kolmogorov-distance harness and diagnostics."""

import json
import math
import types

import numpy as np
import pytest
import scipy.special
import scipy.stats as st

from nbpriors import (
    BaseMeasure,
    CapabilityError,
    DegenerateTruncationError,
    DiscreteMeasure,
    DomainError,
    EquivalenceReport,
    ExperimentResult,
    ExperimentSpec,
    GrowthDiagnostic,
    LevyTail,
    NumericError,
    ResourceLimitError,
    TruncationPolicy,
    WeightProfile,
    build_measure,
    clustering_growth,
    distinct_count,
    draw_from_measure,
    gamma_arrivals,
    kolmogorov_distance,
    load_experiment_spec,
    load_ks_grid,
    parse_ks_table_result,
    rank_weight_equivalence_test,
    run_ks_experiment,
    run_ks_table,
    sample_pdp_stick_breaking,
    uniform_base,
    weight_profile,
)
from nbpriors import experiments, point_processes, random_measures, special_functions
from nbpriors._rng import STREAM_ATOMS, replication_seed, seed_tuple, spawn_generator

from oracles import dp_expected_distinct, expected_distinct_count, expected_sum_sq_weights, ks_distance_brute

UB = uniform_base()


class TestKolmogorovDistance:
    def test_single_atom_at_median(self):
        m = DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        assert kolmogorov_distance(m, UB) == pytest.approx(0.5, abs=1e-15)

    def test_two_balanced_atoms(self):
        m = DiscreteMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert kolmogorov_distance(m, UB) == pytest.approx(0.25, abs=1e-15)

    def test_positive_for_discrete_measures(self):
        for seed in range(5):
            m = build_measure("dirichlet", {"theta": 3.0}, TruncationPolicy.fixed(200), seed)
            assert kolmogorov_distance(m, UB) > 0.0

    def test_missing_cdf(self):
        base = BaseMeasure("no-cdf", lambda rng, size: rng.random(size))
        m = DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        with pytest.raises(CapabilityError):
            kolmogorov_distance(m, base)

    def test_duplicate_atoms_aggregate(self):
        m = DiscreteMeasure(np.array([0.5, 0.5]), np.array([0.6, 0.4]))
        assert kolmogorov_distance(m, UB) == pytest.approx(0.5, abs=1e-15)

    @staticmethod
    def unique_based(atoms, weights):
        """The distance as it was computed before the block reduction: merge tied atoms, then one cumsum."""
        xs, inverse = np.unique(atoms, return_inverse=True)
        cum = np.cumsum(np.bincount(inverse, weights=weights, minlength=xs.size))
        h = UB.cdf(xs)
        left = np.concatenate(([0.0], cum[:-1]))
        return float(max(np.max(np.abs(cum - h)), np.max(np.abs(left - h))))

    @staticmethod
    def random_block(rng, rows, size):
        atoms = rng.random((rows, size))
        w = rng.random((rows, size)) ** 4
        return w / w.sum(axis=1, keepdims=True), atoms

    def test_one_row_equals_the_unique_based_value(self):
        rng = np.random.default_rng(4)
        for size in (1, 2, 7, 400):
            for _ in range(20):
                w, atoms = self.random_block(rng, 1, size)
                expected = self.unique_based(atoms[0], w[0])
                assert experiments._ks_rows(w, atoms, UB)[0] == expected
                assert kolmogorov_distance(DiscreteMeasure(atoms[0], w[0]), UB) == expected

    def test_zero_weight_columns_change_no_row(self):
        rng = np.random.default_rng(5)
        w, atoms = self.random_block(rng, 30, 50)
        padded_w = np.concatenate([w, np.zeros((30, 20))], axis=1)
        padded_atoms = np.concatenate([atoms, rng.random((30, 20))], axis=1)
        assert np.array_equal(experiments._ks_rows(padded_w, padded_atoms, UB), experiments._ks_rows(w, atoms, UB))

    def test_rows_agree_with_dense_grid_oracle(self):
        rng = np.random.default_rng(6)
        for size in (1, 3, 40):
            w, atoms = self.random_block(rng, 10, size)
            rows = experiments._ks_rows(w, atoms, UB)
            for i in range(10):
                assert abs(rows[i] - ks_distance_brute(atoms[i], w[i], UB.cdf)) <= 1e-9

    def test_agrees_with_dense_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            size = int(rng.integers(1, 60))
            atoms = rng.random(size)
            w = rng.random(size) + 1e-3
            w /= math.fsum(w.tolist())
            m = DiscreteMeasure(atoms, w)
            exact = kolmogorov_distance(m, UB)
            brute = ks_distance_brute(m.atoms, m.weights, UB.cdf)
            assert abs(exact - brute) <= 1e-9


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentSpec("nope", {}, 10, None, 0)
        with pytest.raises(DomainError):
            ExperimentSpec("dirichlet", {"theta": 3.0}, 0, None, 0)

    @pytest.mark.parametrize("params, master_seed, message", [
        ([1, 2], 0, "params must be an object, got list"),
        ({"theta": 3.0}, "x", "seed must be an integer or tuple of integers: 'x'"),
    ], ids=["params_list", "seed_string"])
    def test_constructor_reads_params_and_seed(self, params, master_seed, message):
        # both used to pass here and fail only when the study ran, once per replication
        with pytest.raises(DomainError) as info:
            ExperimentSpec("dirichlet", params, 2, TruncationPolicy.fixed(50), master_seed)
        assert str(info.value) == message

    def test_dict_roundtrip(self, tmp_path):
        spec = ExperimentSpec(
            "pdp_series",
            {"alpha": 0.5, "theta": 2.0},
            25,
            TruncationPolicy.fixed(400),
            (7, 3),
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_experiment_spec(path).to_dict() == spec.to_dict()

    @pytest.mark.parametrize("replications", [400, 400.0, "400", np.int64(400)])
    def test_spec_replications_read_as_an_integer(self, replications):
        data = {"process": "dirichlet", "params": {"theta": 3.0}, "replications": replications}
        assert ExperimentSpec.from_dict(data).to_dict()["replications"] == 400
        assert ExperimentSpec("dirichlet", {"theta": 3.0}, replications, None, 0).replications == 400

    @pytest.mark.parametrize("replications", [6.7, 0.5])
    def test_fractional_python_spec_replications_is_a_domain_error(self, replications):
        with pytest.raises(DomainError, match=f"replications must be an integer, got {replications}"):
            ExperimentSpec("dirichlet", {"theta": 3.0}, replications, TruncationPolicy.fixed(50), 0)

    @pytest.mark.parametrize("data, field", [
        ({"process": "dirichlet"}, "replications"),
        ({"replications": 5}, "process"),
    ])
    def test_spec_missing_field_is_a_domain_error(self, data, field):
        with pytest.raises(DomainError, match=f"experiment spec lacks field '{field}'"):
            ExperimentSpec.from_dict(data)

    def test_fractional_spec_replications_is_a_domain_error(self):
        data = {"process": "dirichlet", "params": {"theta": 3.0}, "replications": 6.7}
        with pytest.raises(DomainError, match="replications must be an integer, got 6.7"):
            ExperimentSpec.from_dict(data)

    def test_spec_with_a_worker_count_still_loads(self, tmp_path):
        # spec files written before replications ran only serially carry "parallelism"
        old = {
            "schema_version": 1,
            "process": "dirichlet",
            "params": {"theta": 3.0},
            "replications": 5,
            "truncation": {"mode": "fixed_count", "n": 100, "hard_cap": 1000000},
            "master_seed": [4],
            "parallelism": 2,
        }
        expected = dict(old)
        del expected["parallelism"]
        assert ExperimentSpec.from_dict(old).to_dict() == expected
        path = tmp_path / "old_spec.json"
        path.write_text(json.dumps(old))
        assert load_experiment_spec(path).to_dict() == expected

    def test_spec_file_that_does_not_parse_is_a_domain_error(self, tmp_path):
        path = tmp_path / "bad_spec.json"
        path.write_text("{bad")
        with pytest.raises(DomainError, match="^experiment spec does not parse: "):
            load_experiment_spec(path)
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(DomainError, match="^experiment spec .* is not UTF-8: "):
            load_experiment_spec(path)


class TestRunKsExperiment:
    def make_spec(self, reps=16):
        return ExperimentSpec("dirichlet", {"theta": 3.0}, reps, TruncationPolicy.fixed(150), 77)

    def test_deterministic(self):
        a = run_ks_experiment(self.make_spec())
        b = run_ks_experiment(self.make_spec())
        assert a.mean_distance == b.mean_distance
        assert a.std_error == b.std_error

    def test_std_error_definition(self):
        spec = self.make_spec(reps=10)
        res = run_ks_experiment(spec)
        manual = np.array(
            [
                kolmogorov_distance(
                    build_measure(spec.process, spec.params, spec.truncation, replication_seed(77, i), UB),
                    UB,
                )
                for i in range(10)
            ]
        )
        assert res.mean_distance == pytest.approx(manual.mean(), abs=0)
        assert res.std_error == pytest.approx(manual.std(ddof=1) / math.sqrt(10), abs=0)
        assert not res.flagged

    def test_failures_recorded_and_flagged(self):
        # r = 1 at small n leaves some replications fewer than two levels below 1: a DegenerateTruncationError.
        # 110 of 3,000 seeds do, so 500 replications all draw with probability 0.963^500 < 1e-8
        reps = 500
        spec = ExperimentSpec("extended_dp", {"concentration": 3.0, "r": 1, "n": 50}, reps, None, 0)
        res = run_ks_experiment(spec)
        assert res.flagged
        assert 0 < len(res.failures) < reps
        assert math.isfinite(res.mean_distance)

    def test_unbuildable_spec_fails_every_replication(self):
        res = run_ks_experiment(ExperimentSpec("dirichlet", {}, 3, TruncationPolicy.fixed(50), 0))
        assert res.failures == [f"replication {i}: process 'dirichlet' is missing parameter 'theta'" for i in range(3)]
        assert math.isnan(res.mean_distance)

    def test_impossible_path_fails_every_replication(self):
        # the path is checked when the record is built, so no replication is drawn
        params = {"r": 0, "tail": {"kind": "gamma", "theta": 3.0}, "randomized": True}
        values, failures = experiments._ks_values(ExperimentSpec("pkp", params, 4, TruncationPolicy.fixed(50), 0), UB)
        assert failures == [f"replication {i}: the randomized path needs r > 0" for i in range(4)]
        assert np.all(np.isnan(values))

    def test_result_dict_roundtrip(self):
        res = run_ks_experiment(self.make_spec(reps=4))
        again = ExperimentResult.from_dict(res.to_dict())
        assert again.mean_distance == res.mean_distance
        assert again.spec_echo.to_dict() == res.spec_echo.to_dict()

    def test_result_with_a_wall_time_still_loads(self):
        # results written while a timing field existed carry "wall_time"; readers skip keys they do not read
        payload = run_ks_experiment(self.make_spec(reps=4)).to_dict()
        assert ExperimentResult.from_dict({**payload, "wall_time": 1.5}).to_dict() == payload


class TestSamplerLaw:
    """Every sampler record against an exact law: under PD(alpha, theta), and so under the
    Dirichlet process (alpha = 0), E sum w_i^2 = (1 - alpha)/(1 + theta) (Pitman,
    Combinatorial Stochastic Processes, 2006)."""

    REPS = 400
    STICKS = {"pdp_stick": TruncationPolicy.fixed(3000)}  # stick breaking has no default truncation

    @pytest.mark.parametrize("process, params, truncation, alpha, theta", [
        ("dirichlet", {"theta": 3.0}, TruncationPolicy.fixed(400), 0.0, 3.0),
        ("pdp_stick", {"alpha": 0.0, "theta": 3.0}, TruncationPolicy.fixed(3000), 0.0, 3.0),
        ("extended_dp", {"concentration": 3.0, "n": 2000}, None, 0.0, 3.0),
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000), 0.5, 2.0),
        ("pdp_stick", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.fixed(3000), 0.5, 2.0),
    ], ids=["dirichlet", "dp_sticks", "extended_dp", "pdp_series", "pdp_sticks"])
    def test_mean_sum_of_squared_weights(self, process, params, truncation, alpha, theta):
        family = experiments._family(process, params, truncation)
        seeds = [(20261019, i) for i in range(self.REPS)]
        rows = experiments._replicate(family, seeds)
        sums = np.array([float(np.sum(row ** 2)) for row in rows])
        exact = (1.0 - alpha) / (1.0 + theta)
        assert abs(sums.mean() - exact) <= 4 * sums.std(ddof=1) / math.sqrt(self.REPS)

    @pytest.mark.parametrize("tail, r, randomized, exact", [
        (LevyTail.generalized_gamma(0.5), 4.0, True, 0.5 / 3.0),  # PD(0.5, 2)
        (LevyTail.generalized_gamma(0.9), 10.0 / 0.9, True, 0.1 / 11.0),  # PD(0.9, 10)
        (LevyTail.gamma(3.0), 0, False, 0.25),  # the Dirichlet process
        (LevyTail.stable(0.5), 0, False, 0.5),  # PD(0.5, 0)
    ], ids=["pd_0.5_2", "pd_0.9_10", "dirichlet", "stable"])
    def test_campbell_oracle_reproduces_closed_forms(self, tail, r, randomized, exact):
        assert expected_sum_sq_weights(tail, r, randomized) == pytest.approx(exact, rel=1e-12)

    # the integer path (ks-table's rows) cuts the Levy measure at L^{-1}(1); the oracle integrates that law
    @pytest.mark.parametrize("process, params, truncation, tail, r, randomized", [
        ("pdp_series", {"alpha": 0.1, "theta": 1.0, "r": 10}, TruncationPolicy.fixed(400),
         LevyTail.generalized_gamma(0.1), 10, False),
        ("pdp_series", {"alpha": 0.1, "theta": 10.0, "r": 100}, TruncationPolicy.fixed(400),
         LevyTail.generalized_gamma(0.1), 100, False),
        ("pdp_series", {"alpha": 0.5, "theta": 1.0, "r": 2}, TruncationPolicy.fixed(400),
         LevyTail.generalized_gamma(0.5), 2, False),
        ("pkp", {"r": 3, "tail": {"kind": "gamma", "theta": 3.0}}, TruncationPolicy.fixed(403),
         LevyTail.gamma(3.0), 3, False),
        ("pkp", {"r": 10, "tail": {"kind": "gamma", "theta": 3.0}}, TruncationPolicy.fixed(410),
         LevyTail.gamma(3.0), 10, False),
        ("pkp", {"r": 2.5, "tail": {"kind": "gamma", "theta": 3.0}, "randomized": True}, TruncationPolicy.fixed(400),
         LevyTail.gamma(3.0), 2.5, True),
        ("stable", {"alpha": 0.5}, TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000),
         LevyTail.stable(0.5), 0, False),
        ("dirichlet", {"theta": 3.0}, TruncationPolicy.fixed(400), LevyTail.gamma(3.0), 0, False),
        # the finite extended DP of order r approximates the order-r integer-path gamma series
        *[("extended_dp", {"concentration": 3.0, "r": r, "n": 2000}, None, LevyTail.gamma(3.0), r, False)
          for r in (1, 2, 5)],
    ], ids=["pdp_0.1_1_r10", "pdp_0.1_10_r100", "pdp_0.5_1_r2", "gamma_r3", "gamma_r10", "gamma_r2.5_randomized",
            "stable", "dirichlet", "extended_dp_r1", "extended_dp_r2", "extended_dp_r5"])
    def test_mean_sum_of_squared_weights_matches_the_campbell_oracle(
        self, process, params, truncation, tail, r, randomized
    ):
        family = experiments._family(process, params, truncation)
        seeds = [(20261020, i) for i in range(self.REPS)]
        rows = list(experiments._replicate(family, seeds))
        failures = [row for row in rows if isinstance(row, Exception)]
        for exc in failures:
            if not isinstance(exc, DegenerateTruncationError):
                raise exc
        # an order-1 extended DP row can keep fewer than two levels below 1 (9 of 6,000 seeds at n = 2,000),
        # so more than 7 of 400 such rows has probability 1.5e-8; every other record draws every seed
        assert len(failures) <= (7 if process == "extended_dp" and r == 1 else 0)
        sums = np.array([float(np.sum(row ** 2)) for row in rows if not isinstance(row, Exception)])
        exact = expected_sum_sq_weights(tail, r, randomized)
        assert abs(sums.mean() - exact) <= 4 * sums.std(ddof=1) / math.sqrt(self.REPS)


    @pytest.mark.parametrize("process, params, alpha, theta", [
        ("dirichlet", {"theta": 3.0}, 0.0, 3.0),
        ("pdp_stick", {"alpha": 0.5, "theta": 2.0}, 0.5, 2.0),
        ("pdp_series", {"alpha": 0.25, "theta": 1.0}, 0.25, 1.0),
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}, 0.5, 2.0),
    ], ids=["dirichlet", "pdp_sticks", "pdp_series_0.25_1", "pdp_series_0.5_2"])
    def test_mean_distinct_count(self, process, params, alpha, theta, monkeypatch):
        """clustering_growth's own K_n at its default truncations (DP at 3,000 points, the series under the
        epsilon rule; sticks, which have none, at 3,000) against E K_n = (theta/alpha)[(theta+alpha)_n/(theta)_n - 1]
        (Pitman, 2006)."""
        counts, count = [], experiments.row_distinct_count

        def recorded(*args):
            counts.append(count(*args))
            return counts[-1]

        monkeypatch.setattr(experiments, "row_distinct_count", recorded)
        n_grid, reps = [100, 1000], 200
        diag = clustering_growth(process, params, n_grid, reps, 5, self.STICKS.get(process))
        for ni, n in enumerate(n_grid):
            k = np.array(counts[ni * reps:(ni + 1) * reps], dtype=float)
            assert k.mean() == diag.kn_means[ni]
            z = (k.mean() - expected_distinct_count(alpha, theta, n)) / (k.std(ddof=1) / math.sqrt(reps))
            assert abs(z) < 4, f"n = {n}: z = {z:+.2f}"


class TestPayloadReaders:
    """A payload reader names the payload and the field it cannot read."""

    PROFILE = {"r_grid": [0, 3], "top_k": 2, "replications": 5, "tail": {}, "mean_weights": [[0.5, 0.2]] * 2}
    GROWTH = {"n_grid": [10], "kn_means": [3.0], "normalizer": "log_n", "ratios": [1.3], "replications": 5,
              "process": "dirichlet"}
    RESULT = {"mean_distance": 0.1, "std_error": 0.01, "replications": 5,
              "spec": {"process": "dirichlet", "replications": 5}}
    KS_ROW = {"alpha": 0.5, "theta": 2.0, "r": 3, "mean_distance": 0.1, "std_error": 0.01, "replications": 5,
              "failures": []}

    @pytest.mark.parametrize("read, data, message", [
        (WeightProfile.from_dict, {}, "weight profile lacks field 'r_grid'"),
        (GrowthDiagnostic.from_dict, {"n_grid": [1]}, "growth diagnostic lacks field 'kn_means'"),
        (ExperimentResult.from_dict, {"mean_distance": "x"}, "experiment result field 'mean_distance' does not read"),
        (parse_ks_table_result, {"rows": [1]}, "grid result row must be an object, got 1"),
        (WeightProfile.from_dict, {**PROFILE, "top_k": 2.7},
         "weight profile field 'top_k' does not read: top_k must be an integer, got 2.7$"),
        (WeightProfile.from_dict, {**PROFILE, "r_grid": [0.5, 3.9]},
         "weight profile field 'r_grid' does not read: r must be an integer, got 0.5$"),
        (WeightProfile.from_dict, {**PROFILE, "replications": 5.5},
         "weight profile field 'replications' does not read: replications must be an integer, got 5.5$"),
        (GrowthDiagnostic.from_dict, {**GROWTH, "n_grid": [10.5]},
         "growth diagnostic field 'n_grid' does not read: n must be an integer, got 10.5$"),
        (GrowthDiagnostic.from_dict, {**GROWTH, "replications": 5.5},
         "growth diagnostic field 'replications' does not read: replications must be an integer, got 5.5$"),
        (ExperimentResult.from_dict, {**RESULT, "replications": 5.5},
         "experiment result field 'replications' does not read: replications must be an integer, got 5.5$"),
        (ExperimentResult.from_dict, {**RESULT, "failures": "none"},
         "experiment result field 'failures' does not read: expected a list, got str$"),
    ], ids=["weight_profile", "growth_diagnostic", "experiment_result", "ks_table_result",
            "profile_top_k", "profile_r_grid", "profile_replications", "growth_n_grid", "growth_replications",
            "result_replications", "result_failures"])
    def test_malformed_payload_is_a_domain_error(self, read, data, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            read(data)

    @pytest.mark.parametrize("key, value, message", [
        ("mean_distance", "x", "mean_distance must be a real number, got 'x'"),
        ("std_error", None, "std_error must be a real number, got None"),
        ("alpha", [0.5], r"alpha must be a real number, got \[0.5\]"),
        ("replications", "y", "replications must be an integer, got 'y'"),
        ("r", 2.5, "r must be an integer, got 2.5"),
        ("failures", "none", "expected a list, got str"),
    ], ids=["mean_distance", "std_error", "alpha", "replications", "r", "failures"])
    def test_ks_table_row_field_of_the_wrong_type_is_a_domain_error(self, key, value, message):
        with pytest.raises(DomainError, match=f"^grid result row field '{key}' does not read: {message}$"):
            parse_ks_table_result({"rows": [{**self.KS_ROW, key: value}]})

    def test_ks_table_row_reads_nan_distances_and_requires_every_field(self):
        nan_row = {**self.KS_ROW, "mean_distance": float("nan"), "failures": ["replication 0: boom"]}
        (row,) = parse_ks_table_result({"rows": [nan_row]})
        assert math.isnan(row["mean_distance"]) and row["failures"] == ["replication 0: boom"]
        with pytest.raises(DomainError, match="^grid result row lacks field 'failures'$"):
            parse_ks_table_result({"rows": [{k: v for k, v in self.KS_ROW.items() if k != "failures"}]})


class TestJsonReaders:
    """Every JSON-object reader checks its payload through one shared field reader."""

    SPEC = {"process": "dirichlet", "params": {"theta": 3.0}, "replications": 5}
    MEASURE = {"atoms": [0.25, 0.75], "weights": [0.5, 0.5]}

    @staticmethod
    def readers(tmp_path):
        def spec_file(value):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(value))
            return load_experiment_spec(path)

        return {
            "spec": ExperimentSpec.from_dict,
            "spec_file": spec_file,
            "result": ExperimentResult.from_dict,
            "truncation": TruncationPolicy.from_dict,
            "tail": LevyTail.from_dict,
            "tail_json": lambda value: LevyTail.from_json(json.dumps(value)),
            "measure": DiscreteMeasure.from_json_dict,
            "measure_json": lambda value: DiscreteMeasure.from_json(json.dumps(value)),
            "grid": load_ks_grid,
            "grid_result": parse_ks_table_result,
            "profile": WeightProfile.from_dict,
            "growth": GrowthDiagnostic.from_dict,
        }

    # each payload with a string where a list belongs; a truncation and a tail hold no list
    STRING_FOR_LIST = {
        "spec": {**SPEC, "master_seed": "12"},
        "spec_file": {**SPEC, "master_seed": "12"},
        "result": {**TestPayloadReaders.RESULT, "failures": "12"},
        "measure": {**MEASURE, "atoms": "12"},
        "measure_json": {**MEASURE, "weights": "12"},
        "grid": {"rows": "12", "n": 80, "replications": 6},
        "grid_result": {"rows": "12"},
        "profile": {**TestPayloadReaders.PROFILE, "r_grid": "12"},
        "growth": {**TestPayloadReaders.GROWTH, "n_grid": "12"},
    }

    @pytest.mark.parametrize("reader", ["spec", "spec_file", "result", "truncation", "tail", "tail_json", "measure",
                                        "measure_json", "grid", "grid_result", "profile", "growth"])
    @pytest.mark.parametrize("value", [[1, 2], "x", 5, None], ids=["list", "string", "integer", "null"])
    def test_a_value_that_is_not_an_object_is_a_domain_error(self, reader, value, tmp_path):
        with pytest.raises(DomainError):
            self.readers(tmp_path)[reader](value)

    @pytest.mark.parametrize("reader", sorted(STRING_FOR_LIST))
    def test_a_string_where_a_list_belongs_is_a_domain_error(self, reader, tmp_path):
        with pytest.raises(DomainError, match="field '(master_seed|failures|atoms|weights|rows|r_grid|n_grid)' "
                                              "does not read"):
            self.readers(tmp_path)[reader](self.STRING_FOR_LIST[reader])

    @pytest.mark.parametrize("read, data, message", [
        (ExperimentSpec.from_dict, ["process"], "experiment spec must be an object, got list"),
        (ExperimentSpec.from_dict, {**SPEC, "params": [1, 2]},
         "experiment spec field 'params' does not read: params must be an object, got list"),
        (ExperimentSpec.from_dict, {**SPEC, "master_seed": "12"},
         "experiment spec field 'master_seed' does not read: seed must be an integer or tuple of integers: '12'"),
        (ExperimentSpec.from_dict, {**SPEC, "truncation": ["n"]},
         "experiment spec field 'truncation' does not read: truncation must be an object, got list"),
        (TruncationPolicy.from_dict, ["n"], "truncation must be an object, got list"),
        (TruncationPolicy.from_dict, {"n": 5, "width": 4}, r"unknown truncation fields: \['width'\]"),
        (LevyTail.from_dict, ["kind"], "tail must be an object, got list"),
        (LevyTail.from_dict, {"alpha": 0.5}, "tail lacks field 'kind'"),
        (LevyTail.from_json, "x", "tail JSON does not parse: "),
        (DiscreteMeasure.from_json_dict, {**MEASURE, "provenance": [1]},
         "measure JSON field 'provenance' does not read: provenance must be an object, got list"),
        (WeightProfile.from_dict, {**TestPayloadReaders.PROFILE, "r_grid": "12"},
         "weight profile field 'r_grid' does not read: expected a list, got str"),
        (GrowthDiagnostic.from_dict, {**TestPayloadReaders.GROWTH, "n_grid": "12"},
         "growth diagnostic field 'n_grid' does not read: expected a list, got str"),
        (GrowthDiagnostic.from_dict, {**TestPayloadReaders.GROWTH, "kn_means": "12"},
         "growth diagnostic field 'kn_means' does not read: expected a list, got str"),
        (load_ks_grid, {"n": 80, "replications": 6}, "grid config lacks field 'rows'"),
        (parse_ks_table_result, {}, "grid result lacks field 'rows'"),
    ], ids=["spec_list", "spec_params_list", "spec_seed_string", "spec_truncation_list", "truncation_list",
            "truncation_unknown_field", "tail_list", "tail_without_kind", "tail_json_unparsed",
            "measure_provenance_list", "profile_r_grid_string", "growth_n_grid_string", "growth_kn_means_string",
            "grid_without_rows", "grid_result_without_rows"])
    def test_malformed_payload_names_the_payload_and_field(self, read, data, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            read(data)

    def test_integer_master_seed_reads_as_the_constructor_takes_it(self):
        spec = ExperimentSpec.from_dict({**self.SPEC, "master_seed": 7})
        assert spec.to_dict() == ExperimentSpec("dirichlet", {"theta": 3.0}, 5, None, 7).to_dict()
        assert spec.to_dict()["master_seed"] == [7]


class TestPayloadCodec:
    """Every record's ``from_dict`` reads back what its ``to_dict`` writes, through JSON, in the same key order."""

    SPEC = ExperimentSpec("pkp", {"r": np.int64(2), "tail": LevyTail.gamma(3.0)}, 3, TruncationPolicy.fixed(50), 1)
    RECORDS = {
        "spec": (lambda: TestPayloadCodec.SPEC,
                 ["process", "params", "replications", "truncation", "master_seed"]),
        "result": (lambda: run_ks_experiment(TestPayloadCodec.SPEC),
                   ["mean_distance", "std_error", "replications", "failures", "spec"]),
        "profile": (lambda: weight_profile(LevyTail.gamma(3.0), [0, 2], 2, 3, 1),
                    ["r_grid", "top_k", "replications", "tail", "mean_weights"]),
        "growth": (lambda: clustering_growth("dirichlet", {"theta": np.int64(3)}, [10, 100], 3, 1),
                   ["n_grid", "kn_means", "normalizer", "ratios", "replications", "process", "params"]),
        "equivalence": (lambda: rank_weight_equivalence_test(0.5, 2.0, 100, 1, TruncationPolicy.fixed(200), 200),
                        ["statistic", "p_value", "n_lhs", "n_rhs", "params"]),
    }

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_json_roundtrip(self, name):
        make, keys = self.RECORDS[name]
        record = make()
        payload = json.loads(json.dumps(record.to_dict()))  # raised TypeError on a LevyTail or a numpy scalar
        assert list(payload) == ["schema_version", *keys]
        assert type(record).from_dict(payload).to_dict() == payload

    def test_params_are_written_as_plain_json(self):
        payload = run_ks_experiment(self.SPEC).to_dict()["spec"]
        assert payload["params"] == {"r": 2, "tail": {"kind": "gamma", "theta": 3.0}}
        assert type(payload["params"]["r"]) is int and payload["master_seed"] == [1]
        assert clustering_growth("dirichlet", {"theta": np.int64(3)}, [10], 3, 1).to_dict()["params"] == {"theta": 3}

    @pytest.mark.parametrize("data, message", [
        ({}, "equivalence report lacks field 'statistic'"),
        ({"statistic": 0.1, "p_value": 0.5, "n_lhs": 100, "n_rhs": 100.5, "params": {}},
         "equivalence report field 'n_rhs' does not read: n_rhs must be an integer, got 100.5$"),
        ({"statistic": 0.1, "p_value": 0.5, "n_lhs": 100, "n_rhs": 100, "params": [1]},
         "equivalence report field 'params' does not read: params must be an object, got list$"),
    ], ids=["missing", "fractional_count", "params_list"])
    def test_equivalence_report_reader_names_the_field(self, data, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            EquivalenceReport.from_dict(data)


class TestReplicationEngine:
    """Series replications are drawn in blocks, their points inverted together."""

    N = 400
    # three replications past the first block at n = 400
    REPS = experiments._BLOCK_POINTS // N + 3
    # three replications past the first epsilon-rule block
    EPS_REPS = experiments._EPSILON_BLOCK + 3

    # stick breaking takes its stick count from fixed(N); the extended DP takes no truncation, its level n = N
    SERIES = [
        ("dirichlet", {"theta": 3.0}),
        ("stable", {"alpha": 0.5}),
        ("pkp", {"r": 3, "tail": {"kind": "gamma", "theta": 2.0}}),
        ("pdp_series", {"alpha": 0.9, "theta": 10.0, "r": 11}),
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}),
        ("extended_dp", {"concentration": 3.0, "n": N}),
        ("pdp_stick", {"alpha": 0.5, "theta": 2.0, "ranked": True}),
    ]

    @classmethod
    def truncation(cls, process):
        return None if process == "extended_dp" else TruncationPolicy.fixed(cls.N)

    @staticmethod
    def per_draw(spec):
        """Each replication's KS value or failure string, drawn with its own build_measure call."""
        values, failures = [], []
        for i in range(spec.replications):
            try:
                m = build_measure(spec.process, spec.params, spec.truncation, replication_seed(spec.master_seed, i))
            except Exception as exc:  # noqa: BLE001 - compared with the recorded failures
                failures.append(f"replication {i}: {exc}")
            else:
                values.append(kolmogorov_distance(m, UB))
        return values, failures

    @staticmethod
    def batched(spec):
        """The KS values the engine computed for the replications that did not fail, in order, and its failures."""
        values, failures = experiments._ks_values(spec, UB)
        assert len(values) == spec.replications
        assert np.count_nonzero(np.isnan(values)) == len(failures)
        return [float(v) for v in values if not math.isnan(v)], failures

    @pytest.mark.parametrize("process, params", SERIES)
    def test_each_replication_equals_its_own_draw(self, process, params):
        spec = ExperimentSpec(process, params, self.REPS, self.truncation(process), 61)
        seen, engine_failures = self.batched(spec)
        values, failures = self.per_draw(spec)
        assert failures == engine_failures == []
        assert len(seen) == self.REPS
        assert seen == values  # exact float equality, replication by replication
        assert run_ks_experiment(spec).mean_distance == float(np.mean(values))

    def test_rows_equal_their_own_draws(self):
        seeds = [(5, i) for i in range(3)]
        for process, params in self.SERIES:
            record = experiments._family(process, params, self.truncation(process))
            for seed, row in zip(seeds, experiments._replicate(record, seeds)):
                assert np.array_equal(row, record.draw([seed])[0])
                # a seed's measure carries its row's nonzero weights
                weights = record.measure(UB, seed).weights
                assert np.array_equal(np.sort(weights), np.sort(row[row > 0.0]))

    @pytest.mark.parametrize("truncation", [TruncationPolicy.fixed(N), TruncationPolicy.epsilon_rule(1e-6)],
                             ids=["fixed", "epsilon"])
    def test_seeds_are_taken_one_block_at_a_time(self, truncation):
        record = experiments._family("dirichlet", {"theta": 3.0}, truncation)
        size = experiments._EPSILON_BLOCK if record.width is None else experiments._BLOCK_POINTS // record.width
        rows = []

        def seeds():
            for i in range(2 * size + 1):
                if i == size and not rows:
                    raise AssertionError("the seed iterator was advanced past the first block before its first row")
                yield (5, i)

        rows.extend(experiments._replicate(record, seeds()))
        assert len(rows) == 2 * size + 1
        assert all(np.array_equal(row, record.draw([(5, i)])[0]) for i, row in enumerate(rows))

    @pytest.mark.parametrize("r", [1e-3, 3e-3])
    def test_failures_stay_with_their_replication(self, r):
        # a tiny randomized order degenerates the mixing draw on some seeds, and at
        # r = 3e-3 overflows other seeds' levels inside the block's inversion
        params = {"r": r, "tail": {"kind": "stable", "alpha": 0.5}, "randomized": True}
        spec = ExperimentSpec("pkp", params, 70, TruncationPolicy.fixed(50), 3)
        seen, engine_failures = self.batched(spec)
        values, failures = self.per_draw(spec)
        assert run_ks_experiment(spec).failures == failures
        assert 0 < len(failures) < 70
        assert engine_failures == failures
        assert seen == values

    def test_extended_dp_failures_stay_with_their_replication(self):
        # at r = 1 some seeds keep fewer than two levels Gamma_i/(Gamma_1 Gamma_{n+1}) below 1 and fail
        spec = ExperimentSpec("extended_dp", {"concentration": 3.0, "r": 1, "n": 50}, self.REPS, None, 4)
        seen, engine_failures = self.batched(spec)
        values, failures = self.per_draw(spec)
        assert 0 < len(failures) < self.REPS
        assert engine_failures == failures
        assert seen == values

    def test_a_row_that_keeps_one_point_fails_as_per_draw(self):
        # n <= r + 1 keeps fewer than two points on every seed
        spec = ExperimentSpec("pdp_series", {"alpha": 0.9, "theta": 10.0, "r": self.N - 1}, self.REPS,
                              TruncationPolicy.fixed(self.N), 8)
        res = run_ks_experiment(spec)
        values, failures = self.per_draw(spec)
        assert values == []
        assert res.failures == failures
        assert len(failures) == self.REPS
        assert math.isnan(res.mean_distance)

    def test_weight_profile_equals_the_per_draw_sum(self):
        from nbpriors import sample_pkp

        tail, top_k, reps = LevyTail.gamma(3.0), 5, self.REPS
        profile = weight_profile(tail, [0, 3], top_k=top_k, replications=reps, seed=7, points_per_r=self.N)
        for gi, r in enumerate([0, 3]):
            acc = np.zeros(top_k)
            for rep in range(reps):
                m = sample_pkp(r, tail, UB, TruncationPolicy.fixed(r + self.N), seed_tuple(7) + (gi, rep))
                acc += m.weights[:top_k]
            assert np.array_equal(profile.mean_weights[gi], acc / reps)

    def test_weight_profile_counts_underflowed_weights_as_zeros(self):
        from nbpriors import sample_pkp

        # at theta = 0.01 the weights fall so fast that some draws keep fewer than top_k of them
        tail, top_k, reps = LevyTail.gamma(0.01), 10, 5
        profile = weight_profile(tail, [0, 3], top_k=top_k, replications=reps, seed=1)
        short = 0
        for gi, r in enumerate([0, 3]):
            acc = np.zeros(top_k)
            for rep in range(reps):
                m = sample_pkp(r, tail, UB, TruncationPolicy.fixed(r + 400), seed_tuple(1) + (gi, rep))
                kept = m.weights[:top_k]
                short += kept.size < top_k
                acc += np.concatenate([kept, np.zeros(top_k - kept.size)])
            assert np.array_equal(profile.mean_weights[gi], acc / reps)
        assert short > 0

    @staticmethod
    def count_spawns(monkeypatch):
        """A list that records every (seed, stream) generator spawned from here on."""
        calls = []

        def counting(seed, stream_tag):
            calls.append((seed_tuple(seed), stream_tag))
            return spawn_generator(seed, stream_tag)

        for module in (point_processes, random_measures):  # every spawn of a replication happens in these two
            monkeypatch.setattr(module, "spawn_generator", counting)
        return calls

    @pytest.mark.parametrize("params, spawns", [
        ({"r": 3, "tail": {"kind": "gamma", "theta": 2.0}}, 2),  # arrivals and atoms
        ({"r": 3, "tail": {"kind": "gamma", "theta": 2.0}, "randomized": True}, 3),  # and the mixing draw
    ])
    def test_spawns_per_replication(self, params, spawns, monkeypatch):
        calls = self.count_spawns(monkeypatch)
        spec = ExperimentSpec("pkp", params, self.REPS, TruncationPolicy.fixed(self.N), 12)
        assert not run_ks_experiment(spec).failures
        assert len(calls) == spawns * self.REPS
        assert len(set(calls)) == len(calls)

    @staticmethod
    def engine_and_single_draws(record, master_seed):
        """The engine's rows (or failure strings) and each seed's own ``record.draw([seed])``, in order."""
        seeds = [replication_seed(master_seed, i) for i in range(TestReplicationEngine.EPS_REPS)]

        def as_list(row):
            return f"{type(row).__name__}: {row}" if isinstance(row, Exception) else row.tolist()

        singles = []
        for seed in seeds:
            try:
                singles.append(record.draw([seed])[0])
            except Exception as exc:  # noqa: BLE001 - compared with the engine's failures
                singles.append(exc)
        return [as_list(row) for row in experiments._replicate(record, seeds)], [as_list(row) for row in singles]

    @pytest.mark.parametrize("process, params", [
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}),  # randomized path
        ("stable", {"alpha": 0.5}),
        ("dirichlet", {"theta": 3.0}),
    ])
    def test_epsilon_replications_equal_their_own_draws(self, process, params):
        record = experiments._family(process, params, TruncationPolicy.epsilon_rule(1e-6))
        engine, singles = self.engine_and_single_draws(record, 61)
        assert len(engine) == self.EPS_REPS
        assert engine == singles

    def test_epsilon_block_mixes_rule_and_hard_cap_stops(self):
        # at epsilon 1e-6 these seeds stop between 600 and 2,500 points, so a
        # cap of 1,500 stops some rows by the rule and the others by the cap
        trunc = TruncationPolicy.epsilon_rule(1e-6, hard_cap=1500)
        record = experiments._family("pdp_series", {"alpha": 0.5, "theta": 2.0}, trunc)
        engine, singles = self.engine_and_single_draws(record, 61)
        assert engine == singles
        stops = [record.measure(UB, replication_seed(61, i)).provenance for i in range(self.EPS_REPS)]
        block = stops[: experiments._EPSILON_BLOCK]
        assert {p["stopped_by"] for p in block} == {"epsilon_rule", "hard_cap"}
        for row, p in zip(engine, stops):
            assert p["truncation_warning"] == (p["stopped_by"] == "hard_cap")
            assert (len(row) == 1500) == (p["stopped_by"] == "hard_cap")

    def test_epsilon_failures_stay_with_their_replication(self):
        # a tiny randomized order degenerates the mixing draw on some seeds and
        # underflows every point of others, which then run to the hard cap
        params = {"r": 1e-3, "tail": {"kind": "stable", "alpha": 0.5}, "randomized": True}
        spec = ExperimentSpec("pkp", params, self.EPS_REPS, TruncationPolicy.epsilon_rule(1e-6, hard_cap=2048), 3)
        seen, engine_failures = self.batched(spec)
        values, failures = self.per_draw(spec)
        assert 0 < len(failures) < self.EPS_REPS
        assert engine_failures == failures
        assert seen == values

    @pytest.mark.parametrize("process, params, spawns", [
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}, 3),  # arrivals, mixing draw and atoms
        ("stable", {"alpha": 0.5}, 2),  # arrivals and atoms
    ])
    def test_epsilon_spawns_per_replication(self, process, params, spawns, monkeypatch):
        calls = self.count_spawns(monkeypatch)
        spec = ExperimentSpec(process, params, self.EPS_REPS, TruncationPolicy.epsilon_rule(1e-6), 12)
        assert not run_ks_experiment(spec).failures
        assert len(calls) == spawns * self.EPS_REPS
        assert len(set(calls)) == len(calls)

    def test_epsilon_rounds_share_one_inversion(self, monkeypatch):
        """One tail inversion per round of a block, and every chunk inverted once (the stable tail: the
        generalized-gamma one inverts only its points above the tempering split)."""
        calls, points = [], []
        inverse = point_processes.log_tail_inverse

        def counting(tail, y):
            calls.append(1)
            points.append(np.size(y))
            return inverse(tail, y)

        monkeypatch.setattr(point_processes, "log_tail_inverse", counting)
        params, reps, seed = {"alpha": 0.5}, self.EPS_REPS, 19
        trunc = TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000)  # clustering_growth's default
        chunks = []
        for rep in range(reps):  # a single draw inverts once per chunk
            calls.clear()
            build_measure("stable", params, trunc, seed_tuple(seed) + (0, rep))
            chunks.append(len(calls))
        calls.clear()
        points.clear()
        clustering_growth("stable", params, [100], reps, seed)
        block = experiments._EPSILON_BLOCK
        rounds = sum(max(chunks[start:start + block]) for start in range(0, reps, block))
        assert len(calls) == rounds < sum(chunks)
        assert sum(points) == point_processes._CHUNK * sum(chunks)


class TestKsTable:
    ROWS = [{"alpha": 0.5, "theta": 1, "r": 2}, {"alpha": 0.9, "theta": 10, "r": 11}]

    def test_runs_and_is_deterministic(self):
        a = run_ks_table(self.ROWS, n=80, replications=6, master_seed=5)
        b = run_ks_table(self.ROWS, n=80, replications=6, master_seed=5)
        assert len(a) == 2
        assert [r.mean_distance for r in a] == [r.mean_distance for r in b]
        assert all(0.0 < r.mean_distance < 1.0 for r in a)

    def test_each_row_record_is_built_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return family(*args)

        family = experiments._family
        monkeypatch.setattr(experiments, "_family", counting)
        run_ks_table(self.ROWS, n=40, replications=2, master_seed=5)
        assert len(calls) == len(self.ROWS)

    def test_grid_loader(self):
        rows, n, reps = load_ks_grid({"rows": self.ROWS, "n": 400, "replications": 500})
        assert (n, reps) == (400, 500)
        assert rows == self.ROWS
        with pytest.raises(DomainError):
            load_ks_grid({"rows": [{"alpha": 0.1}], "n": 4, "replications": 5})
        with pytest.raises(DomainError):
            load_ks_grid({"n": 4})

    @pytest.mark.parametrize("kwargs", [{"n": 80.5}, {"replications": 3.7}], ids=["n", "replications"])
    def test_fractional_integer_argument_is_a_domain_error(self, kwargs):
        args = {"n": 80, "replications": 3, **kwargs}
        with pytest.raises(DomainError, match="must be an integer"):
            run_ks_table(self.ROWS, master_seed=5, **args)

    def test_row_no_seed_can_draw_is_rejected_before_any_row_is_sampled(self, monkeypatch):
        monkeypatch.setattr(experiments, "_replicate", None)  # sampling the first row would fail
        rows = [{"alpha": 0.5, "theta": 1.0, "r": 2}, {"alpha": 0.5, "theta": 1.0, "r": 59}]
        with pytest.raises(DomainError) as info:
            run_ks_table(rows, n=60, replications=2, master_seed=1)
        assert str(info.value) == (
            f"grid row {rows[1]!r}: fixed_count n=60 retains 1 points past index 59; need at least 2"
        )

    def test_n_above_the_hard_cap_is_rejected_before_any_row_is_sampled(self, monkeypatch):
        monkeypatch.setattr(experiments, "_replicate", None)  # sampling the first row would fail
        with pytest.raises(ResourceLimitError, match="^fixed_count would retain 1999998 points, above hard_cap="):
            run_ks_table(self.ROWS, n=2_000_000, replications=2, master_seed=1)

    def test_fractional_row_r_is_a_domain_error(self):
        with pytest.raises(DomainError, match="r must be a nonnegative integer"):
            run_ks_table([{"alpha": 0.5, "theta": 1.0, "r": 2.5}], n=50, replications=2, master_seed=1)

    @pytest.mark.parametrize("row, message", [
        ({"alpha": 0.5, "theta": "x", "r": 2}, "theta must be a real number, got 'x'"),
        ({"alpha": 0.5, "theta": -1, "r": 2}, "need alpha in (0,1) and a finite theta > 0"),
        ({"alpha": 0.5, "r": 2}, "needs alpha, theta, r"),
        ({"alpha": 1.5, "theta": 1.0, "r": 2}, "need alpha in (0,1) and a finite theta > 0"),
        ({"alpha": 0.5, "theta": 1.0, "r": 2, "seed": 9}, "unknown row fields: ['seed']"),
    ], ids=["non_numeric_theta", "negative_theta", "missing_theta", "alpha_out_of_range", "unread_key"])
    def test_bad_row_is_rejected_before_any_row_is_sampled(self, monkeypatch, row, message):
        monkeypatch.setattr(experiments, "_replicate", None)  # sampling the first row would fail
        with pytest.raises(DomainError) as info:
            run_ks_table([{"alpha": 0.5, "theta": 1.0, "r": 2}, row], 50, 3, 0)
        assert str(info.value).startswith(f"grid row {row!r}") and message in str(info.value)

    def test_grid_row_skips_the_upper_ratio_kernel(self, monkeypatch):
        """Row (0.9, 100, 111) inverts only its support bound L^{-1}(1), once per process, not per block of
        replications, and inverting the row's levels takes every ln Q from the lower-ratio kernel, at most 4.1
        evaluations per point."""
        elements = {"gammainc": 0, "gammaincc": 0}
        points = []

        def counted(name):
            kernel = getattr(scipy.special, name)

            def wrapper(*args):
                out = kernel(*args)
                elements[name] += int(np.size(out))
                return out

            return wrapper

        proxy = types.SimpleNamespace(**vars(scipy.special))
        for name in elements:
            setattr(proxy, name, counted(name))
        monkeypatch.setattr(special_functions, "sp", proxy)
        inverse = point_processes.log_tail_inverse

        def counting(tail, y):
            points.append(np.size(y))
            return inverse(tail, y)

        monkeypatch.setattr(point_processes, "log_tail_inverse", counting)
        point_processes._split.cache_clear()  # earlier draws of the tail solved its split already
        run_ks_table([{"alpha": 0.9, "theta": 100, "r": 111}], n=400, replications=15, master_seed=1)
        assert sum(points) == 1  # every point of the row is a thinned stable candidate
        assert sum(elements.values()) <= 100  # L(x*) and the Newton steps of the one support-bound solve
        run_ks_table([{"alpha": 0.9, "theta": 100, "r": 111}], n=400, replications=15, master_seed=2)
        assert sum(points) == 1  # the split of a tail already drawn is not solved again
        # the levels Γ_i / Γ_r, i = r+1 .. n, of the same replications, inverted
        rows = [point_processes._Row(replication_seed(1, i), 111, False) for i in range(15)]
        levels = (point_processes._Row.arrivals(rows, 400 - 111) / [[row.divisor] for row in rows]).ravel()
        elements.update(gammainc=0, gammaincc=0)
        inverse(LevyTail.generalized_gamma(0.9), levels)
        assert elements["gammaincc"] == 0
        assert elements["gammainc"] <= 4.1 * levels.size


class TestWeightProfile:
    def test_rows_sum_below_one_and_trend(self):
        profile = weight_profile(LevyTail.gamma(3.0), [0, 3], top_k=10, replications=150, seed=3)
        assert profile.mean_weights.shape == (2, 10)
        for row in profile.mean_weights:
            assert 0.0 < row.sum() <= 1.0
            assert np.all(np.diff(row) < 0)
        assert profile.mean_weights[0, 0] > profile.mean_weights[1, 0]

    def test_a_failed_replication_raises(self):
        # at a subnormal alpha every stable point is infinite, so no row carries two representable weights
        with pytest.raises(DegenerateTruncationError, match="fewer than two atoms carry representable weight"):
            weight_profile(LevyTail.stable(1e-310), [0], top_k=1, replications=1, seed=0, points_per_r=2)

    def test_validation(self):
        with pytest.raises(DomainError):
            weight_profile(LevyTail.gamma(3.0), [0], top_k=0, replications=5, seed=1)
        with pytest.raises(DomainError, match="r_grid"):
            weight_profile(LevyTail.gamma(3.0), [], top_k=10, replications=5, seed=1)
        with pytest.raises(DomainError):
            weight_profile(LevyTail.gamma(3.0), [0], top_k=10, replications=5, seed=1, points_per_r=4)

    @pytest.mark.parametrize(
        "kwargs",
        [{"r_grid": [0, 2.5]}, {"top_k": 2.5}, {"replications": 6.7}, {"points_per_r": 50.9}],
        ids=["r_grid", "top_k", "replications", "points_per_r"],
    )
    def test_fractional_integer_argument_is_a_domain_error(self, kwargs):
        args = {"r_grid": [0, 2], "top_k": 2, "replications": 6, "points_per_r": 50, **kwargs}
        with pytest.raises(DomainError, match="must be an integer"):
            weight_profile(LevyTail.gamma(3.0), seed=1, **args)


class TestClusteringGrowth:
    def test_a_failed_replication_raises(self):
        with pytest.raises(DegenerateTruncationError, match="fewer than two atoms carry representable weight"):
            clustering_growth("stable", {"alpha": 1e-310}, [10], 1, 0, truncation=TruncationPolicy.fixed(50))

    def test_dirichlet_growth(self):
        diag = clustering_growth("dirichlet", {"theta": 3.0}, [50, 150], 200, 13)
        assert diag.normalizer == "log_n"
        assert diag.kn_means[0] < diag.kn_means[1]
        for n, mean in zip(diag.n_grid, diag.kn_means):
            assert abs(mean - dp_expected_distinct(3.0, n)) < 2.0
        assert diag.ratios == [k / math.log(n) for k, n in zip(diag.kn_means, diag.n_grid)]

    def test_power_normalizer(self):
        diag = clustering_growth(
            "pdp_series",
            {"alpha": 0.5, "theta": 1.0},
            [50, 100],
            50,
            17,
            truncation=TruncationPolicy.epsilon_rule(1e-6, hard_cap=20_000),
        )
        assert diag.normalizer == "n_pow_alpha"
        assert diag.ratios[0] == pytest.approx(diag.kn_means[0] / math.sqrt(50))

    EPS = TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000)  # the default for every series but dirichlet

    @pytest.mark.parametrize("process, params, truncation", [
        ("dirichlet", {"theta": 3.0}, TruncationPolicy.fixed(300)),
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}, None),
        ("pdp_series", {"alpha": 0.9, "theta": 10.0, "r": 11}, TruncationPolicy.fixed(400)),
        ("stable", {"alpha": 0.5}, TruncationPolicy.fixed(300)),
        ("extended_dp", {"concentration": 3.0, "n": 300}, None),
        ("pdp_stick", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.fixed(300)),
        ("pdp_stick", {"alpha": 0.0, "theta": 0.01}, TruncationPolicy.fixed(2000)),
        ("pdp_stick", {"alpha": 0.0, "theta": 0.5}, TruncationPolicy.fixed(2000)),
        ("pkp", {"r": 2, "tail": {"kind": "gamma", "theta": 3.0}}, TruncationPolicy.fixed(300)),
    ], ids=["dirichlet", "pdp_series_eps", "pdp_series_r11", "stable", "extended_dp", "pdp_stick",
            "pdp_stick_theta0.01_underflow", "pdp_stick_theta0.5_underflow", "pkp_gamma"])
    def test_kn_equals_the_per_draw_count(self, process, params, truncation, monkeypatch):
        """K_n of the weight rows is exactly the count of categorical draws from each per-seed measure."""
        n_grid, reps, seed = [5, 60], 6, 23
        calls = TestReplicationEngine.count_spawns(monkeypatch)
        diag = clustering_growth(process, params, n_grid, reps, seed, truncation)
        assert calls and all(stream != STREAM_ATOMS for _, stream in calls)  # no atoms drawn
        monkeypatch.undo()
        trunc = self.EPS if truncation is None and process != "extended_dp" else truncation
        expected = []
        for ni, n in enumerate(n_grid):
            counts = [distinct_count(draw_from_measure(build_measure(process, params, trunc, (seed, ni, rep)), n,
                                                       (seed, ni, rep))) for rep in range(reps)]
            expected.append(sum(counts) / reps)
        assert diag.kn_means == expected
        if process == "pdp_stick" and trunc.n == 2000:  # rows with underflowed zeros, which the measures drop
            assert len(build_measure(process, params, trunc, (seed, 0, 0))) < trunc.n + 1

    @pytest.mark.parametrize("process, params", [
        ("extended_dp", {"concentration": 3.0, "r": 0, "n": 2000}),
        ("pdp_stick", {"alpha": 0.0, "theta": 3.0}),
    ])
    def test_index_zero_families_grow_like_the_dirichlet_process(self, process, params):
        """E K_n = sum of theta/(theta+i-1) for i = 1..n, a sum of independent Bernoulli
        indicators, so the exact variance of K_n gives the standard error of the mean."""
        reps, theta = 400, 3.0
        diag = clustering_growth(process, params, [20, 200], reps, 1, TestSamplerLaw.STICKS.get(process))
        assert diag.normalizer == "log_n"
        assert diag.ratios == [k / math.log(n) for k, n in zip(diag.kn_means, diag.n_grid)]
        for n, mean in zip(diag.n_grid, diag.kn_means):
            p = theta / (theta + np.arange(n))
            assert abs(mean - p.sum()) <= 4 * math.sqrt(np.sum(p * (1 - p)) / reps)

    @pytest.mark.parametrize("process, params, index", [
        ("pkp", {"r": 2, "tail": {"kind": "generalized_gamma", "alpha": 0.3}}, 0.3),
        ("pdp_stick", {"alpha": 0.4, "theta": 1.0}, 0.4),
    ])
    def test_power_index_comes_from_the_family(self, process, params, index):
        diag = clustering_growth(process, params, [10, 20], 3, 0, TruncationPolicy.fixed(200))
        assert diag.normalizer == "n_pow_alpha"
        assert diag.ratios == [k / n ** index for k, n in zip(diag.kn_means, diag.n_grid)]

    def test_grid_validation(self, monkeypatch):
        monkeypatch.setattr(experiments, "_replicate", None)  # every case fails before any sampling
        with pytest.raises(DomainError):
            clustering_growth("dirichlet", {"theta": 1.0}, [100, 100], 10, 1)
        for process, params in (("dirichlet", {"theta": 1.0}), ("stable", {"alpha": 0.5})):
            with pytest.raises(DomainError, match="n_grid"):
                clustering_growth(process, params, [], 10, 1)
        for n_grid in ([0, 10], [-3, 10]):
            with pytest.raises(DomainError, match="at least 1"):
                clustering_growth("pdp_series", {"alpha": 0.5, "theta": 2.0}, n_grid, 40, 1)
        for process, params, truncation in (
                ("extended_dp", {"concentration": 3.0, "n": 50}, None),
                ("pkp", {"r": 2, "tail": {"kind": "gamma", "theta": 3.0}}, TruncationPolicy.fixed(50)),
                ("pdp_stick", {"alpha": 0.0, "theta": 3.0}, TruncationPolicy.fixed(50))):
            with pytest.raises(DomainError, match="log n"):
                clustering_growth(process, params, [1, 10], 2, 0, truncation)

    def test_stick_breaking_has_no_default_truncation(self):
        # the series' epsilon-rule default is no stick count, and an error naming it would name a rule never given
        with pytest.raises(DomainError, match="^this process needs a truncation policy$"):
            clustering_growth("pdp_stick", {"alpha": 0.5, "theta": 2.0}, [10, 100], 2, 1)

    @pytest.mark.parametrize(
        "kwargs", [{"n_grid": [10, 20.7]}, {"replications": 3.9}], ids=["n_grid", "replications"]
    )
    def test_fractional_integer_argument_is_a_domain_error(self, kwargs):
        args = {"n_grid": [10, 20], "replications": 3, **kwargs}
        with pytest.raises(DomainError, match="must be an integer"):
            clustering_growth("dirichlet", {"theta": 3.0}, seed=1, truncation=TruncationPolicy.fixed(50), **args)


class TestEquivalence:
    def test_replication_floor(self):
        with pytest.raises(DomainError):
            rank_weight_equivalence_test(0.5, 2.0, 99, 1)

    def test_a_failed_replication_raises(self):
        # theta/alpha = 2e-300: the series side's Gamma(r, 1) mixing draw underflows to zero
        with pytest.raises(NumericError, match="gamma mixing draw degenerated"):
            rank_weight_equivalence_test(0.5, 1e-300, 100, 1, truncation=TruncationPolicy.fixed(50), sticks=50)

    @pytest.mark.parametrize("kwargs", [{"replications": 100.9}, {"sticks": 200.7}], ids=["replications", "sticks"])
    def test_fractional_integer_argument_is_a_domain_error(self, kwargs):
        args = {"replications": 100, "sticks": 200, **kwargs}
        with pytest.raises(DomainError, match="must be an integer"):
            rank_weight_equivalence_test(0.5, 2.0, seed=1, truncation=TruncationPolicy.fixed(50), **args)

    def test_series_matches_sticks_smoke(self):
        report = rank_weight_equivalence_test(
            0.5, 2.0, 400, 2024, truncation=TruncationPolicy.fixed(1500), sticks=1500
        )
        assert report.p_value > 0.001
        assert report.n_lhs == report.n_rhs == 400

    def test_mismatch_power_smoke(self):
        report = rank_weight_equivalence_test(
            0.5, 2.0, 400, 2025, truncation=TruncationPolicy.fixed(1500), sticks=1500, stick_theta=20.0
        )
        assert report.p_value < 0.001

    def test_statistic_equals_the_per_draw_recomputation(self, monkeypatch):
        calls = TestReplicationEngine.count_spawns(monkeypatch)
        trunc, reps = TruncationPolicy.fixed(200), 130
        report = rank_weight_equivalence_test(0.5, 2.0, reps, 6, truncation=trunc, sticks=300, stick_theta=3.0)
        assert calls and all(stream != STREAM_ATOMS for _, stream in calls)  # no atoms drawn
        monkeypatch.undo()
        lhs = [build_measure("pdp_series", {"alpha": 0.5, "theta": 2.0}, trunc, (6, 0, i)).weights.max()
               for i in range(reps)]
        rhs = [sample_pdp_stick_breaking(0.5, 3.0, UB, 300, True, (6, 1, i)).weights.max() for i in range(reps)]
        ks = st.ks_2samp(lhs, rhs, method="asymp")
        assert (report.statistic, report.p_value) == (ks.statistic, ks.pvalue)
        assert report.params == {"alpha": 0.5, "theta": 2.0, "stick_alpha": 0.5, "stick_theta": 3.0, "sticks": 300}

    @pytest.mark.parametrize("key", ["stick_alpha", "stick_theta"])
    def test_non_numeric_stick_parameter_is_a_domain_error(self, key):
        with pytest.raises(DomainError, match="must be a real number, got 'x'"):
            rank_weight_equivalence_test(0.5, 2.0, 100, 1, **{key: "x"})

    def test_same_law_self_test(self):
        # sticks against sticks with independent seeds: same distribution
        lhs = np.empty(300)
        rhs = np.empty(300)
        for i in range(300):
            a = sample_pdp_stick_breaking(0.5, 2.0, UB, 800, True, (41, i))
            b = sample_pdp_stick_breaking(0.5, 2.0, UB, 800, True, (42, i))
            lhs[i] = a.weights[0]
            rhs[i] = b.weights[0]
        assert st.ks_2samp(lhs, rhs, method="asymp").pvalue > 0.001

    def test_second_largest_weight_matches_sticks(self):
        # the representation identity holds beyond the top weight
        from nbpriors import sample_pdp_series
        from nbpriors.random_measures import PdpParams

        reps = 400
        series = np.empty(reps)
        sticks = np.empty(reps)
        params = PdpParams(0.5, 2.0)
        trunc = TruncationPolicy.fixed(1500)
        for i in range(reps):
            m = sample_pdp_series(params, UB, trunc, (43, i))
            series[i] = np.sort(m.weights)[-2]
            s = sample_pdp_stick_breaking(0.5, 2.0, UB, 1500, True, (44, i))
            sticks[i] = s.weights[1]
        assert st.ks_2samp(series, sticks, method="asymp").pvalue > 0.001


@pytest.mark.parametrize("value", [400, 400.0, "400", np.int64(400)], ids=["int", "float", "str", "int64"])
def test_integer_arguments_accept_every_integral_form(value):
    fixed, eps = TruncationPolicy.fixed(value, hard_cap=value), TruncationPolicy.epsilon_rule(1e-6, hard_cap=value)
    assert (fixed.n, fixed.hard_cap, eps.hard_cap) == (400, 400, 400)
    assert gamma_arrivals(1, value).arrivals.size == 400
    sticks = sample_pdp_stick_breaking(0.5, 2.0, UB, value, False, 1)
    assert sticks.provenance["truncation"]["n"] == 400
    assert draw_from_measure(sticks, value, 1).size == 400
    row = [{"alpha": 0.5, "theta": 1.0, "r": 2}]
    result = run_ks_table(row, n=value, replications=value, master_seed=1)[0]
    assert (result.replications, result.spec_echo.truncation.n) == (400, 400)
    profile = weight_profile(LevyTail.gamma(3.0), [0], top_k=value, replications=1, seed=1, points_per_r=value)
    assert profile.top_k == 400 and profile.mean_weights.shape == (1, 400)
    diag = clustering_growth("dirichlet", {"theta": 3.0}, [value], value, 1, truncation=TruncationPolicy.fixed(20))
    assert (diag.n_grid, diag.replications) == ([400], 400)
    report = rank_weight_equivalence_test(0.5, 2.0, value, 1, truncation=TruncationPolicy.fixed(20), sticks=value)
    assert (report.n_lhs, report.params["sticks"]) == (400, 400)


@pytest.mark.parametrize("run", [
    lambda reps: ExperimentSpec("dirichlet", {"theta": 3.0}, reps, TruncationPolicy.fixed(50), 1),
    lambda reps: load_ks_grid({"rows": [{"alpha": 0.5, "theta": 1.0, "r": 2}], "n": 50, "replications": reps}),
    lambda reps: run_ks_table([{"alpha": 0.5, "theta": 1.0, "r": 2}], n=50, replications=reps, master_seed=1),
    lambda reps: weight_profile(LevyTail.gamma(3.0), [0], top_k=2, replications=reps, seed=1),
    lambda reps: clustering_growth("dirichlet", {"theta": 3.0}, [10], reps, 1),
    lambda reps: rank_weight_equivalence_test(0.5, 2.0, reps, 1),
], ids=["spec", "grid", "ks_table", "weight_profile", "clustering_growth", "equivalence"])
def test_replications_past_the_arrival_bound_are_a_resource_limit(run, monkeypatch):
    # the bound is checked before the list of replication seeds, MAX_ARRIVALS + 1 tuples long, is built
    monkeypatch.setattr(experiments, "_replicate", None)
    with pytest.raises(ResourceLimitError) as info:
        run(point_processes.MAX_ARRIVALS + 1)
    assert str(info.value) == "replications 100000001 exceeds the hard bound 100000000"


class TestBuildMeasure:
    def test_dispatch_unknown(self):
        with pytest.raises(DomainError):
            build_measure("nope", {}, None, 0)

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            build_measure("dirichlet", {}, TruncationPolicy.fixed(50), 0)

    @pytest.mark.parametrize("process, params", [
        ("dirichlet", {"theta": 3.0}),
        ("pdp_stick", {"alpha": 0.5, "theta": 2.0}),  # sized only by its truncation
    ], ids=["series", "sticks"])
    def test_missing_truncation(self, process, params):
        with pytest.raises(DomainError, match="this process needs a truncation policy"):
            build_measure(process, params, None, 0)

    @pytest.mark.parametrize("process, params, truncation, message", [
        ("pdp_stick", {"alpha": 0.5, "theta": 1, "sticks": 20}, TruncationPolicy.fixed(5),
         r"unknown pdp_stick params fields: \['sticks'\]"),
        ("pdp_stick", {"alpha": 0.5, "theta": 1}, TruncationPolicy.epsilon_rule(1e-3),
         "stick breaking needs a fixed_count truncation, got epsilon_rule"),
        ("extended_dp", {"concentration": 3, "n": 50}, TruncationPolicy.epsilon_rule(1e-3),
         "extended_dp takes no truncation: its level n is an approximation"),
        ("extended_dp", {"concentration": 3}, TruncationPolicy.fixed(50), "extended_dp takes no truncation"),
        ("extended_dp", {"concentration": 3}, None, "process 'extended_dp' is missing parameter 'n'"),
    ], ids=["sticks_in_params", "sticks_by_epsilon", "extended_dp_epsilon", "extended_dp_fixed", "extended_dp_no_n"])
    def test_a_size_comes_from_one_place(self, process, params, truncation, message):
        # the first two pairs once drew 21 atoms under fixed(5) and 50 weights under the epsilon rule
        with pytest.raises(DomainError, match=message):
            build_measure(process, params, truncation, 0)

    def test_series_row_of_one_point_is_degenerate(self):
        trunc = TruncationPolicy.epsilon_rule(1e-6, hard_cap=1)
        with pytest.raises(DegenerateTruncationError) as info:
            build_measure("dirichlet", {"theta": 3.0}, trunc, 1)
        assert str(info.value) == "truncation retained 1 points; need at least 2"

    def test_pdp_series_explicit_r_uses_arrival_ratio_series(self):
        m = build_measure(
            "pdp_series", {"alpha": 0.5, "theta": 10.0, "r": 20}, TruncationPolicy.fixed(400), 3
        )
        assert len(m) == 380  # indices 21..400
        assert m.provenance["process"] == "pkp"
        assert m.provenance["params"]["r"] == 20.0

    def test_pdp_series_derived_r_uses_randomized_path(self):
        m = build_measure("pdp_series", {"alpha": 0.5, "theta": 10.0}, TruncationPolicy.fixed(400), 3)
        assert len(m) == 400
        assert m.provenance["process"] == "pdp_series"

    def test_pkp_with_tail_dict(self):
        m = build_measure(
            "pkp",
            {"r": 0.0, "tail": {"kind": "stable", "alpha": 0.5}},
            TruncationPolicy.fixed(50),
            9,
        )
        assert len(m) == 50

    def test_stick_count_from_truncation(self):
        m = build_measure("pdp_stick", {"alpha": 0.3, "theta": 1.0}, TruncationPolicy.fixed(100), 9)
        assert len(m) == 101  # closure atom
