"""Unit tests for the random measure constructors."""

import json
import math
import types
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats as st

from nbpriors import (
    BaseMeasure,
    DegenerateTruncationError,
    DiscreteMeasure,
    DomainError,
    ExtendedDpParams,
    LevyTail,
    NbpConfig,
    PdpParams,
    ResourceLimitError,
    TruncationPolicy,
    distinct_count,
    draw_from_measure,
    gamma_arrivals,
    sample_dp,
    sample_extended_dp_finite,
    sample_nbp_points,
    sample_pdp_series,
    sample_pdp_stick_breaking,
    sample_pkp,
    sample_stable_normalized,
    uniform_base,
)
from nbpriors import random_measures, special_functions
from nbpriors._rng import STREAM_ATOMS, spawn_generator
from nbpriors.point_processes import MAX_ARRIVALS

from oracles import dp_expected_distinct

UB = uniform_base()


def weight_sum(m):
    return math.fsum(m.weights.tolist())


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0.1, 0.2]), np.array([1.0]))
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0.1]), np.array([0.0]))
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0.1, 0.2]), np.array([0.4, 0.4]))
        assert DiscreteMeasure(np.array([0.1, 0.2]), np.array([0.4, 0.6])).sorted_by_weight is False
        with pytest.raises(DomainError, match="a measure needs at least one atom"):
            DiscreteMeasure(np.array([]), np.array([]))

    def test_ranked(self):
        m = DiscreteMeasure(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.5, 0.3]))
        r = m.ranked()
        assert np.array_equal(r.weights, np.array([0.5, 0.3, 0.2]))
        assert np.array_equal(r.atoms, np.array([2.0, 3.0, 1.0]))
        assert r.sorted_by_weight

    def test_json_roundtrip_with_provenance(self):
        m = sample_dp(3.0, UB, TruncationPolicy.fixed(40), 11)
        again = DiscreteMeasure.from_json(m.to_json())
        assert np.array_equal(m.atoms, again.atoms)
        assert np.array_equal(m.weights, again.weights)
        assert again.provenance == m.provenance
        assert again.provenance["process"] == "dirichlet"
        assert again.sorted_by_weight

    def test_csv_roundtrip(self):
        m = sample_dp(2.0, UB, TruncationPolicy.fixed(25), 11)
        again = DiscreteMeasure.from_csv(m.to_csv())
        assert np.array_equal(m.atoms, again.atoms)
        assert np.array_equal(m.weights, again.weights)
        assert again.sorted_by_weight

    @pytest.mark.parametrize("atom", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_atom_is_a_domain_error(self, atom):
        with pytest.raises(DomainError, match="^atoms must be finite$"):
            DiscreteMeasure(np.array([0.5, atom]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="^atoms must be finite$"):
            DiscreteMeasure.from_csv(f"atom,weight\n0.5,0.5\n{atom!r},0.5\n")
        with pytest.raises(DomainError, match="^atoms must be finite$"):
            DiscreteMeasure.from_json(json.dumps({"atoms": [0.5, atom], "weights": [0.5, 0.5]}))

    def test_csv_integer_past_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^atoms and weights must be real numbers: "):
            DiscreteMeasure.from_csv("atom,weight\n" + "9" * 400 + ",1\n")

    def test_csv_header_enforced(self):
        with pytest.raises(DomainError):
            DiscreteMeasure.from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("text", ["atom,weight\n0.5,0.5,1\n", "atom,weight\n0.5,x\n", "atom,weight\n0.5\n"],
                             ids=["three_cells", "non_numeric", "one_cell"])
    def test_csv_bad_row_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="^measure CSV row"):
            DiscreteMeasure.from_csv(text)

    @pytest.mark.parametrize("text", ["atom,atom\n0.5,1\n", "atom,weight,atom\n0.5,1,0.5\n"],
                             ids=["atom_twice", "extra_atom"])
    def test_csv_repeated_column_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="^measure CSV must start with an 'atom,weight' header$"):
            DiscreteMeasure.from_csv(text)

    @pytest.mark.parametrize("text, message", [
        ("[1,2]", "measure JSON must be an object, got list"),
        ('{"atoms": [0.5, 0.25], "weights": ["a", 0.5]}', "measure JSON field 'weights' does not read"),
        ('{"atoms": {"x": 1}, "weights": [1.0]}', "measure JSON field 'atoms' does not read"),
        ('{"atoms": [0.5]}', "measure JSON lacks field 'weights'"),
        ('{"atoms": [0.5]', "measure JSON does not parse"),
    ], ids=["list", "non_numeric_weights", "object_atoms", "missing_weights", "truncated"])
    def test_json_bad_input_is_a_domain_error(self, text, message):
        with pytest.raises(DomainError, match=message):
            DiscreteMeasure.from_json(text)


class TestNormalizedWeights:
    @pytest.mark.parametrize("log_w", [
        np.array([0.0, -1.0, -800.0, -900.0]),
        -0.1 * np.arange(50_000),  # decreasing; the weights past about index 7,450 underflow
        np.array([0.0, -1.0, -800.0, -900.0]) + 1e6,
        np.array([0.0, -1.0, -800.0, -900.0]) - 1e6,
    ], ids=["short", "long_decreasing", "offset_up", "offset_down"])
    def test_underflowed_weights_stay_zeros(self, log_w):
        w = random_measures.normalized_weights(log_w)
        assert w.shape == log_w.shape
        gap = log_w - log_w.max()
        assert np.all(w[gap < -760.0] == 0.0) and np.all(w[gap > -700.0] > 0.0)
        assert np.all(np.diff(w[gap > -700.0]) < 0.0) and np.all(np.diff(w) <= 0.0)
        assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-15)
        # the same values read at an odd offset inside a larger array give the same bits
        padded = np.concatenate(([0.0], log_w, [0.0, 0.0]))
        assert np.array_equal(random_measures.normalized_weights(padded[1:-2]), w)

    def test_a_measure_keeps_the_nonzero_part_of_its_row(self):
        # at theta = 0.01 most of the 400 weights underflow
        tail, trunc = LevyTail.gamma(0.01), TruncationPolicy.fixed(400)
        draw = sample_nbp_points(NbpConfig(r=0, tail=tail, truncation=trunc), 3)
        row = random_measures.normalized_weights(draw.log_points)
        m = sample_pkp(0, tail, UB, trunc, 3)
        assert row.size == 400 > m.weights.size
        assert np.array_equal(m.weights, row[row > 0.0])

    @pytest.mark.parametrize("log_w", [[0.0, -800.0, -900.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                       [-np.inf, -np.inf, -np.inf]])
    def test_fewer_than_two_representable_weights(self, log_w):
        # the row is rejected before any subtraction, so no numpy warning escapes
        with pytest.raises(DegenerateTruncationError, match="fewer than two atoms carry representable weight"):
            random_measures.normalized_weights(np.array(log_w))


class TestSamplePkp:
    def test_fixed_count_normalization(self):
        m = sample_pkp(0.0, LevyTail.gamma(3.0), UB, TruncationPolicy.fixed(50), 21)
        assert len(m) == 50
        assert abs(weight_sum(m) - 1.0) <= 1e-12
        assert m.sorted_by_weight
        assert np.all(np.diff(m.weights) < 0)

    def test_stable_weights_closed_form(self):
        seed = 33
        m = sample_pkp(0.0, LevyTail.stable(0.5), UB, TruncationPolicy.fixed(100), seed)
        arrivals = gamma_arrivals(seed, 100).arrivals
        expected = arrivals ** -2.0
        expected /= expected.sum()
        assert np.allclose(m.weights, expected, rtol=1e-10)

    def test_atom_independence(self):
        trunc = TruncationPolicy.fixed(60)
        shifted = BaseMeasure("shifted", lambda rng, size: 5.0 + rng.random(size))
        a = sample_pkp(3.0, LevyTail.gamma(3.0), UB, trunc, 9)
        b = sample_pkp(3.0, LevyTail.gamma(3.0), shifted, trunc, 9)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.atoms, b.atoms)

    def test_degenerate_truncation(self):
        with pytest.raises(DegenerateTruncationError):
            sample_pkp(5.0, LevyTail.gamma(3.0), UB, TruncationPolicy.fixed(6), 2)

    def test_largest_weight_flattens_with_r(self):
        # quick trend check; the full-scale version is an acceptance criterion
        reps = 300
        means = []
        for gi, r in enumerate((0, 5)):
            trunc = TruncationPolicy.fixed(r + 300)
            acc = 0.0
            for rep in range(reps):
                m = sample_pkp(float(r), LevyTail.gamma(3.0), UB, trunc, (51, gi, rep))
                acc += m.weights[0]
            means.append(acc / reps)
        assert means[0] > means[1]

    def test_provenance_contents(self):
        m = sample_pkp(2.0, LevyTail.gamma(1.0), UB, TruncationPolicy.fixed(30), 5)
        prov = m.provenance
        assert prov["process"] == "pkp"
        assert prov["params"]["r"] == 2.0
        assert prov["params"]["tail"] == {"kind": "gamma", "theta": 1.0}
        assert prov["truncation"]["n"] == 30
        assert prov["seed"] == [5]
        assert prov["stopped_by"] == "fixed_count"

    @pytest.mark.parametrize("record", [
        random_measures.SeriesProcess.dirichlet(3.0, TruncationPolicy.fixed(10)),
        random_measures.SeriesProcess.pkp(2, LevyTail.gamma(1.0), TruncationPolicy.fixed(10)),
    ], ids=["dirichlet", "pkp"])
    def test_a_measure_owns_its_provenance(self, record):
        # the record's params were once the dict in every measure's provenance, pkp's nested tail included
        params = json.loads(json.dumps(record.params))
        first = record.measure(UB, 1)
        for edited in (first, first.ranked()):
            edited.provenance["params"]["theta" if "theta" in params else "r"] = 99.0
            if "tail" in params:
                edited.provenance["params"]["tail"]["theta"] = 99.0
        assert record.params == params
        assert record.measure(UB, 2).provenance["params"] == params
        assert first.ranked().provenance["params"] == first.provenance["params"] != params


class TestTypedErrors:
    """Bad input to a constructor raises a DomainError before any sampling."""

    @pytest.mark.parametrize("call", [
        lambda: sample_dp(3.0, UB, None, 1),
        lambda: sample_pkp(2.0, LevyTail.gamma(3.0), UB, None, 1),
        lambda: sample_stable_normalized(0.5, UB, None, 1),
        lambda: sample_pdp_series(PdpParams(0.5, 2.0), UB, None, 1),
    ], ids=["dirichlet", "pkp", "stable", "pdp_series"])
    def test_missing_truncation(self, call):
        with pytest.raises(DomainError, match="^this process needs a truncation policy$"):
            call()

    def test_non_numeric_theta(self):
        with pytest.raises(DomainError, match="^theta must be a real number, got 'x'$"):
            sample_dp("x", UB, TruncationPolicy.fixed(10), 1)

    def test_missing_alpha(self):
        with pytest.raises(DomainError, match=r"^stable tail needs alpha in \(0,1\), got None$"):
            sample_stable_normalized(None, UB, TruncationPolicy.fixed(10), 1)

    def test_tail_given_as_a_dict(self):
        with pytest.raises(DomainError, match="^tail must be a LevyTail, got"):
            sample_pkp(2, {"kind": "gamma", "theta": 3}, UB, TruncationPolicy.fixed(10), 1)

    @pytest.mark.parametrize("r, randomized, message", [
        (0, True, "the randomized path needs r > 0"),
        (2.5, False, "the integer-order path needs integer r, got 2.5"),
    ], ids=["randomized_r0", "integer_r2.5"])
    def test_impossible_path_is_rejected_when_the_record_is_built(self, r, randomized, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            random_measures.SeriesProcess.pkp(r, LevyTail.gamma(3.0), TruncationPolicy.fixed(10), randomized=randomized)

    @pytest.mark.parametrize("r, truncation, error, message", [
        (5.0, TruncationPolicy.fixed(6), DegenerateTruncationError, "fixed_count n=6 retains 1 points past index 5"),
        (0.0, TruncationPolicy(mode="fixed_count", n=100, hard_cap=50), ResourceLimitError,
         "fixed_count would retain 100 points, above hard_cap=50"),
        # at most 400 points retained, but a draw holds the 200,000,000 arrivals before them too
        (200_000_000, TruncationPolicy.epsilon_rule(1e-6, hard_cap=400), ResourceLimitError,
         f"count 200000400 exceeds the hard bound {MAX_ARRIVALS}"),
    ], ids=["one_point_retained", "above_hard_cap", "above_the_arrival_bound"])
    def test_row_shape_is_checked_when_the_record_is_built(self, r, truncation, error, message):
        with pytest.raises(error) as info:
            random_measures.SeriesProcess.pkp(r, LevyTail.gamma(3.0), truncation)
        assert str(info.value) == message

    @pytest.mark.parametrize("randomized, width", [(None, 100), (True, 400)], ids=["integer_path", "randomized"])
    def test_width_is_the_retained_count(self, randomized, width):
        trunc = TruncationPolicy.fixed(400)
        series = random_measures.SeriesProcess.pkp(300, LevyTail.generalized_gamma(0.5), trunc, randomized)
        assert series.width == width == series.draw([1])[0].size


class TestSampleDp:
    def test_basic(self):
        m = sample_dp(3.0, UB, TruncationPolicy.fixed(500), 4)
        assert len(m) == 500
        assert abs(weight_sum(m) - 1.0) <= 1e-12
        assert np.all((m.atoms >= 0) & (m.atoms <= 1))

    def test_equals_pkp_gamma_r0(self):
        trunc = TruncationPolicy.fixed(200)
        a = sample_dp(3.0, UB, trunc, 123)
        b = sample_pkp(0.0, LevyTail.gamma(3.0), UB, trunc, 123)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.atoms, b.atoms)
        assert a.provenance["process"] == "dirichlet"

    def test_mean_property(self):
        # E P([0, 0.3]) = 0.3
        reps = 800
        vals = np.empty(reps)
        for i in range(reps):
            m = sample_dp(3.0, UB, TruncationPolicy.fixed(400), (61, i))
            vals[i] = m.weights[m.atoms <= 0.3].sum()
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 0.3) <= 4 * se

    def test_marginal_beta_smoke(self):
        # P([0, 0.3]) ~ Beta(0.9, 2.1); acceptance runs the full 2000-rep version
        reps = 500
        vals = np.empty(reps)
        for i in range(reps):
            m = sample_dp(3.0, UB, TruncationPolicy.fixed(800), (62, i))
            vals[i] = m.weights[m.atoms <= 0.3].sum()
        assert st.kstest(vals, st.beta(0.9, 2.1).cdf).pvalue > 0.001


class TestExtendedDp:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            ExtendedDpParams(0.0, 0, 100)
        with pytest.raises(DomainError):
            ExtendedDpParams(1.0, -1, 100)
        with pytest.raises(DomainError):
            ExtendedDpParams(1.0, 5, 6)

    def test_level_past_the_arrival_bound_is_a_resource_limit(self):
        # a draw holds n + 1 arrivals, so the bound is checked before any sampling
        with pytest.raises(ResourceLimitError) as info:
            ExtendedDpParams(3.0, 0, MAX_ARRIVALS)
        assert str(info.value) == f"count {MAX_ARRIVALS + 1} exceeds the hard bound {MAX_ARRIVALS}"
        assert ExtendedDpParams(3.0, 0, MAX_ARRIVALS - 1).n == MAX_ARRIVALS - 1

    def test_params_store_the_values_they_read(self):
        params = ExtendedDpParams(3, "1.0", "50")
        assert (params.concentration, params.r, params.n) == (3.0, 1, 50)
        assert [type(v) for v in (params.concentration, params.r, params.n)] == [float, int, int]
        read = sample_extended_dp_finite(ExtendedDpParams(3.0, "1.0", 50), UB, 4)
        assert read.to_json() == sample_extended_dp_finite(ExtendedDpParams(3.0, 1, 50), UB, 4).to_json()

    def test_normalization(self):
        m = sample_extended_dp_finite(ExtendedDpParams(3.0, 0, 200), UB, 31)
        assert abs(weight_sum(m) - 1.0) <= 1e-12
        assert len(m) == 200
        assert m.sorted_by_weight  # the quantiles of increasing levels strictly decrease

    def test_coupling_to_series(self):
        # shared arrival stream: finite quantile weights track the tail series
        n, seed = 10_000, 41
        finite = sample_extended_dp_finite(ExtendedDpParams(3.0, 0, n), UB, seed)
        series = sample_dp(3.0, UB, TruncationPolicy.fixed(n), seed)
        k = min(len(finite), len(series))
        gap = np.max(np.abs(finite.weights[:k] - series.weights[:k]))
        assert gap < 1e-2
        # atoms come from the same stream, so the leading atoms agree too
        assert np.array_equal(finite.atoms[:k], series.atoms[:k])

    def test_levels_past_the_finite_mass_get_zero_weight(self):
        # L_n has the finite mass Gamma_{n+1}, so a level Gamma_i/(Gamma_1 Gamma_51) >= 1 carries no weight;
        # seed 0 has such levels, and its measure drops exactly their atoms
        n, seed = 50, 0
        arrivals = gamma_arrivals(seed, n + 1).arrivals
        kept = arrivals[1:n] < arrivals[0] * arrivals[n]
        assert 2 <= np.count_nonzero(kept) < n - 1
        m1 = sample_extended_dp_finite(ExtendedDpParams(3.0, 1, n), UB, seed)
        atoms = UB.sampler(spawn_generator(seed, STREAM_ATOMS), n - 1)
        assert np.array_equal(m1.atoms, atoms[kept])
        # and no internal resampling: the draw stays deterministic
        m2 = sample_extended_dp_finite(ExtendedDpParams(3.0, 1, n), UB, seed)
        assert m1.to_json() == m2.to_json()

    @pytest.mark.parametrize("n", [50, 400])
    def test_every_seed_draws_or_fails_typed(self, n):
        # a row keeps its zero weights; only a seed left with fewer than two levels below 1 fails
        failed = {1: 0, 2: 0}
        for r in failed:
            for seed in range(300):
                try:
                    m = sample_extended_dp_finite(ExtendedDpParams(3.0, r, n), UB, seed)
                except DegenerateTruncationError as exc:
                    assert str(exc) == "fewer than two atoms carry representable weight"
                    failed[r] += 1
                else:
                    assert len(m) >= 2
        assert failed[1] < 30 and failed[2] == 0, failed

    @pytest.mark.parametrize("r", [1, 2])
    def test_order_r_coupling_to_series(self, r):
        # the same arrivals drive the order-r gamma series; the weights agree within selftest's coupling bound
        n, seeds = 2000, list(range(40))
        finite = ExtendedDpParams(3.0, r, n).draw(seeds)
        series = random_measures.SeriesProcess.pkp(r, LevyTail.gamma(3.0), TruncationPolicy.fixed(n)).draw(seeds)
        assert max(float(np.max(np.abs(f - s))) for f, s in zip(finite, series)) < 5e-2

    def test_quantiles_seeded_below_ln_x_minus_40_skip_scipy_and_newton(self, monkeypatch):
        """Seed 5 at n = 2,000: only the levels seeded at ln x >= -40 reach gammainccinv, and the
        solver evaluates Γ(a, x) at most 0.1 times per level.  Counts only, no timing."""
        counts = {"gammainccinv": 0, "log_upper_gamma": 0}
        inverse, log_upper_gamma = scipy.special.gammainccinv, special_functions.log_upper_gamma

        def counted_inverse(a, y):
            counts["gammainccinv"] += int(np.size(y))
            return inverse(a, y)

        def counted_log_upper_gamma(a, x):
            counts["log_upper_gamma"] += int(np.size(x))
            return log_upper_gamma(a, x)

        proxy = types.SimpleNamespace(**vars(scipy.special))
        proxy.gammainccinv = counted_inverse
        monkeypatch.setattr(special_functions, "sp", proxy)
        monkeypatch.setattr(special_functions, "log_upper_gamma", counted_log_upper_gamma)
        n, theta, seed = 2000, 3.0, 5
        sample_extended_dp_finite(ExtendedDpParams(theta, 0, n), UB, seed)

        arrivals = gamma_arrivals(seed, n + 1).arrivals
        shape = theta / n
        closed_form = (np.log1p(-arrivals[:n] / arrivals[n]) + scipy.special.gammaln(shape + 1.0)) / shape
        refined = np.count_nonzero(closed_form >= -40.0)
        assert 0 < refined < n
        assert counts["gammainccinv"] == refined
        assert counts["log_upper_gamma"] <= 0.1 * n


class TestPdpSeries:
    def test_params(self):
        with pytest.raises(DomainError):
            PdpParams(alpha=0.0, theta=1.0)
        with pytest.raises(DomainError):
            PdpParams(alpha=0.5, theta=0.0)
        assert PdpParams(alpha=0.5, theta=10.0).r_derived == 20.0

    def test_params_store_the_floats_they_read(self):
        params = PdpParams("0.5", 2)
        assert params == PdpParams(0.5, 2.0) and [type(v) for v in (params.alpha, params.theta)] == [float, float]
        read = sample_pdp_series(params, UB, TruncationPolicy.fixed(50), 4)
        assert read.to_json() == sample_pdp_series(PdpParams(0.5, 2.0), UB, TruncationPolicy.fixed(50), 4).to_json()

    def test_weights_decreasing(self):
        m = sample_pdp_series(PdpParams(0.5, 2.0), UB, TruncationPolicy.fixed(300), 8)
        assert np.all(np.diff(m.weights) < 0)
        assert m.provenance["process"] == "pdp_series"
        assert m.provenance["params"]["r"] == 4.0

    def test_deterministic(self):
        params = PdpParams(0.9, 1.0)
        a = sample_pdp_series(params, UB, TruncationPolicy.fixed(200), 15)
        b = sample_pdp_series(params, UB, TruncationPolicy.fixed(200), 15)
        assert np.array_equal(a.weights, b.weights)

    def test_extreme_alpha_draw_is_a_measure_and_no_warning(self):
        # at alpha = 1e-200, PD(alpha, 1) is the Dirichlet process DP(1) up to O(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = sample_pdp_series(PdpParams(1e-200, 1.0), UB, TruncationPolicy.fixed(50), 1)
        assert len(m) == 50 and m.provenance["stopped_by"] == "fixed_count"
        assert abs(math.fsum(m.weights.tolist()) - 1.0) < 1e-12


class TestStickBreaking:
    @pytest.mark.parametrize("sticks", [10.8, 1.5])
    def test_fractional_sticks_is_a_domain_error(self, sticks):
        with pytest.raises(DomainError, match=f"sticks must be an integer, got {sticks}"):
            sample_pdp_stick_breaking(0.5, 2.0, UB, sticks, False, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_pdp_stick_breaking(1.0, 1.0, UB, 10, False, 1)
        with pytest.raises(DomainError):
            sample_pdp_stick_breaking(0.5, -0.5, UB, 10, False, 1)
        with pytest.raises(DomainError):
            sample_pdp_stick_breaking(0.0, 1.0, UB, 0, False, 1)

    @pytest.mark.parametrize("alpha, theta, name", [("x", 1.0, "alpha"), (0.5, None, "theta")])
    def test_non_numeric_parameter_is_a_domain_error(self, alpha, theta, name):
        with pytest.raises(DomainError, match=f"{name} must be a real number"):
            sample_pdp_stick_breaking(alpha, theta, UB, 10, False, 1)

    def test_sticks_past_the_arrival_bound_is_a_resource_limit(self):
        # a row holds sticks + 1 weights, so the bound is checked before any sampling
        with pytest.raises(ResourceLimitError) as info:
            random_measures.StickBreaking(0.5, 2.0, TruncationPolicy.fixed(MAX_ARRIVALS, hard_cap=MAX_ARRIVALS))
        assert str(info.value) == f"count {MAX_ARRIVALS + 1} exceeds the hard bound {MAX_ARRIVALS}"
        fixed = TruncationPolicy.fixed(MAX_ARRIVALS - 1, hard_cap=MAX_ARRIVALS - 1)
        assert random_measures.StickBreaking(0.5, 2.0, fixed).width == MAX_ARRIVALS

    def test_sticks_past_the_hard_cap_is_a_resource_limit(self):
        # as a series' fixed count: the cap bounds the sticks, and the closure atom rides along
        with pytest.raises(ResourceLimitError, match=r"^fixed_count would break 51 sticks, above hard_cap=50$"):
            random_measures.StickBreaking(0.5, 2.0, TruncationPolicy.fixed(51, hard_cap=50))
        with pytest.raises(ResourceLimitError, match="above hard_cap=1000000"):
            sample_pdp_stick_breaking(0.5, 2.0, UB, 1_000_001, False, 1)
        assert random_measures.StickBreaking(0.5, 2.0, TruncationPolicy.fixed(50, hard_cap=50)).width == 51

    def test_epsilon_rule_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^stick breaking needs a fixed_count truncation, got epsilon_rule$"):
            random_measures.StickBreaking(0.5, 2.0, TruncationPolicy.epsilon_rule(1e-6))

    def test_measure_records_its_truncation(self):
        trunc = TruncationPolicy.fixed(20)
        m = random_measures.StickBreaking(0.5, 2.0, trunc, ranked=True).measure(UB, 3)
        assert m.provenance["params"] == {"alpha": 0.5, "theta": 2.0, "ranked": True}
        assert m.provenance["truncation"] == trunc.to_dict()
        assert sample_pdp_stick_breaking(0.5, 2.0, UB, 20, True, 3).to_json() == m.to_json()

    def test_residual_closure(self):
        m = sample_pdp_stick_breaking(0.3, 2.0, UB, 5, False, 7)
        assert len(m) == 6
        assert abs(weight_sum(m) - 1.0) <= 1e-12

    def test_first_weight_mean_uniform_case(self):
        # alpha = 0, theta = 1 makes the sticks Uniform(0,1): E p'_1 = 1/2
        reps = 5000
        vals = np.empty(reps)
        for i in range(reps):
            m = sample_pdp_stick_breaking(0.0, 1.0, UB, 40, False, (71, i))
            vals[i] = m.weights[0]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 0.5) <= 4 * se

    def test_raw_weights_not_monotone(self):
        found = False
        for i in range(1000):
            m = sample_pdp_stick_breaking(0.5, 1.0, UB, 30, False, (777, i))
            if m.weights[0] < m.weights[1]:
                found = True
                break
        assert found

    def test_stick_fraction_means(self):
        # E beta_k = (1-a) / (1-a+theta+k a)
        alpha, theta, reps = 0.3, 2.0, 3000
        betas = np.empty((reps, 3))
        for i in range(reps):
            m = sample_pdp_stick_breaking(alpha, theta, UB, 10, False, (81, i))
            w = m.weights
            remaining = 1.0
            for k in range(3):
                betas[i, k] = w[k] / remaining
                remaining -= w[k]
        for k in range(1, 4):
            want = (1 - alpha) / (1 - alpha + theta + k * alpha)
            got = betas[:, k - 1].mean()
            se = betas[:, k - 1].std(ddof=1) / math.sqrt(reps)
            assert abs(got - want) <= 4 * se

    def test_ranked_flag(self):
        m = sample_pdp_stick_breaking(0.5, 1.0, UB, 50, True, 3)
        assert np.all(np.diff(m.weights) <= 0)
        assert m.provenance["params"]["ranked"] is True


class TestStableNormalized:
    def test_weight_ratio_closed_form(self):
        seed = 19
        m = sample_stable_normalized(0.5, UB, TruncationPolicy.fixed(100), seed)
        arrivals = gamma_arrivals(seed, 100).arrivals
        assert m.weights[0] / m.weights[1] == pytest.approx((arrivals[1] / arrivals[0]) ** 2, rel=1e-10)
        assert np.all(np.diff(m.weights) < 0)

    def test_partial_sums_cauchy_at_large_cap(self):
        seed = 23
        stream = gamma_arrivals(seed, 100_000)
        pts = stream.arrivals ** -2.0
        total = pts.sum()
        assert pts[-1] / total < 1e-6
        # increments of the partial sums shrink monotonically at the tail
        tail = pts[-1000:]
        assert np.all(np.diff(tail) < 0)
        m = sample_stable_normalized(0.5, UB, TruncationPolicy.fixed(100_000, hard_cap=200_000), seed)
        assert abs(weight_sum(m) - 1.0) <= 1e-12


class TestDraws:
    def test_single_atom(self):
        m = DiscreteMeasure(np.array([2.5]), np.array([1.0]))
        draws = draw_from_measure(m, 50, 1)
        assert np.all(draws == 2.5)

    def test_two_atoms_frequencies(self):
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        k = 10_000
        draws = draw_from_measure(m, k, 2)
        freq = draws.mean()
        se = math.sqrt(0.25 / k)
        assert abs(freq - 0.5) <= 4 * se

    def test_dp_draws_show_ties(self):
        reps, with_ties = 100, 0
        for i in range(reps):
            m = sample_dp(3.0, UB, TruncationPolicy.fixed(400), (91, i))
            draws = draw_from_measure(m, 100, (91, i))
            if distinct_count(draws) < draws.size:
                with_ties += 1
        assert with_ties >= 90

    def test_zero_weights_of_a_row_are_never_drawn(self):
        row = np.array([0.25, 0.0, 0.25, 0.0, 0.5, 0.0, 0.0])
        assert set(random_measures._categorical(row, 5000, 3).tolist()) == {0, 2, 4}
        assert random_measures.row_distinct_count(row, 5000, 3) == 3
        m = DiscreteMeasure(np.array([0.1, 0.2, 0.3]), row[row > 0])
        assert np.array_equal(draw_from_measure(m, 5000, 3), m.atoms[random_measures._categorical(row, 5000, 3) // 2])

    def test_draw_count_past_the_arrival_bound_is_a_resource_limit(self, monkeypatch):
        # the bound is checked before the draw stream is spawned, so nothing of that size is allocated
        class Spawned(Exception):
            pass

        def spawn(seed, stream_tag):
            raise Spawned

        monkeypatch.setattr(random_measures, "spawn_generator", spawn)
        row = np.array([0.5, 0.5])
        with pytest.raises(ResourceLimitError) as info:
            random_measures.row_distinct_count(row, MAX_ARRIVALS + 1, 1)
        assert str(info.value) == f"k {MAX_ARRIVALS + 1} exceeds the hard bound {MAX_ARRIVALS}"
        with pytest.raises(ResourceLimitError):
            draw_from_measure(DiscreteMeasure(np.array([0.1, 0.2]), row), MAX_ARRIVALS + 1, 1)
        with pytest.raises(Spawned):
            random_measures.row_distinct_count(row, MAX_ARRIVALS, 1)

    def test_draw_domain(self):
        m = DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        with pytest.raises(DomainError):
            draw_from_measure(m, 0, 1)

    @pytest.mark.parametrize("k", [2.5, 399.5])
    def test_fractional_draw_count_is_a_domain_error(self, k):
        m = DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        with pytest.raises(DomainError, match=f"k must be an integer, got {k}"):
            draw_from_measure(m, k, 1)


class TestDistinctCount:
    def test_trivial_cases(self):
        assert distinct_count([1, 1, 1, 1, 1]) == 1
        assert distinct_count([1, 2, 3, 4, 5]) == 5

    def test_empty(self):
        with pytest.raises(DomainError):
            distinct_count([])

    def test_dp_expected_distinct(self):
        theta, n, reps = 3.0, 500, 300
        counts = np.empty(reps)
        for i in range(reps):
            m = sample_dp(theta, UB, TruncationPolicy.fixed(1500), (95, i))
            counts[i] = distinct_count(draw_from_measure(m, n, (95, i)))
        want = dp_expected_distinct(theta, n)
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - want) <= 4 * se
