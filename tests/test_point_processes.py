"""Unit tests for arrival streams and the negative binomial point sampler."""

import math

import numpy as np
import pytest
import scipy.stats as st

from nbpriors import (
    DegenerateTruncationError,
    DomainError,
    LevyTail,
    NbpConfig,
    ResourceLimitError,
    TruncationPolicy,
    gamma_arrivals,
    sample_nbp_points,
    sample_prm_points,
    tail_inverse,
    tail_support_bound,
)
from nbpriors._rng import replication_seed
from nbpriors.point_processes import MAX_ARRIVALS


class TestTruncationPolicy:
    def test_validation(self):
        with pytest.raises(DomainError):
            TruncationPolicy(mode="other")
        with pytest.raises(DomainError):
            TruncationPolicy.fixed(0)
        with pytest.raises(DomainError):
            TruncationPolicy(mode="epsilon_rule", epsilon=1.5)
        with pytest.raises(DomainError):
            TruncationPolicy(mode="fixed_count", n=10, epsilon=0.1)
        with pytest.raises(DomainError):
            TruncationPolicy(mode="epsilon_rule", epsilon=0.1, hard_cap=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TruncationPolicy.fixed(10.9),
            lambda: TruncationPolicy.fixed(10, hard_cap=99.9),
            lambda: TruncationPolicy.epsilon_rule(1e-6, hard_cap=99.9),
        ],
        ids=["fixed_n", "fixed_hard_cap", "epsilon_hard_cap"],
    )
    def test_fractional_integer_argument_is_a_domain_error(self, make):
        with pytest.raises(DomainError, match="must be an integer"):
            make()

    def test_dict_roundtrip(self):
        for policy in (TruncationPolicy.fixed(400), TruncationPolicy.epsilon_rule(1e-6, hard_cap=5000)):
            assert TruncationPolicy.from_dict(policy.to_dict()) == policy


class TestGammaArrivals:
    def test_basic_shape(self):
        stream = gamma_arrivals(42, 1000)
        arr = stream.arrivals
        assert arr.size == 1000
        assert arr[0] > 0
        assert np.all(np.diff(arr) > 0)

    def test_single(self):
        assert gamma_arrivals(5, 1).arrivals[0] > 0

    def test_deterministic(self):
        a = gamma_arrivals(7, 256).arrivals
        b = gamma_arrivals(7, 256).arrivals
        assert np.array_equal(a, b)
        c = gamma_arrivals(8, 256).arrivals
        assert not np.array_equal(a, c)

    def test_count_domain(self):
        with pytest.raises(DomainError):
            gamma_arrivals(1, 0)
        with pytest.raises(ResourceLimitError):
            gamma_arrivals(1, MAX_ARRIVALS + 1)

    @pytest.mark.parametrize("count", [5.5, 1.5])
    def test_fractional_count_is_a_domain_error(self, count):
        with pytest.raises(DomainError, match=f"count must be an integer, got {count}"):
            gamma_arrivals(1, count)

    def test_law_of_large_numbers(self):
        # mean of Gamma_n / n over many replications, n = 1e4
        reps, n = 10_000, 10_000
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = gamma_arrivals((1234, i), n).arrivals[-1] / n
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) <= 4 * se


class TestPrmPoints:
    def test_stable_closed_form(self):
        stream = gamma_arrivals(3, 100)
        pts = sample_prm_points(LevyTail.stable(0.5), stream)
        assert np.allclose(pts, stream.arrivals ** -2.0, rtol=1e-12)
        assert np.all(np.diff(pts) < 0)

    def test_poisson_count_smoke(self):
        # #arrivals <= 5 is Poisson(5); the full-scale test lives in acceptance
        reps, t = 1500, 5.0
        counts = np.array([np.sum(gamma_arrivals((99, i), 48).arrivals <= t) for i in range(reps)])
        kmax = int(counts.max())
        pmf = st.poisson(t).pmf(np.arange(kmax + 1))
        expected = reps * np.append(pmf, 1.0 - pmf.sum())
        observed = np.bincount(counts, minlength=kmax + 2).astype(float)
        keep = expected >= 5
        chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        p = st.chi2(keep.sum() - 1).sf(chi2)
        assert p > 0.001

    def test_laplace_functional(self):
        # f = c 1_[0,t]: E exp(-c N_t) = exp(-t (1 - e^{-c})) at (c, t) = (1, 2)
        c, t, reps = 1.0, 2.0, 4000
        vals = np.empty(reps)
        for i in range(reps):
            n_t = np.sum(gamma_arrivals((1010, i), 24).arrivals <= t)
            vals[i] = math.exp(-c * n_t)
        target = math.exp(-t * (1.0 - math.exp(-c)))
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) <= 4 * se


class TestNbpPoints:
    def test_r_zero_equals_prm(self):
        tail = LevyTail.gamma(3.0)
        cfg = NbpConfig(r=0.0, tail=tail, truncation=TruncationPolicy.fixed(300))
        series = sample_nbp_points(cfg, 77)
        prm = sample_prm_points(tail, gamma_arrivals(77, 300))
        assert np.array_equal(series.points, prm)
        assert series.first_index == 1

    def test_integer_path_inside_support(self):
        for tail in (LevyTail.gamma(3.0), LevyTail.stable(0.5), LevyTail.generalized_gamma(0.5)):
            cfg = NbpConfig(r=5.0, tail=tail, truncation=TruncationPolicy.fixed(100))
            series = sample_nbp_points(cfg, 13)
            assert series.first_index == 6
            assert len(series) == 95
            assert series.points[0] < tail_support_bound(tail)
            assert np.all(np.diff(series.log_points) < 0)

    def test_negative_r_rejected(self):
        with pytest.raises(DomainError):
            NbpConfig(r=-1.0, tail=LevyTail.gamma(1.0), truncation=TruncationPolicy.fixed(10))

    def test_missing_truncation_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^this process needs a truncation policy$"):
            sample_nbp_points(NbpConfig(0, LevyTail.gamma(3), None), 1)

    def test_tail_that_is_not_a_levy_tail_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^tail must be a LevyTail, got"):
            sample_nbp_points(NbpConfig(0, {"kind": "gamma"}, TruncationPolicy.fixed(10)), 1)

    def test_order_is_stored_as_the_float_it_was_read_as(self):
        tail, trunc = LevyTail.gamma(3.0), TruncationPolicy.fixed(20)
        cfg = NbpConfig("2", tail, trunc)
        assert cfg == NbpConfig(2.0, tail, trunc) and type(cfg.r) is float
        again = sample_nbp_points(NbpConfig(2, tail, trunc), 4)
        assert np.array_equal(sample_nbp_points(cfg, 4).log_points, again.log_points)

    def test_path_selection_rules(self):
        # an impossible path is rejected when the config is built, before any draw
        tail = LevyTail.gamma(1.0)
        trunc = TruncationPolicy.fixed(50)
        with pytest.raises(DomainError, match="^the randomized path needs r > 0$"):
            NbpConfig(r=0.0, tail=tail, truncation=trunc, randomized=True)
        with pytest.raises(DomainError, match="^the integer-order path needs integer r, got 2.5$"):
            NbpConfig(r=2.5, tail=tail, truncation=trunc, randomized=False)

    def test_path_is_resolved_and_stored(self):
        tail, trunc = LevyTail.gamma(1.0), TruncationPolicy.fixed(50)
        assert NbpConfig(3, tail, trunc).randomized is False
        assert NbpConfig(2.5, tail, trunc).randomized is True
        assert NbpConfig(3, tail, trunc, randomized=1).randomized is True
        assert NbpConfig(3, tail, trunc) == NbpConfig(3, tail, trunc, randomized=False)

    def test_randomized_path_deterministic(self):
        tail = LevyTail.generalized_gamma(0.5)
        cfg = NbpConfig(r=2.5, tail=tail, truncation=TruncationPolicy.fixed(80))
        a = sample_nbp_points(cfg, 5)
        b = sample_nbp_points(cfg, 5)
        assert np.array_equal(a.log_points, b.log_points)
        assert a.first_index == 1 and len(a) == 80

    def test_forced_randomized_differs_from_series(self):
        tail = LevyTail.generalized_gamma(0.5)
        cfg = NbpConfig(r=4.0, tail=tail, truncation=TruncationPolicy.fixed(60))
        series = sample_nbp_points(cfg, 5)
        randomized = sample_nbp_points(NbpConfig(r=4.0, tail=tail, truncation=cfg.truncation, randomized=True), 5)
        assert series.first_index == 5
        assert randomized.first_index == 1
        assert not np.array_equal(series.log_points[: len(randomized)], randomized.log_points[: len(series)])

    def test_count_moments_integer_r(self):
        # threshold count for args <= t is mixed Poisson: mean r(t-1), var r(t-1)t
        tail = LevyTail.gamma(3.0)
        r, t, reps = 4, 2.0, 3000
        bound = tail_inverse(tail, t)
        counts = np.empty(reps)
        cfg = NbpConfig(r=float(r), tail=tail, truncation=TruncationPolicy.fixed(400))
        for i in range(reps):
            pts = sample_nbp_points(cfg, (321, i)).points
            counts[i] = np.sum(pts >= bound)
        mean_target = r * (t - 1.0)
        var_target = r * (t - 1.0) * t
        se_mean = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - mean_target) <= 4 * se_mean
        s2 = counts.var(ddof=1)
        m4 = np.mean((counts - counts.mean()) ** 4)
        se_var = math.sqrt(max(m4 - s2 ** 2, 0.0) / reps)
        assert abs(s2 - var_target) <= 4 * se_var


class TestTruncation:
    def test_fixed_count_semantics(self):
        cfg = NbpConfig(r=10.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(400))
        series = sample_nbp_points(cfg, 9)
        assert len(series) == 390
        assert series.stopped_by == "fixed_count"
        assert not series.truncation_warning

    def test_fixed_count_degenerate(self):
        cfg = NbpConfig(r=5.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(6))
        with pytest.raises(DegenerateTruncationError):
            sample_nbp_points(cfg, 1)

    def test_fixed_count_hard_cap(self):
        cfg = NbpConfig(
            r=0.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy(mode="fixed_count", n=100, hard_cap=50)
        )
        with pytest.raises(ResourceLimitError):
            sample_nbp_points(cfg, 1)

    def test_epsilon_rule_matches_manual_scan(self):
        eps = 1e-4
        tail = LevyTail.gamma(3.0)
        cfg = NbpConfig(r=0.0, tail=tail, truncation=TruncationPolicy.epsilon_rule(eps))
        series = sample_nbp_points(cfg, 2024)
        # same seed, generous fixed run: recompute the stopping index by hand
        long = sample_nbp_points(
            NbpConfig(r=0.0, tail=tail, truncation=TruncationPolicy.fixed(4096)), 2024
        ).points
        ratios = long / np.cumsum(long)
        stop = int(np.flatnonzero(ratios < eps)[0]) + 1
        assert len(series) == stop
        assert series.stopped_by == "epsilon_rule"
        assert np.array_equal(series.points, long[:stop])
        # the rule fires at the first sub-threshold relative weight, inclusively
        assert ratios[stop - 1] < eps
        assert np.all(ratios[: stop - 1] >= eps)

    @pytest.mark.parametrize("r", [3, 11])
    @pytest.mark.parametrize("tail", [LevyTail.gamma(3.0), LevyTail.generalized_gamma(0.5)], ids=["gamma", "gg"])
    def test_fixed_count_is_the_epsilon_rule_prefix(self, r, tail):
        # a point does not depend on the truncation that cut its series: the
        # rule cannot fire at epsilon 1e-300, so the hard cap cuts at 1,024
        fixed = sample_nbp_points(NbpConfig(r=r, tail=tail, truncation=TruncationPolicy.fixed(r + 1024)), 1)
        eps = TruncationPolicy.epsilon_rule(1e-300, hard_cap=1024)
        rule = sample_nbp_points(NbpConfig(r=r, tail=tail, truncation=eps), 1)
        assert rule.stopped_by == "hard_cap" and len(rule) == 1024
        assert np.array_equal(fixed.log_points, rule.log_points)

    def test_epsilon_rule_fires_on_underflowed_points(self):
        # every point of this draw underflows to 0 in linear domain; the rule
        # still sees their ratios and stops long before the cap
        cfg = NbpConfig(
            r=1e-3, tail=LevyTail.stable(0.5), truncation=TruncationPolicy.epsilon_rule(1e-6, hard_cap=2048),
            randomized=True,
        )
        series = sample_nbp_points(cfg, replication_seed(3, 1))
        assert np.all(series.points == 0.0)
        assert series.stopped_by == "epsilon_rule"
        assert not series.truncation_warning
        assert len(series) == 521

    def test_epsilon_rule_minimum_two_points(self):
        cfg = NbpConfig(
            r=0.0, tail=LevyTail.stable(0.5), truncation=TruncationPolicy.epsilon_rule(0.999999)
        )
        series = sample_nbp_points(cfg, 3)
        assert len(series) >= 2

    def test_hard_cap_warning(self):
        cfg = NbpConfig(
            r=0.0,
            tail=LevyTail.stable(0.5),
            truncation=TruncationPolicy(mode="epsilon_rule", epsilon=1e-12, hard_cap=100),
        )
        series = sample_nbp_points(cfg, 6)
        assert len(series) == 100
        assert series.stopped_by == "hard_cap"
        assert series.truncation_warning


class TestCsvExport:
    def test_roundtrip_text(self):
        cfg = NbpConfig(r=3.0, tail=LevyTail.gamma(2.0), truncation=TruncationPolicy.fixed(10))
        series = sample_nbp_points(cfg, 4)
        text = series.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == len(series) + 1
        first_index, first_value = lines[1].split(",")
        assert int(first_index) == 4
        assert float(first_value) == series.points[0]

    def test_write_to_file(self, tmp_path):
        cfg = NbpConfig(r=0.0, tail=LevyTail.stable(0.5), truncation=TruncationPolicy.fixed(5))
        series = sample_nbp_points(cfg, 4)
        path = tmp_path / "points.csv"
        series.to_csv(str(path))
        assert path.read_text().startswith("index,value\n1,")
