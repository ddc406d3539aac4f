"""Unit tests for arrival streams and the negative binomial point sampler."""

import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

from nbpriors import (
    DegenerateTruncationError,
    DomainError,
    LevyTail,
    NbpConfig,
    NbpError,
    NumericError,
    PdpParams,
    ResourceLimitError,
    TruncationPolicy,
    gamma_arrivals,
    sample_nbp_points,
    sample_prm_points,
    tail_inverse,
    tail_support_bound,
)
from nbpriors import experiments, point_processes
from nbpriors.random_measures import SeriesProcess
from nbpriors._rng import replication_seed, seed_tuple
from nbpriors.levy_tails import log_tail_inverse, log_tail_value
from nbpriors.point_processes import (_TEMPER_SPLIT, MAX_ARRIVALS, ArrivalStream, _Row, _split, sample_log_points,
                                      write_points_csv)
from oracles import inverse_series_log_points


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
        with pytest.raises(DomainError, match="epsilon_rule does not take n"):
            TruncationPolicy(mode="epsilon_rule", epsilon=0.1, n=10)

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


class TestSeeds:
    def test_empty_seed_tuple_is_a_domain_error(self):
        with pytest.raises(DomainError, match="seed tuple must not be empty"):
            seed_tuple(())

    def test_negative_replication_index_is_a_domain_error(self):
        with pytest.raises(DomainError, match="replication index must be nonnegative"):
            replication_seed(1, -1)


class TestGammaArrivals:
    def test_basic_shape(self):
        stream = gamma_arrivals(42, 1000)
        arr = stream.arrivals
        assert arr.size == 1000
        assert len(stream) == 1000
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

    @pytest.mark.parametrize("arrivals, message", [
        ([], "arrivals must be a nonempty 1-d array"),
        ([1.0, 0.5], "arrivals must be strictly increasing and positive"),
        ([math.nan], "arrivals must be strictly increasing and positive, and finite"),
        ([math.inf], "arrivals must be strictly increasing and positive, and finite"),
        ([1.0, math.inf], "arrivals must be strictly increasing and positive, and finite"),
        ([1.0, math.nan], "arrivals must be strictly increasing and positive, and finite"),
    ], ids=["empty", "decreasing", "nan", "inf", "last-inf", "last-nan"])
    def test_stream_checks_its_arrivals(self, arrivals, message):
        with pytest.raises(DomainError, match=message):
            ArrivalStream(np.array(arrivals), (1,))

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

    def test_no_seeds_is_a_domain_error(self):
        cfg = NbpConfig(r=0.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(10))
        with pytest.raises(DomainError, match="sampling needs at least one seed"):
            sample_log_points(cfg, [])

    def test_integer_path_inside_support(self):
        for tail in (LevyTail.gamma(3.0), LevyTail.stable(0.5), LevyTail.generalized_gamma(0.5)):
            cfg = NbpConfig(r=5.0, tail=tail, truncation=TruncationPolicy.fixed(100))
            series = sample_nbp_points(cfg, 13)
            assert series.first_index == 6
            assert len(series) == 95
            assert series.points[0] < tail_support_bound(tail)
            assert np.all(np.diff(series.log_points) < 0)

    def test_a_draw_holding_more_than_the_arrival_bound_is_a_resource_limit(self):
        tail = LevyTail.gamma(3.0)
        NbpConfig(0, tail, TruncationPolicy.fixed(MAX_ARRIVALS, hard_cap=MAX_ARRIVALS))
        # a policy past the bound is rejected when it is built, before any config holds it
        with pytest.raises(ResourceLimitError, match=f"^hard_cap {MAX_ARRIVALS + 1} exceeds the hard bound"):
            NbpConfig(0, tail, TruncationPolicy.fixed(MAX_ARRIVALS + 1, hard_cap=MAX_ARRIVALS + 1))
        # under the epsilon rule a draw can hold the r arrivals before its first point and hard_cap points
        with pytest.raises(ResourceLimitError, match=f"^count {MAX_ARRIVALS + 1} exceeds the hard bound"):
            NbpConfig(1, tail, TruncationPolicy.epsilon_rule(1e-6, hard_cap=MAX_ARRIVALS))

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


class TestMixingDraw:
    def test_an_overflowed_level_to_invert_is_a_numeric_error(self):
        row = _Row(0)
        row.divisor = 5e-324  # the arrivals divided by it overflow
        with np.errstate(over="ignore"):
            levels = _Row.arrivals([row], 8)[0] / row.divisor
        assert row.head(levels, 0).size == 0  # the thinned candidates may overflow
        with pytest.raises(NumericError, match="^gamma mixing draw degenerated to 5e-324"):
            row.head(levels, 8)
        row.close()

    @pytest.mark.parametrize("trunc", [TruncationPolicy.epsilon_rule(1e-6), TruncationPolicy.fixed(50)])
    def test_overflowed_thinned_candidates_still_draw(self, trunc):
        # PD(0.5, 5e-4), r = 1e-3: a mixing draw near 1e-306 overflows the last of a round's 1024 levels while
        # the first two stay finite; those levels are all thinned stable candidates, and the overflowed ones
        # get a zero weight
        cfg = SeriesProcess.pdp(PdpParams(0.5, 5e-4), trunc)
        partial = []
        for i in range(600):
            try:
                row = _Row((3, i), cfg.r, randomized=True)
            except NumericError:  # an exact-zero mixing draw
                continue
            with np.errstate(over="ignore"):
                levels = _Row.arrivals([row], 1024)[0] / row.divisor
            row.close()
            if math.isfinite(levels[1]) and levels[-1] == math.inf:
                partial.append((3, i))
        assert partial
        for seed in partial:
            weights = cfg.draw([seed])[0]
            assert weights.size >= 2 and math.isclose(weights.sum(), 1.0)

    def test_every_degenerate_mixing_draw_is_a_numeric_error(self):
        # at a tiny order the gamma mixing draw underflows to zero on some seeds and to a subnormal on others
        cfg = NbpConfig(r=1e-3, tail=LevyTail.stable(0.5), truncation=TruncationPolicy.epsilon_rule(1e-6),
                        randomized=True)
        failures = []
        for i in range(300):
            try:
                sample_log_points(cfg, [(3, i)])
            except NbpError as exc:
                failures.append(exc)
        assert failures and all(type(exc) is NumericError for exc in failures), {type(exc) for exc in failures}


class TestTruncation:
    def test_fixed_count_semantics(self):
        cfg = NbpConfig(r=10.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(400))
        series = sample_nbp_points(cfg, 9)
        assert len(series) == 390
        assert series.stopped_by == "fixed_count"
        assert not series.truncation_warning

    def test_fixed_count_degenerate(self):
        with pytest.raises(DegenerateTruncationError):
            cfg = NbpConfig(r=5.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(6))
            sample_nbp_points(cfg, 1)

    def test_fixed_count_hard_cap(self):
        with pytest.raises(ResourceLimitError):
            cfg = NbpConfig(
                r=0.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy(mode="fixed_count", n=100, hard_cap=50)
            )
            sample_nbp_points(cfg, 1)

    @pytest.mark.parametrize("r, truncation, error, message", [
        (5.0, TruncationPolicy.fixed(6), DegenerateTruncationError, "fixed_count n=6 retains 1 points past index 5"),
        (0.0, TruncationPolicy(mode="fixed_count", n=100, hard_cap=50), ResourceLimitError,
         "fixed_count would retain 100 points, above hard_cap=50"),
        (0.0, TruncationPolicy.epsilon_rule(1e-6, hard_cap=1), DegenerateTruncationError,
         "truncation retained 1 points; need at least 2"),
    ], ids=["one_point_retained", "above_hard_cap", "epsilon_hard_cap_1"])
    def test_row_shape_is_checked_when_the_config_is_built(self, r, truncation, error, message):
        with pytest.raises(error) as info:
            NbpConfig(r, LevyTail.gamma(3.0), truncation)
        assert str(info.value) == message

    def test_row_shape_follows_the_path(self):
        tail, trunc = LevyTail.generalized_gamma(0.5), TruncationPolicy.fixed(400)
        for cfg, first_index, width in [(NbpConfig(300, tail, trunc), 301, 100),
                                        (NbpConfig(300, tail, trunc, randomized=True), 1, 400)]:
            assert (cfg.first_index, cfg.width) == (first_index, width)
            series = sample_nbp_points(cfg, 3)
            assert (series.first_index, len(series)) == (first_index, width)
        assert NbpConfig(300, tail, TruncationPolicy.epsilon_rule(1e-6)).width is None

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
        # every point of this draw underflows to 0 in linear domain, whatever the seed: the integer path's
        # levels are at least 1 and L^{-1}(1) = e^{-1000 - gamma} for theta = 1e-3.  The rule still sees their
        # ratios and stops long before the cap, at the first point below epsilon of the running sum
        cap = 2048
        cfg = NbpConfig(r=10_000, tail=LevyTail.gamma(1e-3), truncation=TruncationPolicy.epsilon_rule(1e-6, cap))
        series = sample_nbp_points(cfg, replication_seed(3, 1))
        assert np.all(series.points == 0.0)
        assert series.stopped_by == "epsilon_rule"
        assert not series.truncation_warning
        pts = np.exp(series.log_points - series.log_points[0])
        stop = int(np.flatnonzero(pts / np.cumsum(pts) < 1e-6)[0]) + 1
        assert len(series) == stop < cap

    def test_epsilon_rule_stops_a_row_whose_first_point_is_infinite(self):
        # at a subnormal alpha the first points are infinite; a later point's share of that sum is 0, so the
        # rule fires at the second point, and the draw fails as the fixed-count draw of the same seed does
        tail = LevyTail.stable(1e-310)
        eps, fixed = TruncationPolicy.epsilon_rule(1e-6), TruncationPolicy.fixed(50)
        (rule,) = sample_log_points(NbpConfig(0, tail, eps), [0])
        assert (rule.stopped_by, rule.truncation_warning, len(rule)) == ("epsilon_rule", False, 2)
        assert np.array_equal(rule.log_points, sample_nbp_points(NbpConfig(0, tail, fixed), 0).log_points[:2])
        for truncation in (eps, fixed):
            with pytest.raises(DegenerateTruncationError, match="^fewer than two atoms carry representable weight$"):
                experiments._family("stable", {"alpha": 1e-310}, truncation).draw([0])

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

    @pytest.mark.parametrize("make", [
        lambda cap: NbpConfig(0.0, LevyTail.stable(0.5), TruncationPolicy.epsilon_rule(1e-6, hard_cap=cap)),
        lambda cap: experiments._family("pdp_series", {"alpha": 0.5, "theta": 2.0},
                                        TruncationPolicy.epsilon_rule(1e-6, hard_cap=cap)),
    ], ids=["stable", "pdp_series"])
    @pytest.mark.parametrize("seed", [4, (2, 7)])
    def test_hard_cap_at_the_epsilon_rule_stop(self, make, seed):
        # a cap equal to the rule's length leaves the stop to the rule; one point less, the cap stops the draw
        rule = sample_nbp_points(make(1_000_000), seed)
        assert (rule.stopped_by, rule.truncation_warning) == ("epsilon_rule", False)
        at = sample_nbp_points(make(len(rule)), seed)
        assert (at.stopped_by, at.truncation_warning) == ("epsilon_rule", False)
        assert np.array_equal(at.log_points, rule.log_points)
        below = sample_nbp_points(make(len(rule) - 1), seed)
        assert (below.stopped_by, below.truncation_warning) == ("hard_cap", True)
        assert np.array_equal(below.log_points, rule.log_points[:-1])

    @staticmethod
    def fsum_ratios(log_points: np.ndarray) -> list[float]:
        """x_j / (x_1 + ... + x_j) of the points scaled by the first, each running sum carried as the pair
        (math.fsum of the sum, math.fsum of its remainder), so it is exact to far below a double's rounding."""
        ratios, hi, lo = [], 0.0, 0.0
        for x in np.exp(log_points - log_points[0]).tolist():
            hi, lo = math.fsum((hi, lo, x)), math.fsum((hi, lo, x, -math.fsum((hi, lo, x))))
            ratios.append(x / hi)
        return ratios

    @pytest.mark.parametrize("cfg, seed", [
        (NbpConfig(3, LevyTail.generalized_gamma(0.5), TruncationPolicy.epsilon_rule(1e-6)), (5, 1)),
        (NbpConfig(2.5, LevyTail.generalized_gamma(0.5), TruncationPolicy.epsilon_rule(1e-7)), (5, 0)),
        (NbpConfig(0, LevyTail.gamma(100.0), TruncationPolicy.epsilon_rule(1e-12)), (5, 0)),
        (NbpConfig(0, LevyTail.stable(0.5), TruncationPolicy.epsilon_rule(1e-7)), (5, 1)),
        (SeriesProcess.pdp(PdpParams(0.9, 10.0), TruncationPolicy.epsilon_rule(1e-7, hard_cap=3000)), (5, 0)),
    ], ids=["gg_integer", "gg_randomized", "gamma", "stable", "pd_0.9_10_hard_cap"])
    def test_epsilon_stop_is_the_rule_on_exact_sums(self, cfg, seed):
        # over at least three rounds, a round the rule cannot fire in skips its scan; recomputed on exact sums,
        # no ratio before the stop is below epsilon and the stop's is, unless the hard cap came first
        (series,) = sample_log_points(cfg, [seed])
        eps, ratios = cfg.truncation.epsilon, self.fsum_ratios(series.log_points)
        assert len(series) > 2 * 1024
        kept = ratios if series.stopped_by == "hard_cap" else ratios[:-1]
        assert min(kept) >= eps * (1 - 1e-9)
        if series.stopped_by == "epsilon_rule":
            assert ratios[-1] < eps * (1 + 1e-9)
        assert series.stopped_by == ("hard_cap" if isinstance(cfg, SeriesProcess) else "epsilon_rule")

    @staticmethod
    def full_scan(rounds: list[np.ndarray], eps: float) -> tuple[int | None, float]:
        """The epsilon rule over hand-built rounds with every ratio scanned, as ``_Row.take`` applies it: the
        points retained at the stop (None if it does not fire) and the running sum of the scaled points."""
        shift, scaled_sum, retained = 0.0, 0.0, 0
        for log_pts in rounds:
            if not retained and log_pts.size:
                shift = float(log_pts[0])
            pts = np.exp(log_pts - shift)
            below = np.flatnonzero(pts / (scaled_sum + np.cumsum(pts)) < eps)
            scaled_sum += float(np.sum(pts))
            if shift == math.inf:
                return 2, scaled_sum
            if below.size:
                return retained + int(below[0]) + 1, scaled_sum
            retained += log_pts.size
        return None, scaled_sum

    @staticmethod
    def take_rounds(rounds: list[np.ndarray], eps: float) -> tuple[int | None, float]:
        """The same rounds through a row's ``take``."""
        cfg, row = NbpConfig(0, LevyTail.stable(0.5), TruncationPolicy.epsilon_rule(eps)), _Row(0)
        for log_pts in rounds:
            if (series := row.take(log_pts, cfg)) is not None:
                assert series.stopped_by == "epsilon_rule"
                return len(series), row.scaled_sum
        row.close()
        return None, row.scaled_sum

    @staticmethod
    def hand_rounds(case: str) -> tuple[list[np.ndarray], float]:
        """Rounds and an epsilon that put the last ratio of the second round where ``case`` says."""
        first = np.log([1.0, 0.5, 0.25])
        second = np.log(np.sort(np.random.default_rng(7).uniform(0.2, 0.25, 1000))[::-1])
        if case == "tied":
            second = np.log(np.full(6, 0.1))
        scaled_sum = float(np.exp(first).sum())
        pts = np.exp(second)
        last = pts[-1] / (scaled_sum + np.cumsum(pts)[-1])  # the last ratio as the scan computes it
        total = float(pts.sum())  # a pairwise sum, which here rounds below the scan's running one
        return [first, second], {
            "at_epsilon": float(last),
            "just_above_last": float(np.nextafter(last, 1.0)),
            "inside_margin": float(last / (1 + 1e-7)),
            "on_the_pairwise_sum": float(pts[-1] / (scaled_sum + total)),
            "clear_of_margin": float(last / (1 + 1e-5)),
            "tied": float(pts[2] / (scaled_sum + np.cumsum(pts)[2])),
        }[case]

    @pytest.mark.parametrize("case", ["at_epsilon", "just_above_last", "inside_margin", "on_the_pairwise_sum",
                                      "clear_of_margin", "tied"])
    def test_take_stops_where_the_full_scan_does(self, case):
        rounds, eps = self.hand_rounds(case)
        assert self.take_rounds(rounds, eps) == self.full_scan(rounds, eps)

    def test_pairwise_sum_rounds_below_the_running_sum(self):
        # the case on_the_pairwise_sum needs the round's pairwise sum below its running sum, or it tests nothing
        rounds, eps = self.hand_rounds("on_the_pairwise_sum")
        pts = np.exp(rounds[1])
        assert pts.sum() < np.cumsum(pts)[-1]
        assert self.full_scan(rounds, eps)[0] == 3 + pts.size

    @pytest.mark.parametrize("rounds", [
        [np.log([1.0, 0.5, 0.25]), np.empty(0), np.log([0.1, 0.05, 1e-9])],
        [np.empty(0), np.log([1.0, 0.5, 0.25, 1e-9])],
    ], ids=["empty_later_round", "empty_first_round"])
    def test_take_on_an_empty_round_is_the_full_scan(self, rounds):
        assert self.take_rounds(rounds, 1e-6) == self.full_scan(rounds, 1e-6)

    def test_take_on_an_infinite_first_point_is_the_full_scan(self):
        rounds = [np.array([math.inf, 0.0, -1.0])]
        with np.errstate(invalid="ignore"):
            (stop, total), (expected_stop, expected_total) = self.take_rounds(rounds, 1e-6), self.full_scan(rounds, 1e-6)
        assert stop == expected_stop == 2 and math.isnan(total) and math.isnan(expected_total)


class TestTemperedSeries:
    """The generalized-gamma series drawn by thinning stable candidates has the law of the inverted series."""

    DRAWS = 1000
    EPS_CLUSTERS = TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000)

    @staticmethod
    def statistics(log_points):
        """Largest weight, sum of squared weights, length and unnormalized total of each row."""
        def row(log_x):
            x = np.exp(log_x - log_x.max())
            w = x / np.sum(x)
            return w.max(), float(np.sum(w * w)), w.size, float(np.sum(np.exp(log_x)))

        return [np.array(v) for v in zip(*map(row, log_points))]

    @pytest.mark.parametrize("params, truncation", [
        ({"alpha": 0.5, "theta": 2.0}, TruncationPolicy.fixed(400)),
        ({"alpha": 0.5, "theta": 2.0}, EPS_CLUSTERS),
        ({"alpha": 0.9, "theta": 10.0}, TruncationPolicy.fixed(400)),
        ({"alpha": 0.1, "theta": 1.0, "r": 10}, TruncationPolicy.fixed(400)),
        ({"alpha": 0.5, "theta": 10.0, "r": 20}, TruncationPolicy.fixed(400)),
        ({"alpha": 0.9, "theta": 10.0, "r": 11}, TruncationPolicy.fixed(400)),
    ], ids=["pd_0.5_2_fixed", "pd_0.5_2_eps", "pd_0.9_10_fixed", "grid_0.1_1_10", "grid_0.5_10_20",
            "grid_0.9_10_11"])
    def test_law_matches_the_inverse_oracle(self, params, truncation):
        # independent seeds on the two sides: below x* the two constructions share most points on shared seeds
        family = experiments._family("pdp_series", params, truncation)
        drawn = [series.log_points for series in sample_log_points(family, [(1, i) for i in range(self.DRAWS)])]
        inverted = [inverse_series_log_points(family, (2, i)) for i in range(self.DRAWS)]
        for name, a, b in zip(("w1", "sum_sq", "length", "total"), self.statistics(drawn),
                              self.statistics(inverted)):
            if family.width is not None and name == "length":
                assert np.all(a == family.width) and np.all(b == family.width)
                continue
            p = st.ks_2samp(a, b).pvalue
            assert p > 0.001, f"{name}: two-sample KS p = {p:.2e}"

    def test_split_level_is_below_one(self):
        # integer-path levels start at 1 > L(x*), so that path splits at u = L^{-1}(1) < x*; the largest L(x*)
        # is 0.0506, at alpha = 0.46
        for alpha in np.concatenate(([1e-300, 1e-100, 1e-8, 1e-3], np.linspace(0.01, 0.99, 99), [1.0 - 1e-9])):
            log_level = float(log_tail_value(LevyTail.generalized_gamma(alpha), _TEMPER_SPLIT)[0])
            assert log_level < math.log(0.051), alpha

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_split_is_solved_once_per_tail_and_path(self, alpha):
        tail = LevyTail.generalized_gamma(alpha)
        _split.cache_clear()
        integer, randomized = _split(tail, True), _split(tail, False)
        assert integer == (1.0, float(log_tail_inverse(tail, 1.0)[0]))
        assert randomized == (float(np.exp(log_tail_value(tail, _TEMPER_SPLIT)[0])), math.log(_TEMPER_SPLIT))
        assert integer != randomized
        assert _split(LevyTail.generalized_gamma(alpha), True) is integer  # an equal tail hits the cache
        info = _split.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        assert info.maxsize is not None  # a sweep over alpha cannot grow it without bound

    @staticmethod
    def spy_uniforms(monkeypatch) -> list[list[int]]:
        """The sizes of the uniform draws of each row's round that thins, one list per round.  Every arrival
        generator is wrapped when spawned and unwrapped when released; its next exponentials start a round."""
        calls, spawn, release = [], point_processes.spawn_generator, point_processes.release

        class Spy:
            def __init__(self, rng):
                self.rng, self.sizes = rng, None

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_exponential(self, *args, **kwargs):
                self.sizes = None  # the round's first uniform draw opens its list
                return self.rng.standard_exponential(*args, **kwargs)

            def random(self, size=None, out=None):
                if self.sizes is None:
                    self.sizes = []
                    calls.append(self.sizes)
                self.sizes.append(size if out is None else out.size)
                return self.rng.random(size, out=out)

        monkeypatch.setattr(point_processes, "spawn_generator", lambda seed, tag: (
            Spy(spawn(seed, tag)) if tag == point_processes.STREAM_ARRIVALS else spawn(seed, tag)))
        monkeypatch.setattr(point_processes, "release", lambda rng: release(rng.rng if isinstance(rng, Spy) else rng))
        return calls

    def test_grid_row_thins_only_the_candidates_it_keeps(self, monkeypatch):
        # row (0.9, 100, 111) at n = 400 keeps 289 points; every level is a stable candidate of a 1,024-level round
        calls = self.spy_uniforms(monkeypatch)
        family = experiments._family("pdp_series", {"alpha": 0.9, "theta": 100, "r": 111}, TruncationPolicy.fixed(400))
        series = sample_log_points(family, [replication_seed((1, 0), i) for i in range(15)])
        assert [len(s) for s in series] == [289] * 15
        assert len(calls) == 15  # one round per row
        assert all(289 <= sum(sizes) < 1024 for sizes in calls)

    @pytest.mark.parametrize("cfg, rounds, pieces", [
        # r = 1000 on the randomized path: most candidates lie near u = x* = 1 and are kept with probability
        # about e^{-1}, so the first piece keeps too few
        (NbpConfig(1000.0, LevyTail.generalized_gamma(0.5), TruncationPolicy.fixed(300), randomized=True), 1, 2),
        # n - r = 1,500 points on the integer path: a whole round of 1,024 candidates, then a piece of the next
        (NbpConfig(3, LevyTail.generalized_gamma(0.5), TruncationPolicy.fixed(1503)), 2, 1),
    ], ids=["two_pieces", "two_rounds"])
    @pytest.mark.parametrize("seed", [5, (2, 9)])
    def test_fixed_count_thinned_in_pieces_is_the_epsilon_rule_prefix(self, monkeypatch, cfg, rounds, pieces, seed):
        calls = self.spy_uniforms(monkeypatch)
        (fixed,) = sample_log_points(cfg, [seed])
        assert len(calls) == rounds and len(calls[-1]) >= pieces and sum(calls[-1]) < 1024
        assert all(sizes == [1024] for sizes in calls[:-1])  # a round the row outlasts draws every uniform
        eps = TruncationPolicy.epsilon_rule(1e-300, hard_cap=2048)
        (rule,) = sample_log_points(NbpConfig(cfg.r, cfg.tail, eps, randomized=cfg.randomized), [seed])
        assert rule.stopped_by == "hard_cap"
        assert np.array_equal(fixed.log_points, rule.log_points[:cfg.width])

    @pytest.mark.parametrize("theta", [1e8, 1e300])
    @pytest.mark.parametrize("seed", [7, 8, (3, 1)])
    def test_rows_above_the_split_are_the_inverted_rows(self, theta, seed):
        family = experiments._family("pdp_series", {"alpha": 0.5, "theta": theta}, TruncationPolicy.fixed(400))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (series,) = sample_log_points(family, [seed])
            expected = inverse_series_log_points(family, seed)
        assert np.array_equal(series.log_points, expected)


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

    @pytest.mark.parametrize("as_path", [str, Path])
    def test_write_to_file(self, tmp_path, as_path):
        cfg = NbpConfig(r=0.0, tail=LevyTail.stable(0.5), truncation=TruncationPolicy.fixed(5))
        series = sample_nbp_points(cfg, 4)
        path = tmp_path / "points.csv"
        series.to_csv(as_path(path))
        assert path.read_text().startswith("index,value\n1,")

    def test_write_to_open_file(self):
        buf = io.StringIO()
        assert write_points_csv([0.5, 0.25], first_index=3, file=buf) is None
        assert buf.getvalue() == "index,value\n3,0.5\n4,0.25\n"
