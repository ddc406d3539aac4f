"""Unit tests for the scalar special functions.

Expected values marked as frozen were computed with the quadrature /
continued-fraction oracles in oracles.py (mpmath at 30 digits) and
pinned here.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from nbpriors import (
    DomainError,
    LevyTail,
    NumericError,
    exp_integral_e1,
    gamma_quantile_upper,
    gamma_quantile_upper_many,
    gamma_survival,
    log_gamma,
    log_tail_inverse,
    tail_inverse,
    tail_value,
    upper_incomplete_gamma,
)

from nbpriors import special_functions
from nbpriors.special_functions import _P_SWITCH, log_upper_gamma, log_upper_gamma_inverse
from oracles import gamma_survival_quad, log_gamma_quantile_root, upper_gamma_quad


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


def levels_seeded_at(shape, t):
    """Survival levels y whose closed-form seed (log1p(-y) + ln Γ(shape+1)) / shape is t."""
    return -np.expm1(shape * np.asarray(t) - sp.gammaln(shape + 1.0))


# levels around the solver's final-seed bound ln x = -40, and for the two
# smallest shapes levels whose x is subnormal
SEED_EDGE_LEVELS = {
    a: np.concatenate([
        levels_seeded_at(a, np.linspace(-45.0, -35.0, 11)),
        levels_seeded_at(a, np.linspace(-745.0, -708.0, 5)) if a < 2e-3 else [],
    ])
    for a in (1e-3, 0.0015, 0.0075, 0.05)
}


class TestLogGamma:
    def test_integer_points(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_half(self):
        # frozen: ln sqrt(pi) from the 30-digit oracle
        assert rel_err(log_gamma(0.5), 0.5723649429247001) < 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestUpperIncompleteGamma:
    def test_exponential_case(self):
        assert rel_err(upper_incomplete_gamma(1.0, 2.0), math.exp(-2.0)) < 1e-13

    def test_positive_half(self):
        # frozen quadrature oracle value for Gamma(0.5, 1)
        assert rel_err(upper_incomplete_gamma(0.5, 1.0), 0.27880558528066198) < 1e-12

    def test_negative_half(self):
        # frozen: recurrence from Gamma(0.5, 1), cross-checked by quadrature
        assert rel_err(upper_incomplete_gamma(-0.5, 1.0), 0.17814771178156069) < 1e-12

    @pytest.mark.parametrize("a", [-0.9, -0.5, -0.1, -0.01])
    def test_recurrence_consistency(self, a):
        for x in np.geomspace(1e-4, 30.0, 17):
            lhs = a * upper_incomplete_gamma(a, x) + math.exp(a * math.log(x) - x)
            rhs = upper_incomplete_gamma(a + 1.0, x)
            assert rel_err(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("a, x", [(171.7, 1.0), (200.0, 10.0)])
    def test_overflow_is_a_numeric_error_carrying_the_log(self, a, x):
        with pytest.raises(NumericError, match="overflows double precision") as info:
            upper_incomplete_gamma(a, x)
        assert info.value.best_estimate == log_upper_gamma(a, np.asarray([x]))[0]
        assert info.value.best_estimate == pytest.approx(math.lgamma(a), rel=1e-12)  # Q(a, x) rounds to 1

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(0.5, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(0.5, -1.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(-1.0, 1.0)


class TestLogUpperGamma:
    @pytest.mark.parametrize("a", [-1e-4, -1e-3, -3e-3])
    def test_small_negative_a_against_quadrature(self, a):
        # the recurrence from Γ(a+1, x) loses about x/|a| · eps here
        x = np.geomspace(0.3, 25.0, 25)
        expected = np.array([float(mp.log(upper_gamma_quad(a, v))) for v in x])
        assert np.max(np.abs(log_upper_gamma(a, x) - expected)) < 1e-11

    @pytest.mark.parametrize("a", [-1e-3, -1e-8, -1e-200])
    def test_tiny_negative_a_against_mpmath(self, a):
        # the recurrence returned 0.2193839296 at (-1e-8, 1), and 0.0 with a divide-by-zero warning at -1e-200
        x = np.array([1e-3, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([upper_incomplete_gamma(a, v) for v in x])
        expected = np.array([float(mp.gammainc(mp.mpf(a), mp.mpf(v))) for v in x])
        assert np.max(np.abs(got / expected - 1.0)) < 1e-12

    @pytest.mark.parametrize("a", [-1e-8, -1e-3, -3e-3])
    def test_continued_fraction_just_above_the_split_against_mpmath(self, a):
        # the split is x = 1 here; a Lentz stop at 1e-12 left 3.2e-12 relative error at x = 1 + 1e-7
        x = np.concatenate((1.0 + np.geomspace(1e-9, 1e-2, 8), np.linspace(1.1, 3.0, 12)))
        got = np.exp(log_upper_gamma(a, x))
        expected = np.array([float(mp.gammainc(mp.mpf(a), mp.mpf(v))) for v in x])
        assert np.max(np.abs(got / expected - 1.0)) < 1e-12

    @pytest.mark.parametrize("a", [-0.9, -0.5, -0.1, 0.0075, 0.5, 5.0])
    def test_across_the_kernel_switch(self, a):
        # x* is where P reaches the switch for the shape scipy sees: a + 1 in the recurrence, a itself above 0
        shape = a + 1.0 if a < 0 else a
        x = sp.gammaincinv(shape, _P_SWITCH) * np.geomspace(0.25, 4.0, 17)
        got = log_upper_gamma(a, x)
        expected = np.array([float(mp.log(upper_gamma_quad(a, v))) for v in x])
        assert np.max(np.abs(got - expected)) < 1e-12
        singles = np.concatenate([log_upper_gamma(a, x[i:i + 1]) for i in range(x.size)])
        assert got.tobytes() == singles.tobytes()

    def test_unconverged_continued_fraction_is_a_numeric_error(self, monkeypatch):
        # x = 30 lies past the split x = 25, and one Lentz step does not reach 4 eps
        monkeypatch.setattr(special_functions, "MAX_ITER", 1)
        with pytest.raises(NumericError, match="continued fraction for Gamma"):
            log_upper_gamma(0.5, np.array([30.0]))


class TestExpIntegral:
    def test_reference_values(self):
        # frozen quadrature value at 1 and continued-fraction value at 10
        assert rel_err(exp_integral_e1(1.0), 0.21938393439552028) < 1e-12
        assert rel_err(exp_integral_e1(10.0), 4.156968929685324e-06) < 1e-12

    def test_decreasing(self):
        grid = np.geomspace(1e-6, 50.0, 40)
        vals = [exp_integral_e1(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-3.0)

    def test_underflow_is_a_numeric_error_carrying_the_log(self):
        with pytest.raises(NumericError, match="underflows double precision") as info:
            exp_integral_e1(800.0)
        # ln E1(x) = -x - ln x + ln(1 - 1/x + 2/x^2 - 6/x^3 + ...), about -806.69 at x = 800
        expected = -800.0 - math.log(800.0) + math.log1p(-1 / 800 + 2 / 800**2 - 6 / 800**3 + 24 / 800**4)
        assert info.value.best_estimate == pytest.approx(expected, rel=1e-12)
        with pytest.raises(NumericError) as tail:
            tail_value(LevyTail.gamma(1.0), 800.0)  # the same E1(800)
        assert tail.value.best_estimate == info.value.best_estimate


class TestGammaSurvival:
    def test_exponential_case(self):
        assert gamma_survival(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-13)

    def test_half_shape(self):
        # erfc(1), frozen from the quadrature oracle
        assert rel_err(gamma_survival(0.5, 1.0), 0.15729920705028513) < 1e-12

    def test_tiny_shape_against_quadrature(self):
        got = gamma_survival(1e-3, 1.0)
        want = float(gamma_survival_quad(1e-3, 1.0))
        assert 0.0 < got < 1.0
        assert rel_err(got, want) < 1e-9

    def test_at_zero_and_monotone(self):
        assert gamma_survival(0.7, 0.0) == 1.0
        grid = np.geomspace(1e-6, 30.0, 30)
        for shape in (1e-3, 0.5, 1.0, 5.0):
            vals = np.array([gamma_survival(shape, x) for x in grid])
            assert np.all(np.diff(vals) <= 0)
            # strict once below the double-precision saturation at 1.0
            live = vals < 1.0
            assert np.all(np.diff(vals[live]) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_survival(0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_survival(1.0, -0.5)


class TestGammaQuantileUpper:
    def test_exponential_case(self):
        assert gamma_quantile_upper(1.0, 0.5) == pytest.approx(math.log(math.log(2.0)), abs=1e-12)

    def test_inverse_of_survival_example(self):
        assert gamma_quantile_upper(0.5, 0.15729920705028513) == pytest.approx(0.0, abs=1e-10)

    def test_small_shape_value(self):
        # frozen from the 30-digit root of Q(0.01, x) = 0.5
        t = gamma_quantile_upper(0.01, 0.5)
        assert t == pytest.approx(-69.88374885060150, abs=1e-9)
        assert gamma_survival(0.01, math.exp(t)) == pytest.approx(0.5, abs=1e-10)

    def test_roundtrip_grid(self):
        # representability proviso: skip points whose quantile underflows
        for shape in (1e-3, 0.1, 0.5, 1.0, 5.0):
            for y in np.linspace(0.01, 0.99, 23):
                t = gamma_quantile_upper(shape, float(y))
                x = math.exp(t)
                if x == 0.0:
                    continue
                assert abs(gamma_survival(shape, x) - y) <= 1e-9

    @pytest.mark.parametrize("shape", sorted(SEED_EDGE_LEVELS))
    def test_seed_edge_against_mpmath_root(self, shape):
        # the levels that seed just below ln x = -40 are final as seeded, those just above are refined
        # x is subnormal at these two pinned levels; a scipy seed used to leave both 0.58-0.68 off
        y = np.append(SEED_EDGE_LEVELS[shape], {1e-3: [0.525], 0.0015: [0.6726805711551208]}.get(shape, []))
        got = np.array([gamma_quantile_upper(shape, float(v)) for v in y])
        expected = np.array([float(log_gamma_quantile_root(shape, v)) for v in y])
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_scalar_level_gives_one_element(self):
        got = gamma_quantile_upper_many(0.5, 0.3)
        assert got.shape == (1,)
        assert got[0] == gamma_quantile_upper(0.5, 0.3)

    def test_vectorized_matches_scalar(self):
        # at the small shapes, levels near 1 put ln x below the solver's final-seed bound -40; the rest lie above it
        y = np.concatenate(
            [[1e-300, 1e-100, 1e-20], np.linspace(0.05, 0.95, 11), [1 - 1e-10, 1 - 1e-16], *SEED_EDGE_LEVELS.values()]
        )
        for shape in (1e-3, 3 / 2000, 0.25, 5.0):
            many = gamma_quantile_upper_many(shape, y)
            each = np.array([gamma_quantile_upper(shape, float(v)) for v in y])
            assert np.array_equal(many, each), shape

    def test_solver_keeps_a_seed_below_the_bound_and_refines_one_above(self):
        a = 0.5
        log_y = np.log([0.5, 0.5])
        t = log_upper_gamma_inverse(a, -sp.gammaln(a), log_y, np.array([-50.0, -10.0]))
        assert t[0].tobytes() == np.float64(-50.0).tobytes()
        assert abs(t[1] - float(log_gamma_quantile_root(a, 0.5))) <= 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                gamma_quantile_upper(1.0, bad)
            with pytest.raises(DomainError, match="all survival levels must lie strictly inside"):
                gamma_quantile_upper_many(1.0, [0.5, bad])
        with pytest.raises(DomainError):
            gamma_quantile_upper(-1.0, 0.5)

    def test_unconverged_point_is_a_numeric_error(self, monkeypatch):
        # a seed one Newton step cannot resolve
        monkeypatch.setattr(special_functions, "MAX_ITER", 1)
        with pytest.raises(NumericError, match="left 1 of 1 points unconverged"):
            log_tail_inverse(LevyTail.gamma(1.0), 1.0)


GAMMA_TAIL = LevyTail.gamma(3.0)


@pytest.mark.parametrize("call, name", [
    (lambda: log_gamma("x"), "a"),
    (lambda: exp_integral_e1("x"), "x"),
    (lambda: upper_incomplete_gamma("x", 1.0), "a"),
    (lambda: upper_incomplete_gamma(0.5, "x"), "x"),
    (lambda: gamma_survival(1.0, "x"), "x"),
    (lambda: gamma_quantile_upper(1.0, "x"), "y"),
    (lambda: gamma_quantile_upper_many(1.0, "x"), "y"),
    (lambda: tail_value(GAMMA_TAIL, "x"), "x"),
    (lambda: tail_inverse(GAMMA_TAIL, "x"), "y"),
    (lambda: log_tail_inverse(GAMMA_TAIL, "x"), "y"),
], ids=["log_gamma", "exp_integral_e1", "upper_gamma_a", "upper_gamma_x", "gamma_survival", "quantile",
        "quantile_many", "tail_value", "tail_inverse", "log_tail_inverse"])
def test_non_numeric_argument_is_a_domain_error(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got 'x'$"):
        call()
