"""Unit tests for the Lévy tail bijections and their numerical inverses."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nbpriors import (
    DomainError,
    LevyTail,
    NumericError,
    log_tail_inverse,
    log_tail_value,
    tail_inverse,
    tail_support_bound,
    tail_value,
)


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


ALL_TAILS = [
    LevyTail.stable(0.3),
    LevyTail.stable(0.5),
    LevyTail.stable(0.9),
    LevyTail.gamma(3.0),
    LevyTail.generalized_gamma(0.1),
    LevyTail.generalized_gamma(0.5),
    LevyTail.generalized_gamma(0.9),
]

TAIL_STRATEGIES = {
    "stable": st.floats(0.01, 0.99).map(LevyTail.stable),
    "gamma": st.floats(-6.0, 5.0).map(lambda e: LevyTail.gamma(10.0**e)),
    "generalized_gamma": st.floats(0.01, 0.99).map(LevyTail.generalized_gamma),
}


class TestConstruction:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            LevyTail(kind="cauchy", alpha=0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, None])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            LevyTail(kind="stable", alpha=alpha)

    def test_bad_theta(self):
        with pytest.raises(DomainError):
            LevyTail(kind="gamma", theta=0.0)
        with pytest.raises(DomainError):
            LevyTail(kind="gamma", theta=None)

    def test_non_numeric_parameter_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^theta must be a real number, got 'x'$"):
            LevyTail.gamma("x")

    def test_parameter_is_stored_as_the_float_it_was_read_as(self):
        assert LevyTail(kind="stable", alpha="0.5") == LevyTail.stable(0.5)
        assert LevyTail.from_dict({"kind": "generalized_gamma", "alpha": "0.5"}) == LevyTail.generalized_gamma(0.5)
        assert type(LevyTail(kind="gamma", theta=3).theta) is float

    def test_cross_parameter_rejected(self):
        with pytest.raises(DomainError):
            LevyTail(kind="stable", alpha=0.5, theta=1.0)
        with pytest.raises(DomainError):
            LevyTail(kind="gamma", theta=1.0, alpha=0.5)


class TestValues:
    def test_stable_closed_form(self):
        assert tail_value(LevyTail.stable(0.5), 4.0) == pytest.approx(0.5, rel=1e-14)

    def test_gamma_value(self):
        # 3 * E1(1), frozen from the quadrature oracle
        assert rel_err(tail_value(LevyTail.gamma(3.0), 1.0), 0.65815180318656082) < 1e-12

    def test_generalized_gamma_value(self):
        # (0.5/sqrt(pi)) * Gamma(-0.5, 1): recurrence plus quadrature oracle
        assert rel_err(tail_value(LevyTail.generalized_gamma(0.5), 1.0), 0.050254541660012221) < 1e-11

    def test_overflow_is_a_numeric_error_carrying_the_log(self):
        with pytest.raises(NumericError, match="overflows double precision") as info:
            tail_value(LevyTail.stable(0.99), 5e-324)
        assert info.value.best_estimate == pytest.approx(-0.99 * math.log(5e-324), rel=1e-14)  # L(x) = x^{-alpha}

    def test_underflow_is_a_numeric_error_carrying_the_log(self):
        with pytest.raises(NumericError, match="underflows double precision") as info:
            tail_value(LevyTail.gamma(1.0), 800.0)  # E1(800) ~ e^-800 / 800
        assert info.value.best_estimate == log_tail_value(LevyTail.gamma(1.0), 800.0)[0]

    def test_domain(self):
        for tail in ALL_TAILS:
            with pytest.raises(DomainError):
                tail_value(tail, 0.0)
            with pytest.raises(DomainError):
                tail_inverse(tail, -1.0)

    @pytest.mark.parametrize("tail", ALL_TAILS, ids=lambda t: f"{t.kind}-{t.alpha or t.theta}")
    def test_strictly_decreasing(self, tail):
        grid = np.geomspace(1e-5, 30.0, 50)
        vals = np.exp(log_tail_value(tail, grid))
        assert np.all(np.diff(vals) < 0)


class TestInversion:
    def test_stable_closed_form(self):
        assert tail_inverse(LevyTail.stable(0.5), 4.0) == pytest.approx(0.0625, rel=1e-14)

    def test_gamma_known_point(self):
        theta = 1.0
        y = tail_value(LevyTail.gamma(theta), 1.0)  # E1(1)
        assert tail_inverse(LevyTail.gamma(theta), y) == pytest.approx(1.0, rel=1e-11)

    def test_generalized_gamma_known_point(self):
        assert tail_inverse(LevyTail.generalized_gamma(0.5), 0.050254541660012221) == pytest.approx(
            1.0, rel=1e-9
        )

    @pytest.mark.parametrize("tail", ALL_TAILS, ids=lambda t: f"{t.kind}-{t.alpha or t.theta}")
    def test_roundtrip_log_grid(self, tail):
        ys = np.geomspace(1e-6, 1e3, 41)
        xs = np.exp(log_tail_inverse(tail, ys))
        back = np.exp(log_tail_value(tail, xs))
        assert np.max(np.abs(back - ys) / ys) <= 1e-9

    @pytest.mark.parametrize("tail", ALL_TAILS, ids=lambda t: f"{t.kind}-{t.alpha or t.theta}")
    def test_inverse_strictly_decreasing(self, tail):
        ys = np.geomspace(1e-5, 1e2, 40)
        ts = log_tail_inverse(tail, ys)
        assert np.all(np.diff(ts) < 0)

    def test_stable_numeric_cross_check(self):
        # closed form against an independent bracketed root-finder
        tail = LevyTail.stable(0.5)
        for y in (0.2, 1.0, 5.0, 40.0):
            numeric = scipy.optimize.brentq(
                lambda x: tail_value(tail, x) - y, 1e-12, 1e8, xtol=1e-300, rtol=1e-15
            )
            assert rel_err(tail_inverse(tail, y), numeric) < 1e-10

    @pytest.mark.parametrize("alpha, y", [(1e-4, 0.5), (0.05, 1e-20), (1e-310, 0.5)])
    def test_overflow_is_a_numeric_error_carrying_the_log(self, alpha, y):
        # ln L^{-1}(y) = -ln(y)/alpha is finite but past ln(max double) in the first two cases, infinite in the last
        tail = LevyTail.stable(alpha)
        with pytest.raises(NumericError, match=f"^tail inverse overflows double precision at y={y}; ") as info:
            tail_inverse(tail, y)
        assert info.value.best_estimate == log_tail_inverse(tail, y)[0]

    def test_deep_gamma_inverse_stays_log_accurate(self):
        # the linear inverse is subnormal at y = 2200 and underflows at 3000;
        # the log inverse must stay accurate at both
        tail = LevyTail.gamma(3.0)
        for y, underflows in ((2200.0, False), (3000.0, True)):
            t = log_tail_inverse(tail, np.array([y]))[0]
            assert t < math.log(1e-300)
            if underflows:
                with pytest.raises(NumericError):
                    tail_inverse(tail, y)
            else:
                assert 0.0 < tail_inverse(tail, y) < np.finfo(float).tiny
            with mp.workdps(40):
                back = 3.0 * mp.e1(mp.e ** mp.mpf(float(t)))
            assert abs(float(back) - y) / y < 1e-11

    @pytest.mark.parametrize("alpha", [0.001, 0.01])
    def test_generalized_gamma_near_zero_alpha_converges(self, alpha):
        # the value's rounding error exceeds REL_TOL at moderate x here, so the
        # solver must stop on its bracket instead of raising
        tail = LevyTail.generalized_gamma(alpha)
        ys = np.geomspace(1e-12, 1e3, 200)
        ts = log_tail_inverse(tail, ys)
        assert np.all(np.diff(ts) < 0)
        normal = ts > math.log(1e-300)
        back = log_tail_value(tail, np.exp(ts[normal]))
        assert np.max(np.abs(back - np.log(ys[normal]))) <= 1e-9

    @pytest.mark.parametrize("kind", sorted(TAIL_STRATEGIES))
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_inverse_is_pointwise(self, kind, data):
        # a point's inverse must not depend on the other points in its array;
        # levels are drawn relative to the tail's scale, L(x) ~ theta at x ~ 1
        tail = data.draw(TAIL_STRATEGIES[kind])
        z = data.draw(arrays(np.float64, st.integers(1, 30), elements=st.floats(-8.0, 4.0).map(lambda e: 10.0**e)))
        y = z * (tail.theta or 1.0)
        batch = log_tail_inverse(tail, y)
        alone = np.array([log_tail_inverse(tail, y[i:i + 1])[0] for i in range(y.size)])
        assert batch.tobytes() == alone.tobytes()


class TestSupportBound:
    def test_stable(self):
        assert tail_support_bound(LevyTail.stable(0.5)) == pytest.approx(1.0, rel=1e-14)

    def test_gamma(self):
        # root of 3 E1(x) = 1, frozen from the root-finding oracle
        assert tail_support_bound(LevyTail.gamma(3.0)) == pytest.approx(0.76127267343337411, rel=1e-10)

    def test_generalized_gamma_roundtrip(self):
        tail = LevyTail.generalized_gamma(0.9)
        bound = tail_support_bound(tail)
        assert tail_value(tail, bound) == pytest.approx(1.0, rel=1e-10)


class TestSerialization:
    @pytest.mark.parametrize("tail", ALL_TAILS, ids=lambda t: f"{t.kind}-{t.alpha or t.theta}")
    def test_json_roundtrip(self, tail):
        assert LevyTail.from_json(tail.to_json()) == tail

    def test_dict_shape(self):
        assert LevyTail.gamma(3.0).to_dict() == {"kind": "gamma", "theta": 3.0}
        assert LevyTail.stable(0.5).to_dict() == {"kind": "stable", "alpha": 0.5}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(DomainError):
            LevyTail.from_dict({"kind": "stable", "alpha": 0.5, "beta": 1})
        with pytest.raises(DomainError):
            LevyTail.from_dict({"alpha": 0.5})
