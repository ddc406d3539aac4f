"""Property tests of the sampling contract, over ordinary and extreme parameters.

Every record is built through ``experiments._family``, as the studies and
the CLI build it.  The invariants:

* a block's rows equal the seeds' single draws, bit for bit;
* a fixed-count draw is a prefix of the epsilon-rule draw of its seed, for
  every tail and both sampling paths, and n sticks are a prefix of more;
* every row is finite and non-negative and its exact sum is within 1e-12 of 1, the
  ``DiscreteMeasure`` tolerance;
* every exception is an ``NbpError``, and no warning is raised.

The parameter ranges below are part of the contract: they are not to be
narrowed so that a change passes.

* alpha: ordinary [0.01, 0.99]; extreme [10^-323.3, 1e-6] (down to the
  smallest subnormal double), or within 1e-6 of 1;
* theta: ordinary [0.01, 100]; extreme [1e-300, 1e-6] or [1e5, 1e300].
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbpriors import experiments
from nbpriors.errors import NbpError
from nbpriors.levy_tails import LevyTail
from nbpriors.point_processes import TruncationPolicy, sample_log_points


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


ALPHA_ORDINARY = st.floats(0.01, 0.99)
ALPHA_EXTREME = st.one_of(log_uniform(-323.3, -6), log_uniform(-16, -6).map(lambda d: 1.0 - d))
THETA_ORDINARY = log_uniform(-2, 2)
THETA_EXTREME = st.one_of(log_uniform(-300, -6), log_uniform(5, 300))

ORDERS = st.one_of(st.integers(0, 30), st.floats(0.01, 30.0))
SEEDS = st.tuples(st.integers(0, 2**32), st.integers(0, 50))
FIXED_COUNTS = st.integers(1, 600).map(TruncationPolicy.fixed)
TRUNCATIONS = st.one_of(
    FIXED_COUNTS,
    st.builds(TruncationPolicy.epsilon_rule, log_uniform(-9, np.log10(0.5)), st.integers(1, 4096)),
)

SETTINGS = settings(derandomize=True, deadline=None, database=None, suppress_health_check=list(HealthCheck))


def tails(alpha, theta):
    return st.one_of(
        alpha.map(LevyTail.stable), alpha.map(LevyTail.generalized_gamma), theta.map(LevyTail.gamma)
    )


def specs(alpha, theta):
    """(process, params, truncation) triples for every process ``_family`` reads: a series takes either
    truncation, stick breaking a fixed count (its stick count) and the extended DP none (its level n is a
    parameter)."""

    def series(process, params):
        return st.tuples(st.just(process), params, TRUNCATIONS)

    return st.one_of(
        series("dirichlet", st.fixed_dictionaries({"theta": theta})),
        series("stable", st.fixed_dictionaries({"alpha": alpha})),
        series("pkp", st.fixed_dictionaries(
            {"r": ORDERS, "tail": tails(alpha, theta).map(LevyTail.to_dict)}, optional={"randomized": st.booleans()}
        )),
        series("pdp_series", st.fixed_dictionaries({"alpha": alpha, "theta": theta})),
        series("pdp_series", st.fixed_dictionaries({"alpha": alpha, "theta": theta, "r": st.integers(0, 30)})),
        st.tuples(st.just("pdp_stick"),
                  st.fixed_dictionaries({"alpha": alpha, "theta": theta, "ranked": st.booleans()}), FIXED_COUNTS),
        st.tuples(st.just("extended_dp"),
                  st.fixed_dictionaries({"concentration": theta, "r": st.integers(0, 5), "n": st.integers(1, 600)}),
                  st.none()),
    )


def draw(family, seeds):
    """The record's rows, or the exception it raised; any exception but an NbpError fails the test."""
    try:
        return family.draw(seeds)
    except NbpError as exc:
        return exc


def check_block_against_singles(spec, seeds):
    process, params, truncation = spec
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            family = experiments._family(process, params, truncation)
        except NbpError:
            return
        block = draw(family, seeds)
        singles = [draw(family, [seed]) for seed in seeds]
    if isinstance(block, NbpError):
        # the first seed that fails raises for the block
        assert any(isinstance(single, NbpError) for single in singles)
        return
    assert len(block) == len(seeds)
    for row, single in zip(block, singles):
        assert not isinstance(single, NbpError), single
        assert np.array_equal(row, single[0])
        assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
        assert abs(math.fsum(row.tolist()) - 1.0) <= 1e-12
        if family.width is not None:
            assert row.size == family.width


def check_prefix(r, tail, randomized, n, epsilon, hard_cap, seed):
    params = {"r": r, "tail": tail.to_dict(), "randomized": randomized}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fixed = experiments._family("pkp", params, TruncationPolicy.fixed(n, hard_cap=max(n, hard_cap)))
            rule = experiments._family("pkp", params, TruncationPolicy.epsilon_rule(epsilon, hard_cap=hard_cap))
        except NbpError:
            return
        try:
            (head,) = sample_log_points(fixed, [seed])
        except NbpError:
            head = None
        try:
            (series,) = sample_log_points(rule, [seed])
        except NbpError:
            return
    if head is None:
        return
    common = min(len(head), len(series))
    assert np.array_equal(head.log_points[:common], series.log_points[:common])


@settings(SETTINGS, max_examples=400)
@given(spec=specs(ALPHA_ORDINARY, THETA_ORDINARY), seeds=st.lists(SEEDS, min_size=1, max_size=3, unique=True))
def test_ordinary_parameters_keep_the_contract(spec, seeds):
    check_block_against_singles(spec, seeds)


@settings(SETTINGS, max_examples=400)
@given(spec=specs(st.one_of(ALPHA_ORDINARY, ALPHA_EXTREME), st.one_of(THETA_ORDINARY, THETA_EXTREME)),
       seeds=st.lists(SEEDS, min_size=1, max_size=3, unique=True))
def test_extreme_parameters_keep_the_contract(spec, seeds):
    check_block_against_singles(spec, seeds)


@settings(SETTINGS, max_examples=300)
@given(r=st.integers(0, 30), randomized=st.booleans(),
       tail=tails(st.one_of(ALPHA_ORDINARY, ALPHA_EXTREME), st.one_of(THETA_ORDINARY, THETA_EXTREME)),
       n=st.integers(2, 3000), epsilon=log_uniform(-9, np.log10(0.5)), hard_cap=st.integers(2, 4096),
       seed=SEEDS)
def test_fixed_count_draw_is_a_prefix_of_the_epsilon_rule_draw(r, randomized, tail, n, epsilon, hard_cap, seed):
    check_prefix(r, tail, randomized, n, epsilon, hard_cap, seed)


def check_stick_prefix(alpha, theta, n, extra, seed):
    """The n-stick row's first n weights are the (n + extra)-stick row's within 1e-13 relative: the Beta
    fractions are a prefix, and only the rounding of each row's normalizing sum differs."""
    params = {"alpha": alpha, "theta": theta}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short, long = (experiments._family("pdp_stick", params, TruncationPolicy.fixed(sticks)).draw([seed])[0]
                       for sticks in (n, n + extra))
    assert np.all(np.abs(short[:n] - long[:n]) <= 1e-13 * long[:n])


@settings(SETTINGS, max_examples=200)
@given(alpha=st.one_of(st.just(0.0), ALPHA_ORDINARY, ALPHA_EXTREME), theta=st.one_of(THETA_ORDINARY, THETA_EXTREME),
       n=st.integers(1, 600), extra=st.integers(1, 2400), seed=SEEDS)
def test_fewer_sticks_draw_a_prefix_of_more_sticks(alpha, theta, n, extra, seed):
    check_stick_prefix(alpha, theta, n, extra, seed)
