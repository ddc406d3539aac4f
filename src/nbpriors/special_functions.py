"""Special functions backing the Lévy tails and the finite
extended-Dirichlet-process approximation.

Provides log-gamma, Γ(a, x) for a > -1 (E1 being Γ(0, x)), the gamma
survival function Q(a, x), and one safeguarded Newton solver for
ln c + ln Γ(a, x) = ln y, which inverts both the Lévy tails c Γ(-alpha, x)
of ``levy_tails`` and Q(a, x) = Γ(a, x)/Γ(a) and alone decides which seeds
are final (those below ln x = -40).  ``REL_TOL`` and ``MAX_ITER`` fix the
solver's stopping rule; the continued fraction runs to a few ulps.

Every ln Q(s, x) comes from ``_log_q``, one scipy kernel per point chosen
by its own x (DiDonato & Morris, ACM TOMS 12, 1986): log1p(-gammainc)
while P <= ``_P_SWITCH`` = 0.9, log(gammaincc) above.  For s < 1 and x of
order 1, ``gammaincc`` costs 2-5 µs a point against 0.07-0.6 µs; the
complement multiplies P's relative error by P/Q <= 9, so ln Q stays
within 1e-14 (a switch at 0.99 gave 5.9e-14 at s = 0.0075).

Γ(a, x) and the survival inverse are returned in log domain: tail values
decay like e^{-x}, downstream weights use shapes of order 1/n whose
quantiles underflow double precision long before they stop mattering,
and only quantile ratios survive normalization anyway.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sp

from .errors import DomainError, NumericError, as_number, as_positive

EULER_GAMMA = 0.5772156649015328606

_EPS = float(np.finfo(float).eps)

# stopping rule of the Newton inverse; MAX_ITER also bounds the continued fraction
REL_TOL = 1e-12
MAX_ITER = 100
# the continued fraction stops on a Lentz factor this close to 1: a few ulps, so none can stall at 1 +- eps
_CF_TOL = 4.0 * _EPS
# a solver seed below this ln x is final (see log_upper_gamma_inverse)
_SEED_FINAL_MAX = -40.0

_P_SWITCH = 0.9


def _as_array(name: str, values) -> np.ndarray:
    """``values`` as a float array of at least one dimension, converted through ``as_number``."""
    return np.atleast_1d(as_number(name, values, lambda v: np.asarray(v, dtype=float)))


def _log_q(s: float, x) -> np.ndarray:
    """ln Q(s, x) for scalar s > 0 and an array x >= 0: log1p(-P) up to x* = P^{-1}(s, ``_P_SWITCH``), ln Q above."""
    lower = x <= sp.gammaincinv(s, _P_SWITCH)
    out = np.empty_like(x)
    out[lower] = np.log1p(-sp.gammainc(s, x[lower]))
    out[~lower] = np.log(sp.gammaincc(s, x[~lower]))
    return out


def log_gamma(a: float) -> float:
    """Natural logarithm of the gamma function, ln Γ(a).

    Parameters
    ----------
    a : float
        Argument, must be positive and finite.

    Returns
    -------
    float
        ln Γ(a), with relative error at the 1e-15 level (well inside the
        1e-13 contract).
    """
    a = as_positive("a", a)
    return float(sp.gammaln(a))


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = Γ(0, x) = ∫_x^∞ t^{-1} e^{-t} dt, x > 0.

    Strictly decreasing; evaluated by ``log_upper_gamma``.  Where it
    underflows double precision, raises a NumericError whose
    ``best_estimate`` is ln E1(x), as ``tail_value`` of the gamma tail does.
    """
    x = as_positive("x", x)
    log_value = float(log_upper_gamma(0.0, np.asarray([x]))[0])
    value = math.exp(log_value)
    if value == 0.0:
        raise NumericError(f"E1({x}) underflows double precision; log-value is {log_value}", best_estimate=log_value)
    return value


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma function Γ(a, x) = ∫_x^∞ t^{a-1} e^{-t} dt.

    For a in (-1, 0) or (0, ∞) and x > 0, evaluated by ``log_upper_gamma``.
    Returns Γ(a, x) > 0, or 0.0 where it underflows double precision;
    where it overflows, raises a NumericError whose ``best_estimate`` is
    ln Γ(a, x).
    """
    x = as_positive("x", x)
    a = as_number("a", a)
    if not math.isfinite(a) or a == 0.0 or a <= -1.0:
        raise DomainError(f"parameter a must lie in (-1,0) or (0,inf), got {a}")
    log_value = float(log_upper_gamma(a, np.asarray([x]))[0])
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericError(f"Γ(a, x) overflows double precision at a={a}, x={x}", best_estimate=log_value) from None


def log_upper_gamma(a: float, x) -> np.ndarray:
    """ln Γ(a, x) elementwise, for scalar a > -1 and an array of x > 0.

    Up to a switch point scipy supplies ln Γ(a) + ln Q(a, x) for a > 0,
    ln E1(x) for a = 0, and for a in (-1, 0) the recurrence
    Γ(a, x) = (x^a e^{-x} - Γ(a+1, x)) / (-a), whose cancellation costs
    about x/|a| · eps.  ``_log_q`` takes ln Q as log1p(-P) while P <= 0.9,
    where ``gammainc`` is the cheaper kernel and the complement at most
    multiplies P's relative error by 9, and from ``gammaincc`` above.
    Beyond the switch point the Legendre continued fraction (modified
    Lentz) needs no scipy kernel and cannot underflow; each element stops
    once its own Lentz factor is within 4 eps of 1.  The switch
    is x = max(25, a + 1) for a >= 0.  For a < 0 it is where the
    recurrence's error reaches ``REL_TOL`` / 16, kept within [1, 25], so
    it moves below 25 only for |a| < 0.09.  Where that error point lies
    below x = 1 (|a| < 0.0036), Gautschi's series replaces the recurrence
    up to the split (``_upper_gamma_small_a``).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    if a < 0:
        split = min(25.0, max(1.0, -a * REL_TOL / (16.0 * _EPS)))
    else:
        split = max(25.0, a + 1.0)
    near = x <= split
    xn = x[near]
    if a > 0:
        out[near] = sp.gammaln(a) + _log_q(a, xn)
    elif a == 0:
        out[near] = np.log(sp.exp1(xn))
    elif -a * REL_TOL < 16.0 * _EPS:  # the recurrence misses REL_TOL / 16 even at x = 1
        out[near] = np.log(_upper_gamma_small_a(a, xn))
    else:
        lead = a * np.log(xn) - xn
        upper = sp.gammaln(a + 1.0) + _log_q(a + 1.0, xn)
        out[near] = lead + np.log1p(-np.exp(upper - lead)) - math.log(-a)

    xf = x[~near]
    tiny = 1e-300
    b = xf + 1.0 - a
    c = np.full_like(xf, 1.0 / tiny)
    d = 1.0 / b
    h = d
    active = np.ones(xf.shape, dtype=bool)
    for i in range(1, MAX_ITER + 1):
        if not active.any():
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(active, h * delta, h)
        active &= np.abs(delta - 1.0) >= _CF_TOL
    out[~near] = a * np.log(xf) - xf + np.log(h)
    if active.any():
        raise NumericError(
            f"continued fraction for Gamma({a}, x) did not converge in {MAX_ITER} iterations", best_estimate=out
        )
    return out


def _upper_gamma_small_a(a: float, x: np.ndarray) -> np.ndarray:
    """Γ(a, x) for -0.0036 < a < 0 and 0 < x <= 1, free of cancellation at tiny |a| (Gautschi, ACM TOMS 5,
    1979): (Γ(1+a) - 1)/a - expm1(a ln x)/a - x^a Σ_{k>=1} (-x)^k / (k! (a+k)).  The first term is
    h exprel(a h) with h = ln Γ(1+a)/a = -γ + Σ_{k>=2} (-1)^k ζ(k) a^{k-1}/k, cut after k = 12, whose term
    is below 1e-28; the sum over k stops at 20, where 1/20! < 1e-18."""
    k = np.arange(2, 13)
    h = np.polynomial.polynomial.polyval(a, np.concatenate(([-EULER_GAMMA], (-1.0) ** k * sp.zeta(k) / k)))
    lx = np.log(x)
    k = np.arange(1, 21)
    tail = np.sum(np.cumprod(-x[:, np.newaxis] / k, axis=1) / (a + k), axis=1)
    return h * sp.exprel(a * h) - lx * sp.exprel(a * lx) - np.exp(a * lx) * tail


def gamma_survival(shape: float, x: float) -> float:
    """Gamma survival function Q(shape, x) = Γ(shape, x)/Γ(shape).

    Strictly decreasing in x with Q(shape, 0) = 1; remains accurate for
    shapes down to the 1e-4 range, where the library switches to its
    small-shape series internally.
    """
    shape = as_positive("shape", shape)
    x = as_number("x", x)
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"x must be a nonnegative finite real, got {x}")
    return math.exp(_log_q(shape, np.asarray([x]))[0])


def gamma_quantile_upper(shape: float, y: float) -> float:
    """Log-domain inverse of the gamma survival function.

    Returns ln x where Q(shape, x) = y, for y in (0, 1).  Below
    ln x = -40 the small-x expansion P(a, x) ≈ x^a / Γ(a+1) is exact to
    machine precision and is returned as it is; above,
    ``log_upper_gamma_inverse`` resolves it to
    |ln Q(shape, x) - ln y| <= ``REL_TOL``.
    """
    y = as_number("y", y)
    if not (0.0 < y < 1.0):
        raise DomainError(f"y must lie strictly inside (0,1), got {y}")
    return float(gamma_quantile_upper_many(shape, np.asarray([y]))[0])


def gamma_quantile_upper_many(shape: float, y) -> np.ndarray:
    """Vectorized ``gamma_quantile_upper`` over an array of survival levels; a scalar level gives a 1-element array."""
    shape = as_positive("shape", shape)
    y = _as_array("y", y)
    if y.size and not np.all((y > 0.0) & (y < 1.0)):
        raise DomainError("all survival levels must lie strictly inside (0,1)")

    # small x: P(a, x) ≈ x^a / Γ(a+1), final below _SEED_FINAL_MAX; scipy seeds the rest
    t = (np.log1p(-y) + sp.gammaln(shape + 1.0)) / shape
    far = t >= _SEED_FINAL_MAX
    t[far] = np.log(sp.gammainccinv(shape, y[far]))
    # Q = Γ(shape, x) / Γ(shape), so c = 1/Γ(shape)
    return log_upper_gamma_inverse(shape, -sp.gammaln(shape), np.log(y), t)


def log_upper_gamma_inverse(a: float, log_c: float, log_y, t0) -> np.ndarray:
    """Solve ln c + ln Γ(a, e^t) = ln y for t = ln x, elementwise, for scalar a > -1.

    ``t0`` holds the caller's seeds.  A seed below ln x = -40
    (``_SEED_FINAL_MAX``) is returned as it is: the callers seed there
    with a small-x expansion whose dropped term is O(x) relative, below
    e^-40 ≈ 4e-18 and so below double rounding, and Newton cannot improve
    on it; below ln x ≈ -708, x is subnormal and too coarse to carry the
    root at all.  Every other point is refined by Newton on
    h(t) = ln c + ln Γ(a, e^t) - ln y, with d ln Γ(a, e^t)/dt =
    -x^a e^{-x} / Γ(a, x).  Every point keeps its own bracket and stops on
    its own, once |h| <= ``REL_TOL`` or its bracket is narrower than
    ``REL_TOL``.  A step that leaves the bracket or is not finite becomes a
    bisection, or a step of ln 4 towards the root while that side of the
    bracket is still open.  A point still active after ``MAX_ITER`` steps
    raises a NumericError.
    """
    t = np.array(t0, dtype=float)
    active = t >= _SEED_FINAL_MAX
    lo = np.full_like(t, -np.inf)
    hi = np.full_like(t, np.inf)
    # a step that is not finite falls back below, and |h| alone decides convergence: numpy's warnings add nothing
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            ti = t[idx]
            lt = log_c + log_upper_gamma(a, np.exp(ti))
            h = lt - log_y[idx]
            above = h > 0  # the root lies to the right; NaN (x overflowed) counts as overshoot
            lo[idx] = np.where(above, ti, lo[idx])
            hi[idx] = np.where(above, hi[idx], ti)
            l, u = lo[idx], hi[idx]
            newton = ti + h / np.exp(log_c + a * ti - np.exp(ti) - lt)
            open_step = np.where(above, math.log(4.0), -math.log(4.0))
            fallback = np.where(np.isfinite(l) & np.isfinite(u), 0.5 * (l + u), ti + open_step)
            done = (np.abs(h) <= REL_TOL) | (u - l <= REL_TOL)
            inside = np.isfinite(newton) & (newton > l) & (newton < u)
            t[idx] = np.where(done, ti, np.where(inside, newton, fallback))
            active[idx[done]] = False
    if active.any():
        raise NumericError(
            f"inverse of Gamma({a}, x) left {int(active.sum())} of {t.size} points unconverged", best_estimate=t
        )
    return t
