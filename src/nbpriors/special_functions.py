"""Special functions backing the Lévy tails and the finite
extended-Dirichlet-process approximation.

Provides log-gamma, the upper incomplete gamma function Γ(a, x) for
a > -1 (E1 being Γ(0, x)), the gamma survival function Q(a, x), and the
inverse of the survival function.

Γ(a, x) and the survival inverse are returned in log domain: tail values
decay like e^{-x}, downstream weights use shapes of order 1/n whose
quantiles underflow double precision long before they stop mattering,
and only quantile ratios survive normalization anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from .errors import DomainError, NumericError

EULER_GAMMA = 0.5772156649015328606

_LOG_TINY = math.log(1e-300)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Precision:
    """Convergence control for the iterative evaluations.

    Attributes
    ----------
    rel_tol : float
        Relative tolerance on the converged value (or on the residual of
        an inversion, measured relative to the target).
    abs_tol : float
        Absolute floor added to the tolerance; zero disables it.
    max_iter : int
        Hard cap on iterations before a NumericError is raised.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 0.0
    max_iter: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0):
            raise DomainError(f"abs_tol must be nonnegative and finite, got {self.abs_tol}")
        if int(self.max_iter) < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter}")


DEFAULT_PRECISION = Precision()


def _check_positive(name: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite real, got {value}")
    return value


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
    a = _check_positive("a", a)
    return float(sp.gammaln(a))


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = Γ(0, x) = ∫_x^∞ t^{-1} e^{-t} dt, x > 0.

    Strictly decreasing; evaluated by ``log_upper_gamma``.
    """
    x = _check_positive("x", x)
    value = float(np.exp(log_upper_gamma(0.0, np.asarray([x]))[0]))
    if value == 0.0:
        raise NumericError(f"E1({x}) underflows double precision", best_estimate=0.0)
    return value


def upper_incomplete_gamma(a: float, x: float, prec: Precision = DEFAULT_PRECISION) -> float:
    """Upper incomplete gamma function Γ(a, x) = ∫_x^∞ t^{a-1} e^{-t} dt.

    For a in (-1, 0) or (0, ∞) and x > 0, evaluated by ``log_upper_gamma``
    with ``prec`` controlling its continued fraction.  Returns Γ(a, x) > 0,
    or 0.0 where it underflows double precision.
    """
    x = _check_positive("x", x)
    a = float(a)
    if not math.isfinite(a) or a == 0.0 or a <= -1.0:
        raise DomainError(f"parameter a must lie in (-1,0) or (0,inf), got {a}")
    return math.exp(log_upper_gamma(a, np.asarray([x]), prec)[0])


def log_upper_gamma(a: float, x, prec: Precision = DEFAULT_PRECISION) -> np.ndarray:
    """ln Γ(a, x) elementwise, for scalar a > -1 and an array of x > 0.

    Up to a switch point scipy supplies ln Γ(a) + ln Q(a, x) for a > 0,
    ln E1(x) for a = 0, and for a in (-1, 0) the recurrence
    Γ(a, x) = (x^a e^{-x} - Γ(a+1, x)) / (-a), whose cancellation costs
    about x/|a| · eps.  Beyond it the Legendre continued fraction (modified
    Lentz) needs no scipy kernel and cannot underflow; each element stops
    once its own Lentz factor is within ``prec.rel_tol`` of 1.  The switch
    is x = max(25, a + 1) for a >= 0.  For a < 0 it is where the
    recurrence's error reaches ``prec.rel_tol`` / 16, kept within [1, 25],
    so at the default ``rel_tol`` it moves below 25 only for |a| < 0.09.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    if a < 0:
        split = min(25.0, max(1.0, -a * prec.rel_tol / (16.0 * _EPS)))
    else:
        split = max(25.0, a + 1.0)
    near = x <= split
    xn = x[near]
    if a > 0:
        out[near] = sp.gammaln(a) + np.log(sp.gammaincc(a, xn))
    elif a == 0:
        out[near] = np.log(sp.exp1(xn))
    else:
        lead = a * np.log(xn) - xn
        upper = sp.gammaln(a + 1.0) + np.log(sp.gammaincc(a + 1.0, xn))
        out[near] = lead + np.log1p(-np.exp(upper - lead)) - math.log(-a)

    xf = x[~near]
    tiny = 1e-300
    b = xf + 1.0 - a
    c = np.full_like(xf, 1.0 / tiny)
    d = 1.0 / b
    h = d
    active = np.ones(xf.shape, dtype=bool)
    for i in range(1, prec.max_iter + 1):
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
        active &= np.abs(delta - 1.0) >= prec.rel_tol
    out[~near] = a * np.log(xf) - xf + np.log(h)
    if active.any():
        raise NumericError(
            f"continued fraction for Gamma({a}, x) did not converge in {prec.max_iter} iterations", best_estimate=out
        )
    return out


def gamma_survival(shape: float, x: float) -> float:
    """Gamma survival function Q(shape, x) = Γ(shape, x)/Γ(shape).

    Strictly decreasing in x with Q(shape, 0) = 1; remains accurate for
    shapes down to the 1e-4 range, where the library switches to its
    small-shape series internally.
    """
    shape = _check_positive("shape", shape)
    x = float(x)
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"x must be a nonnegative finite real, got {x}")
    if x == 0.0:
        return 1.0
    return float(sp.gammaincc(shape, x))


def gamma_quantile_upper(shape: float, y: float, prec: Precision = DEFAULT_PRECISION) -> float:
    """Log-domain inverse of the gamma survival function.

    Returns ln x where Q(shape, x) = y, for y in (0, 1).  Whenever
    exp(result) is representable, the roundtrip satisfies
    |Q(shape, exp(result)) - y| <= 1e-10; far below the underflow
    threshold the small-x expansion P(a, x) ≈ x^a / Γ(a+1) is exact to
    machine precision and is used directly.
    """
    shape = _check_positive("shape", shape)
    y = float(y)
    if not (0.0 < y < 1.0):
        raise DomainError(f"y must lie strictly inside (0,1), got {y}")
    return float(gamma_quantile_upper_many(shape, np.asarray([y]), prec)[0])


def gamma_quantile_upper_many(shape: float, y, prec: Precision = DEFAULT_PRECISION) -> np.ndarray:
    """Vectorized ``gamma_quantile_upper`` over an array of survival levels."""
    shape = _check_positive("shape", shape)
    y = np.asarray(y, dtype=float)
    if y.size and not np.all((y > 0.0) & (y < 1.0)):
        raise DomainError("all survival levels must lie strictly inside (0,1)")

    with np.errstate(divide="ignore", over="ignore"):
        x0 = sp.gammainccinv(shape, y)
    seeded = np.isfinite(x0) & (x0 > 0.0)
    t = np.where(
        seeded,
        np.log(np.where(seeded, x0, 1.0)),
        (np.log1p(-y) + sp.gammaln(shape + 1.0)) / shape,
    )

    # Newton polish in t = ln x where x is representable; elsewhere the
    # small-x asymptote is already exact to machine precision.
    active = t > _LOG_TINY
    if active.any():
        lga = sp.gammaln(shape)
        tol = np.maximum(prec.abs_tol, np.maximum(1e-13, prec.rel_tol * y))
        for _ in range(prec.max_iter):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            ti = t[idx]
            xi = np.exp(ti)
            resid = _survival_minus_target(shape, ti, xi, y[idx])
            done = np.abs(resid) <= tol[idx]
            active[idx[done]] = False
            live = ~done
            if not live.any():
                break
            j = idx[live]
            dqdt = -np.exp(shape * t[j] - np.exp(t[j]) - lga)
            t[j] = t[j] - resid[live] / dqdt
        else:
            bad = np.flatnonzero(active)
            xi = np.exp(t[bad])
            resid = np.abs(_survival_minus_target(shape, t[bad], xi, y[bad]))
            if np.any(resid > 1e-10):
                raise NumericError(
                    f"survival inversion failed to converge for {bad.size} of {y.size} levels",
                    best_estimate=t,
                )
    return t


def _survival_minus_target(shape, t, x, y):
    """Q(shape, e^t) - y, using the small-x series where exp would cancel."""
    small = x < 0.1
    out = np.empty_like(x)
    if small.any():
        out[small] = -np.expm1(_log_lower_regularized_series(shape, t[small], x[small])) - y[small]
    rest = ~small
    if rest.any():
        out[rest] = sp.gammaincc(shape, x[rest]) - y[rest]
    return out


def _log_lower_regularized_series(shape, t, x):
    """ln P(shape, x) for small x via P = x^a e^{-x}/Γ(a+1) · Σ x^k Γ(a+1)/Γ(a+1+k)."""
    m = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 60):
        term = term * x / (shape + k)
        m = m + term
        if np.all(term < 1e-17 * m):
            break
    return shape * t - x - sp.gammaln(shape + 1.0) + np.log(m)
