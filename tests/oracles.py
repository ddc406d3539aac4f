"""Independent oracles for the test suite.

Everything here evaluates defining integrals directly (adaptive
quadrature via mpmath, or a Lentz continued fraction), deliberately
avoiding the code paths used by the package, so agreement checks are
two-sided.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def upper_gamma_quad(a, x):
    """∫_x^∞ t^{a-1} e^{-t} dt by adaptive quadrature; a > -1, x > 0."""
    a = mp.mpf(repr(float(a)))
    x = mp.mpf(repr(float(x)))
    return mp.quad(lambda t: t ** (a - 1) * mp.e ** (-t), [x, x + 1, x + 10, x + 80, mp.inf])


def e1_quad(x):
    """E1(x) by adaptive quadrature of the defining integral."""
    x = mp.mpf(repr(float(x)))
    return mp.quad(lambda t: mp.e ** (-t) / t, [x, x + 1, x + 10, x + 80, mp.inf])


def gamma_survival_quad(shape, x):
    """Q(shape, x) via the quadrature oracle and the complete gamma."""
    return upper_gamma_quad(shape, x) / mp.gamma(mp.mpf(repr(float(shape))))


def log_gamma_quantile_root(shape, y):
    """ln x solving ln P(shape, x) = log1p(-y) at 40 digits, for the double y; also deep in the subnormal range."""
    a = mp.mpf(repr(float(shape)))
    target = mp.log1p(-mp.mpf(repr(float(y))))
    seed = (target + mp.loggamma(a + 1)) / a
    return mp.findroot(lambda t: mp.log(mp.gammainc(a, 0, mp.exp(t), regularized=True)) - target, seed)


def e1_lentz(x, tol=1e-14, max_iter=500):
    """E1(x) = e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...)))), x ≳ 1."""
    x = float(x)
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, max_iter):
        an = -(k * k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    return np.exp(-x) * h


def ks_distance_brute(atoms, weights, cdf, grid_size=1_000_001, lo=0.0, hi=1.0):
    """sup |F - H| on a dense grid augmented with the atoms and their left limits."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(atoms)
    xs = atoms[order]
    cum = np.cumsum(weights[order])
    grid = np.concatenate([np.linspace(lo, hi, grid_size), xs, np.nextafter(xs, -np.inf)])
    idx = np.searchsorted(xs, grid, side="right")
    f = np.concatenate(([0.0], cum))[idx]
    return float(np.max(np.abs(f - cdf(grid))))


def dp_expected_distinct(theta, n):
    """Exact E[K_n] for the Dirichlet process: Σ_{i=0}^{n-1} θ/(θ+i)."""
    i = np.arange(n, dtype=float)
    return float(np.sum(theta / (theta + i)))
