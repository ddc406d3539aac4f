"""Independent oracles for the test suite.

Everything here evaluates defining integrals directly (adaptive
quadrature via mpmath or scipy, or a Lentz continued fraction),
deliberately avoiding the code paths used by the package, so agreement
checks are two-sided.
"""

import math

import mpmath as mp
import numpy as np
import scipy.integrate
import scipy.special as sp

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


def expected_distinct_count(alpha, theta, n):
    """Exact E[K_n], the distinct values among n draws from PD(alpha, theta) (Pitman, Combinatorial Stochastic
    Processes, 2006): (θ/α)[(θ+α)_n/(θ)_n − 1] for α > 0, with rising factorials at 40 digits, and
    Σ_{i<n} θ/(θ+i) at α = 0."""
    if alpha == 0:
        return dp_expected_distinct(theta, n)
    a, t = mp.mpf(repr(float(alpha))), mp.mpf(repr(float(theta)))
    return float(t / a * (mp.rf(t + a, n) / mp.rf(t, n) - 1))


def expected_sum_sq_weights(tail, r, randomized):
    """E sum_i w_i^2 of the normalized order-r negative binomial points of ``tail``, by Campbell's formula.

    With jump intensity c nu (nu the tail's Levy measure) and total T = sum_i J_i,
    E sum J_i^2 / T^2 = int_0^inf u E[c e^{-c psi(u)}] kappa_2(u) du, where
    psi(u) = int (1 - e^{-ux}) nu(dx) and kappa_2(u) = int x^2 e^{-ux} nu(dx).  The
    levels Gamma_i / divisor are a Poisson process of rate c = divisor ~ Gamma(r, 1):
    the mixing draw on the randomized path, Gamma_r on the integer path (given
    Gamma_r, the levels past index r are 1 plus a rate-Gamma_r Poisson process, so
    nu is cut to (0, x*), x* = L^{-1}(1)).  Hence E[c e^{-c psi}] = r / (1 + psi)^{r+1},
    and e^{-psi} at r = 0, whose integer path spans the whole axis.

    Gamma tail (nu = theta x^{-1} e^{-x} dx):
        psi = theta [ln(1+u) + E1((1+u) x*) - E1(x*)], kappa_2 = theta P(2, (1+u) x*) / (1+u)^2;
    generalized gamma (nu = alpha / Gamma(1-alpha) x^{-1-alpha} e^{-x} dx):
        kappa_2 = alpha (1-alpha) (1+u)^{alpha-2} P(2-alpha, (1+u) x*), and psi, integrated by parts,
        (1+u)^alpha P(1-alpha, (1+u) x*) - P(1-alpha, x*) - x*^{-alpha} (e^{-x*} - e^{-(1+u) x*}) / Gamma(1-alpha);
    stable (nu = alpha x^{-1-alpha} dx, whole axis only):
        psi = Gamma(1-alpha) u^alpha, kappa_2 = alpha Gamma(2-alpha) u^{alpha-2}.
    With x* = inf the incomplete terms drop out.  The integral is taken in t = ln u, with
    ln(1 + psi) and ln(u^2 kappa_2) evaluated in log domain: on the cut gamma tail the
    integrand decays only like t^{-(r+1)}, so the range runs far past where u overflows.
    """
    from nbpriors.levy_tails import tail_support_bound

    cut = not randomized and r > 0
    if tail.kind == "stable" and cut:
        raise ValueError("the oracle covers the stable tail on the whole axis only")
    x_star = tail_support_bound(tail) if cut else math.inf
    a = tail.alpha

    def logs(t, log1pu):
        """ln(1 + psi(u)) and ln(u^2 kappa_2(u)) at u = e^t, log1pu = ln(1 + u)."""
        z = x_star * math.exp(min(log1pu, 700.0))  # (1+u) x*; P(., z) = 1 and E1(z) = 0 past the clamp
        if tail.kind == "stable":
            return np.logaddexp(0.0, math.lgamma(1 - a) + a * t), math.log(a * math.gamma(2 - a)) + a * t
        log_u2_ratio = 2.0 * (t - log1pu)  # ln (u / (1+u))^2
        if tail.kind == "gamma":
            edge = sp.exp1(z) - sp.exp1(x_star) if cut else 0.0
            psi = tail.theta * (log1pu + edge)
            return math.log1p(psi), math.log(tail.theta * sp.gammainc(2, z)) + log_u2_ratio
        b = sp.gammainc(1 - a, x_star)  # 1 + psi = (1+u)^alpha P(1-alpha, z) + 1 - b
        if cut:
            b += x_star**-a * (math.exp(-x_star) - math.exp(-z)) / math.gamma(1 - a)
        log1p_psi = a * log1pu + math.log(sp.gammainc(1 - a, z) + (1 - b) * math.exp(-a * log1pu))
        return log1p_psi, math.log(a * (1 - a) * sp.gammainc(2 - a, z)) + a * log1pu + log_u2_ratio

    def integrand(t):
        log1p_psi, log_u2_kappa = logs(t, np.logaddexp(0.0, t))
        if r == 0:
            log_mixed = -math.inf if log1p_psi > 700.0 else -math.expm1(log1p_psi)
        else:
            log_mixed = math.log(r) - (r + 1) * log1p_psi
        return math.exp(log_mixed + log_u2_kappa)  # u du = u^2 dt

    opts = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 500}
    lower = scipy.integrate.quad(integrand, -math.inf, 0.0, **opts)[0]
    return lower + scipy.integrate.quad(integrand, 0.0, math.inf, **opts)[0]


def inverse_series_log_points(cfg, seed, chunk=1024):
    """ln points of an ``NbpConfig``'s series for ``seed`` with every level inverted, L^{-1}(Γ_i / divisor) by
    ``log_tail_inverse``, under the config's truncation: the first ``width`` points, or under the epsilon rule
    up to the first point below epsilon times the running sum (included), at most ``hard_cap`` points."""
    from nbpriors.levy_tails import log_tail_inverse
    from nbpriors.point_processes import _Row

    row = _Row(seed, cfg.r, cfg.randomized)
    if cfg.width is not None:
        return log_tail_inverse(cfg.tail, row.next_levels(cfg.width))
    trunc, log_x = cfg.truncation, np.empty(0)
    while True:
        log_x = np.concatenate((log_x, log_tail_inverse(cfg.tail, row.next_levels(chunk))))
        x = np.exp(log_x - log_x[0])
        below = np.flatnonzero(x / np.cumsum(x) < trunc.epsilon)
        if below.size or log_x.size >= trunc.hard_cap:
            return log_x[:min(int(below[0]) + 1 if below.size else log_x.size, trunc.hard_cap)]
