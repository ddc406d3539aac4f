"""Decreasing Lévy tail bijections L : (0, ∞) → (0, ∞) and their inverses.

Three kinds are supported:

* ``stable``:             L(x) = x^{-alpha},                     alpha in (0, 1)
* ``gamma``:              L(x) = theta * E1(x),                  theta > 0
* ``generalized_gamma``:  L(x) = (alpha / Γ(1-alpha)) Γ(-alpha, x)

Each is strictly decreasing with L(0+) = ∞ and L(∞) = 0.  The gamma and
generalized-gamma kinds are one family, c Γ(-alpha, x) with alpha = 0 and
c = theta for gamma, evaluated by one log Γ(a, x) and inverted by
``special_functions.log_upper_gamma_inverse``, the one Newton solver that
also inverts the gamma survival function of the extended Dirichlet
process.  This module supplies the seeds; the solver decides which are
final (those below ln x = -40).  L^{-1} maps arrival levels to jump sizes,
in linear and log domain (gamma-kind jumps decay like exp(-y/theta) and
underflow); the sampler inverts generalized-gamma levels only below L(x*),
x* = 1, and thins stable candidates past it (``point_processes``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from .errors import DomainError, NumericError, as_json, as_number, as_object, as_positive, read_field
from .special_functions import EULER_GAMMA, _as_array, log_upper_gamma, log_upper_gamma_inverse

KINDS = ("stable", "gamma", "generalized_gamma")


@dataclass(frozen=True)
class LevyTail:
    """A Lévy tail measure, identified by kind and its parameter.

    ``alpha`` is the stable index (stable and generalized_gamma kinds),
    ``theta`` the total-mass parameter of the gamma kind, stored as the
    float it was checked as (``LevyTail("stable", "0.5") == LevyTail.stable(0.5)``).
    """

    kind: str
    alpha: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown tail kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("stable", "generalized_gamma"):
            alpha = None if self.alpha is None else as_number("alpha", self.alpha)
            if alpha is None or not (0.0 < alpha < 1.0):
                raise DomainError(f"{self.kind} tail needs alpha in (0,1), got {alpha}")
            if self.theta is not None:
                raise DomainError(f"{self.kind} tail does not take theta")
            object.__setattr__(self, "alpha", alpha)
        else:
            if self.alpha is not None:
                raise DomainError("gamma tail does not take alpha")
            object.__setattr__(self, "theta", as_positive("theta", self.theta))

    @classmethod
    def stable(cls, alpha: float) -> "LevyTail":
        return cls(kind="stable", alpha=alpha)

    @classmethod
    def gamma(cls, theta: float) -> "LevyTail":
        return cls(kind="gamma", theta=theta)

    @classmethod
    def generalized_gamma(cls, alpha: float) -> "LevyTail":
        return cls(kind="generalized_gamma", alpha=alpha)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.theta is not None:
            out["theta"] = self.theta
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LevyTail":
        kind = read_field("tail", as_object("tail", data, ("kind", "alpha", "theta")), "kind", str)
        return cls(kind=kind, alpha=data.get("alpha"), theta=data.get("theta"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LevyTail":
        return cls.from_dict(as_json("tail JSON", text))


def _as_positive_array(name: str, values) -> np.ndarray:
    arr = _as_array(name, values)
    if arr.size and not np.all(np.isfinite(arr) & (arr > 0)):
        raise DomainError(f"{name} must be positive and finite")
    return arr


# ---------------------------------------------------------------------------
# tail evaluation


def _family(tail: LevyTail) -> tuple[float, float]:
    """(ln c, alpha) such that L(x) = c Γ(-alpha, x), for the non-stable kinds."""
    if tail.kind == "gamma":
        return math.log(tail.theta), 0.0
    return math.log(tail.alpha) - float(sp.gammaln(1.0 - tail.alpha)), tail.alpha


def log_tail_value(tail: LevyTail, x) -> np.ndarray:
    """ln L(x) elementwise; stable on the full positive axis."""
    x = _as_positive_array("x", x)
    if tail.kind == "stable":
        return -tail.alpha * np.log(x)
    log_c, alpha = _family(tail)
    return log_c + log_upper_gamma(-alpha, x)


def _exp_checked(log_value: float, what: str, at: str) -> float:
    """exp(log_value), the tail ``what`` ("value" or "inverse") at ``at``; where that underflows or
    overflows double precision, a NumericError carrying ``log_value``."""
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
    if value == 0.0 or value == math.inf:
        flow = "underflows" if value == 0.0 else "overflows"
        raise NumericError(f"tail {what} {flow} double precision at {at}; log-{what} is {log_value}",
                           best_estimate=log_value)
    return value


def tail_value(tail: LevyTail, x: float) -> float:
    """L(x) for scalar x > 0; a NumericError carries ln L(x) where L(x) under- or overflows double precision."""
    return _exp_checked(float(log_tail_value(tail, as_number("x", x))[0]), "value", f"x={x}")


# ---------------------------------------------------------------------------
# tail inversion


# at a subnormal alpha, 1/alpha overflows: the closed form and the small-x seed are then ln x = +-inf,
# an exact zero, or an infinite point that the row normaliser rejects
@np.errstate(over="ignore")
def log_tail_inverse(tail: LevyTail, y) -> np.ndarray:
    """ln L^{-1}(y) elementwise: the unique x with L(x) = y, in log domain."""
    y = _as_positive_array("y", y)
    if tail.kind == "stable":
        return -np.log(y) / tail.alpha
    log_c, alpha = _family(tail)
    ly = np.log(y)
    # small x: L ~ theta (-ln x - gamma) for alpha = 0, else x^{-alpha}/Γ(1-alpha) - 1;
    # the solver keeps this seed as it is below ln x = -40
    if alpha == 0.0:
        t = -y / math.exp(log_c) - EULER_GAMMA
    else:
        t = -(np.log1p(y) + sp.gammaln(1.0 - alpha)) / alpha
    # large x: L ~ c x^{-1-alpha} e^{-x}, so x ~ w - (1+alpha) ln w with w = ln(c/y) > 1;
    # that seed is at least ln 0.61, so it is always refined
    w = np.maximum(log_c - ly, 1.0)
    t = np.where(w > 1.0, np.log(w - (1.0 + alpha) * np.log(w)), t)
    return log_upper_gamma_inverse(-alpha, log_c, ly, t)


def tail_inverse(tail: LevyTail, y: float) -> float:
    """L^{-1}(y) for scalar y > 0, resolved to |ln L(x) - ln y| <= REL_TOL or,
    where L's own rounding error is larger (alpha near 0), to ln x within REL_TOL.
    A NumericError carries ln L^{-1}(y) where L^{-1}(y) under- or overflows double precision."""
    return _exp_checked(float(log_tail_inverse(tail, as_number("y", y))[0]), "inverse", f"y={y}")


def tail_support_bound(tail: LevyTail) -> float:
    """Upper endpoint L^{-1}(1) of the negative binomial process support, through ``tail_inverse``."""
    return tail_inverse(tail, 1.0)
