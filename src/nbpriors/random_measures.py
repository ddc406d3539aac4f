"""Constructors for random discrete probability measures.

All constructors produce a :class:`DiscreteMeasure`: finitely many atoms
with strictly positive weights summing to one, plus a provenance record
sufficient to reproduce the draw.  Weight vectors are computed in log
domain and normalized with a log-sum-exp reduction; entries whose
normalized weight underflows to an exact zero are dropped together with
their atoms.

The sampler family:

* ``sample_pkp``                — normalized negative binomial points on
  i.i.d. atoms (order r, any supported tail);
* ``sample_dp``                 — Dirichlet process, the r = 0 gamma-tail
  special case;
* ``sample_stable_normalized``  — r = 0 with the stable tail;
* ``sample_extended_dp_finite`` — the finite gamma-quantile approximation
  of the r-order extension of the Dirichlet process;
* ``sample_pdp_series``         — Poisson-Dirichlet process PD(alpha,
  theta) through the generalized-gamma tail with gamma-randomized
  intensity of order theta/alpha;
* ``sample_pdp_stick_breaking`` — the classical GEM / ranked
  Poisson-Dirichlet stick-breaking construction.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import (
    STREAM_ARRIVALS,
    STREAM_ATOMS,
    STREAM_DRAWS,
    seed_tuple,
    spawn_generator,
)
from .errors import (
    DegenerateTruncationError,
    DomainError,
    as_number,
)
from .levy_tails import LevyTail
from .point_processes import (
    NbpConfig,
    PointSeries,
    TruncationPolicy,
    gamma_arrivals,
    sample_log_points,
)
from .special_functions import gamma_quantile_upper_many

SCHEMA_VERSION = 1

_WEIGHT_SUM_TOL = 1e-12


@dataclass
class BaseMeasure:
    """Diffuse atom-location distribution H.

    ``sampler(rng, size)`` draws i.i.d. atoms; ``cdf`` (optional) is
    needed by the Kolmogorov-distance harness.
    """

    label: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray] | None = None


def _uniform_sampler(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.random(size)


def _uniform_cdf(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0)


def uniform_base() -> BaseMeasure:
    """Uniform[0, 1] base measure, the default throughout."""
    return BaseMeasure(label="uniform", sampler=_uniform_sampler, cdf=_uniform_cdf)


@dataclass
class DiscreteMeasure:
    """A finite discrete probability measure with provenance.

    Invariants: equal-length atom/weight arrays, all weights strictly
    positive, weights summing to one within 1e-12, and strictly
    decreasing weights whenever ``sorted_by_weight`` is set.
    """

    atoms: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)
    sorted_by_weight: bool = False

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size:
            raise DomainError("atoms and weights must be 1-d arrays of equal length")
        if atoms.size < 1:
            raise DomainError("a measure needs at least one atom")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise DomainError("weights must be strictly positive and finite")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        if self.sorted_by_weight and weights.size > 1 and not np.all(np.diff(weights) < 0):
            raise DomainError("sorted_by_weight is set but weights are not strictly decreasing")
        self.atoms = atoms
        self.weights = weights

    def __len__(self):
        return self.atoms.size

    def ranked(self) -> "DiscreteMeasure":
        """Copy with atoms reordered by decreasing weight."""
        order = np.argsort(-self.weights, kind="stable")
        return DiscreteMeasure(
            atoms=self.atoms[order],
            weights=self.weights[order],
            provenance=dict(self.provenance),
            sorted_by_weight=bool(np.all(np.diff(self.weights[order]) < 0)),
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteMeasure":
        try:
            return cls(
                atoms=np.asarray(data["atoms"], dtype=float),
                weights=np.asarray(data["weights"], dtype=float),
                provenance=data.get("provenance", {}),
            )
        except KeyError as exc:
            raise DomainError(f"measure JSON lacks field {exc}") from exc

    def to_json(self, **dumps_kwargs) -> str:
        kwargs = {"sort_keys": True}
        kwargs.update(dumps_kwargs)
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        return cls.from_json_dict(json.loads(text))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("atom,weight\n")
        for a, w in zip(self.atoms, self.weights):
            buf.write(f"{float(a)!r},{float(w)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteMeasure":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != "atom,weight":
            raise DomainError("measure CSV must start with an 'atom,weight' header")
        atoms, weights = [], []
        for ln in lines[1:]:
            a, w = ln.split(",")
            atoms.append(float(a))
            weights.append(float(w))
        return cls(atoms=np.asarray(atoms), weights=np.asarray(weights))


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class PdpParams:
    """Two-parameter Poisson-Dirichlet parameters (alpha, theta), theta > 0."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not (0.0 < as_number("alpha", self.alpha) < 1.0):
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")
        theta = as_number("theta", self.theta)
        if not (math.isfinite(theta) and theta > 0):
            raise DomainError(f"theta must be positive (the series route needs theta > 0), got {self.theta}")

    @property
    def r_derived(self) -> float:
        return float(self.theta) / float(self.alpha)


@dataclass(frozen=True)
class ExtendedDpParams:
    """Finite approximation parameters: concentration, order r, level n > r + 1."""

    concentration: float
    r: int
    n: int

    def __post_init__(self):
        concentration = as_number("concentration", self.concentration)
        if not (math.isfinite(concentration) and concentration > 0):
            raise DomainError(f"concentration must be positive, got {self.concentration}")
        r = as_number("r", self.r)
        if not (r >= 0 and r.is_integer()):
            raise DomainError(f"r must be a nonnegative integer, got {self.r}")
        if as_number("n", self.n, int) <= int(r) + 1:
            raise DomainError(f"need n > r + 1, got n={self.n}, r={self.r}")


# ---------------------------------------------------------------------------
# shared assembly


def _provenance(process: str, params: dict, truncation, seed, warning: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "process": process,
        "params": params,
        "truncation": truncation.to_dict() if truncation is not None else None,
        "seed": list(seed_tuple(seed)),
        "generator_id": "philox",
        "truncation_warning": bool(warning),
    }


def _measure_from_log_weights(log_w: np.ndarray, atoms: np.ndarray, provenance: dict, sorted_by_weight: bool) -> DiscreteMeasure:
    # subtract the whole log normalizer before exponentiating: dividing
    # exp(log_w - top) by its sum would flush subnormal weights to zero
    top = np.max(log_w)
    w = np.exp(log_w - (top + math.log(np.sum(np.exp(log_w - top)))))
    keep = w > 0.0
    if keep.sum() < 2:
        raise DegenerateTruncationError("fewer than two atoms carry representable weight")
    w = w[keep]
    atoms = atoms[keep]
    w = w / math.fsum(w.tolist())
    if sorted_by_weight and not np.all(np.diff(w) < 0):
        sorted_by_weight = False  # repeated log-points can tie after rounding
    return DiscreteMeasure(atoms=atoms, weights=w, provenance=provenance, sorted_by_weight=sorted_by_weight)


@dataclass(frozen=True)
class SeriesProcess:
    """A process whose weights are the normalized negative binomial points:
    its provenance name and parameters, order r, tail and sampling path."""

    process: str
    params: dict
    r: float
    tail: LevyTail
    randomized: bool | None = None

    @classmethod
    def pkp(cls, r: float, tail: LevyTail, randomized: bool | None = None) -> "SeriesProcess":
        params = {"r": float(r), "tail": tail.to_dict()}
        if randomized is not None:
            params["randomized"] = bool(randomized)
        return cls("pkp", params, r, tail, randomized)

    @classmethod
    def dirichlet(cls, theta: float) -> "SeriesProcess":
        return cls("dirichlet", {"theta": float(theta)}, 0.0, LevyTail.gamma(theta))

    @classmethod
    def stable(cls, alpha: float) -> "SeriesProcess":
        return cls("stable", {"alpha": float(alpha)}, 0.0, LevyTail.stable(alpha))

    @classmethod
    def pdp(cls, params: PdpParams) -> "SeriesProcess":
        payload = {"alpha": float(params.alpha), "theta": float(params.theta), "r": params.r_derived}
        return cls("pdp_series", payload, params.r_derived, LevyTail.generalized_gamma(params.alpha), True)


def series_measure(
    series: SeriesProcess,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
    draw: PointSeries,
) -> DiscreteMeasure:
    """The measure of one seed's draw: its points normalized into weights,
    in series order, on atoms drawn from ``base`` on the seed's atom stream."""
    if len(draw) < 2:
        raise DegenerateTruncationError(f"truncation retained {len(draw)} points; need at least 2")
    atom_rng = spawn_generator(seed, STREAM_ATOMS)
    atoms = np.asarray(base.sampler(atom_rng, len(draw)), dtype=float)
    prov = _provenance(series.process, series.params, trunc, seed, draw.truncation_warning)
    prov["stopped_by"] = draw.stopped_by
    prov["base"] = base.label
    return _measure_from_log_weights(draw.log_points, atoms, prov, sorted_by_weight=True)


def _sample_one(series: SeriesProcess, base: BaseMeasure, trunc: TruncationPolicy, seed) -> DiscreteMeasure:
    cfg = NbpConfig(r=series.r, tail=series.tail, truncation=trunc)
    return series_measure(series, base, trunc, seed, sample_log_points(cfg, [seed], series.randomized)[0])


# ---------------------------------------------------------------------------
# constructors


def sample_pkp(
    r: float,
    tail: LevyTail,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
    randomized: bool | None = None,
) -> DiscreteMeasure:
    """Normalized negative binomial point sequence on i.i.d. atoms.

    Weights are the truncated points of the order-r negative binomial
    process divided by their sum, in series order (strictly decreasing);
    atoms are drawn from ``base`` on an independent stream.  ``randomized``
    selects the sampling path as in :func:`sample_nbp_points`.
    """
    return _sample_one(SeriesProcess.pkp(r, tail, randomized), base, trunc, seed)


def sample_dp(
    theta: float,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
) -> DiscreteMeasure:
    """Dirichlet process draw: the r = 0 series with the gamma tail."""
    return _sample_one(SeriesProcess.dirichlet(theta), base, trunc, seed)


def sample_stable_normalized(
    alpha: float,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
) -> DiscreteMeasure:
    """Normalized stable process draw: weights proportional to Γ_i^{-1/alpha}."""
    return _sample_one(SeriesProcess.stable(alpha), base, trunc, seed)


def sample_pdp_series(
    params: PdpParams,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
) -> DiscreteMeasure:
    """Poisson-Dirichlet process PD(alpha, theta) via the tail series.

    Uses the generalized-gamma tail with order r = theta/alpha sampled on
    the gamma-randomized-intensity path.  The randomized path is used for
    every r, integer or not: the integer arrival-ratio path restricts the
    points to (0, L^{-1}(1)) and its normalized law is measurably flatter
    than PD(alpha, theta), while the randomized path reproduces the full
    subordinator jump sequence and matches stick-breaking in distribution.
    """
    return _sample_one(SeriesProcess.pdp(params), base, trunc, seed)


def sample_extended_dp_finite(
    params: ExtendedDpParams,
    base: BaseMeasure,
    seed,
) -> DiscreteMeasure:
    """Finite approximation of the order-r extended Dirichlet process.

    Weights are gamma-survival quantiles: with shape concentration/n and
    the seed's arrivals Γ_1 .. Γ_{n+1} (``gamma_arrivals``, the stream the
    series samplers draw from), weight i is the x solving
    Q(shape, x) = Γ_i/(Γ_r Γ_{n+1}) for i = r+1 .. n, computed in log
    domain and normalized by log-sum-exp.  Any quantile argument outside
    (0, 1) raises a DomainError; no internal resampling is attempted, so
    behavior stays deterministic.  (For r = 0 the arguments are in (0, 1)
    almost surely; for r >= 1 the event Γ_r Γ_{n+1} < Γ_n has positive
    probability.)
    """
    n, r = int(params.n), int(params.r)
    arrivals = gamma_arrivals(seed, n + 1).arrivals
    divisor = arrivals[r - 1] if r >= 1 else 1.0  # Gamma_0 = 1 convention
    u = arrivals[r:n] / (divisor * arrivals[n])
    if not np.all((u > 0.0) & (u < 1.0)):
        raise DomainError(
            f"quantile arguments left (0,1) for this realization (r={r}, n={n}); "
            "the finite approximation is undefined here"
        )
    log_w = gamma_quantile_upper_many(float(params.concentration) / n, u)
    atom_rng = spawn_generator(seed, STREAM_ATOMS)
    atoms = np.asarray(base.sampler(atom_rng, n - r), dtype=float)
    prov = _provenance(
        "extended_dp",
        {"concentration": float(params.concentration), "r": r, "n": n},
        None,
        seed,
        False,
    )
    prov["base"] = base.label
    return _measure_from_log_weights(log_w, atoms, prov, sorted_by_weight=False)


def sample_pdp_stick_breaking(
    alpha: float,
    theta: float,
    base: BaseMeasure,
    sticks: int,
    ranked: bool,
    seed,
) -> DiscreteMeasure:
    """GEM(alpha, theta) stick-breaking draw, truncated at ``sticks`` breaks.

    Stick k uses a Beta(1 - alpha, theta + k alpha) fraction of the
    remaining mass; the residual mass after the last break is assigned to
    one extra atom so the measure stays exactly normalized.  With
    ``ranked`` the weights are sorted in decreasing order (the ranked law
    is the Poisson-Dirichlet distribution).
    """
    alpha = float(alpha)
    theta = float(theta)
    sticks = int(sticks)
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0,1), got {alpha}")
    if not (math.isfinite(theta) and theta > -alpha):
        raise DomainError(f"theta must exceed -alpha, got {theta}")
    if sticks < 1:
        raise DomainError(f"sticks must be at least 1, got {sticks}")

    stick_rng = spawn_generator(seed, STREAM_ARRIVALS)
    betas = stick_rng.beta(1.0 - alpha, theta + alpha * np.arange(1, sticks + 1))
    remaining = np.cumprod(1.0 - betas)
    weights = np.empty(sticks + 1)
    weights[0] = betas[0]
    weights[1:sticks] = betas[1:] * remaining[:-1]
    weights[sticks] = remaining[-1]  # residual-mass closure atom

    atom_rng = spawn_generator(seed, STREAM_ATOMS)
    atoms = np.asarray(base.sampler(atom_rng, sticks + 1), dtype=float)

    keep = weights > 0.0
    weights = weights[keep]
    atoms = atoms[keep]
    weights = weights / math.fsum(weights.tolist())

    sorted_flag = False
    if ranked:
        order = np.argsort(-weights, kind="stable")
        weights = weights[order]
        atoms = atoms[order]
        sorted_flag = bool(np.all(np.diff(weights) < 0))

    prov = _provenance(
        "pdp_stick",
        {"alpha": alpha, "theta": theta, "sticks": sticks, "ranked": bool(ranked)},
        None,
        seed,
        False,
    )
    prov["base"] = base.label
    return DiscreteMeasure(atoms=atoms, weights=weights, provenance=prov, sorted_by_weight=sorted_flag)


# ---------------------------------------------------------------------------
# sampling from a realized measure


def draw_from_measure(measure: DiscreteMeasure, k: int, seed) -> np.ndarray:
    """k i.i.d. categorical draws from the measure's atoms by weight."""
    k = int(k)
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    rng = spawn_generator(seed, STREAM_DRAWS)
    cum = np.cumsum(measure.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(k), side="right")
    return measure.atoms[np.minimum(idx, measure.atoms.size - 1)]


def distinct_count(draws) -> int:
    """Number of distinct values in a sample (the K_n statistic)."""
    arr = np.asarray(draws)
    if arr.size == 0:
        raise DomainError("distinct_count needs a nonempty sample")
    return int(np.unique(arr).size)
