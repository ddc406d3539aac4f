"""Constructors for random discrete probability measures.

All constructors produce a :class:`DiscreteMeasure`: finitely many atoms
with strictly positive weights summing to one, plus a provenance record
sufficient to reproduce the draw.  Each process is one sampler record
(``SeriesProcess``, ``ExtendedDpParams``, ``StickBreaking``) with one
protocol: ``draw(seeds)`` gives each seed's normalized weights in draw
order, underflowed weights kept as zeros, depending only on that seed;
``measure(base, seed)`` draws one seed and puts its weights on atoms from
the seed's atom stream, ranked if asked, zero weights dropped.  ``width``
is the exact length of every row (None under the epsilon rule), ``index``
the stable index that sets the growth of K_n.  Records are built whole
from checked values (a ``SeriesProcess`` is the ``NbpConfig`` it samples,
sampling path and row shape included), so bad input raises before any
sampling: a DomainError, or a truncation that keeps fewer than 2 points
or more than its hard cap.  The single-draw constructors are ``measure``
on their record.

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

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ._rng import (
    STREAM_ATOMS,
    STREAM_DRAWS,
    release,
    seed_tuple,
    spawn_generator,
)
from .errors import (DegenerateTruncationError, DomainError, as_count, as_json, as_list, as_number, as_object,
                     as_positive, as_table, read_field, table_text)
from .levy_tails import LevyTail
from .point_processes import (
    NbpConfig,
    TruncationPolicy,
    _Row,
    sample_log_points,
)
from .special_functions import gamma_quantile_upper_many

SCHEMA_VERSION = 1

_WEIGHT_SUM_TOL = 1e-12


@dataclass
class BaseMeasure:
    """Diffuse atom-location distribution H.

    ``sampler(rng, size)`` draws i.i.d. atoms from ``rng``, which is
    valid only during the call (it is released and re-keyed afterwards);
    ``cdf`` (optional) is needed by the Kolmogorov-distance harness.
    """

    label: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray] | None = None

    def _atoms(self, seed, size: int) -> np.ndarray:
        """``size`` atoms from ``sampler`` on the seed's atom stream: the one place a seed's atoms are drawn."""
        rng = spawn_generator(seed, STREAM_ATOMS)
        try:
            return np.asarray(self.sampler(rng, size), dtype=float)
        finally:
            release(rng)


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

    Invariants: equal-length atom/weight arrays, all atoms finite, all weights strictly positive, weights
    summing to one within 1e-12.  ``sorted_by_weight`` is computed: whether the weights strictly decrease.
    """

    atoms: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            atoms = np.asarray(self.atoms, dtype=float)
            weights = np.asarray(self.weights, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # an integer past the float range overflows
            raise DomainError(f"atoms and weights must be real numbers: {exc}") from exc
        if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size:
            raise DomainError("atoms and weights must be 1-d arrays of equal length")
        if atoms.size < 1:
            raise DomainError("a measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise DomainError("atoms must be finite")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise DomainError("weights must be strictly positive and finite")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        self.atoms = atoms
        self.weights = weights

    def __len__(self):
        return self.atoms.size

    @property
    def sorted_by_weight(self) -> bool:
        return bool(np.all(np.diff(self.weights) < 0))

    def ranked(self) -> "DiscreteMeasure":
        """Copy with atoms reordered by decreasing weight."""
        order = np.argsort(-self.weights, kind="stable")
        return DiscreteMeasure(atoms=self.atoms[order], weights=self.weights[order], provenance=dict(self.provenance))

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
        def numbers(value):
            return np.asarray(as_list(value), dtype=float)

        name = "measure JSON"
        return cls(atoms=read_field(name, data, "atoms", numbers), weights=read_field(name, data, "weights", numbers),
                   provenance=read_field(name, data, "provenance", lambda v: as_object("provenance", v), {}))

    def to_json(self, **dumps_kwargs) -> str:
        kwargs = {"sort_keys": True}
        kwargs.update(dumps_kwargs)
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        return cls.from_json_dict(as_json("measure JSON", text))

    def to_csv(self) -> str:
        return table_text(("atom", "weight"), zip(self.atoms, self.weights))

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteMeasure":
        rows = as_table("measure CSV", text, ("atom", "weight"))
        return cls(atoms=[row["atom"] for row in rows], weights=[row["weight"] for row in rows])


# ---------------------------------------------------------------------------
# shared assembly


def normalized_weights(log_w: np.ndarray) -> np.ndarray:
    """Weights proportional to exp(log_w), summing to one, in the same order.

    A weight that underflows stays an exact zero.  Fewer than two
    representable weights raise a DegenerateTruncationError; a row whose
    largest log-weight is not finite (NaN, +inf, or every weight -inf)
    has none.  Past that check every weight is finite and the largest is
    at least 1/len(log_w), so the nonzero weights meet the weight
    invariants of a :class:`DiscreteMeasure` without a check: numpy's
    pairwise sum of n non-negative terms errs by at most about
    (log2 n + 16) ulps (Higham 1993), below 5e-15 at the hard cap and far
    inside the 1e-12 sum tolerance.
    """
    top = log_w.max()
    if not math.isfinite(top):
        raise DegenerateTruncationError("fewer than two atoms carry representable weight")
    # subtract the whole log normalizer before exponentiating: dividing
    # exp(log_w - top) by its sum would flush subnormal weights to zero
    w = np.exp(log_w - (top + math.log(np.exp(log_w - top).sum())))
    if np.count_nonzero(w > 0.0) < 2:
        raise DegenerateTruncationError("fewer than two atoms carry representable weight")
    w /= w.sum()
    return w


def drawn_row(row: np.ndarray) -> np.ndarray:
    """A weight row, unchanged: the engine hands each row to a study through it, so the benchmark's trace counts it."""
    return row


def _assemble(weights: np.ndarray, base: BaseMeasure, seed, process: str, params: dict,
              truncation: TruncationPolicy | None = None, stopped_by: str | None = None) -> DiscreteMeasure:
    """The measure of one seed's normalized weights, in their order: one
    atom per weight, drawn from ``base`` on the seed's atom stream, zero
    weights dropped with their atoms.  The whole provenance is written
    here; only a series has ``stopped_by``, and a hard-cap stop is its
    truncation warning."""
    atoms = base._atoms(seed, weights.size)
    keep = weights > 0.0
    provenance = {"schema_version": SCHEMA_VERSION, "process": process, "params": params,
                  "truncation": truncation.to_dict() if truncation is not None else None,
                  "seed": list(seed_tuple(seed)), "generator_id": "philox",
                  "truncation_warning": stopped_by == "hard_cap", "base": base.label}
    if stopped_by is not None:
        provenance["stopped_by"] = stopped_by
    return DiscreteMeasure(atoms=atoms[keep], weights=weights[keep], provenance=provenance)


# ---------------------------------------------------------------------------
# sampler records


@dataclass(frozen=True)
class PdpParams:
    """Two-parameter Poisson-Dirichlet parameters (alpha, theta), theta > 0, stored as the floats they were read as."""

    alpha: float
    theta: float

    def __post_init__(self):
        alpha = as_number("alpha", self.alpha)
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha must lie in (0,1), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", as_positive("theta", self.theta))

    @property
    def r_derived(self) -> float:
        return self.theta / self.alpha


@dataclass(frozen=True)
class SeriesProcess(NbpConfig):
    """A process whose weights are the normalized negative binomial points, in series order: its checked
    order r, tail, truncation, sampling path and row shape (an ``NbpConfig``, whose ``width`` it reports),
    and its provenance name and parameters."""

    process: str
    params: dict

    @classmethod
    def pkp(cls, r: float, tail: LevyTail, truncation: TruncationPolicy,
            randomized: bool | None = None) -> "SeriesProcess":
        series = cls(r, tail, truncation, "pkp", {}, randomized=randomized)
        series.params.update(r=series.r, tail=series.tail.to_dict())
        if randomized is not None:
            series.params["randomized"] = bool(randomized)
        return series

    @classmethod
    def dirichlet(cls, theta: float, truncation: TruncationPolicy) -> "SeriesProcess":
        tail = LevyTail.gamma(theta)
        return cls(0.0, tail, truncation, "dirichlet", {"theta": tail.theta})

    @classmethod
    def stable(cls, alpha: float, truncation: TruncationPolicy) -> "SeriesProcess":
        tail = LevyTail.stable(alpha)
        return cls(0.0, tail, truncation, "stable", {"alpha": tail.alpha})

    @classmethod
    def pdp(cls, params: PdpParams, truncation: TruncationPolicy) -> "SeriesProcess":
        payload = {"alpha": params.alpha, "theta": params.theta, "r": params.r_derived}
        tail = LevyTail.generalized_gamma(params.alpha)
        return cls(params.r_derived, tail, truncation, "pdp_series", payload, randomized=True)

    @property
    def index(self) -> float:
        return self.tail.alpha or 0.0

    def draw(self, seeds: list) -> list[np.ndarray]:
        """Each seed's truncated point series, all inverted together, normalized."""
        return [normalized_weights(series.log_points) for series in sample_log_points(self, seeds)]

    def measure(self, base: BaseMeasure, seed) -> DiscreteMeasure:
        (series,) = sample_log_points(self, [seed])
        return _assemble(normalized_weights(series.log_points), base, seed, self.process, self.params,
                         self.truncation, series.stopped_by)


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
    selects the sampling path as in :class:`NbpConfig`.
    """
    return SeriesProcess.pkp(r, tail, trunc, randomized).measure(base, seed)


def sample_dp(
    theta: float,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
) -> DiscreteMeasure:
    """Dirichlet process draw: the r = 0 series with the gamma tail."""
    return SeriesProcess.dirichlet(theta, trunc).measure(base, seed)


def sample_stable_normalized(
    alpha: float,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
) -> DiscreteMeasure:
    """Normalized stable process draw: weights proportional to Γ_i^{-1/alpha}."""
    return SeriesProcess.stable(alpha, trunc).measure(base, seed)


def sample_pdp_series(
    params: PdpParams,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    seed,
) -> DiscreteMeasure:
    """Poisson-Dirichlet process PD(alpha, theta) via the tail series.

    Uses the generalized-gamma tail with order r = theta/alpha sampled on the
    gamma-randomized-intensity path, for every r, integer or not: the integer
    arrival-ratio path restricts the points to (0, L^{-1}(1)) and its normalized
    law is measurably flatter than PD(alpha, theta), while the randomized path
    reproduces the full subordinator jump sequence and matches stick-breaking in
    distribution.  Its points below x* = 1 are thinned stable candidates
    (``point_processes``).
    """
    return SeriesProcess.pdp(params, trunc).measure(base, seed)


@dataclass(frozen=True)
class ExtendedDpParams:
    """Finite order-r extended Dirichlet process approximation: concentration, order r, r + 1 < n < MAX_ARRIVALS."""

    concentration: float
    r: int
    n: int

    index = 0.0  # the gamma tail's

    def __post_init__(self):
        concentration = as_positive("concentration", self.concentration)
        # an order, read as a real ("2.0" reads) that must be integral; n bounds it
        r = as_number("r", self.r)
        if not (r >= 0 and r.is_integer()):
            raise DomainError(f"r must be a nonnegative integer, got {self.r}")
        n = as_count("n", self.n, minimum=int(r) + 2)
        as_count("count", n + 1)  # a draw holds the arrivals Γ_1 .. Γ_{n+1}
        for name, value in zip(("concentration", "r", "n"), (concentration, int(r), n)):
            object.__setattr__(self, name, value)

    @property
    def width(self) -> int:
        return self.n - self.r

    def draw(self, seeds: list) -> list[np.ndarray]:
        """Each seed's normalized weights of the finite approximation.

        Weights are gamma-survival quantiles: with shape concentration/n and the seed's arrivals
        Γ_1 .. Γ_{n+1} (the series' integer-path row of order r, with its divisor rule Γ_0 = 1), weight i
        is the x solving Q(shape, x) = u_i = Γ_i/(Γ_r Γ_{n+1}) for i = r+1 .. n, computed in log domain
        and normalized by log-sum-exp.  L_n(x) = Γ_{n+1} Q(shape, x) has the finite mass Γ_{n+1}, so a
        level u_i >= 1 (possible for r >= 1) lies past it and its weight is a zero, as is a weight that
        underflows; a seed left with fewer than two nonzero weights raises a DegenerateTruncationError.
        All seeds' levels below 1 go through one ``gamma_quantile_upper_many`` call, which solves each
        level on its own, so a row is bit-identical to its seed's draw alone.
        """
        n, r = self.n, self.r
        levels = []
        for seed in seeds:
            row = _Row(seed, r, randomized=False)
            arrivals = row.arrivals(n + 1 - r)  # Γ_{r+1} .. Γ_{n+1}
            row.close()
            levels.append(arrivals[:-1] / (row.divisor * arrivals[-1]))
        u = np.concatenate(levels)
        inside = u < 1.0
        log_w = np.full(u.size, -np.inf)
        log_w[inside] = gamma_quantile_upper_many(self.concentration / n, u[inside])
        return [normalized_weights(w) for w in log_w.reshape(len(seeds), n - r)]

    def measure(self, base: BaseMeasure, seed) -> DiscreteMeasure:
        return _assemble(self.draw([seed])[0], base, seed, "extended_dp", asdict(self))


def sample_extended_dp_finite(params: ExtendedDpParams, base: BaseMeasure, seed) -> DiscreteMeasure:
    """Finite approximation of the order-r extended Dirichlet process: ``ExtendedDpParams.draw`` for one seed,
    its zero weights (levels past L_n's finite mass, or underflowed) dropped with their atoms."""
    return params.measure(base, seed)


@dataclass(frozen=True)
class StickBreaking:
    """GEM(alpha, theta) stick breaking truncated at ``sticks`` breaks, sticks + 1 <= MAX_ARRIVALS; the measure
    is ranked or in break order."""

    alpha: float
    theta: float
    sticks: int
    ranked: bool = False

    def __post_init__(self):
        alpha, theta = as_number("alpha", self.alpha), as_number("theta", self.theta)
        sticks = as_count("sticks", self.sticks)
        if not (0.0 <= alpha < 1.0):
            raise DomainError(f"alpha must lie in [0,1), got {alpha}")
        if not (math.isfinite(theta) and theta > -alpha):
            raise DomainError(f"theta must exceed -alpha, got {theta}")
        as_count("count", sticks + 1)  # a row holds the sticks and the residual mass
        for name, value in zip(("alpha", "theta", "sticks", "ranked"), (alpha, theta, sticks, bool(self.ranked))):
            object.__setattr__(self, name, value)

    @property
    def width(self) -> int:
        return self.sticks + 1

    @property
    def index(self) -> float:
        return self.alpha

    def draw(self, seeds: list) -> list[np.ndarray]:
        """Each seed's stick weights, normalized, in break order, the residual mass last.

        Each seed's fractions come from its own arrival stream; one 2-D
        cumulative product over the block gives every row's remaining mass.
        """
        shapes = self.theta + self.alpha * np.arange(1, self.sticks + 1)
        betas = np.empty((len(seeds), self.sticks))
        for i, seed in enumerate(seeds):
            row = _Row(seed)
            betas[i] = row.rng.beta(1.0 - self.alpha, shapes)
            row.close()
        remaining = np.cumprod(1.0 - betas, axis=1)
        weights = np.empty((len(seeds), self.sticks + 1))
        weights[:, 0] = betas[:, 0]
        weights[:, 1:self.sticks] = betas[:, 1:] * remaining[:, :-1]
        weights[:, self.sticks] = remaining[:, -1]  # residual-mass closure atom
        return [row / row.sum() for row in weights]

    def measure(self, base: BaseMeasure, seed) -> DiscreteMeasure:
        measure = _assemble(self.draw([seed])[0], base, seed, "pdp_stick", asdict(self))
        return measure.ranked() if self.ranked else measure


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
    return StickBreaking(alpha, theta, sticks, ranked).measure(base, seed)


# ---------------------------------------------------------------------------
# sampling from a realized measure


def _categorical(weights: np.ndarray, k: int, seed) -> np.ndarray:
    """Indices of k <= MAX_ARRIVALS i.i.d. draws by normalized ``weights`` on the seed's draw stream; the
    cumulative weights are 1.0 from the last nonzero weight on, so a zero weight is never drawn."""
    k = as_count("k", k)
    rng = spawn_generator(seed, STREAM_DRAWS)
    u = rng.random(k)
    release(rng)
    cum = np.cumsum(weights)
    cum[np.flatnonzero(weights)[-1]:] = 1.0
    return np.searchsorted(cum, u, side="right")


def draw_from_measure(measure: DiscreteMeasure, k: int, seed) -> np.ndarray:
    """k i.i.d. categorical draws from the measure's atoms by weight."""
    return measure.atoms[_categorical(measure.weights, k, seed)]


def row_distinct_count(weights: np.ndarray, k: int, seed) -> int:
    """The distinct categories among k draws from a weight row: ``distinct_count(draw_from_measure(m, k,
    seed))`` on a diffuse base, for the measure m of the row's nonzero weights in row order."""
    return int(np.unique(_categorical(weights, k, seed)).size)


def distinct_count(draws) -> int:
    """Number of distinct values in a sample (the K_n statistic)."""
    arr = np.asarray(draws)
    if arr.size == 0:
        raise DomainError("distinct_count needs a nonempty sample")
    return int(np.unique(arr).size)
