"""Monte Carlo harness: Kolmogorov distances to the base measure,
benchmark-grid reproduction, weight profiles, and distinct-count growth
diagnostics.

Replications derive their seeds as (master_seed, replication_index) and
are drawn in index order, a block of replications at a time: ``_family``
reads a declarative spec into the process's sampler record, whose
``draw`` gives each seed's normalized weight row, and a replication's row
depends only on its own seed, so it is bit-identical to drawing it alone.
A block that fails is drawn again seed by seed, so each failure stays
with its replication.  Every study reduces a block's rows
(``_replicate``) without building measures: one sort and one cumulative
sum give every row's distance (``_ks_rows``), and K_n counts the
categories drawn from each row.  Only ``build_measure`` assembles a
measure, through the record's ``measure``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_ATOMS, replication_seed, seed_tuple, spawn_generator
from .errors import CapabilityError, DegenerateTruncationError, DomainError, as_number
from .levy_tails import LevyTail
from .point_processes import TruncationPolicy
from .random_measures import (
    SCHEMA_VERSION,
    BaseMeasure,
    DiscreteMeasure,
    ExtendedDpParams,
    PdpParams,
    SeriesProcess,
    StickBreaking,
    drawn_row,
    row_distinct_count,
    uniform_base,
)

PROCESSES = ("dirichlet", "extended_dp", "pkp", "pdp_series", "pdp_stick", "stable")

# Points per batched draw of fixed-count replications: 64 replications of
# the bundled grid's 400 points.  Longer series take fewer replications per
# block, so a block's memory stays near max(_BLOCK_POINTS, n) points
# whatever the replication count.
_BLOCK_POINTS = 64 * 400

# Seeds per batched draw of epsilon-rule replications.  Each round inverts
# the next _CHUNK points of every live seed, so at most 8 x 1,024 points at
# once; a block keeps up to 8 x hard_cap retained points until it ends.
_EPSILON_BLOCK = 8


# ---------------------------------------------------------------------------
# Kolmogorov distance


def kolmogorov_distance(measure: DiscreteMeasure, base: BaseMeasure) -> float:
    """Exact sup-distance between the measure's CDF and the base CDF: ``_ks_rows`` with one row."""
    return float(_ks_rows(measure.weights[np.newaxis], measure.atoms[np.newaxis], base)[0])


def _ks_rows(weights: np.ndarray, atoms: np.ndarray, base: BaseMeasure) -> np.ndarray:
    """Kolmogorov distance of each row's discrete measure to the base CDF.

    Row i of ``weights`` and ``atoms`` (equal shapes) is one measure;
    weights may include exact zeros.  For a step function F against a
    continuous H the supremum is attained at atom locations, approached
    from the left or the right, so with a row's atoms sorted ascending and
    cumulative weights W_j it equals
    max_j max(|W_j - H(x_j)|, |W_{j-1} - H(x_j)|) with W_0 = 0.  Tied
    atoms and zero weights only add candidates that lie between two of
    these, so up to rounding they leave the maximum unchanged.
    """
    if base.cdf is None:
        raise CapabilityError(f"base measure {base.label!r} has no CDF; cannot compute the distance")
    order = np.argsort(atoms, axis=1)
    x = np.take_along_axis(atoms, order, axis=1)
    cum = np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1)
    h = np.asarray(base.cdf(x.ravel()), dtype=float).reshape(x.shape)
    left = np.zeros_like(cum)
    left[:, 1:] = cum[:, :-1]
    return np.maximum(np.max(np.abs(cum - h), axis=1), np.max(np.abs(left - h), axis=1))


# ---------------------------------------------------------------------------
# declarative experiments


@dataclass
class ExperimentSpec:
    """One Monte Carlo study: process, parameters, replication count, seeds."""

    process: str
    params: dict
    replications: int
    truncation: TruncationPolicy | None
    master_seed: int | tuple

    def __post_init__(self):
        if self.process not in PROCESSES:
            raise DomainError(f"unknown process {self.process!r}; expected one of {PROCESSES}")
        self.replications = as_number("replications", self.replications, int)
        if self.replications < 1:
            raise DomainError("replications must be at least 1")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "process": self.process,
            "params": self.params,
            "replications": self.replications,
            "truncation": self.truncation.to_dict() if self.truncation is not None else None,
            "master_seed": list(seed_tuple(self.master_seed)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Read a spec dict; keys it does not read are ignored, so older spec files still load."""
        missing = [key for key in ("process", "replications") if key not in data]
        if missing:
            raise DomainError(f"experiment spec lacks field {missing[0]!r}")
        trunc = data.get("truncation")
        return cls(
            process=data["process"],
            params=dict(data.get("params", {})),
            replications=data["replications"],
            truncation=TruncationPolicy.from_dict(trunc) if trunc else None,
            master_seed=tuple(data.get("master_seed", [0])),
        )


@dataclass
class ExperimentResult:
    """Summary of one Kolmogorov-distance study."""

    mean_distance: float
    std_error: float
    replications: int
    wall_time: float
    spec_echo: ExperimentSpec
    failures: list = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.failures)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "mean_distance": self.mean_distance,
            "std_error": self.std_error,
            "replications": int(self.replications),
            "failures": list(self.failures),
            "spec": self.spec_echo.to_dict(),
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        name = "experiment result"
        return cls(
            mean_distance=_field(name, data, "mean_distance", float),
            std_error=_field(name, data, "std_error", float),
            replications=_field(name, data, "replications", _number("replications", int)),
            wall_time=_field(name, data, "wall_time", float, 0.0),
            spec_echo=_field(name, data, "spec", ExperimentSpec.from_dict),
            failures=_field(name, data, "failures", _list, []),
        )


def _field(payload: str, data: dict, key: str, read, *default):
    """``read(data[key])``, or ``read`` of the default where ``key`` is absent and one is given.  A
    payload that is not an object, a missing field or a value ``read`` rejects raises a DomainError
    naming the payload and the field."""
    if not isinstance(data, dict):
        raise DomainError(f"{payload} must be an object, got {type(data).__name__}")
    if key not in data and not default:
        raise DomainError(f"{payload} lacks field {key!r}")
    try:
        return read(data.get(key, *default))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{payload} field {key!r} does not read: {exc}") from exc


def _number(key: str, kind=float):
    """A field reader through ``as_number``: a count with a fractional part is rejected, not truncated."""
    return lambda value: as_number(key, value, kind)


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _family(process: str, params: dict, truncation: TruncationPolicy | None):
    """The sampler record (``SeriesProcess``, ``ExtendedDpParams``, ``StickBreaking``) of a declarative spec.

    For ``pdp_series`` an explicit ``r`` in the parameters selects the
    truncated arrival-ratio series with exactly that order (the benchmark
    grid's convention); without it the order is theta/alpha on the
    gamma-randomized path, which is the faithful Poisson-Dirichlet law.
    """
    try:
        if process == "extended_dp":
            n = _size(params, "n", truncation, "extended_dp needs a level n")
            return ExtendedDpParams(params["concentration"], params.get("r", 0), n)
        if process == "pdp_stick":
            sticks = _size(params, "sticks", truncation, "pdp_stick needs a stick count")
            return StickBreaking(params["alpha"], params["theta"], sticks, bool(params.get("ranked", False)))
        if process == "dirichlet":
            return SeriesProcess.dirichlet(params["theta"], truncation)
        if process == "stable":
            return SeriesProcess.stable(params["alpha"], truncation)
        if process == "pkp":
            tail = LevyTail.from_dict(params["tail"]) if isinstance(params.get("tail"), dict) else params["tail"]
            return SeriesProcess.pkp(params["r"], tail, truncation, params.get("randomized"))
        if process == "pdp_series":
            if params.get("r") is not None:
                return SeriesProcess.pkp(params["r"], LevyTail.generalized_gamma(params["alpha"]), truncation)
            return SeriesProcess.pdp(PdpParams(params["alpha"], params["theta"]), truncation)
    except KeyError as exc:
        raise DomainError(f"process {process!r} is missing parameter {exc}") from exc
    raise DomainError(f"unknown process {process!r}; expected one of {PROCESSES}")


def _size(params: dict, key: str, truncation: TruncationPolicy | None, missing: str):
    """``params[key]``, else the fixed-count truncation's n."""
    size = params.get(key)
    if size is None:
        if truncation is None:
            raise DomainError("this process needs a truncation policy")
        size = truncation.n
        if size is None:
            raise DomainError(f"{missing} (params or fixed_count truncation)")
    return size


def build_measure(
    process: str,
    params: dict,
    truncation: TruncationPolicy | None,
    seed,
    base: BaseMeasure | None = None,
) -> DiscreteMeasure:
    """Construct one measure realization for a declarative process spec: its record's ``measure``."""
    return _family(process, params, truncation).measure(uniform_base() if base is None else base, seed)


def _replicate(family, seeds: list, reduce=None):
    """Yield, in seed order, each seed's normalized weight row of the record ``family`` or the error it raised.

    With ``reduce``, each seed's entry of ``reduce(block, rows)`` is
    yielded in place of its row.  Blocks hold at most ``_BLOCK_POINTS`` row
    entries or one seed, or ``_EPSILON_BLOCK`` seeds when the record's
    ``width`` is None (the epsilon rule).  A block that raises is drawn
    again seed by seed, so each failure stays with its own seed.
    """

    def draw(block):
        rows = [drawn_row(row) for row in family.draw(block)]
        return rows if reduce is None else reduce(block, rows)

    size = _EPSILON_BLOCK if family.width is None else max(1, _BLOCK_POINTS // family.width)
    for start in range(0, len(seeds), size):
        block = seeds[start:start + size]
        if len(block) > 1:
            try:
                results = draw(block)
            except Exception:  # noqa: BLE001 - redrawn seed by seed below
                pass
            else:
                yield from results
                continue
        for seed in block:
            try:
                (result,) = draw([seed])
            except Exception as exc:  # noqa: BLE001 - the caller records or raises it
                yield exc
            else:
                yield result


def _ks_values(spec: ExperimentSpec, base: BaseMeasure) -> tuple[np.ndarray, list[str]]:
    """Each replication's Kolmogorov distance (NaN where it failed) and the failure messages, in index order.

    A block's rows are reduced at once, each on atoms drawn from its own
    seed's atom stream.  A shorter row of the block is padded with zero
    weights on copies of its first atom, which leaves its distance exact.
    A spec that cannot be drawn records its error on every replication.
    """
    seeds = [replication_seed(spec.master_seed, i) for i in range(spec.replications)]
    values = np.full(spec.replications, np.nan)
    try:
        family = _family(spec.process, spec.params, spec.truncation)
    except Exception as exc:  # noqa: BLE001 - recorded for every replication
        return values, [f"replication {i}: {exc}" for i in range(spec.replications)]

    def distances(block, rows):
        weights = np.zeros((len(rows), max(row.size for row in rows)))
        atoms = np.empty_like(weights)
        for i, (seed, row) in enumerate(zip(block, rows)):
            weights[i, :row.size] = row
            atoms[i, :row.size] = base.sampler(spawn_generator(seed, STREAM_ATOMS), row.size)
            atoms[i, row.size:] = atoms[i, 0]
        return _ks_rows(weights, atoms, base)

    failures: list[str] = []
    for i, value in enumerate(_replicate(family, seeds, distances)):
        if isinstance(value, Exception):
            failures.append(f"replication {i}: {value}")
        else:
            values[i] = value
    return values, failures


def run_ks_experiment(
    spec: ExperimentSpec,
    base: BaseMeasure | None = None,
) -> ExperimentResult:
    """Average Kolmogorov distance over independent replications.

    Replication i uses seed (master_seed, i); the reduction is a mean over
    the index-ordered distance array.  Failed replications are recorded and
    excluded from the mean; any failure flags the result.
    """
    if base is None:
        base = uniform_base()
    t0 = time.perf_counter()
    values, failures = _ks_values(spec, base)
    ok = values[np.isfinite(values)]
    mean = float(np.mean(ok)) if ok.size else float("nan")
    std_error = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return ExperimentResult(
        mean_distance=mean,
        std_error=std_error,
        replications=spec.replications,
        wall_time=time.perf_counter() - t0,
        spec_echo=spec,
        failures=failures,
    )


def run_ks_table(
    rows: list[dict],
    n: int,
    replications: int,
    master_seed,
    base: BaseMeasure | None = None,
) -> list[ExperimentResult]:
    """One Kolmogorov-distance experiment per (alpha, theta, r) grid row.

    Row k runs under master seed (master_seed, k) with the fixed-index
    truncation ``n``, reproducing the truncated-series benchmark design.
    A row keeps the n - r points past its order r, so a row with
    n - r < 2, which no seed can draw, raises a DomainError before any
    row is sampled.
    """
    truncation, replications = TruncationPolicy.fixed(n), as_number("replications", replications, int)
    specs = []
    for k, row in enumerate(rows):
        r = as_number("r", row["r"], int)
        try:
            truncation.retained(r + 1)
        except DegenerateTruncationError as exc:
            raise DomainError(f"grid row {row!r}: {exc}; need at least 2") from exc
        specs.append(ExperimentSpec(
            process="pdp_series",
            params={"alpha": float(row["alpha"]), "theta": float(row["theta"]), "r": r},
            replications=replications,
            truncation=truncation,
            master_seed=seed_tuple(master_seed) + (k,),
        ))
    return [run_ks_experiment(spec, base) for spec in specs]


def load_ks_grid(data: dict) -> tuple[list[dict], int, int]:
    """Validate a benchmark-grid config dict: rows, index bound n, replications.

    Each row comes back as numbers: alpha in (0, 1), finite theta > 0 (what
    ``PdpParams`` accepts) and integer r; there must be at least one row.
    """
    try:
        rows, n, replications = list(data["rows"]), data["n"], data["replications"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"grid config needs 'rows', 'n', 'replications': {exc}") from exc
    if not rows:
        raise DomainError("grid config needs at least one row")
    checked = []
    for row in rows:
        if not (isinstance(row, dict) and {"alpha", "theta", "r"} <= set(row)):
            raise DomainError(f"grid row {row!r} needs alpha, theta, r")
        r = as_number("r", row["r"])
        if not (r >= 0 and r.is_integer()):
            raise DomainError(f"grid row {row!r}: r must be a nonnegative integer")
        alpha, theta = as_number("alpha", row["alpha"]), as_number("theta", row["theta"])
        if not (0.0 < alpha < 1.0 and math.isfinite(theta) and theta > 0.0):
            raise DomainError(f"grid row {row!r}: need alpha in (0,1) and a finite theta > 0")
        checked.append({"alpha": alpha, "theta": theta, "r": int(r)})
    return checked, as_number("n", n, int), as_number("replications", replications, int)


def parse_ks_table_result(data: dict) -> list[dict]:
    """Validate a grid-result payload (the ks-table JSON emission): its rows, each with its fields read.
    A NaN distance reads, since a row whose replications all fail prints NaN."""
    fields = {"alpha": _number("alpha"), "theta": _number("theta"), "r": _number("r", int),
              "mean_distance": _number("mean_distance"), "std_error": _number("std_error"),
              "replications": _number("replications", int), "failures": _list}
    try:
        rows = list(data["rows"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"grid result needs a 'rows' list: {exc}") from exc
    checked = []
    for row in rows:
        if not isinstance(row, dict):
            raise DomainError(f"grid result row must be an object, got {row!r}")
        checked.append({**row, **{key: _field("grid result row", row, key, read) for key, read in fields.items()}})
    return checked


# ---------------------------------------------------------------------------
# weight profiles


@dataclass
class WeightProfile:
    """Monte Carlo means of the k largest weights for each order r."""

    r_grid: list[int]
    top_k: int
    replications: int
    tail: dict
    mean_weights: np.ndarray  # shape (len(r_grid), top_k)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "r_grid": [int(r) for r in self.r_grid],
            "top_k": int(self.top_k),
            "replications": int(self.replications),
            "tail": self.tail,
            "mean_weights": [[float(v) for v in row] for row in self.mean_weights],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightProfile":
        name = "weight profile"
        return cls(
            r_grid=_field(name, data, "r_grid", lambda v: [as_number("r", r, int) for r in v]),
            top_k=_field(name, data, "top_k", _number("top_k", int)),
            replications=_field(name, data, "replications", _number("replications", int)),
            tail=_field(name, data, "tail", dict),
            mean_weights=_field(name, data, "mean_weights", lambda v: np.asarray(v, dtype=float)),
        )


def weight_profile(
    tail: LevyTail,
    r_grid,
    top_k: int,
    replications: int,
    seed,
    points_per_r: int = 400,
) -> WeightProfile:
    """Mean of the ``top_k`` largest weights across replications, per order r.

    A weight that underflows counts as 0.0.  No atoms are drawn.
    """
    replications, top_k = as_number("replications", replications, int), as_number("top_k", top_k, int)
    points_per_r = as_number("points_per_r", points_per_r, int)
    if replications < 1:
        raise DomainError("replications must be at least 1")
    if top_k < 1:
        raise DomainError("top_k must be at least 1")
    if points_per_r < max(top_k, 2):
        raise DomainError("points_per_r must cover top_k and at least 2 points")
    r_grid = [as_number("r", r, int) for r in r_grid]
    if not r_grid:
        raise DomainError("r_grid must name at least one order r")
    out = np.zeros((len(r_grid), top_k))
    for gi, r in enumerate(r_grid):
        family = SeriesProcess.pkp(r, tail, TruncationPolicy.fixed(r + points_per_r))
        acc = np.zeros(top_k)
        seeds = [seed_tuple(seed) + (gi, rep) for rep in range(replications)]
        # series order is decreasing, so a row's first top_k weights are its largest
        for row in _replicate(family, seeds):
            if isinstance(row, Exception):
                raise row
            acc += row[:top_k]
        out[gi] = acc / replications
    return WeightProfile(
        r_grid=r_grid,
        top_k=top_k,
        replications=replications,
        tail=tail.to_dict(),
        mean_weights=out,
    )


# ---------------------------------------------------------------------------
# distinct-count growth


@dataclass
class GrowthDiagnostic:
    """Mean distinct-count K_n on a sample-size grid, over ``log_n`` at stable index 0, else ``n_pow_alpha``."""

    n_grid: list[int]
    kn_means: list[float]
    normalizer: str
    ratios: list[float]
    replications: int
    process: str
    params: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_grid": [int(n) for n in self.n_grid],
            "kn_means": [float(v) for v in self.kn_means],
            "normalizer": self.normalizer,
            "ratios": [float(v) for v in self.ratios],
            "replications": int(self.replications),
            "process": self.process,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GrowthDiagnostic":
        name = "growth diagnostic"
        return cls(
            n_grid=_field(name, data, "n_grid", lambda v: [as_number("n", n, int) for n in v]),
            kn_means=_field(name, data, "kn_means", lambda v: [float(k) for k in v]),
            normalizer=_field(name, data, "normalizer", str),
            ratios=_field(name, data, "ratios", lambda v: [float(k) for k in v]),
            replications=_field(name, data, "replications", _number("replications", int)),
            process=_field(name, data, "process", str),
            params=_field(name, data, "params", dict, {}),
        )


def clustering_growth(
    process: str,
    params: dict,
    n_grid,
    replications: int,
    seed,
    truncation: TruncationPolicy | None = None,
) -> GrowthDiagnostic:
    """Mean K_n for each n: the distinct categories among n draws from a fresh weight row, drawn
    from seed (seed, ni, rep) without atoms.  K_n is divided by log n where the family's stable
    index is 0 (gamma tails, the extended DP, alpha = 0 sticks), else by n^index.
    """
    replications = as_number("replications", replications, int)
    if replications < 1:
        raise DomainError("replications must be at least 1")
    n_grid = [as_number("n", n, int) for n in n_grid]
    if not n_grid:
        raise DomainError("n_grid must name at least one sample size")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    if n_grid[0] < 1:
        raise DomainError(f"n_grid sizes must be at least 1, got {n_grid[0]}")
    if truncation is None:  # the process name picks only the default truncation
        eps = TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000)
        truncation = TruncationPolicy.fixed(3000) if process == "dirichlet" else eps
    family = _family(process, params, truncation)
    if family.index == 0 and n_grid[0] < 2:
        raise DomainError(f"{process} normalizes K_n by log n, so n_grid must start at 2 or more, got {n_grid[0]}")
    kn_means = []
    for ni, n in enumerate(n_grid):
        total = 0
        seeds = [seed_tuple(seed) + (ni, rep) for rep in range(replications)]
        for seed_i, row in zip(seeds, _replicate(family, seeds)):
            if isinstance(row, Exception):
                raise row
            total += row_distinct_count(row, n, seed_i)
        kn_means.append(total / replications)
    if family.index == 0:
        normalizer, scale = "log_n", [math.log(n) for n in n_grid]
    else:
        normalizer, scale = "n_pow_alpha", [n ** family.index for n in n_grid]
    ratios = [k / s for k, s in zip(kn_means, scale)]
    return GrowthDiagnostic(
        n_grid=n_grid,
        kn_means=kn_means,
        normalizer=normalizer,
        ratios=ratios,
        replications=replications,
        process=process,
        params=dict(params),
    )


# ---------------------------------------------------------------------------
# representation equivalence


@dataclass
class EquivalenceReport:
    """Two-sample KS comparison of largest ranked weights."""

    statistic: float
    p_value: float
    n_lhs: int
    n_rhs: int
    params: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "statistic": float(self.statistic),
            "p_value": float(self.p_value),
            "n_lhs": int(self.n_lhs),
            "n_rhs": int(self.n_rhs),
            "params": self.params,
        }


def rank_weight_equivalence_test(
    alpha: float,
    theta: float,
    replications: int,
    seed,
    truncation: TruncationPolicy | None = None,
    sticks: int = 3000,
    stick_alpha: float | None = None,
    stick_theta: float | None = None,
) -> EquivalenceReport:
    """Two-sample KS test: tail-series largest weight vs ranked stick-breaking.

    ``stick_alpha`` / ``stick_theta`` override the stick-breaking side
    (handy as a power check with deliberately mismatched parameters).
    P-values use the asymptotic Kolmogorov distribution.  Both sides take
    each replication's largest weight from its weight row, so no atoms
    are drawn.
    """
    # imported here: scipy.stats is most of the package's import time, and
    # this is its only user
    import scipy.stats as st

    replications, sticks = as_number("replications", replications, int), as_number("sticks", sticks, int)
    if replications < 100:
        raise DomainError("need at least 100 replications per side")
    if truncation is None:
        truncation = TruncationPolicy.fixed(3000)
    s_alpha = alpha if stick_alpha is None else float(stick_alpha)
    s_theta = theta if stick_theta is None else float(stick_theta)

    def largest(family, side):
        seeds = [seed_tuple(seed) + (side, i) for i in range(replications)]
        out = np.empty(replications)
        for i, row in enumerate(_replicate(family, seeds)):
            if isinstance(row, Exception):
                raise row
            out[i] = row.max()
        return out

    series = SeriesProcess.pdp(PdpParams(alpha, theta), truncation)
    stick = StickBreaking(s_alpha, s_theta, sticks, ranked=True)
    lhs, rhs = largest(series, 0), largest(stick, 1)
    ks = st.ks_2samp(lhs, rhs, method="asymp")
    return EquivalenceReport(
        statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
        n_lhs=replications,
        n_rhs=replications,
        params={
            "alpha": float(alpha),
            "theta": float(theta),
            "stick_alpha": s_alpha,
            "stick_theta": s_theta,
            "sticks": sticks,
        },
    )


# ---------------------------------------------------------------------------
# config files


def load_experiment_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a JSON file."""
    with open(path) as fh:
        return ExperimentSpec.from_dict(json.load(fh))
