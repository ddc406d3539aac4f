"""Monte Carlo harness: Kolmogorov distances to the base measure,
benchmark-grid reproduction, weight profiles, and distinct-count growth
diagnostics.

Replications derive their seeds as (master_seed, replication_index) and
are drawn in index order.  Normalized series are drawn a block of
replications at a time, with one tail inversion for the whole block
(per round of the epsilon rule); a replication's draws still depend only
on its own seed, so it is bit-identical to drawing it alone.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._rng import replication_seed, seed_tuple
from .errors import CapabilityError, DomainError, as_number
from .levy_tails import LevyTail
from .point_processes import NbpConfig, TruncationPolicy, sample_log_points
from .random_measures import (
    SCHEMA_VERSION,
    BaseMeasure,
    DiscreteMeasure,
    ExtendedDpParams,
    PdpParams,
    SeriesProcess,
    distinct_count,
    draw_from_measure,
    sample_extended_dp_finite,
    sample_pdp_stick_breaking,
    series_measure,
    uniform_base,
)

PROCESSES = ("dirichlet", "extended_dp", "pkp", "pdp_series", "pdp_stick", "stable")

# the processes whose weights are normalized negative binomial points
_SERIES_PROCESSES = ("dirichlet", "pkp", "pdp_series", "stable")

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
    """Exact sup-distance between the measure's CDF and the base CDF.

    For a step function F against a continuous H the supremum is attained
    at atom locations, approached from the left or the right, so with
    atoms sorted ascending and cumulative weights W_j it equals
    max_j max(|W_j - H(x_j)|, |W_{j-1} - H(x_j)|) with W_0 = 0.
    """
    if base.cdf is None:
        raise CapabilityError(f"base measure {base.label!r} has no CDF; cannot compute the distance")
    atoms, inverse = np.unique(measure.atoms, return_inverse=True)
    w = np.bincount(inverse, weights=measure.weights, minlength=atoms.size)
    cum = np.cumsum(w)
    h = np.asarray(base.cdf(atoms), dtype=float)
    left = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(np.abs(cum - h)), np.max(np.abs(left - h))))


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
        if int(self.replications) < 1:
            raise DomainError("replications must be at least 1")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "process": self.process,
            "params": self.params,
            "replications": int(self.replications),
            "truncation": self.truncation.to_dict() if self.truncation is not None else None,
            "master_seed": list(seed_tuple(self.master_seed)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Read a spec dict; keys it does not read are ignored, so older spec files still load."""
        trunc = data.get("truncation")
        return cls(
            process=data["process"],
            params=dict(data.get("params", {})),
            replications=int(data["replications"]),
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
        return cls(
            mean_distance=float(data["mean_distance"]),
            std_error=float(data["std_error"]),
            replications=int(data["replications"]),
            wall_time=float(data.get("wall_time", 0.0)),
            spec_echo=ExperimentSpec.from_dict(data["spec"]),
            failures=list(data.get("failures", [])),
        )


def build_measures(
    process: str,
    params: dict,
    truncation: TruncationPolicy | None,
    seeds,
    base: BaseMeasure | None = None,
) -> list[DiscreteMeasure]:
    """One measure realization per seed, in seed order, for a declarative process spec.

    The normalized-series processes (dirichlet, stable, pkp, pdp_series)
    draw their points through ``sample_log_points``, which inverts the points
    of all seeds at once (per round of the epsilon rule), and normalize
    each seed's points into its own measure; the other processes draw
    seed by seed.  Measure i is bit-identical to ``build_measure`` with
    seed i, and the first seed that fails raises.

    For ``pdp_series`` an explicit ``r`` in the parameters selects the
    truncated arrival-ratio series with exactly that order (the benchmark
    grid's convention); without it the order is theta/alpha on the
    gamma-randomized path, which is the faithful Poisson-Dirichlet law.
    """
    if base is None:
        base = uniform_base()
    seeds = list(seeds)
    try:
        series = _series_process(process, params)
        if series is not None:
            trunc = _need_trunc(truncation)
            cfg = NbpConfig(r=series.r, tail=series.tail, truncation=trunc)
            draws = sample_log_points(cfg, seeds, series.randomized)
            return [series_measure(series, base, trunc, seed, draw) for seed, draw in zip(seeds, draws)]
        if process == "extended_dp":
            n = params.get("n")
            if n is None:
                n = _need_trunc(truncation).n
                if n is None:
                    raise DomainError("extended_dp needs a level n (params or fixed_count truncation)")
            ext = ExtendedDpParams(
                concentration=params["concentration"], r=params.get("r", 0), n=as_number("n", n, int)
            )
            return [sample_extended_dp_finite(ext, base, seed) for seed in seeds]
        if process == "pdp_stick":
            sticks = params.get("sticks")
            if sticks is None:
                sticks = _need_trunc(truncation).n
                if sticks is None:
                    raise DomainError("pdp_stick needs a stick count (params or fixed_count truncation)")
            alpha, theta = _real(params, "alpha"), _real(params, "theta")
            sticks, ranked = as_number("sticks", sticks, int), bool(params.get("ranked", False))
            return [sample_pdp_stick_breaking(alpha, theta, base, sticks, ranked, seed) for seed in seeds]
    except KeyError as exc:
        raise DomainError(f"process {process!r} is missing parameter {exc}") from exc
    raise DomainError(f"unknown process {process!r}; expected one of {PROCESSES}")


def build_measure(
    process: str,
    params: dict,
    truncation: TruncationPolicy | None,
    seed,
    base: BaseMeasure | None = None,
) -> DiscreteMeasure:
    """Construct one measure realization for a declarative process spec:
    ``build_measures`` with one seed."""
    return build_measures(process, params, truncation, [seed], base)[0]


def _real(params: dict, key: str) -> float:
    return as_number(key, params[key])


def _series_process(process: str, params: dict) -> SeriesProcess | None:
    """The normalized-series form of a declarative spec; None for the other processes."""
    if process == "dirichlet":
        return SeriesProcess.dirichlet(_real(params, "theta"))
    if process == "stable":
        return SeriesProcess.stable(_real(params, "alpha"))
    if process == "pkp":
        tail = LevyTail.from_dict(params["tail"]) if isinstance(params.get("tail"), dict) else params["tail"]
        return SeriesProcess.pkp(_real(params, "r"), tail, params.get("randomized"))
    if process == "pdp_series":
        alpha = _real(params, "alpha")
        if params.get("r") is not None:
            return SeriesProcess.pkp(_real(params, "r"), LevyTail.generalized_gamma(alpha))
        return SeriesProcess.pdp(PdpParams(alpha=alpha, theta=_real(params, "theta")))
    return None


def _need_trunc(truncation: TruncationPolicy | None) -> TruncationPolicy:
    if truncation is None:
        raise DomainError("this process needs a truncation policy")
    return truncation


def _replicate(process: str, params: dict, truncation: TruncationPolicy | None, seeds: list, base: BaseMeasure):
    """Yield each seed's measure, or the exception its draw raised, in seed order.

    Normalized series are drawn ``build_measures`` block by block: under
    fixed-count truncation at most ``_BLOCK_POINTS`` points or one seed per
    block, under the epsilon rule ``_EPSILON_BLOCK`` seeds.  A block that
    raises is drawn again seed by seed, so each failure stays with its own
    seed.  Other processes are drawn seed by seed.
    """
    rows = 1
    if process in _SERIES_PROCESSES and truncation is not None:
        if truncation.mode == "fixed_count":
            rows = max(1, _BLOCK_POINTS // truncation.n)
        else:
            rows = _EPSILON_BLOCK
    for start in range(0, len(seeds), rows):
        block = seeds[start:start + rows]
        if len(block) > 1:
            try:
                measures = build_measures(process, params, truncation, block, base)
            except Exception:  # noqa: BLE001 - redrawn seed by seed below
                pass
            else:
                yield from measures
                continue
        for seed in block:
            try:
                measure = build_measure(process, params, truncation, seed, base)
            except Exception as exc:  # noqa: BLE001 - the caller records or raises it
                yield exc
            else:
                yield measure


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
    reps = int(spec.replications)
    values = np.full(reps, np.nan)
    failures: list[str] = []
    seeds = [replication_seed(spec.master_seed, i) for i in range(reps)]
    for i, m in enumerate(_replicate(spec.process, spec.params, spec.truncation, seeds, base)):
        try:
            if isinstance(m, Exception):
                raise m
            values[i] = kolmogorov_distance(m, base)
        except Exception as exc:  # noqa: BLE001 - failures are part of the result
            failures.append(f"replication {i}: {exc}")

    ok = values[np.isfinite(values)]
    mean = float(np.mean(ok)) if ok.size else float("nan")
    std_error = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return ExperimentResult(
        mean_distance=mean,
        std_error=std_error,
        replications=reps,
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
    """
    results = []
    for k, row in enumerate(rows):
        spec = ExperimentSpec(
            process="pdp_series",
            params={"alpha": float(row["alpha"]), "theta": float(row["theta"]), "r": int(row["r"])},
            replications=int(replications),
            truncation=TruncationPolicy.fixed(int(n)),
            master_seed=seed_tuple(master_seed) + (k,),
        )
        results.append(run_ks_experiment(spec, base))
    return results


def load_ks_grid(data: dict) -> tuple[list[dict], int, int]:
    """Validate a benchmark-grid config dict: rows, index bound n, replications.

    Each row comes back as numbers: real alpha and theta, integer r.
    """
    try:
        rows = list(data["rows"])
        n = int(data["n"])
        replications = int(data["replications"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"grid config needs 'rows', 'n', 'replications': {exc}") from exc
    checked = []
    for row in rows:
        if not (isinstance(row, dict) and {"alpha", "theta", "r"} <= set(row)):
            raise DomainError(f"grid row {row!r} needs alpha, theta, r")
        r = as_number("r", row["r"])
        if not (r >= 0 and r.is_integer()):
            raise DomainError(f"grid row {row!r}: r must be a nonnegative integer")
        alpha, theta = as_number("alpha", row["alpha"]), as_number("theta", row["theta"])
        checked.append({"alpha": alpha, "theta": theta, "r": int(r)})
    return checked, n, replications


def parse_ks_table_result(data: dict) -> list[dict]:
    """Validate a grid-result payload (the ks-table JSON emission)."""
    try:
        rows = list(data["rows"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"grid result needs a 'rows' list: {exc}") from exc
    for row in rows:
        missing = {"alpha", "theta", "r", "mean_distance", "std_error", "replications"} - set(row)
        if missing:
            raise DomainError(f"grid result row lacks fields {sorted(missing)}")
    return rows


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
        return cls(
            r_grid=[int(r) for r in data["r_grid"]],
            top_k=int(data["top_k"]),
            replications=int(data["replications"]),
            tail=dict(data["tail"]),
            mean_weights=np.asarray(data["mean_weights"], dtype=float),
        )


def weight_profile(
    tail: LevyTail,
    r_grid,
    top_k: int,
    replications: int,
    seed,
    points_per_r: int = 400,
    base: BaseMeasure | None = None,
) -> WeightProfile:
    """Mean of the ``top_k`` largest weights across replications, per order r."""
    if int(replications) < 1:
        raise DomainError("replications must be at least 1")
    if int(top_k) < 1:
        raise DomainError("top_k must be at least 1")
    if int(points_per_r) < max(int(top_k), 2):
        raise DomainError("points_per_r must cover top_k and at least 2 points")
    if base is None:
        base = uniform_base()
    r_grid = [int(r) for r in r_grid]
    if not r_grid:
        raise DomainError("r_grid must name at least one order r")
    out = np.zeros((len(r_grid), int(top_k)))
    for gi, r in enumerate(r_grid):
        trunc = TruncationPolicy.fixed(r + int(points_per_r))
        acc = np.zeros(int(top_k))
        seeds = [seed_tuple(seed) + (gi, rep) for rep in range(int(replications))]
        for m in _replicate("pkp", {"r": r, "tail": tail}, trunc, seeds, base):
            if isinstance(m, Exception):
                raise m
            acc += m.weights[: int(top_k)]  # series order is decreasing
        out[gi] = acc / int(replications)
    return WeightProfile(
        r_grid=r_grid,
        top_k=int(top_k),
        replications=int(replications),
        tail=tail.to_dict(),
        mean_weights=out,
    )


# ---------------------------------------------------------------------------
# distinct-count growth


@dataclass
class GrowthDiagnostic:
    """Mean distinct-count K_n on a sample-size grid with a growth normalizer."""

    n_grid: list[int]
    kn_means: list[float]
    normalizer: str  # "log_n" or "n_pow_alpha"
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
        return cls(
            n_grid=[int(n) for n in data["n_grid"]],
            kn_means=[float(v) for v in data["kn_means"]],
            normalizer=data["normalizer"],
            ratios=[float(v) for v in data["ratios"]],
            replications=int(data["replications"]),
            process=data["process"],
            params=dict(data.get("params", {})),
        )


def clustering_growth(
    process: str,
    params: dict,
    n_grid,
    replications: int,
    seed,
    truncation: TruncationPolicy | None = None,
    base: BaseMeasure | None = None,
) -> GrowthDiagnostic:
    """Mean K_n for each n, drawing n observations from a fresh realization.

    The Dirichlet process is normalized by log n; the stable-index
    families by n^alpha.
    """
    if int(replications) < 1:
        raise DomainError("replications must be at least 1")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise DomainError("n_grid must name at least one sample size")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    if process == "dirichlet" and n_grid[0] < 2:
        raise DomainError(f"dirichlet normalizes K_n by log n, so n_grid must start at 2 or more, got {n_grid[0]}")
    if base is None:
        base = uniform_base()
    if truncation is None:
        truncation = (
            TruncationPolicy.fixed(3000)
            if process == "dirichlet"
            else TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000)
        )
    kn_means = []
    for ni, n in enumerate(n_grid):
        total = 0
        seeds = [seed_tuple(seed) + (ni, rep) for rep in range(int(replications))]
        for seed_i, m in zip(seeds, _replicate(process, params, truncation, seeds, base)):
            if isinstance(m, Exception):
                raise m
            total += distinct_count(draw_from_measure(m, n, seed_i))
        kn_means.append(total / int(replications))
    if process == "dirichlet":
        normalizer = "log_n"
        scale = [math.log(n) for n in n_grid]
    else:
        normalizer = "n_pow_alpha"
        alpha = float(params["alpha"])
        scale = [n ** alpha for n in n_grid]
    ratios = [k / s for k, s in zip(kn_means, scale)]
    return GrowthDiagnostic(
        n_grid=n_grid,
        kn_means=kn_means,
        normalizer=normalizer,
        ratios=ratios,
        replications=int(replications),
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
    base: BaseMeasure | None = None,
) -> EquivalenceReport:
    """Two-sample KS test: tail-series largest weight vs ranked stick-breaking.

    ``stick_alpha`` / ``stick_theta`` override the stick-breaking side
    (handy as a power check with deliberately mismatched parameters).
    P-values use the asymptotic Kolmogorov distribution.
    """
    # imported here: scipy.stats is most of the package's import time, and
    # this is its only user
    import scipy.stats as st

    replications = int(replications)
    if replications < 100:
        raise DomainError("need at least 100 replications per side")
    if truncation is None:
        truncation = TruncationPolicy.fixed(3000)
    if base is None:
        base = uniform_base()
    s_alpha = alpha if stick_alpha is None else float(stick_alpha)
    s_theta = theta if stick_theta is None else float(stick_theta)

    lhs = np.empty(replications)
    rhs = np.empty(replications)
    series = _replicate(
        "pdp_series", {"alpha": float(alpha), "theta": float(theta)}, truncation,
        [seed_tuple(seed) + (0, i) for i in range(replications)], base,
    )
    for i, m in enumerate(series):
        if isinstance(m, Exception):
            raise m
        lhs[i] = float(np.max(m.weights))
        s = sample_pdp_stick_breaking(
            s_alpha, s_theta, base, int(sticks), True, seed_tuple(seed) + (1, i)
        )
        rhs[i] = float(np.max(s.weights))
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
            "sticks": int(sticks),
        },
    )


# ---------------------------------------------------------------------------
# config files


def load_experiment_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a JSON file."""
    with open(path) as fh:
        return ExperimentSpec.from_dict(json.load(fh))
