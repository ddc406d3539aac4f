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

The five JSON records (``ExperimentSpec``, ``ExperimentResult``,
``WeightProfile``, ``GrowthDiagnostic``, ``EquivalenceReport``) are
``_Payload`` dataclasses: each field declares its reader, its default and
its JSON key once (``_field``), and one ``to_dict`` and one ``from_dict``
serve them all.  ``to_dict`` stamps ``schema_version`` and writes every
field as plain JSON (``_plain``), so a ``LevyTail`` in ``params`` is
written as its dict and a numpy scalar as a number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._rng import replication_seed, seed_tuple
from .errors import (CapabilityError, DegenerateTruncationError, DomainError, as_count, as_json, as_list, as_number,
                     as_object, read_field)
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

# the parameters each process reads: any other key is an error, not silently dropped
_PARAM_KEYS = {"dirichlet": ("theta",), "extended_dp": ("concentration", "r", "n"), "pkp": ("r", "tail", "randomized"),
               "pdp_series": ("alpha", "theta", "r"), "pdp_stick": ("alpha", "theta", "ranked"),
               "stable": ("alpha",)}
PROCESSES = tuple(_PARAM_KEYS)

# Points per batched draw of fixed-count replications: 64 replications of
# the bundled grid's 400 points.  Longer series take fewer replications per
# block, so a block's rows hold max(_BLOCK_POINTS, n) points whatever the
# replication count; a generalized-gamma round still draws 1,024 levels per row.
_BLOCK_POINTS = 64 * 400

# Seeds per batched draw of epsilon-rule replications.  A round draws the
# next _CHUNK levels of every live seed, so at most 8 x 1,024 points at once;
# a block keeps up to 8 x hard_cap retained points until it ends.
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


class _Payload:
    """A dataclass record written as a JSON object: ``to_dict`` writes ``schema_version``, then each field in
    field order through ``_plain``; ``from_dict`` reads each field through ``read_field`` with the reader, the
    default and the JSON key its ``_field`` declares.  Keys it does not read are ignored, so older files still
    load.  A subclass names its payload for reader messages: ``class Spec(_Payload, name="spec")``."""

    def __init_subclass__(cls, name: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._name = name

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                **{f.metadata["key"] or f.name: _plain(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**{f.name: read_field(cls._name, data, f.metadata["key"] or f.name, f.metadata["read"],
                                         *f.metadata["default"]) for f in fields(cls)})


def _field(read, *default, key: str | None = None, **options):
    """A ``_Payload`` field read by ``read`` from JSON key ``key`` (else the attribute's name), and from
    ``default`` where the key is absent and one is given; ``options`` go to ``dataclasses.field``."""
    return field(metadata={"read": read, "default": default, "key": key}, **options)


def _plain(value):
    """``value`` as plain JSON: a record through its ``to_dict``, a numpy array or scalar through ``tolist``,
    a tuple as a list, and dicts and lists item by item."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _number(key: str):
    """A field reader through ``as_number``."""
    return lambda value: as_number(key, value)


def _count(key: str, minimum: int = 1):
    """A field reader through ``as_count``: a count with a fractional part is rejected, not truncated."""
    return lambda value: as_count(key, value, minimum)


def _object(key: str):
    """A field reader through ``as_object`` that returns a copy, so that a record never shares a default ``{}``."""
    return lambda value: dict(as_object(key, value))


@dataclass
class ExperimentSpec(_Payload, name="experiment spec"):
    """One Monte Carlo study: process, parameters, replication count, seeds."""

    process: str = _field(str)
    params: dict = _field(_object("params"), {})
    replications: int = _field(_count("replications"))
    truncation: TruncationPolicy | None = _field(lambda v: None if v is None else TruncationPolicy.from_dict(v), None)
    master_seed: int | tuple = _field(seed_tuple, 0)

    def __post_init__(self):
        if self.process not in PROCESSES:
            raise DomainError(f"unknown process {self.process!r}; expected one of {PROCESSES}")
        self.replications = as_count("replications", self.replications)
        as_object("params", self.params)
        self.master_seed = seed_tuple(self.master_seed)


@dataclass
class ExperimentResult(_Payload, name="experiment result"):
    """Summary of one Kolmogorov-distance study."""

    mean_distance: float = _field(float)
    std_error: float = _field(float)
    replications: int = _field(_count("replications"))
    # keyword-only: declared before the spec, so written before it, while the spec stays the fourth argument
    failures: list = _field(lambda v: list(as_list(v)), [], default_factory=list, kw_only=True)  # a copy, as _object
    spec_echo: ExperimentSpec = _field(ExperimentSpec.from_dict, key="spec")

    @property
    def flagged(self) -> bool:
        return bool(self.failures)


def _family(process: str, params: dict, truncation: TruncationPolicy | None):
    """The sampler record (``SeriesProcess``, ``ExtendedDpParams``, ``StickBreaking``) of a declarative spec.

    For ``pdp_series`` an explicit ``r`` in the parameters selects the
    truncated arrival-ratio series with exactly that order (the benchmark
    grid's convention); without it the order is theta/alpha on the
    gamma-randomized path, which is the faithful Poisson-Dirichlet law.
    ``pdp_stick`` is sized by its fixed-count truncation; ``extended_dp``
    reads its level from ``params["n"]`` and takes no truncation.  A key
    the process does not read raises a DomainError.
    """
    params = as_object(f"{process} params", params, _PARAM_KEYS.get(process))
    try:
        if process == "extended_dp":
            if truncation is not None:
                raise DomainError("extended_dp takes no truncation: its level n is an approximation, not a truncation")
            return ExtendedDpParams(params["concentration"], params.get("r", 0), params["n"])
        if process == "pdp_stick":
            return StickBreaking(params["alpha"], params["theta"], truncation, bool(params.get("ranked", False)))
        if process == "dirichlet":
            return SeriesProcess.dirichlet(params["theta"], truncation)
        if process == "stable":
            return SeriesProcess.stable(params["alpha"], truncation)
        if process == "pkp":
            tail = params["tail"]
            tail = tail if isinstance(tail, LevyTail) else LevyTail.from_dict(tail)
            return SeriesProcess.pkp(params["r"], tail, truncation, params.get("randomized"))
        if process == "pdp_series":
            if params.get("r") is not None:
                return SeriesProcess.pkp(params["r"], LevyTail.generalized_gamma(params["alpha"]), truncation)
            return SeriesProcess.pdp(PdpParams(params["alpha"], params["theta"]), truncation)
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
    """Construct one measure realization for a declarative process spec: its record's ``measure``."""
    return _family(process, params, truncation).measure(uniform_base() if base is None else base, seed)


def _replicate(family, seeds, reduce=None):
    """Yield, in seed order, each seed's normalized weight row of the record ``family`` or the error it raised.

    With ``reduce``, each seed's entry of ``reduce(block, rows)`` is
    yielded in place of its row.  Blocks hold at most ``_BLOCK_POINTS`` row
    entries or one seed, or ``_EPSILON_BLOCK`` seeds when the record's
    ``width`` is None (the epsilon rule).  ``seeds`` is any iterable, taken
    one block at a time, so only a block's seeds are held at once.  A block
    that raises is drawn again seed by seed, so each failure stays with its
    own seed.
    """

    def draw(block):
        rows = [drawn_row(row) for row in family.draw(block)]
        return rows if reduce is None else reduce(block, rows)

    size = _EPSILON_BLOCK if family.width is None else max(1, _BLOCK_POINTS // family.width)
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, size)):
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


def _ks_values(spec: ExperimentSpec, base: BaseMeasure, family=None) -> tuple[np.ndarray, list[str]]:
    """Each replication's Kolmogorov distance (NaN where it failed) and the failure messages, in index order.

    ``family`` is the spec's sampler record, built here where it is not
    given.  A block's rows are reduced at once, each on atoms drawn from
    its own seed's atom stream.  A shorter row of the block is padded with
    zero weights on copies of its first atom, which leaves its distance
    exact.  A spec that cannot be drawn records its error on every
    replication.
    """
    seeds = (replication_seed(spec.master_seed, i) for i in range(spec.replications))
    values = np.full(spec.replications, np.nan)
    try:
        family = family or _family(spec.process, spec.params, spec.truncation)
    except Exception as exc:  # noqa: BLE001 - recorded for every replication
        return values, [f"replication {i}: {exc}" for i in range(spec.replications)]

    def distances(block, rows):
        weights = np.zeros((len(rows), max(row.size for row in rows)))
        atoms = np.empty_like(weights)
        for i, (seed, row) in enumerate(zip(block, rows)):
            weights[i, :row.size] = row
            atoms[i, :row.size] = base._atoms(seed, row.size)
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
    return _ks_result(spec, base)


def _ks_result(spec: ExperimentSpec, base: BaseMeasure | None, family=None) -> ExperimentResult:
    """``run_ks_experiment`` on the spec's sampler record ``family``, built here where it is not given."""
    values, failures = _ks_values(spec, uniform_base() if base is None else base, family)
    ok = values[np.isfinite(values)]
    mean = float(np.mean(ok)) if ok.size else float("nan")
    std_error = float(np.std(ok, ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return ExperimentResult(
        mean_distance=mean,
        std_error=std_error,
        replications=spec.replications,
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
    Every row is read as ``load_ks_grid`` reads it and its sampler record
    is built before any row is sampled, so a malformed row, or one that
    keeps fewer than 2 points (n - r < 2), raises a DomainError naming it.
    """
    truncation, replications = TruncationPolicy.fixed(n), as_count("replications", replications)
    runs = []
    for k, row in enumerate(rows):
        spec = ExperimentSpec("pdp_series", _grid_row(row), replications, truncation, seed_tuple(master_seed) + (k,))
        try:
            runs.append((spec, _family(spec.process, spec.params, truncation)))
        except DegenerateTruncationError as exc:
            raise DomainError(f"grid row {row!r}: {exc}; need at least 2") from exc
    return [_ks_result(spec, base, family) for spec, family in runs]


def load_ks_grid(data: dict) -> tuple[list[dict], int, int]:
    """Validate a benchmark-grid config dict: rows, index bound n, replications.

    Each row comes back as ``_grid_row`` reads it; there must be at least one row.
    """
    name = "grid config"
    rows = read_field(name, data, "rows", as_list)
    if not rows:
        raise DomainError("grid config needs at least one row")
    n, replications = (read_field(name, data, key, _count(key)) for key in ("n", "replications"))
    return [_grid_row(row) for row in rows], n, replications


def _grid_row(row) -> dict:
    """A grid row as numbers: alpha in (0, 1), finite theta > 0 (what ``PdpParams`` accepts) and integer
    r >= 0, and no other key.  Anything else raises a DomainError naming the row."""
    try:
        as_object("row", row, ("alpha", "theta", "r"))
        r, alpha, theta = (read_field("row", row, key, _number(key)) for key in ("r", "alpha", "theta"))
    except DomainError as exc:
        raise DomainError(f"grid row {row!r} needs alpha, theta, r: {exc}") from exc
    if not (r >= 0 and r.is_integer()):
        raise DomainError(f"grid row {row!r}: r must be a nonnegative integer")
    if not (0.0 < alpha < 1.0 and math.isfinite(theta) and theta > 0.0):
        raise DomainError(f"grid row {row!r}: need alpha in (0,1) and a finite theta > 0")
    return {"alpha": alpha, "theta": theta, "r": int(r)}


def parse_ks_table_result(data: dict) -> list[dict]:
    """Validate a grid-result payload (the ks-table JSON emission): its rows, each with its fields read.
    A NaN distance reads, since a row whose replications all fail prints NaN."""
    fields = {"alpha": _number("alpha"), "theta": _number("theta"), "r": _count("r", 0),
              "mean_distance": _number("mean_distance"), "std_error": _number("std_error"),
              "replications": _count("replications"), "failures": as_list}
    name = "grid result row"
    return [{**as_object(name, row), **{key: read_field(name, row, key, read) for key, read in fields.items()}}
            for row in read_field("grid result", data, "rows", as_list)]


# ---------------------------------------------------------------------------
# weight profiles


@dataclass
class WeightProfile(_Payload, name="weight profile"):
    """Monte Carlo means of the k largest weights for each order r."""

    r_grid: list[int] = _field(lambda v: as_list(v, _count("r", 0)))
    top_k: int = _field(_count("top_k"))
    replications: int = _field(_count("replications"))
    tail: dict = _field(_object("tail"))
    mean_weights: np.ndarray = _field(lambda v: np.asarray(as_list(v), dtype=float))  # shape (len(r_grid), top_k)


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
    replications, top_k = as_count("replications", replications), as_count("top_k", top_k)
    points_per_r = as_count("points_per_r", points_per_r, minimum=max(top_k, 2))  # covers top_k and 2 points
    r_grid = [as_count("r", r, minimum=0) for r in r_grid]
    if not r_grid:
        raise DomainError("r_grid must name at least one order r")
    out = np.zeros((len(r_grid), top_k))
    for gi, r in enumerate(r_grid):
        family = SeriesProcess.pkp(r, tail, TruncationPolicy.fixed(r + points_per_r))
        acc = np.zeros(top_k)
        seeds = (seed_tuple(seed) + (gi, rep) for rep in range(replications))
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
class GrowthDiagnostic(_Payload, name="growth diagnostic"):
    """Mean distinct-count K_n on a sample-size grid, over ``log_n`` at stable index 0, else ``n_pow_alpha``."""

    n_grid: list[int] = _field(lambda v: as_list(v, _count("n")))
    kn_means: list[float] = _field(lambda v: as_list(v, float))
    normalizer: str = _field(str)
    ratios: list[float] = _field(lambda v: as_list(v, float))
    replications: int = _field(_count("replications"))
    process: str = _field(str)
    params: dict = _field(_object("params"), {})


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
    index is 0 (gamma tails, the extended DP, alpha = 0 sticks), else by n^index.  Without a
    ``truncation`` the Dirichlet process keeps 3,000 points and the other series stop by the epsilon
    rule; the extended DP takes none, and stick breaking needs a fixed count.
    """
    replications = as_count("replications", replications)
    n_grid = [as_count("n", n) for n in n_grid]
    if not n_grid:
        raise DomainError("n_grid must name at least one sample size")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    if truncation is None and process not in ("extended_dp", "pdp_stick"):  # only a series has a default truncation
        eps = TruncationPolicy.epsilon_rule(1e-7, hard_cap=50_000)
        truncation = TruncationPolicy.fixed(3000) if process == "dirichlet" else eps
    family = _family(process, params, truncation)
    if family.index == 0 and n_grid[0] < 2:
        raise DomainError(f"{process} normalizes K_n by log n, so n_grid must start at 2 or more, got {n_grid[0]}")
    kn_means = []
    for ni, n in enumerate(n_grid):
        def distinct(block, rows):
            return [row_distinct_count(row, n, seed_i) for seed_i, row in zip(block, rows)]

        total = 0
        seeds = (seed_tuple(seed) + (ni, rep) for rep in range(replications))
        for count in _replicate(family, seeds, distinct):
            if isinstance(count, Exception):
                raise count
            total += count
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
class EquivalenceReport(_Payload, name="equivalence report"):
    """Two-sample KS comparison of largest ranked weights."""

    statistic: float = _field(float)
    p_value: float = _field(float)
    n_lhs: int = _field(_count("n_lhs"))
    n_rhs: int = _field(_count("n_rhs"))
    params: dict = _field(_object("params"))


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

    replications = as_count("replications", replications, minimum=100)  # per side
    if truncation is None:
        truncation = TruncationPolicy.fixed(3000)

    def largest(family, side):
        seeds = (seed_tuple(seed) + (side, i) for i in range(replications))
        out = np.empty(replications)
        for i, row in enumerate(_replicate(family, seeds)):
            if isinstance(row, Exception):
                raise row
            out[i] = row.max()
        return out

    pdp = PdpParams(alpha, theta)
    stick = StickBreaking(alpha if stick_alpha is None else stick_alpha, theta if stick_theta is None else stick_theta,
                          TruncationPolicy.fixed(as_count("sticks", sticks)), ranked=True)
    lhs, rhs = largest(SeriesProcess.pdp(pdp, truncation), 0), largest(stick, 1)
    ks = st.ks_2samp(lhs, rhs, method="asymp")
    return EquivalenceReport(
        statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
        n_lhs=replications,
        n_rhs=replications,
        params={
            "alpha": pdp.alpha,
            "theta": pdp.theta,
            "stick_alpha": stick.alpha,
            "stick_theta": stick.theta,
            "sticks": stick.truncation.n,
        },
    )


# ---------------------------------------------------------------------------
# config files


def load_experiment_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a JSON file."""
    with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"experiment spec {path} is not UTF-8: {exc}") from exc
    return ExperimentSpec.from_dict(as_json("experiment spec", text))
