"""Samplers for the unit-rate Poisson arrival stream, transformed Poisson
random measures, and the negative binomial point sequence.

The negative binomial sequence comes in two equivalent-by-construction
flavors:

* integer order r: transform the arrival ratios Γ_i / Γ_r for i > r,
  which keeps every point inside (0, L^{-1}(1));
* real order r > 0: transform Γ_i / G for a Gamma(r, 1) mixing variable
  G drawn independently of the arrivals (a Poisson random measure with
  gamma-randomized intensity).  Points may then exceed L^{-1}(1),
  mirroring the full jump sequence of the subordinator picture.

r = 0 reduces to the plain Poisson random measure (Γ_0 = 1 convention).
The path is a field of the checked ``NbpConfig``, resolved when it is built.

Every arrival comes from one per-seed stream (``_Arrivals``), so
``gamma_arrivals``, the series levels and the extended DP draw the same
Γ_1, Γ_2, ... of a seed.  ``sample_log_points`` draws a block of seeds in
one round loop, one ``log_tail_inverse`` call per round: a fixed-count
draw is one round, the epsilon rule takes rounds of ``_CHUNK`` points.  A
seed's sequence is bit-identical to drawing it alone, under either
truncation; ``sample_nbp_points`` is that sampler with one seed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import (
    STREAM_ARRIVALS,
    STREAM_MIXING,
    seed_tuple,
    spawn_generator,
)
from .errors import (
    DegenerateTruncationError,
    DomainError,
    NumericError,
    ResourceLimitError,
    as_number,
)
from .levy_tails import LevyTail, log_tail_inverse

MAX_ARRIVALS = 100_000_000  # ~800 MB of float64, hard memory bound

_CHUNK = 1024  # points per seed per epsilon-rule round; fixed for determinism


@dataclass(frozen=True)
class TruncationPolicy:
    """How to cut the infinite point series.

    ``fixed_count`` truncates the series at arrival index ``n`` (the sum
    runs i = r+1 .. n, so n - r points are retained on the integer-order
    path and n points when the series starts at i = 1).  ``epsilon_rule``
    stops at the first index whose point, relative to the running sum of
    retained points, drops below ``epsilon``; that index is included.
    ``hard_cap`` bounds the number of retained points in all modes.
    """

    mode: str
    n: int | None = None
    epsilon: float | None = None
    hard_cap: int = 1_000_000

    def __post_init__(self):
        # the converted values are stored (the dataclass is frozen), so a
        # config string such as "100" compares as the number it passed as
        if self.mode not in ("fixed_count", "epsilon_rule"):
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        object.__setattr__(self, "hard_cap", as_number("hard_cap", self.hard_cap, int))
        if self.hard_cap < 1:
            raise DomainError("hard_cap must be positive")
        if self.mode == "fixed_count":
            n = None if self.n is None else as_number("n", self.n, int)
            if n is None or n < 1:
                raise DomainError(f"fixed_count needs a positive index bound n, got {self.n}")
            object.__setattr__(self, "n", n)
            if self.epsilon is not None:
                raise DomainError("fixed_count does not take epsilon")
        else:
            eps = None if self.epsilon is None else as_number("epsilon", self.epsilon)
            if eps is None or not (0.0 < eps < 1.0):
                raise DomainError(f"epsilon_rule needs epsilon in (0,1), got {self.epsilon}")
            object.__setattr__(self, "epsilon", eps)
            if self.n is not None:
                raise DomainError("epsilon_rule does not take n")

    @classmethod
    def fixed(cls, n: int, hard_cap: int = 1_000_000) -> "TruncationPolicy":
        return cls(mode="fixed_count", n=n, hard_cap=hard_cap)

    @classmethod
    def epsilon_rule(cls, epsilon: float, hard_cap: int = 1_000_000) -> "TruncationPolicy":
        return cls(mode="epsilon_rule", epsilon=epsilon, hard_cap=hard_cap)

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "hard_cap": int(self.hard_cap)}
        if self.n is not None:
            out["n"] = int(self.n)
        if self.epsilon is not None:
            out["epsilon"] = float(self.epsilon)
        return out

    def retained(self, first_index: int) -> int:
        """Points a fixed-count truncation keeps from index ``first_index`` on; below 2, a DegenerateTruncationError."""
        count = self.n - (first_index - 1)
        if count < 2:
            raise DegenerateTruncationError(
                f"fixed_count n={self.n} retains {max(count, 0)} points past index {first_index - 1}"
            )
        return count

    @classmethod
    def from_dict(cls, data: dict) -> "TruncationPolicy":
        extra = set(data) - {"mode", "n", "epsilon", "hard_cap"}
        if extra:
            raise DomainError(f"unknown truncation fields: {sorted(extra)}")
        return cls(
            mode=data.get("mode", "fixed_count"),
            n=data.get("n"),
            epsilon=data.get("epsilon"),
            hard_cap=data.get("hard_cap", 1_000_000),
        )


@dataclass
class ArrivalStream:
    """Realized Poisson arrivals Γ_1 < Γ_2 < ... (partial sums of Exp(1))."""

    arrivals: np.ndarray
    seed: tuple

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("arrivals must be a nonempty 1-d array")
        if arr[0] <= 0 or (arr.size > 1 and not np.all(np.diff(arr) > 0)):
            raise DomainError("arrivals must be strictly increasing and positive")
        self.arrivals = arr

    def __len__(self):
        return self.arrivals.size


class _Arrivals:
    """One seed's unit-rate arrivals Γ_1 < Γ_2 < ..., drawn on demand from
    its ``STREAM_ARRIVALS`` generator."""

    def __init__(self, seed):
        self._rng = spawn_generator(seed, STREAM_ARRIVALS)
        self._last = 0.0

    def next(self, count: int) -> np.ndarray:
        """The next ``count`` arrivals: ``count`` more exponentials, continuing the running sum."""
        incr = self._rng.standard_exponential(count)
        incr[0] += self._last
        arrivals = np.cumsum(incr)
        self._last = float(arrivals[-1])
        return arrivals


def gamma_arrivals(seed, count: int) -> ArrivalStream:
    """First ``count`` arrivals of a unit-rate Poisson process.

    Deterministic given the seed; the increments are i.i.d. unit-mean
    exponentials from the arrival stream every sampler of the seed uses.
    """
    count = as_number("count", count, int)
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    if count > MAX_ARRIVALS:
        raise ResourceLimitError(f"count {count} exceeds the hard bound {MAX_ARRIVALS}")
    return ArrivalStream(arrivals=_Arrivals(seed).next(count), seed=seed_tuple(seed))


def sample_prm_points(tail: LevyTail, stream: ArrivalStream) -> np.ndarray:
    """Points L^{-1}(Γ_i) of the Poisson random measure with intensity L.

    Strictly decreasing.  Deep arrivals of a gamma-kind tail may underflow
    to zero in linear domain; use the log-domain machinery downstream when
    that matters.
    """
    return np.exp(log_tail_inverse(tail, stream.arrivals))


@dataclass(frozen=True)
class NbpConfig:
    """Order r (stored as a float), ``LevyTail``, ``TruncationPolicy`` and sampling path of the negative
    binomial sampler, checked.  ``randomized=None`` takes the integer-order arrival-ratio path when r is
    an integer and the gamma-randomized path otherwise; ``True`` forces the randomized path (any r > 0),
    ``False`` insists on the integer path.  The resolved path is stored; an impossible one raises here."""

    r: float
    tail: LevyTail
    truncation: TruncationPolicy
    randomized: bool | None = field(default=None, kw_only=True)

    def __post_init__(self):
        r = as_number("r", self.r)
        if not (math.isfinite(r) and r >= 0):
            raise DomainError(f"order r must be a nonnegative real, got {r}")
        if not isinstance(self.tail, LevyTail):
            raise DomainError(f"tail must be a LevyTail, got {self.tail!r}")
        if not isinstance(self.truncation, TruncationPolicy):
            raise DomainError("this process needs a truncation policy")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "randomized", _resolve_path(r, self.randomized))


@dataclass
class PointSeries:
    """Truncated decreasing point sequence with its stopping diagnostics.

    ``log_points`` holds ln of the points (kept in log domain so that deep
    gamma-tail points survive underflow); ``first_index`` is the series
    index of the first retained point (r + 1 on the integer-order path,
    1 otherwise).  ``truncation_warning`` is set when the hard cap fired
    before the epsilon rule did.
    """

    log_points: np.ndarray
    first_index: int
    stopped_by: str
    truncation_warning: bool = False

    @property
    def points(self) -> np.ndarray:
        return np.exp(self.log_points)

    def __len__(self):
        return self.log_points.size

    def to_csv(self, file=None) -> str | None:
        return write_points_csv(self.points, first_index=self.first_index, file=file)


def write_points_csv(points, first_index: int = 1, file=None) -> str | None:
    """Write (index, value) rows; returns the text when no file is given."""
    buf = io.StringIO()
    buf.write("index,value\n")
    for j, v in enumerate(np.asarray(points, dtype=float)):
        buf.write(f"{first_index + j},{float(v)!r}\n")
    text = buf.getvalue()
    if file is None:
        return text
    if isinstance(file, (str, bytes)):
        with open(file, "w") as fh:
            fh.write(text)
    else:
        file.write(text)
    return None


def _resolve_path(r: float, randomized: bool | None) -> bool:
    """Whether order r samples on the randomized path; see ``NbpConfig``."""
    is_integer = r == math.floor(r)
    randomized = not is_integer if randomized is None else bool(randomized)
    if randomized and r == 0.0:
        raise DomainError("the randomized path needs r > 0")
    if not randomized and not is_integer:
        raise DomainError(f"the integer-order path needs integer r, got {r}")
    return randomized


class _Row:
    """One seed's levels Γ_i / divisor and its progress through the truncation.

    On the integer path the first r arrivals are drawn here and the divisor
    is Γ_r; the levels continue from Γ_{r+1}.
    """

    def __init__(self, seed, r: float, randomized: bool):
        self.arrivals = _Arrivals(seed)
        if randomized:
            self.divisor = float(spawn_generator(seed, STREAM_MIXING).gamma(r, 1.0))
            if not (math.isfinite(self.divisor) and self.divisor > 0.0):
                # a tiny order r can underflow the gamma draw to an exact zero
                raise NumericError(f"gamma mixing draw degenerated to {self.divisor} at r={r}")
        elif r == 0.0:
            self.divisor = 1.0  # Gamma_0 = 1 convention: the plain Poisson random measure
        else:
            self.divisor = float(self.arrivals.next(int(r))[-1])
        self.shift = 0.0
        self.scaled_sum = 0.0
        self.chunks: list[np.ndarray] = []

    def next_levels(self, count: int) -> np.ndarray:
        return self.arrivals.next(count) / self.divisor

    def take(self, log_pts: np.ndarray, trunc: TruncationPolicy, first_index: int) -> PointSeries | None:
        """Apply the truncation to the next round's points; the finished series, or None to go on."""
        if trunc.mode == "fixed_count":
            return PointSeries(log_pts, first_index, "fixed_count")
        if not self.chunks:
            self.shift = float(log_pts[0])
        # scaled by the row's first point, so the ratios stay defined when every point underflows
        pts = np.exp(log_pts - self.shift)
        ratios = pts / (self.scaled_sum + np.cumsum(pts))
        below = np.flatnonzero(ratios < trunc.epsilon)
        # the triggering index is retained
        self.chunks.append(log_pts[: int(below[0]) + 1] if below.size else log_pts)
        self.scaled_sum += float(np.sum(pts))
        retained = sum(map(len, self.chunks))
        if below.size and retained <= trunc.hard_cap:
            return PointSeries(np.concatenate(self.chunks), first_index, "epsilon_rule")
        if retained >= trunc.hard_cap:
            total = np.concatenate(self.chunks)[: trunc.hard_cap]
            return PointSeries(total, first_index, "hard_cap", truncation_warning=True)
        return None


def sample_log_points(cfg: NbpConfig, seeds) -> list[PointSeries]:
    """The truncated negative binomial point sequence of each seed, in seed order.

    Each round inverts the next levels Γ_i / divisor of every seed still
    running with one ``log_tail_inverse`` call, then truncates row by row:
    a fixed-count draw is one round of its retained count, the epsilon
    rule takes ``_CHUNK``-point rounds until the rule or the hard cap
    stops the seed.  The inverse solves every point on its own, so draw i
    is bit-identical to the draw of seed i alone, and a fixed-count draw
    is a prefix of the epsilon-rule draw of its seed.  The first seed
    that fails raises.
    """
    seeds = list(seeds)
    if not seeds:
        raise DomainError("sampling needs at least one seed")
    trunc = cfg.truncation
    rows = [_Row(seed, cfg.r, cfg.randomized) for seed in seeds]
    first_index = 1 if cfg.randomized else int(cfg.r) + 1
    count = _CHUNK
    if trunc.mode == "fixed_count":
        count = trunc.retained(first_index)
        if count > trunc.hard_cap:
            raise ResourceLimitError(f"fixed_count would retain {count} points, above hard_cap={trunc.hard_cap}")
    out: list[PointSeries | None] = [None] * len(rows)
    live = list(range(len(rows)))
    while live:
        levels = np.stack([rows[i].next_levels(count) for i in live])
        log_block = log_tail_inverse(cfg.tail, levels.ravel()).reshape(levels.shape)
        for i, log_pts in zip(live, log_block):
            out[i] = rows[i].take(log_pts, trunc, first_index)
        live = [i for i in live if out[i] is None]
    return out


def sample_nbp_points(cfg: NbpConfig, seed) -> PointSeries:
    """Sample the truncated negative binomial point sequence on the config's path.

    This is ``sample_log_points`` with one seed: a single draw is a block
    of one, under either truncation.
    """
    return sample_log_points(cfg, [seed])[0]
