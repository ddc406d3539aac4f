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

Every arrival comes from one per-seed row (``_Row``), which owns the
seed's arrival generator: ``_Row.arrivals`` continues the running sums of
a block of rows as one array for ``gamma_arrivals`` (a block of one), the
series levels and the extended DP, and stick breaking draws from it too.
``sample_log_points`` draws a block of seeds in one round loop, each round
one (live seeds x round size) array of levels and one ``log_tail_inverse``
call: a fixed-count draw of the gamma or stable tail is one round, every
other draw takes rounds of ``_CHUNK`` levels.  The epsilon rule scans a
row's ratios only in a round where it can fire (``_Row.take``).  The
generalized-gamma tail inverts only its levels below L(u),
u = x* = ``_TEMPER_SPLIT``, or u = L^{-1}(1) on the integer path, whose
levels start at 1 > L(x*); L(u) is solved once per (tail, path) in a
CLI command or a library process.  Past L(u) it tempers the closed-form
stable series (Rosiński, Stoch. Proc. Appl. 117, 2007): ν_GG(dx) =
e^{-x} ν_S(dx) with ν_S of tail L_S(x) = x^{-alpha}/Γ(1-alpha), and by
memorylessness the levels y past L(u) continue as stable candidates
L_S^{-1}(L_S(u) + y - L(u)) on (0, u), each kept with probability e^{-x}
against a uniform drawn from the arrival generator after its round's
arrivals: the kept points are the generalized-gamma points below u, in
decreasing order.  A round's exponentials are drawn whole, but a fixed
count thins only the candidates it keeps: it draws their uniforms in
pieces, which on Philox are one draw, and its row closes after the last.
So a seed's sequence is bit-identical to drawing it alone, under either
truncation, and a fixed-count draw is a prefix of the epsilon-rule draw;
``sample_nbp_points`` is that sampler with one seed.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_ARRIVALS, STREAM_MIXING, release, seed_tuple, spawn_generator
from .errors import (
    MAX_ARRIVALS,  # noqa: F401 - re-exported, so the bound stays importable where the arrivals are drawn
    DegenerateTruncationError,
    DomainError,
    NumericError,
    ResourceLimitError,
    as_count,
    as_number,
    as_object,
    table_text,
)
from .levy_tails import LevyTail, log_tail_inverse, log_tail_value

DEFAULT_HARD_CAP = 1_000_000  # retained points of a truncation that names no hard_cap

_CHUNK = 1024  # points per seed per epsilon-rule round; fixed for determinism
_TEMPER_SPLIT = 1.0  # x*: generalized-gamma points above it are inverted, those below it thinned
_RATIO_SLACK = 1e-6  # relative margin by which a round's last epsilon-rule ratio clears epsilon to skip the scan


@dataclass(frozen=True)
class TruncationPolicy:
    """How to cut the infinite point series.

    ``fixed_count`` truncates the series at arrival index ``n`` (the sum
    runs from the path's first index to n; ``NbpConfig.width`` counts the
    points retained).  ``epsilon_rule`` stops at the first index whose
    point, relative to the running sum of retained points, drops below
    ``epsilon``; that index is included.
    ``hard_cap`` bounds the number of retained points in all modes.
    """

    mode: str
    n: int | None = None
    epsilon: float | None = None
    hard_cap: int = DEFAULT_HARD_CAP

    def __post_init__(self):
        # the converted values are stored (the dataclass is frozen), so a
        # config string such as "100" compares as the number it passed as
        if self.mode not in ("fixed_count", "epsilon_rule"):
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        object.__setattr__(self, "hard_cap", as_count("hard_cap", self.hard_cap))
        if self.mode == "fixed_count":
            if self.n is None:
                raise DomainError("fixed_count needs a positive index bound n, got None")
            object.__setattr__(self, "n", as_count("n", self.n))
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
    def fixed(cls, n: int, hard_cap: int = DEFAULT_HARD_CAP) -> "TruncationPolicy":
        return cls(mode="fixed_count", n=n, hard_cap=hard_cap)

    @classmethod
    def epsilon_rule(cls, epsilon: float, hard_cap: int = DEFAULT_HARD_CAP) -> "TruncationPolicy":
        return cls(mode="epsilon_rule", epsilon=epsilon, hard_cap=hard_cap)

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "hard_cap": int(self.hard_cap)}
        if self.n is not None:
            out["n"] = int(self.n)
        if self.epsilon is not None:
            out["epsilon"] = float(self.epsilon)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TruncationPolicy":
        as_object("truncation", data, ("mode", "n", "epsilon", "hard_cap"))
        return cls(
            mode=data.get("mode", "fixed_count"),
            n=data.get("n"),
            epsilon=data.get("epsilon"),
            hard_cap=data.get("hard_cap", DEFAULT_HARD_CAP),
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
        if not (arr[0] > 0 and np.all(np.diff(arr) > 0) and np.isfinite(arr[-1])):
            raise DomainError("arrivals must be strictly increasing and positive, and finite")
        self.arrivals = arr

    def __len__(self):
        return self.arrivals.size


def gamma_arrivals(seed, count: int) -> ArrivalStream:
    """First ``count`` arrivals of a unit-rate Poisson process.

    Deterministic given the seed; the increments are i.i.d. unit-mean
    exponentials from the arrival stream every sampler of the seed uses.
    """
    row = _Row(seed)
    arrivals = _Row.arrivals([row], as_count("count", count))[0]
    row.close()
    return ArrivalStream(arrivals=arrivals, seed=seed_tuple(seed))


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
    ``False`` insists on the integer path.  The resolved path is stored; an impossible one raises here.

    The path fixes a draw's row shape: ``first_index`` and, under fixed_count, the retained count
    ``width``.  A truncation that keeps fewer than 2 points (a fixed count, or an epsilon-rule hard cap)
    raises a DegenerateTruncationError here, and a fixed count above the hard cap, or a draw holding more
    than ``MAX_ARRIVALS`` arrivals, a ResourceLimitError."""

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
        is_integer = r == math.floor(r)
        randomized = not is_integer if self.randomized is None else bool(self.randomized)
        if randomized and r == 0.0:
            raise DomainError("the randomized path needs r > 0")
        if not randomized and not is_integer:
            raise DomainError(f"the integer-order path needs integer r, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "randomized", randomized)
        trunc, width = self.truncation, self.width
        if width is None and trunc.hard_cap < 2:  # the epsilon rule keeps at most hard_cap points
            raise DegenerateTruncationError(f"truncation retained {trunc.hard_cap} points; need at least 2")
        if width is not None and width < 2:
            past = self.first_index - 1
            raise DegenerateTruncationError(f"fixed_count n={trunc.n} retains {max(width, 0)} points past index {past}")
        if width is not None and width > trunc.hard_cap:
            raise ResourceLimitError(f"fixed_count would retain {width} points, above hard_cap={trunc.hard_cap}")
        as_count("count", self.first_index - 1 + (trunc.hard_cap if width is None else width))  # arrivals a draw holds

    @property
    def first_index(self) -> int:
        """Series index of the first retained point: r + 1 on the integer-order path, 1 on the randomized one."""
        return 1 if self.randomized else int(self.r) + 1

    @property
    def width(self) -> int | None:
        """Points a fixed-count draw retains, indices first_index .. n; None under the epsilon rule."""
        trunc = self.truncation
        return trunc.n - self.first_index + 1 if trunc.mode == "fixed_count" else None


@dataclass
class PointSeries:
    """Truncated decreasing point sequence with its stopping diagnostics.

    ``log_points`` holds ln of the points (kept in log domain so that deep
    gamma-tail points survive underflow); ``first_index`` is the series
    index of the first retained point (r + 1 on the integer-order path,
    1 otherwise).  ``truncation_warning`` says that the hard cap fired
    before the epsilon rule did.
    """

    log_points: np.ndarray
    first_index: int
    stopped_by: str

    @property
    def truncation_warning(self) -> bool:
        return self.stopped_by == "hard_cap"

    @property
    def points(self) -> np.ndarray:
        return np.exp(self.log_points)

    def __len__(self):
        return self.log_points.size

    def to_csv(self, file=None) -> str | None:
        return write_points_csv(self.points, first_index=self.first_index, file=file)


def write_points_csv(points, first_index: int = 1, file=None) -> str | None:
    """Write (index, value) rows to ``file``, a path or an open text file; returns the text when no file is given."""
    text = table_text(("index", "value"), ((first_index + j, v) for j, v in enumerate(np.asarray(points, dtype=float))))
    if file is None:
        return text
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, "w") as fh:
            fh.write(text)
    else:
        file.write(text)
    return None


class _Row:
    """One seed's arrivals Γ_1 < Γ_2 < ..., its levels Γ_i / divisor and its progress through the truncation.

    The row owns the seed's ``STREAM_ARRIVALS`` generator ``rng``: every draw from the seed's arrival stream
    goes through it, and ``close`` releases it once the row's last draw is done (``take`` does so when the
    series is finished).  On the integer path the divisor Γ_r is drawn here, one ordered sum that starts the
    running sum ``arrivals`` continues from Γ_{r+1}.  The defaults, r = 0 on the integer path, give the plain arrivals.
    """

    def __init__(self, seed, r: float = 0.0, randomized: bool = False):
        self.rng = spawn_generator(seed, STREAM_ARRIVALS)
        self._last = 0.0
        self.r = r
        if randomized:
            mixing = spawn_generator(seed, STREAM_MIXING)
            self.divisor = float(mixing.gamma(r, 1.0))
            release(mixing)
            if not (math.isfinite(self.divisor) and self.divisor > 0.0):
                # a tiny order r can underflow the gamma draw to an exact zero
                raise self._degenerate()
        elif r == 0.0:
            self.divisor = 1.0  # Gamma_0 = 1 convention: the plain Poisson random measure
        else:  # one ordered sum Γ_r, which the row's arrivals continue
            self._last = self.divisor = float(np.cumsum(self.rng.standard_exponential(int(r)))[-1])
        self.shift = 0.0
        self.scaled_sum = 0.0
        self.chunks: list[np.ndarray] = []
        self.retained = 0

    def close(self) -> None:
        """Release the arrival generator after the row's last draw."""
        release(self.rng)
        self.rng = None

    @staticmethod
    def arrivals(rows: list[_Row], count: int) -> np.ndarray:
        """The next ``count`` arrivals of each row as one (rows, count) array: line k is ``count`` more exponentials
        from ``rows[k].rng``, continuing that row's running sum.  A single draw is a block of one."""
        arrivals = np.empty((len(rows), count))
        for row, line in zip(rows, arrivals):
            row.rng.standard_exponential(out=line)
        arrivals[:, 0] += [row._last for row in rows]
        np.cumsum(arrivals, axis=1, out=arrivals)
        for row, last in zip(rows, arrivals[:, -1].tolist()):
            row._last = last
        return arrivals

    def head(self, levels: np.ndarray, stop: int) -> np.ndarray:
        """The round's first ``stop`` levels, the ones it inverts.  Level i overflows when the mixing draw is below
        Γ_i / 1.8e308, about 5.7e-306 at the 1024th arrival.  A generalized-gamma row thins its levels past ``stop``
        as stable candidates, which takes an infinite level to a zero weight, but an inverted level must be finite.
        The levels increase, so only the last is checked."""
        head = levels[:stop]
        if head.size and head[-1] == math.inf:
            raise self._degenerate()
        return head

    def _degenerate(self) -> NumericError:
        return NumericError(f"gamma mixing draw degenerated to {self.divisor} at r={self.r}")

    def take(self, log_pts: np.ndarray, cfg: NbpConfig) -> PointSeries | None:
        """Apply the truncation to the next round's points; the finished series, or None to go on.

        The row stops once it retains ``cap`` points: the fixed count, or the hard cap under the epsilon
        rule, lowered to the first point below epsilon (which is retained) when the cap does not come first.
        A later point's share of an infinite first point is 0, so such a row stops at its second point.
        A round's ratios x_j / (S + x_1 + ... + x_j) do not increase, so it is scanned only if it is empty, its last
        ratio is NaN or, on the pairwise sum, misses epsilon by δ = ``_RATIO_SLACK`` (rounding, ulp-level ties).
        """
        trunc, width, retained = cfg.truncation, cfg.width, self.retained
        cap, stopped_by = (trunc.hard_cap, "hard_cap") if width is None else (width, "fixed_count")
        if width is None:
            if not retained and log_pts.size:  # a thinned round can keep no point
                self.shift = float(log_pts[0])
            # scaled by the row's first point, so the ratios stay defined when every point underflows
            pts = np.exp(log_pts - self.shift)
            total, slack = float(pts.sum()), 1.0 + _RATIO_SLACK
            if self.shift == math.inf:
                cap, stopped_by = 2, "epsilon_rule"
            elif not (pts.size and pts[-1] / (self.scaled_sum + total * slack) >= trunc.epsilon * slack):
                below = np.flatnonzero(pts / (self.scaled_sum + np.cumsum(pts)) < trunc.epsilon)
                if below.size and retained + int(below[0]) + 1 <= cap:
                    cap, stopped_by = retained + int(below[0]) + 1, "epsilon_rule"
            self.scaled_sum += total
        self.chunks.append(log_pts)
        self.retained += log_pts.size
        if self.retained < cap:
            return None
        self.close()
        return PointSeries(np.concatenate(self.chunks)[:cap], cfg.first_index, stopped_by)


@functools.lru_cache(maxsize=128)
def _split(tail: LevyTail, integer_path: bool) -> tuple[float, float]:
    """(L(u), ln u) of a generalized-gamma tail, solved once per (tail, path) until a CLI command empties the memo.
    ``integer_path``: the levels start at 1 > L(x*) (the integer path, r >= 1), so u = L^{-1}(1) < x*; else u = x*."""
    if integer_path:
        return 1.0, float(log_tail_inverse(tail, 1.0)[0])
    return float(np.exp(log_tail_value(tail, _TEMPER_SPLIT)[0])), math.log(_TEMPER_SPLIT)


class _Tempered:
    """A generalized-gamma config's split level L(u), solved by ``_split``, and its thinned stable candidates."""

    def __init__(self, cfg: NbpConfig):
        self.alpha = cfg.tail.alpha
        self.level, self.log_u = _split(cfg.tail, cfg.first_index > 1)
        self.scale = math.exp(math.lgamma(1.0 - self.alpha) + self.alpha * self.log_u)  # Γ(1-alpha) u^alpha

    def thin(self, rows: list[_Row], levels: np.ndarray, starts: list[int], needs: list[int], kept: list[list]) -> None:
        """Add to ``kept[k]`` ln x = ln L_S^{-1}(L_S(u) + y - L(u)) of line k's levels y from ``starts[k]``, each kept
        with probability e^{-x}, in leading pieces of s + s // 4 + 8 for the shortfall s (first ``needs[k]``) until
        ``needs[k]`` are kept.  A pass evaluates the columns some piece covers as one array; each row draws uniforms
        into its piece with its own ``rng.random`` (pieces of which are one draw on Philox); 1 elsewhere keeps none."""
        width, starts, shorts = levels.shape[1], list(starts), list(needs)
        while act := [k for k, short in enumerate(shorts) if short > 0 and starts[k] < width]:
            ends = [min(starts[k] + shorts[k] + shorts[k] // 4 + 8, width) for k in act]
            lo = min([starts[k] for k in act])
            uniforms = np.ones((len(rows), max(ends) - lo))
            for k, end in zip(act, ends):
                rows[k].rng.random(out=uniforms[k, starts[k] - lo:end - lo])
            log_x = self.log_u - np.log1p((levels[:, lo:lo + uniforms.shape[1]] - self.level) * self.scale) / self.alpha
            keep = uniforms < np.exp(-np.exp(log_x))
            for k, end in zip(act, ends):
                kept[k].append(log_x[k][keep[k]])
                starts[k], shorts[k] = end, shorts[k] - kept[k][-1].size


# a thinned candidate below the smallest double is an exact zero, and at a subnormal alpha a row's first
# point can be infinite, leaving its epsilon-rule ratios NaN: that row stops at its second point, and the
# row normaliser rejects it
@np.errstate(over="ignore", invalid="ignore")
def sample_log_points(cfg: NbpConfig, seeds) -> list[PointSeries]:
    """The truncated negative binomial point sequence of each seed, in seed order.

    Each round draws the next levels Γ_i / divisor of every live seed as
    one array and inverts them with one ``log_tail_inverse`` call (a
    generalized-gamma row only those below L(u); it thins the rest as one
    array), then truncates row by row until the fixed count, the epsilon
    rule or the hard cap stops the seed.  The config checked the row shape
    when it was built, so every series retains at least 2 points.  Each
    point is solved on its own and each row draws from its own generator,
    so draw i is bit-identical to seed i drawn alone; the first failure raises.
    """
    seeds = list(seeds)
    if not seeds:
        raise DomainError("sampling needs at least one seed")
    rows = [_Row(seed, cfg.r, cfg.randomized) for seed in seeds]
    tempered = _Tempered(cfg) if cfg.tail.kind == "generalized_gamma" else None
    count = cfg.width if cfg.width is not None and tempered is None else _CHUNK
    out: list[PointSeries | None] = [None] * len(rows)
    live = list(range(len(rows)))
    while live:
        block = [rows[i] for i in live]
        levels = _Row.arrivals(block, count)
        levels /= [[row.divisor] for row in block]
        # a generalized-gamma row inverts its levels below L(u), at most the points the row still wants
        cuts = [count] * len(block) if tempered is None else [int(line.searchsorted(tempered.level)) for line in levels]
        wants = [count if cfg.width is None else cfg.width - row.retained for row in block]
        stops = [min(cut, want) for cut, want in zip(cuts, wants)]
        pieces = [[] for _ in block]  # a row's inverted levels, then its kept candidates; a headless row thins a piece
        if any(stops):
            flat = np.concatenate([row.head(line, stop) for row, line, stop in zip(block, levels, stops)])
            log_flat = log_tail_inverse(cfg.tail, flat)
            for piece, stop, end in zip(pieces, stops, np.cumsum(stops).tolist()):
                piece.append(log_flat[end - stop:end])
        if tempered is not None:  # the rest are stable candidates, thinned until the row has the points it wants
            tempered.thin(block, levels, stops, [want - stop for want, stop in zip(wants, stops)], pieces)
        for i, row, piece in zip(live, block, pieces):
            out[i] = row.take(piece[0] if len(piece) == 1 else np.concatenate(piece), cfg)
        live = [i for i in live if out[i] is None]
    return out


def sample_nbp_points(cfg: NbpConfig, seed) -> PointSeries:
    """Sample the truncated negative binomial point sequence on the config's path.

    This is ``sample_log_points`` with one seed: a single draw is a block
    of one, under either truncation.
    """
    return sample_log_points(cfg, [seed])[0]
