"""In-memory span tracer for nbpriors, installed from outside the package.

The package modules call the names they import (``from .levy_tails import
log_tail_inverse``), so a function is wrapped where it is used: every
package function bound in another package module's namespace is replaced
there by a timing wrapper, together with a few calls made inside one
module that a per-layer metric needs (``experiments.kolmogorov_distance``).
The ``scipy.special`` module object bound as ``sp`` is replaced by a proxy
that counts the elements passed through the kernels in
``COUNTED_KERNELS``, and ``experiments.ThreadPoolExecutor`` by a subclass
that hands the submitting thread's span to its workers, so spans opened
on pool threads keep their parent.

Spans (name, layer, start, end, parent, thread) stay in memory until the
run ends.  ``uninstall`` restores every patched name, so an untraced call
in the same process runs the package's own code.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from statistics import median

import numpy as np
import scipy.special

PACKAGE = "nbpriors"

# package module -> layer name used in span and metric names
LAYERS = {
    f"{PACKAGE}.cli": "cli",
    f"{PACKAGE}.experiments": "experiments",
    f"{PACKAGE}.random_measures": "random_measures",
    f"{PACKAGE}.point_processes": "point_processes",
    f"{PACKAGE}.levy_tails": "levy_tails",
    f"{PACKAGE}.special_functions": "special_functions",
    f"{PACKAGE}._rng": "rng",
}

# calls inside one module that a layer metric needs: (module, function name)
INTRA_MODULE = ((f"{PACKAGE}.experiments", "kolmogorov_distance"),)

COUNTED_KERNELS = ("exp1", "gammaincc", "gammainccinv")

TAIL_KINDS = ("gamma", "generalized_gamma")

KS_SPAN = "experiments.kolmogorov_distance"
DRAW_SPANS = ("random_measures.draw_from_measure", "random_measures.distinct_count")
INVERSE_SPAN = "levy_tails.log_tail_inverse"
NBP_SPAN = "point_processes.sample_nbp_points"
SPAWN_SPAN = "rng.spawn_generator"


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "thread", "kind", "size", "scipy_evals")

    def __init__(self, span_id, name, layer, parent, kind):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.kind = kind
        self.size = None
        self.scipy_evals = 0
        self.start = self.end = 0.0

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


def _result_size(result):
    """Points in an array result, atoms in a measure result, else None."""
    if isinstance(result, np.ndarray):
        return int(result.size)
    weights = getattr(result, "weights", None)
    return None if weights is None else int(np.size(weights))


def _counting_special(tracer: "Tracer") -> types.SimpleNamespace:
    """A stand-in for ``scipy.special`` that counts elements through the named kernels.

    It copies the module's namespace, so other lookups cost what they cost on the module.
    """

    def counted(kernel):
        @functools.wraps(kernel)
        def wrapper(*args, **kwargs):
            out = kernel(*args, **kwargs)
            stack = tracer.stack()
            if stack:
                stack[-1].scipy_evals += int(np.size(out))
            return out

        return wrapper

    namespace = types.SimpleNamespace(**vars(scipy.special))
    for name in COUNTED_KERNELS:
        setattr(namespace, name, counted(getattr(scipy.special, name)))
    return namespace


class Tracer:
    """Collects spans from wrapped package functions, one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack()
            span = Span(
                next(tracer._ids), name, layer,
                stack[-1].id if stack else None,
                getattr(args[0], "kind", None) if args else None,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span.size = _result_size(result)
            return result

        return traced

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer.stack()
                parent = stack[-1] if stack else None

                def run():
                    worker_stack = tracer.stack()
                    if parent is not None:
                        worker_stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        if parent is not None:
                            worker_stack.pop()

                return super().submit(run)

        return TracedExecutor

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every cross-module package call; the package must be imported."""
        modules = {name: sys.modules[name] for name in LAYERS if name in sys.modules}
        self.missing = sorted(set(LAYERS) - set(modules))
        counting = _counting_special(self)
        for module_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if value is scipy.special:
                    self._patch(module, attr, counting)
                elif value is ThreadPoolExecutor:
                    self._patch(module, attr, self._executor_class())
                elif (
                    inspect.isfunction(value)
                    and value.__module__ in LAYERS
                    and value.__module__ != module_name
                ):
                    name = f"{LAYERS[value.__module__]}.{value.__name__}"
                    self._patch(module, attr, self.wrap(value, name, LAYERS[value.__module__]))
        for module_name, attr in INTRA_MODULE:
            module = modules.get(module_name)
            if module is None or not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self.wrap(getattr(module, attr), f"{LAYERS[module_name]}.{attr}",
                                                LAYERS[module_name]))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def call_profiles(spans: list[Span]) -> list[dict]:
    """One dict of layer times and counts per root span (one CLI call), in call order.

    A span's self time is its duration minus the part of it that its child
    spans cover; children on pool threads overlap, so the union is used.
    Times are seconds, counts are per call.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def root_of(span):
        while span.parent is not None:
            span = by_id[span.parent]
        return span

    def tail_kind(span):
        # the kind of the nearest enclosing tail inversion, if any
        while span is not None:
            if span.layer == "levy_tails" and span.kind is not None:
                return span.kind
            span = by_id.get(span.parent)
        return None

    profiles: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        root = root_of(s)
        p = profiles[root.id]
        p["_start"] = root.start
        duration = s.end - s.start
        self_s = duration - _covered([(c.start, c.end) for c in children[s.id]], s.start, s.end)
        p[f"self_s.{s.layer}"] += self_s
        if s.name == KS_SPAN:
            p["ks_self_s"] += self_s
            p["ks_calls"] += 1
        elif s.name in DRAW_SPANS:
            p["draw_self_s"] += self_s
        elif s.layer == "random_measures" and s.size is not None:
            p["measures"] += 1
            p["atoms"] += s.size
        if s.name == SPAWN_SPAN:
            p["spawn_calls"] += 1
            p["spawn_self_s"] += self_s
        if s.name == NBP_SPAN:
            p["draws"] += 1
        if s.name == INVERSE_SPAN:
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == NBP_SPAN:
                p["draw_inverse_calls"] += 1
            p["points"] += s.size or 0
            p[f"points.{s.kind}"] += s.size or 0
            p["inverse_s"] += duration
        if s.parent is None:
            p["call_s"] = duration
        if s.scipy_evals:
            p[f"scipy_evals.{tail_kind(s)}"] += s.scipy_evals
    return [dict(p) for _, p in sorted(profiles.items(), key=lambda item: item[1]["_start"])]


COUNT_KEYS = ("ks_calls", "measures", "atoms", "spawn_calls", "draws", "draw_inverse_calls") + tuple(
    f"{prefix}.{kind}" for prefix in ("points", "scipy_evals") for kind in TAIL_KINDS
)


def call_counts(profile: dict) -> tuple:
    """The exact counters of one call; equal seeds must give equal tuples."""
    return tuple(int(profile.get(key, 0)) for key in COUNT_KEYS)


def layer_metrics(profiles: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced calls, per call.

    Times are medians over calls.  Counts and count ratios are totals over
    all calls, divided, so they are exact whenever every seed is called
    equally often.  Calls into special_functions count as tail time.  A layer that only some workloads run (KS, categorical
    draws) is reported as its share of the call, so that no time reads 0.
    """

    def med(*keys, minus=None):
        return float(median(sum(p.get(k, 0.0) for k in keys) - p.get(minus, 0.0) for p in profiles))

    def share(key):
        return float(median(p.get(key, 0.0) / p["call_s"] for p in profiles))

    def total(key):
        return sum(p.get(key, 0.0) for p in profiles)

    def per_call(key):
        return total(key) / len(profiles)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    metrics: dict[str, tuple[float, str]] = {
        # the gamma inverse reaches E1 through special_functions, the
        # generalised-gamma inverse calls scipy directly: one tail time for both
        "levy_tails.self_s": (med("self_s.levy_tails", "self_s.special_functions"), "s"),
        "levy_tails.us_per_point": (1e6 * ratio("inverse_s", "points"), "us"),
    }
    for kind in TAIL_KINDS:
        metrics[f"levy_tails.points.{kind}"] = (per_call(f"points.{kind}"), "count")
        metrics[f"special_functions.scipy_evals_per_point.{kind}"] = (
            ratio(f"scipy_evals.{kind}", f"points.{kind}"), "evals/point")
    metrics.update({
        "point_processes.self_s": (med("self_s.point_processes"), "s"),
        "point_processes.inverse_calls_per_draw": (ratio("draw_inverse_calls", "draws"), "calls/draw"),
        "random_measures.self_s": (med("self_s.random_measures", minus="draw_self_s"), "s"),
        "random_measures.atoms_per_measure": (ratio("atoms", "measures"), "atoms/measure"),
        "random_measures.draw_share": (share("draw_self_s"), "ratio"),
        "experiments.self_s": (med("self_s.experiments", minus="ks_self_s"), "s"),
        "experiments.ks_share": (share("ks_self_s"), "ratio"),
        "experiments.ks_calls": (per_call("ks_calls"), "count"),
        "rng.spawn_calls": (per_call("spawn_calls"), "count"),
        "rng.spawn_self_s": (med("spawn_self_s"), "s"),
        "cli.self_s": (med("self_s.cli"), "s"),
    })
    return metrics
