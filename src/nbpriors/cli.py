"""Command-line front end: sampling, experiments, diagnostics, self-tests.

Subcommands
-----------
sample    emit one measure realization (JSON or CSV)
ks-table  run the bundled or a user-supplied (alpha, theta, r) grid and
          report mean Kolmogorov distances
weights   Monte Carlo profile of the largest weights across orders r
clusters  distinct-count growth diagnostic
selftest  fast invariant suite, one PASS/FAIL line per property; a FAIL
          line names the check and what it saw.  Every check raises on
          failure, so ``python -O`` cannot turn the suite vacuous

Exit codes: 0 success, 1 domain or config error, 2 numeric failure,
3 selftest failure.  Identical invocations (including --seed) produce
byte-identical output; timing is therefore never part of the payload.
Replications run serially: ks-table still accepts --jobs but ignores it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

import numpy as np
import scipy.special as sp

from .errors import DomainError, NbpError, NumericError, as_count, as_json, as_number, as_object, as_table, table_text
from .experiments import (
    PROCESSES,
    build_measure,
    clustering_growth,
    kolmogorov_distance,
    load_ks_grid,
    run_ks_table,
    weight_profile,
)
from .levy_tails import LevyTail
from .point_processes import TruncationPolicy
from .random_measures import SCHEMA_VERSION, DiscreteMeasure, uniform_base

OUTPUT_DIR_ENV = "NBPRIORS_OUTPUT_DIR"


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}") from exc


def _load_config(path: str | None, fields) -> dict:
    """The JSON object in the config file ``path`` ({} without one); a key outside ``fields`` raises a DomainError."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    return as_object(f"config {path}", as_json(f"config {path}", text), fields)


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return int(args.seed)
    return as_number("seed", config.get("seed", 0), int)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out``: a relative ``out`` lies under $NBPRIORS_OUTPUT_DIR if set."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), out), "w") as fh:
            fh.write(text)


def _emit_table(args, payload: dict, header, rows) -> None:
    """Write ``payload`` as JSON, or ``rows`` under ``header`` as an ``errors.table_text`` CSV table."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n" if args.output == "json" else table_text(header, rows)
    _emit(text, args.out)


def parse_csv_table(text: str) -> list[dict]:
    """Read back a CSV table emitted by this CLI: header row, numeric cells (``errors.as_table``)."""
    return as_table("CSV", text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> int:
    config = _load_config(args.config, ("process", "params", "truncation", "seed"))
    process = args.process if args.process is not None else config.get("process")
    if process is None:
        raise DomainError("sample needs --process (or a config with 'process')")
    params = dict(as_object("params", config.get("params", {})))
    # the extended process's concentration is the theta of the Dirichlet process it extends
    theta_key = "concentration" if process == "extended_dp" else "theta"
    size_key = {"extended_dp": "n", "pdp_stick": "sticks"}.get(process)  # --n sets this size, not a truncation
    for flag, value in (("--epsilon", args.epsilon), ("--sticks", args.sticks)):
        if value is not None and args.n is not None:
            raise DomainError(f"sample takes --n or {flag}, not both")
    if size_key and args.epsilon is not None:
        raise DomainError(f"sample --process {process} takes no --epsilon: its size is not a truncation")
    sizes = ((size_key, args.n),) if size_key else ()
    for key, value in (("alpha", args.alpha), (theta_key, args.theta), ("r", args.r), ("sticks", args.sticks), *sizes):
        if value is not None:
            params[key] = value
    if args.ranked:
        params["ranked"] = True

    trunc_cfg = config.get("truncation")  # only null or an absent key means no truncation
    truncation = TruncationPolicy.from_dict(trunc_cfg) if trunc_cfg is not None else None
    if args.epsilon is not None:
        truncation = TruncationPolicy.epsilon_rule(args.epsilon)
    elif args.n is not None and size_key is None:
        truncation = TruncationPolicy.fixed(args.n)
    seed = _resolve_seed(args, config)

    measure = build_measure(process, params, truncation, seed, uniform_base())
    _emit(measure.to_json(indent=2) + "\n" if args.output == "json" else measure.to_csv(), args.out)
    return 0


def default_grid_config() -> dict:
    """The bundled nine-row benchmark grid (n = 400, 500 replications)."""
    return as_json("bundled grid config", resources.files("nbpriors.data").joinpath("table2.json").read_text())


def _cmd_ks_table(args) -> int:
    fields = ("schema_version", "process", "n", "replications", "rows", "seed")
    config = _load_config(args.config, fields) if args.config else default_grid_config()
    if config.get("process", "pdp_series") != "pdp_series":  # the one process run_ks_table runs
        raise DomainError(f"ks-table runs pdp_series only, got process {config['process']!r}")
    rows, n, replications = load_ks_grid(config)
    as_count("--jobs", args.jobs)
    if args.n is not None:
        n = args.n
    if args.reps is not None:
        replications = args.reps
    seed = _resolve_seed(args, config)
    results = run_ks_table(rows, n, replications, seed)

    table = [{**row, **{key: value for key, value in res.to_dict().items() if key != "schema_version"}}
             for row, res in zip(rows, results)]  # load_ks_grid gives real alpha and theta and an integer r
    payload = {"schema_version": SCHEMA_VERSION, "n": int(n), "replications": int(replications), "seed": int(seed),
               "rows": table}
    header = ["alpha", "theta", "r", "mean_distance", "std_error", "replications"]
    _emit_table(args, payload, header, [[row[key] for key in header] for row in table])
    return 0


def _cmd_weights(args) -> int:
    tail = LevyTail.gamma(args.theta)
    profile = weight_profile(
        tail,
        _parse_int_list(args.r_grid),
        args.top_k,
        args.reps,
        _resolve_seed(args, _load_config(args.config, ("seed",))),
        points_per_r=args.points_per_r,
    )
    header = ["r"] + [f"w{k + 1}" for k in range(profile.top_k)]
    _emit_table(args, profile.to_dict(), header, [[r, *row] for r, row in zip(profile.r_grid, profile.mean_weights)])
    return 0


def _cmd_clusters(args) -> int:
    theta = 3.0 if args.theta is None and args.process != "stable" else args.theta
    params = {key: value for key, value in (("alpha", args.alpha), ("theta", theta)) if value is not None}
    diag = clustering_growth(
        args.process, params, _parse_int_list(args.n_grid), args.reps,
        _resolve_seed(args, _load_config(args.config, ("seed",))),
    )
    _emit_table(args, diag.to_dict(), ["n", "kn_mean", "ratio"], zip(diag.n_grid, diag.kn_means, diag.ratios))
    return 0


# ---------------------------------------------------------------------------
# selftest


class _CheckFailed(Exception):
    """A selftest check saw a value outside its bound; the message says what it saw."""


def _expect(ok, detail: str) -> None:
    """Raise ``_CheckFailed(detail)`` unless ``ok``: a check that ``python -O`` cannot strip."""
    if not ok:
        raise _CheckFailed(detail)


def _near(label: str, computed, expected, tol) -> None:
    """Expect |computed - expected| < tol, strictly, so that a NaN fails."""
    _expect(abs(computed - expected) < tol, f"{label}: {computed!r}, expected {expected!r} within {tol!r}")


def _selftest_checks():
    """The ``selftest`` suite as (name, check) pairs in report order; a check raises when it fails."""
    import math

    from . import special_functions as sf
    from .experiments import _family
    from .levy_tails import tail_inverse, tail_support_bound, tail_value
    from .point_processes import NbpConfig, gamma_arrivals, sample_nbp_points, sample_prm_points
    from .random_measures import BaseMeasure, ExtendedDpParams, sample_dp, sample_extended_dp_finite
    from .random_measures import sample_pdp_stick_breaking

    def ks(atoms, weights):
        return kolmogorov_distance(DiscreteMeasure(np.array(atoms), np.array(weights)), uniform_base())

    # (label, computed, expected, tolerance) rows; each value is computed when its own check runs
    references = {
        "special": [
            ("ln Γ(1)", lambda: sf.log_gamma(1.0), 0.0, 1e-14),
            ("ln Γ(0.5)", lambda: sf.log_gamma(0.5), 0.5723649429247001, 1e-13),
            ("E1(1)", lambda: sf.exp_integral_e1(1.0), 0.21938393439552028, 1e-12),
            ("Γ(-0.5, 1)", lambda: sf.upper_incomplete_gamma(-0.5, 1.0), 0.17814771178156069, 1e-12),
            ("Q(1, ln 2)", lambda: sf.gamma_survival(1.0, math.log(2.0)), 0.5, 1e-13),
        ],
        "survival": [("subnormal ln x at Q(1e-3, x) = 0.525", lambda: sf.gamma_quantile_upper(1e-3, 0.525),
                      -745.0168685457792, 1e-9)],
        "stable": [(f"stable(0.4) inverse at {y}", lambda y=y: tail_inverse(LevyTail.stable(0.4), y),
                    y ** (-1 / 0.4), 1e-10 * y ** (-1 / 0.4)) for y in (0.5, 2.0, 7.0)],
        "kolmogorov": [
            ("D of one atom at 0.5", lambda: ks([0.5], [1.0]), 0.5, 1e-15),
            ("D of two atoms at 0.25, 0.75", lambda: ks([0.25, 0.75], [0.5, 0.5]), 0.25, 1e-15),
        ],
        "bound": [(f"{tail} at its support bound", lambda tail=tail: tail_value(tail, tail_support_bound(tail)),
                   1.0, 1e-9) for tail in (LevyTail.stable(0.5), LevyTail.gamma(3.0), LevyTail.generalized_gamma(0.9))],
    }

    def table(check):
        for label, computed, expected, tol in references[check]:
            _near(label, computed(), expected, tol)

    def kernel_switch_agreement():
        for shape in (0.1, 0.5, 0.9):  # an installed scipy whose two kernels disagree at x* fails here
            x = sp.gammaincinv(shape, sf._P_SWITCH)
            gap = abs(math.log1p(-sp.gammainc(shape, x)) - math.log(sp.gammaincc(shape, x)))
            _expect(gap <= 1e-13, f"the kernels' ln Q({shape}, x*) differ by {gap!r}")

    def survival_roundtrip():
        for shape in (1e-3, 0.1, 1.0):
            for y in (0.05, 0.3, 0.5, 0.7, 0.95):
                log_x = sf.gamma_quantile_upper(shape, y)
                _expect(math.isfinite(log_x), f"ln x at Q({shape}, x) = {y}: {log_x!r}")
                x = math.exp(log_x)
                if x > 0:  # a finite ln x below about -745 underflows exp and is skipped
                    _near(f"Q({shape}, x) at its quantile of {y}", sf.gamma_survival(shape, x), y, 1e-10)
        table("survival")

    def tail_roundtrips():
        for tail in (LevyTail.stable(0.5), LevyTail.gamma(3.0), LevyTail.generalized_gamma(0.5)):
            for y in np.geomspace(1e-4, 1e2, 9):
                gap = abs(tail_value(tail, tail_inverse(tail, y)) - y)
                _expect(gap <= 1e-9 * y, f"{tail} misses {y!r} by {gap!r} after inversion")

    def arrivals_deterministic():
        a = gamma_arrivals(123, 500).arrivals
        _expect(np.array_equal(a, gamma_arrivals(123, 500).arrivals), "two arrival streams of seed 123 differ")
        _expect(a[0] > 0 and np.all(np.diff(a) > 0), f"arrivals {a[:3]!r}... are not positive and increasing")

    def prm_nbp_consistency():
        tail = LevyTail.gamma(3.0)
        series = sample_nbp_points(NbpConfig(r=0.0, tail=tail, truncation=TruncationPolicy.fixed(200)), 99)
        _expect(np.array_equal(series.points, sample_prm_points(tail, gamma_arrivals(99, 200))),
                "the r = 0 points differ from the Poisson points")

    def measure_invariants():
        m = sample_dp(3.0, uniform_base(), TruncationPolicy.fixed(100), 5)
        _expect(len(m) == 100, f"{len(m)} atoms, expected 100")
        total = math.fsum(m.weights.tolist())
        _expect(abs(total - 1.0) <= 1e-12, f"weights sum to {total!r}")
        _expect(np.all(np.diff(m.weights) < 0), "weights are not strictly decreasing")

    def atom_independence():
        trunc = TruncationPolicy.fixed(100)
        m1 = sample_dp(3.0, uniform_base(), trunc, 5)
        m2 = sample_dp(3.0, BaseMeasure("shifted", lambda rng, size: 10.0 + rng.random(size)), trunc, 5)
        _expect(np.array_equal(m1.weights, m2.weights), "the weights change with the base measure")

    def finite_approximation_coupling():
        m_series = sample_dp(3.0, uniform_base(), TruncationPolicy.fixed(2000), 11)
        m_finite = sample_extended_dp_finite(ExtendedDpParams(3.0, 0, 2000), uniform_base(), 11)
        k = min(len(m_series), len(m_finite))
        gap = np.max(np.abs(m_series.weights[:k] - m_finite.weights[:k]))
        _expect(gap < 5e-2, f"coupling gap {gap}")

    def serialization_roundtrip():
        m = sample_dp(2.0, uniform_base(), TruncationPolicy.fixed(50), 3)
        again = DiscreteMeasure.from_json(m.to_json())
        _expect(np.array_equal(m.atoms, again.atoms) and np.array_equal(m.weights, again.weights),
                "JSON changed the atoms or the weights")
        _expect(m.provenance == again.provenance, f"JSON changed the provenance to {again.provenance!r}")
        _expect(np.array_equal(m.weights, DiscreteMeasure.from_csv(m.to_csv()).weights), "CSV changed the weights")
        tail = LevyTail.generalized_gamma(0.3)
        _expect(LevyTail.from_json(tail.to_json()) == tail, f"JSON changed {tail}")

    def dp_mean_property():
        vals = []
        for rep in range(300):
            m = sample_dp(3.0, uniform_base(), TruncationPolicy.fixed(400), (21, rep))
            vals.append(float(m.weights[m.atoms <= 0.3].sum()))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        _expect(abs(mean - 0.3) <= 4 * se, f"mean {mean}, se {se}")

    def support_bound_consistency():
        table("bound")
        bound = tail_support_bound(LevyTail.gamma(3.0))
        cfg = NbpConfig(r=5.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(60))
        first = sample_nbp_points(cfg, 17).points[0]
        _expect(first < bound, f"the first r = 5 point {first!r} is not below the bound {bound!r}")

    def block_equals_single_draws():
        fixed, eps = TruncationPolicy.fixed(200), TruncationPolicy.epsilon_rule(1e-6)
        seeds = [(41, i) for i in range(3)]
        for process, params, trunc in (
            ("dirichlet", {"theta": 3.0}, fixed),
            ("pdp_series", {"alpha": 0.9, "theta": 10.0, "r": 11}, fixed),
            ("pdp_series", {"alpha": 0.5, "theta": 2.0}, eps),
            ("extended_dp", {"concentration": 3.0}, fixed),
            ("pdp_stick", {"alpha": 0.5, "theta": 2.0, "ranked": True}, fixed),
        ):
            record = _family(process, params, trunc)
            for row, seed in zip(record.draw(seeds), seeds):
                _expect(np.array_equal(row, record.draw([seed])[0]), f"{process}: the block row of {seed} differs")

    def stick_breaking_mean():
        total = 0.0
        reps = 400
        for rep in range(reps):
            total += float(sample_pdp_stick_breaking(0.0, 1.0, uniform_base(), 60, False, (31, rep)).weights[0])
        _expect(abs(total / reps - 0.5) < 0.04, f"mean first weight {total / reps}")

    return [
        ("special function reference values", lambda: table("special")),
        ("lower- and upper-ratio kernels agree at the switch", kernel_switch_agreement),
        ("survival quantile roundtrip", survival_roundtrip),
        ("tail value/inverse roundtrip", tail_roundtrips),
        ("stable tail closed form", lambda: table("stable")),
        ("arrival stream determinism", arrivals_deterministic),
        ("r=0 negative binomial equals the Poisson measure", prm_nbp_consistency),
        ("measure normalization and ordering", measure_invariants),
        ("weights independent of the atom stream", atom_independence),
        ("finite approximation couples to the series", finite_approximation_coupling),
        ("Kolmogorov distance reference values", lambda: table("kolmogorov")),
        ("serialization roundtrips", serialization_roundtrip),
        ("Dirichlet mean property", dp_mean_property),
        ("support bound consistency", support_bound_consistency),
        ("stick-breaking first-weight mean", stick_breaking_mean),
        ("a 3-replication block equals three single draws", block_equals_single_draws),
    ]


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            failures += 1
            print(f"FAIL {name} ({str(exc) or type(exc).__name__})")
        else:
            print(f"PASS {name}")
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nbpriors", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0; a config may supply one)")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help=f"output file (relative paths honor ${OUTPUT_DIR_ENV})")
        p.add_argument("--config", default=None, help="JSON config file; explicit flags win")

    p = sub.add_parser("sample", help="emit one measure realization")
    add_common(p)
    p.add_argument("--process", choices=PROCESSES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--theta", type=float, help="theta; for extended_dp, its concentration")
    p.add_argument("--r", type=float)
    p.add_argument("--n", type=int, help="fixed truncation index; extended_dp's level, pdp_stick's stick count")
    p.add_argument("--epsilon", type=float, help="relative-weight stopping threshold")
    p.add_argument("--sticks", type=int)
    p.add_argument("--ranked", action="store_true")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("ks-table", help="mean Kolmogorov distance per grid row")
    add_common(p)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="ignored (replications run serially); must be at least 1")
    p.set_defaults(func=_cmd_ks_table)

    p = sub.add_parser("weights", help="profile of the largest weights per order r")
    add_common(p)
    p.add_argument("--theta", type=float, default=3.0)
    p.add_argument("--r-grid", default="0,3,5,10")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--points-per-r", type=int, default=400)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("clusters", help="distinct-count growth diagnostic")
    add_common(p)
    p.add_argument("--process", choices=("dirichlet", "pdp_series", "stable"), default="dirichlet")
    p.add_argument("--alpha", type=float)
    p.add_argument("--theta", type=float, help="default 3, as for weights; stable takes none")
    p.add_argument("--n-grid", default="100,1000")
    p.add_argument("--reps", type=int, default=200)
    p.set_defaults(func=_cmd_clusters)

    p = sub.add_parser("selftest", help="fast invariant suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (NbpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
