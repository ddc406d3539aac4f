"""Command-line front end: sampling, experiments, diagnostics, self-tests.

Subcommands
-----------
sample    emit one measure realization (JSON or CSV)
ks-table  run the bundled or a user-supplied (alpha, theta, r) grid and
          report mean Kolmogorov distances
weights   Monte Carlo profile of the largest weights across orders r
clusters  distinct-count growth diagnostic
selftest  fast invariant suite, one PASS/FAIL line per property

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

from .errors import DomainError, NbpError, NumericError, as_number
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


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config {path} must hold a JSON object")
    return data


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return int(args.seed)
    return as_number("seed", config.get("seed", 0), int)


def _resolve_out(path: str | None):
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _emit_table(args, payload: dict, header: list[str], rows) -> None:
    """Write ``payload`` as JSON, or ``rows`` under ``header`` as CSV: integers as they are, reals by repr."""
    if args.output == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        lines = [",".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row) for row in rows]
        text = "\n".join([",".join(header), *lines])
    _emit(text + "\n", _resolve_out(args.out))


def parse_csv_table(text: str) -> list[dict]:
    """Read back a CSV table emitted by this CLI: header row, numeric cells."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise DomainError("empty CSV table")
    header = lines[0].split(",")
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise DomainError(f"CSV row has {len(cells)} cells, header has {len(header)}")
        row = {}
        for key, cell in zip(header, cells):
            try:
                value = int(cell)
            except ValueError:
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise DomainError(f"CSV row {i}, column {key!r}: {cell!r} is not a number") from exc
            row[key] = value
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> int:
    config = _load_config(args.config)

    def pick(flag_value, key, default=None):
        return flag_value if flag_value is not None else config.get(key, default)

    process = pick(args.process, "process")
    if process is None:
        raise DomainError("sample needs --process (or a config with 'process')")
    params = dict(config.get("params", {}))
    # the extended process's concentration is the theta of the Dirichlet process it extends
    theta_key = "concentration" if process == "extended_dp" else "theta"
    for key, value in (("alpha", args.alpha), (theta_key, args.theta), ("r", args.r), ("sticks", args.sticks)):
        if value is not None:
            params[key] = value
    if args.ranked:
        params["ranked"] = True

    trunc_cfg = config.get("truncation")
    truncation = TruncationPolicy.from_dict(trunc_cfg) if trunc_cfg else None
    if args.epsilon is not None:
        truncation = TruncationPolicy.epsilon_rule(args.epsilon)
    elif args.n is not None:
        truncation = TruncationPolicy.fixed(args.n)
    seed = _resolve_seed(args, config)

    measure = build_measure(process, params, truncation, seed, uniform_base())
    if args.output == "json":
        _emit(measure.to_json(indent=2) + "\n", _resolve_out(args.out))
    else:
        _emit(measure.to_csv(), _resolve_out(args.out))
    return 0


def default_grid_config() -> dict:
    """The bundled nine-row benchmark grid (n = 400, 500 replications)."""
    with resources.files("nbpriors.data").joinpath("table2.json").open() as fh:
        return json.load(fh)


def _cmd_ks_table(args) -> int:
    config = _load_config(args.config) if args.config else default_grid_config()
    rows, n, replications = load_ks_grid(config)
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")
    if args.n is not None:
        n = args.n
    if args.reps is not None:
        replications = args.reps
    seed = _resolve_seed(args, config)
    results = run_ks_table(rows, n, replications, seed)

    table = [
        {**row, "mean_distance": res.mean_distance, "std_error": res.std_error, "replications": res.replications,
         "failures": list(res.failures), "spec": res.spec_echo.to_dict()}
        for row, res in zip(rows, results)  # load_ks_grid gives real alpha and theta and an integer r
    ]
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
        _resolve_seed(args, _load_config(args.config)),
        points_per_r=args.points_per_r,
    )
    header = ["r"] + [f"w{k + 1}" for k in range(profile.top_k)]
    _emit_table(args, profile.to_dict(), header, [[r, *row] for r, row in zip(profile.r_grid, profile.mean_weights)])
    return 0


def _cmd_clusters(args) -> int:
    params: dict = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.theta is not None:
        params["theta"] = args.theta
    elif args.process != "stable":
        params["theta"] = 3.0
    diag = clustering_growth(
        args.process, params, _parse_int_list(args.n_grid), args.reps,
        _resolve_seed(args, _load_config(args.config)),
    )
    _emit_table(args, diag.to_dict(), ["n", "kn_mean", "ratio"], zip(diag.n_grid, diag.kn_means, diag.ratios))
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks():
    import math

    from . import special_functions as sf
    from .levy_tails import tail_inverse, tail_support_bound, tail_value
    from .point_processes import NbpConfig, gamma_arrivals, sample_nbp_points, sample_prm_points
    from .random_measures import BaseMeasure, sample_dp, sample_extended_dp_finite

    def special_function_values():
        assert abs(sf.log_gamma(1.0)) < 1e-14
        assert abs(sf.log_gamma(0.5) - 0.5723649429247001) < 1e-13
        assert abs(sf.exp_integral_e1(1.0) - 0.21938393439552028) < 1e-12
        assert abs(sf.upper_incomplete_gamma(-0.5, 1.0) - 0.17814771178156069) < 1e-12
        assert abs(sf.gamma_survival(1.0, math.log(2.0)) - 0.5) < 1e-13
        return True

    def kernel_switch_agreement():
        for shape in (0.1, 0.5, 0.9):  # an installed scipy whose two kernels disagree at x* fails here
            x = sp.gammaincinv(shape, sf._P_SWITCH)
            assert abs(math.log1p(-sp.gammainc(shape, x)) - math.log(sp.gammaincc(shape, x))) <= 1e-13, shape
        return True

    def survival_roundtrip():
        for shape in (1e-3, 0.1, 1.0):
            for y in (0.05, 0.3, 0.5, 0.7, 0.95):
                t = sf.gamma_quantile_upper(shape, y)
                x = math.exp(t)
                if x > 0:
                    assert abs(sf.gamma_survival(shape, x) - y) < 1e-10
        # a subnormal x, from the expansion
        assert abs(sf.gamma_quantile_upper(1e-3, 0.525) + 745.0168685457792) <= 1e-9
        return True

    def tail_roundtrips():
        tails = [LevyTail.stable(0.5), LevyTail.gamma(3.0), LevyTail.generalized_gamma(0.5)]
        grid = np.geomspace(1e-4, 1e2, 9)
        for tail in tails:
            for y in grid:
                x = tail_inverse(tail, y)
                assert abs(tail_value(tail, x) - y) <= 1e-9 * y
        return True

    def stable_closed_form():
        tail = LevyTail.stable(0.4)
        for y in (0.5, 2.0, 7.0):
            assert abs(tail_inverse(tail, y) - y ** (-1 / 0.4)) <= 1e-10 * y ** (-1 / 0.4)
        return True

    def arrivals_deterministic():
        a = gamma_arrivals(123, 500).arrivals
        b = gamma_arrivals(123, 500).arrivals
        assert np.array_equal(a, b)
        assert a[0] > 0 and np.all(np.diff(a) > 0)
        return True

    def prm_nbp_consistency():
        tail = LevyTail.gamma(3.0)
        cfg = NbpConfig(r=0.0, tail=tail, truncation=TruncationPolicy.fixed(200))
        series = sample_nbp_points(cfg, 99)
        prm = sample_prm_points(tail, gamma_arrivals(99, 200))
        assert np.array_equal(series.points, prm)
        return True

    def measure_invariants():
        m = sample_dp(3.0, uniform_base(), TruncationPolicy.fixed(100), 5)
        assert len(m) == 100
        assert abs(math.fsum(m.weights.tolist()) - 1.0) <= 1e-12
        assert np.all(np.diff(m.weights) < 0)
        return True

    def atom_independence():
        trunc = TruncationPolicy.fixed(100)
        m1 = sample_dp(3.0, uniform_base(), trunc, 5)
        other = BaseMeasure("shifted", lambda rng, size: 10.0 + rng.random(size))
        m2 = sample_dp(3.0, other, trunc, 5)
        assert np.array_equal(m1.weights, m2.weights)
        return True

    def finite_approximation_coupling():
        from .random_measures import ExtendedDpParams

        n = 2000
        seed = 11
        m_series = sample_dp(3.0, uniform_base(), TruncationPolicy.fixed(n), seed)
        m_finite = sample_extended_dp_finite(ExtendedDpParams(3.0, 0, n), uniform_base(), seed)
        k = min(len(m_series), len(m_finite))
        gap = np.max(np.abs(m_series.weights[:k] - m_finite.weights[:k]))
        assert gap < 5e-2, f"coupling gap {gap}"
        return True

    def kolmogorov_reference_values():
        base = uniform_base()
        one = DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        assert abs(kolmogorov_distance(one, base) - 0.5) < 1e-15
        two = DiscreteMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert abs(kolmogorov_distance(two, base) - 0.25) < 1e-15
        return True

    def serialization_roundtrip():
        m = sample_dp(2.0, uniform_base(), TruncationPolicy.fixed(50), 3)
        again = DiscreteMeasure.from_json(m.to_json())
        assert np.array_equal(m.atoms, again.atoms)
        assert np.array_equal(m.weights, again.weights)
        assert m.provenance == again.provenance
        csv_again = DiscreteMeasure.from_csv(m.to_csv())
        assert np.array_equal(m.weights, csv_again.weights)
        tail = LevyTail.generalized_gamma(0.3)
        assert LevyTail.from_json(tail.to_json()) == tail
        return True

    def dp_mean_property():
        vals = []
        for rep in range(300):
            m = sample_dp(3.0, uniform_base(), TruncationPolicy.fixed(400), (21, rep))
            vals.append(float(m.weights[m.atoms <= 0.3].sum()))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - 0.3) <= 4 * se, f"mean {mean}, se {se}"
        return True

    def support_bound_consistency():
        for tail in (LevyTail.stable(0.5), LevyTail.gamma(3.0), LevyTail.generalized_gamma(0.9)):
            bound = tail_support_bound(tail)
            assert abs(tail_value(tail, bound) - 1.0) <= 1e-9
        cfg = NbpConfig(r=5.0, tail=LevyTail.gamma(3.0), truncation=TruncationPolicy.fixed(60))
        series = sample_nbp_points(cfg, 17)
        assert series.points[0] < tail_support_bound(LevyTail.gamma(3.0))
        return True

    def block_equals_single_draws():
        from .experiments import _family

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
                assert np.array_equal(row, record.draw([seed])[0])
        return True

    def stick_breaking_mean():
        total = 0.0
        reps = 400
        for rep in range(reps):
            from .random_measures import sample_pdp_stick_breaking

            m = sample_pdp_stick_breaking(0.0, 1.0, uniform_base(), 60, False, (31, rep))
            total += float(m.weights[0])
        assert abs(total / reps - 0.5) < 0.04
        return True

    return [
        ("special function reference values", special_function_values),
        ("lower- and upper-ratio kernels agree at the switch", kernel_switch_agreement),
        ("survival quantile roundtrip", survival_roundtrip),
        ("tail value/inverse roundtrip", tail_roundtrips),
        ("stable tail closed form", stable_closed_form),
        ("arrival stream determinism", arrivals_deterministic),
        ("r=0 negative binomial equals the Poisson measure", prm_nbp_consistency),
        ("measure normalization and ordering", measure_invariants),
        ("weights independent of the atom stream", atom_independence),
        ("finite approximation couples to the series", finite_approximation_coupling),
        ("Kolmogorov distance reference values", kolmogorov_reference_values),
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
            ok = bool(check())
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            ok = False
            reason = f" ({exc})"
        else:
            reason = ""
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}{reason}")
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


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
    p.add_argument("--n", type=int, help="fixed truncation index (or level / stick count)")
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
