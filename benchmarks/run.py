#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nbpriors command line.

    python3 benchmarks/run.py --workload ks_grid --seed 1 --seconds 15 --trace 0

Runs one workload through ``nbpriors.cli.main(argv)`` in this process,
closed loop (the next call starts when the previous one returns), with
the package imported from ``src/`` of the checkout that holds this file.
Every call's output is checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` (counted in random
measures) and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``measures_per_s`` (median
over timed calls), ``setup_s`` (median over fresh interpreters) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced calls with calls under
the layer tracer of ``layer_trace.py`` and reports the per-layer metrics.
Spans and a result record with machine metadata are written under
``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import os

# at most two threads (the --jobs 2 pool); keep numerical libraries single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.special as sp  # noqa: E402

import layer_trace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SUBSEEDS = 8  # CLI seeds per run, each called once per cycle
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60

# Median time of speed_kernel() on the 2-core Xeon where the benchmark was
# defined; it only scales measures_per_ref_s into familiar units.
REF_KERNEL_S = 0.0175


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, sized so that a call takes about a quarter second on 2 cores."""

    argv: tuple[str, ...]
    reps: int
    groups: int  # measures per replication index: grid rows, r values or n values
    reference: str | None = None  # workload whose stdout this one must equal byte for byte


# Why each workload is here is in README.md.
WORKLOADS = {
    "ks_grid": Workload(("ks-table", "--jobs", "1"), reps=15, groups=9),
    "ks_grid_threads": Workload(("ks-table", "--jobs", "2"), reps=15, groups=9, reference="ks_grid"),
    "gamma_weights": Workload(("weights",), reps=12, groups=4),
    "eps_clusters": Workload(
        ("clusters", "--process", "pdp_series", "--alpha", "0.5", "--theta", "2"), reps=40, groups=2
    ),
}


def cli_argv(name: str, seed: int, reps: int) -> list[str]:
    return [*WORKLOADS[name].argv, "--seed", str(seed), "--reps", str(reps)]


# ---------------------------------------------------------------------------
# the package under test


def import_package():
    """Import nbpriors from this checkout's src/, never from an installed copy."""
    if not (SRC / "nbpriors" / "__init__.py").is_file():
        raise SystemExit(f"no nbpriors sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nbpriors
    import nbpriors.cli

    if not Path(nbpriors.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported nbpriors from {nbpriors.__file__}, not from {SRC}")
    return nbpriors


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """One closed-loop call of the CLI entry point: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed call, reported below
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def check_output(name: str, reps: int, text: str) -> tuple[int, list[str]]:
    """Validate one payload with the package's own readers.

    Returns the failed replications it reports and the broken invariants.
    No golden values are pinned: low bits may legitimately change.
    """
    from nbpriors.experiments import GrowthDiagnostic, WeightProfile, parse_ks_table_result

    w = WORKLOADS[name]
    problems: list[str] = []
    failed = 0
    payload = json.loads(text)
    command = w.argv[0]
    if command == "ks-table":
        rows = parse_ks_table_result(payload)
        if len(rows) != w.groups:
            problems.append(f"{len(rows)} grid rows, expected {w.groups}")
        for row in rows:
            failed += len(row["failures"])
            if not 0.0 <= row["mean_distance"] <= 1.0:
                problems.append(f"mean_distance {row['mean_distance']} outside [0, 1]")
            if row["replications"] != reps:
                problems.append(f"{row['replications']} replications, expected {reps}")
    elif command == "weights":
        profile = WeightProfile.from_dict(payload)
        weights = profile.mean_weights
        if weights.shape != (w.groups, profile.top_k) or profile.replications != reps:
            problems.append(f"weights shape {weights.shape}, replications {profile.replications}")
        if not ((weights > 0.0).all() and (weights < 1.0).all()):
            problems.append("a top-k mean weight lies outside (0, 1)")
        if not (weights[:, 1:] < weights[:, :-1]).all():
            problems.append("top-k mean weights are not decreasing")
    else:
        diag = GrowthDiagnostic.from_dict(payload)
        if len(diag.n_grid) != w.groups or diag.replications != reps:
            problems.append(f"n_grid {diag.n_grid}, replications {diag.replications}")
        for n, k in zip(diag.n_grid, diag.kn_means):
            if not 1.0 <= k <= n:
                problems.append(f"kn_mean {k} outside [1, {n}]")
    return failed, problems


# ---------------------------------------------------------------------------
# measurement


def speed_kernel() -> float:
    """Seconds taken by fixed work shaped like replications; measures machine speed.

    The shared host's speed drifts by 15-35% within a minute.  Timing this
    kernel right after each call and scaling the call by it cancels most of
    the drift, because the same mix of work slows down with the calls:
    interpreter work, 400-element numpy arrays, scipy.special kernels and
    generator spawns.  It runs no nbpriors code, so a change to the package
    never moves it.
    """
    t0 = time.perf_counter()
    x = np.linspace(0.05, 40.0, 400)
    acc = 0.0
    for i in range(24):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, i, 101))))
        e = np.cumsum(rng.standard_exponential(400))
        y = np.log(sp.gammaincc(0.5, x * (1.0 + 1e-3 * i))) + np.log(sp.exp1(e / 40.0))
        w = np.exp(y - sp.logsumexp(y))
        u, inv = np.unique(np.round(rng.random(400), 3), return_inverse=True)
        acc += float(np.max(np.abs(np.cumsum(np.bincount(inv, weights=w)) - u)))
        for k in range(1, 200):
            acc += (-1) ** k / (k * k)
        acc += len(json.dumps({"i": i, "w": w[:20].tolist()}, sort_keys=True))
    seconds = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("speed kernel produced a non-finite value")
    return seconds


def setup_seconds(name: str, seed: int, reps: int) -> list[float]:
    """Fresh-interpreter set-up: import nbpriors.cli, build the parser, parse, load the grid."""
    script = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "from nbpriors import cli\n"
        "args = cli.build_parser().parse_args(sys.argv[1:])\n"
        "if args.command == 'ks-table':\n"
        "    cli.load_ks_grid(cli.default_grid_config())\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", script, *cli_argv(name, seed, reps)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Tally:
    attempted: int = 0  # random measures the calls were asked for
    failed: int = 0  # failed replications, plus every measure of a call that failed or broke a check
    problems: list = field(default_factory=list)


def checked_call(nb, main, name: str, argv: list[str], reps: int, expected: str | None,
                 tally: Tally) -> tuple[float, str]:
    """Time one call, check it, and add it to the tally. Returns (seconds, stdout)."""
    measures = reps * WORKLOADS[name].groups
    gc.collect()
    t0 = time.perf_counter()
    code, out, err = run_cli(main, argv)
    seconds = time.perf_counter() - t0
    tally.attempted += measures
    problems = []
    failed_reps = 0
    if code != 0:
        problems.append(f"exit code {code}: {err.strip()[-300:]}")
    else:
        try:
            failed_reps, problems = check_output(name, reps, out)
        except (ValueError, KeyError, TypeError, nb.NbpError) as exc:
            problems.append(f"unreadable payload: {type(exc).__name__}: {exc}")
        if expected is not None and out != expected:
            problems.append("stdout differs from the reference call with the same seed")
    if failed_reps:
        problems.append(f"{failed_reps} failed replications")
    tally.failed += measures if problems and not failed_reps else failed_reps
    tally.problems.extend(f"{name}: {p}" for p in problems)
    return seconds, out


def run_workload(name: str, seed: int, seconds: float, trace: bool, reps: int | None = None):
    """Closed-loop calls of one workload for at least ``seconds``, in whole cycles.

    One cycle calls the CLI once with each of ``SUBSEEDS`` seeds derived
    from ``seed``, so a run averages over the inputs of several seeds.  The
    first cycle is untimed: it warms lazy set-up, and each timed call must
    reproduce the stdout of its seed's reference call byte for byte.  For a
    workload with a ``reference`` that cycle runs the other workload's argv.

    Returns the result record (metrics, samples, tally) and, when traced,
    the tracer holding the spans.
    """
    tracer = None
    nb = import_package()
    from nbpriors import cli

    w = WORKLOADS[name]
    reps = w.reps if reps is None else reps
    ref_name = w.reference or name
    cli_seeds = [seed * 100 + j for j in range(SUBSEEDS)]
    argvs = [cli_argv(name, s, reps) for s in cli_seeds]
    tally = Tally()
    expected = [checked_call(nb, cli.main, ref_name, cli_argv(ref_name, s, reps), reps, None, tally)[1]
                for s in cli_seeds]
    digest = hashlib.sha256("".join(expected).encode()).hexdigest()

    def cycles(body):
        deadline = time.perf_counter() + seconds
        while True:
            for j in range(SUBSEEDS):
                body(j)
            if time.perf_counter() >= deadline:
                return

    measures = reps * w.groups
    result = {"workload": name, "seed": seed, "cli_seeds": cli_seeds, "reps": reps, "stdout_sha256": digest}
    plain: list[float] = []
    if not trace:
        kernel: list[float] = []

        def timed(j):
            plain.append(checked_call(nb, cli.main, name, argvs[j], reps, expected[j], tally)[0])
            kernel.append(speed_kernel())

        cycles(timed)
        scaled = [c * REF_KERNEL_S / k for c, k in zip(plain, kernel)]
        result.update(call_seconds=plain, kernel_seconds=kernel)
        result["raw_measures_per_s"] = measures / statistics.median(plain)
        result["metrics"] = {
            "measures_per_ref_s": (measures / statistics.median(scaled), "measures/ref_s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # untraced and traced calls alternate, so drift in machine speed
        # cancels out of the overhead ratio
        tracer = layer_trace.Tracer()
        traced_main = tracer.wrap(cli.main, "cli.main", "cli")
        traced: list[float] = []

        def pair(j):
            plain.append(checked_call(nb, cli.main, name, argvs[j], reps, expected[j], tally)[0])
            tracer.install()
            try:
                traced.append(checked_call(nb, traced_main, name, argvs[j], reps, expected[j], tally)[0])
            finally:
                tracer.uninstall()

        cycles(pair)
        profiles = layer_trace.call_profiles(tracer.spans)
        counts = [layer_trace.call_counts(p) for p in profiles]
        if any(c != counts[i % SUBSEEDS] for i, c in enumerate(counts)):
            tally.problems.append(f"{name}: layer counters differ between calls with one seed")
            tally.failed += measures
        metrics = layer_trace.layer_metrics(profiles)
        overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        metrics["trace_overhead_frac"] = (overhead, "ratio")
        result.update(call_seconds=plain, traced_call_seconds=traced, metrics=metrics,
                      counters=dict(zip(layer_trace.COUNT_KEYS, map(sum, zip(*counts[:SUBSEEDS])))),
                      trace_missing=tracer.missing)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    return result, tracer


# ---------------------------------------------------------------------------
# metadata and output


def metadata() -> dict:
    """Machine, library and source facts recorded with every result; never gated on."""
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()  # fail before measuring anything when src/ is missing
    setup = None
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed, WORKLOADS[args.workload].reps)
    result, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = dict(result["metrics"])
    if setup is not None:
        metrics["setup_s"] = (statistics.median(setup), "s")
        result["setup_seconds"] = setup
    attempted, failed = result["attempted"], result["failed"]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")
    meta = metadata()
    record = dict(result, metadata=meta, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    calls = len(result["call_seconds"]) + len(result.get("traced_call_seconds", []))
    print(f"workload {args.workload}  seed {args.seed}  reps {result['reps']}  "
          f"timed calls {calls} (+{SUBSEEDS} reference)  trace {args.trace}")
    if "raw_measures_per_s" in result:
        print(f"  {'measures_per_s':48s} {result['raw_measures_per_s']:14.6g} measures/s  (not scaled; drifts)")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:48s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} measures)")
    for problem in result["problems"]:
        print(f"  FAILED CHECK {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
