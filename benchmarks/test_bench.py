"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import pytest

import layer_trace
import run

TINY_REPS = 2


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_passes_its_output_checks(name):
    result, tracer = run.run_workload(name, seed=3, seconds=0.0, trace=False, reps=TINY_REPS)
    assert tracer is None
    assert result["problems"] == []
    assert result["failed"] == 0
    calls = 2 * run.SUBSEEDS  # one reference cycle, one timed cycle
    assert result["attempted"] == calls * TINY_REPS * run.WORKLOADS[name].groups
    assert set(result["metrics"]) == {"measures_per_ref_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_threaded_grid_prints_the_serial_bytes():
    serial, _ = run.run_workload("ks_grid", seed=4, seconds=0.0, trace=False, reps=TINY_REPS)
    threaded, _ = run.run_workload("ks_grid_threads", seed=4, seconds=0.0, trace=False, reps=TINY_REPS)
    assert threaded["problems"] == []
    assert threaded["stdout_sha256"] == serial["stdout_sha256"]


def test_a_broken_payload_is_reported():
    failed, problems = run.check_output("eps_clusters", TINY_REPS, (
        '{"n_grid": [100, 1000], "kn_means": [150.0, 20.0], "normalizer": "n_pow_alpha",'
        ' "ratios": [1.0, 1.0], "replications": 2, "process": "pdp_series", "params": {}}'
    ))
    assert failed == 0
    assert problems == ["kn_mean 150.0 outside [1, 100]"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_runs_repeat_their_counters(name):
    first, tracer = run.run_workload(name, seed=5, seconds=0.0, trace=True, reps=TINY_REPS)
    second, _ = run.run_workload(name, seed=5, seconds=0.0, trace=True, reps=TINY_REPS)
    assert first["problems"] == second["problems"] == []
    assert first["trace_missing"] == []
    assert first["counters"] == second["counters"]
    assert first["stdout_sha256"] == second["stdout_sha256"]
    counters = first["counters"]
    assert counters["spawn_calls"] > 0
    assert counters["measures"] == run.SUBSEEDS * TINY_REPS * run.WORKLOADS[name].groups
    tail_points = sum(counters[f"points.{kind}"] for kind in layer_trace.TAIL_KINDS)
    assert tail_points > 0
    metrics = first["metrics"]
    assert "trace_overhead_frac" in metrics
    # every traced call is a root span with the package's layers below it
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} == {"cli.main"}
    assert {"experiments", "random_measures", "point_processes", "levy_tails", "rng"} <= {
        s.layer for s in tracer.spans
    }


def test_pool_threads_keep_their_parent_span():
    result, tracer = run.run_workload("ks_grid_threads", seed=6, seconds=0.0, trace=True, reps=TINY_REPS)
    assert result["problems"] == []
    main_thread = {s.thread for s in tracer.spans if s.parent is None}
    pool_spans = [s for s in tracer.spans if s.thread not in main_thread]
    assert pool_spans
    assert all(s.parent is not None for s in pool_spans)


def test_tracer_restores_the_package():
    run.import_package()
    from nbpriors import experiments, levy_tails, point_processes

    def bound():
        return (point_processes.log_tail_inverse, experiments.kolmogorov_distance,
                experiments.ThreadPoolExecutor, levy_tails.sp)

    before = bound()
    tracer = layer_trace.Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(bound(), before))
    tracer.uninstall()
    assert all(a is b for a, b in zip(bound(), before))


def test_self_time_subtracts_the_union_of_overlapping_children():
    assert layer_trace._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert layer_trace._covered([(1.0, 3.0)], 2.0, 10.0) == pytest.approx(1.0)
    assert layer_trace._covered([], 0.0, 1.0) == 0.0
