#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and record both sides.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [W ...] [--pairs 10 --seconds 25 --seed 700 --label L]

``git archive``s both commits of this repository into a temporary
directory and, for each workload W in turn, runs each copy's own,
unmodified ``benchmarks/run.py --workload W --seed S --seconds T --trace 0``,
once per side for each of the seeds S, S + 1, ...: the parent runs first in
pairs 1, 3, ..., the change in pairs 2, 4, ..., so drift in machine speed
falls on both sides alike.  A run that exits non-zero or reads
``correct: false`` stops the tool with exit status 1, naming the side, the
seed and the run's last stderr lines.  For each workload it writes
``BENCH_<label>_<W>_parent.json`` and ``BENCH_<label>_<W>_change.json``
(into ``--out``, default the current directory): each is the record of
that side's last run, with ``metadata.git_sha`` and ``metadata.tree`` set,
plus a ``set_of_10`` block holding every run's end-to-end metrics with
their median and quartiles, both commits' SHAs and ``src/`` line counts,
and the pairs the change won on each metric (in the direction
``BENCHMARK.json`` declares).  Nothing is downloaded and neither copy is
edited; the temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def checkout(sha: str, into: Path) -> Path:
    """Extract the tree of ``sha`` into ``into`` with ``git archive``."""
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return into


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


class RunFailed(Exception):
    """A benchmark run that exited non-zero or whose output was not correct."""


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run in ``tree``: its record.  Raises RunFailed, with the run's last stderr
    lines, when the run exits non-zero or its summary line reads ``correct: false``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    tail = "\n".join(done.stderr.strip().splitlines()[-10:])
    if done.returncode != 0:
        raise RunFailed(f"exited with status {done.returncode}\n{tail}")
    summary = json.loads((done.stdout.strip().splitlines() or ["{}"])[-1])
    if not summary.get("correct"):
        raise RunFailed(f"reads correct: false ({summary.get('failed')} of {summary.get('attempted')} measures failed)"
                        f"\n{tail}")
    return json.loads((tree / ".bench_out" / f"{workload}-trace0.json").read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def write_pairs(args, workload: str, seeds: list[int], shas: dict, lines: dict, better: dict,
                records: dict[str, list[dict]]) -> None:
    """Write one workload's ``BENCH_<label>_<W>_{parent,change}.json`` pair and print its medians."""
    metrics = [name for name in better if all(name in r["metrics"] for rs in records.values() for r in rs)]
    values = {side: {m: [r["metrics"][m]["value"] for r in records[side]] for m in metrics} for side in SIDES}
    won = {}
    for m in metrics:
        sign = 1 if better[m] == "higher" else -1
        won[m] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"][m], values["change"][m]))
    args.out.mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        last = dict(records[side][-1])
        last["metadata"] = dict(last["metadata"], git_sha=shas[side], src_lines=lines[side],
                                tree=f"git archive of {side} commit {shas[side][:7]}")
        last["set_of_10"] = {
            "command": f"benchmarks/run.py --workload {workload} --seed S --seconds {args.seconds:g} --trace 0",
            "seeds": seeds,
            "pairs": f"{args.pairs}, alternating which side ran first (parent first in pairs 1, 3, ...)",
            **{m: spread(values[side][m]) for m in metrics},
            "correct": True,  # a run that was not stops the tool
            "failed": sum(r["failed"] for r in records[side]),
            "parent_sha": shas["parent"],
            "change_sha": shas["change"],
            "parent_src_lines": lines["parent"],
            "change_src_lines": lines["change"],
            "change_won": won,
        }
        path = args.out / f"BENCH_{args.label}_{workload}_{side}.json"
        path.write_text(json.dumps(last, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    for m in metrics:
        p, c = (statistics.median(values[side][m]) for side in SIDES)
        print(f"{workload} {m}: parent {p:.6g}, change {c:.6g}, change won {won[m]} of {args.pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=700)
    parser.add_argument("--label", default="pairs")
    parser.add_argument("--out", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")

    shas = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
            for side, ref in zip(SIDES, (args.parent, args.change))}
    seeds = [args.seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: checkout(shas[side], Path(tmp) / side) for side in SIDES}
        lines = {side: src_lines(trees[side]) for side in SIDES}
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        better = {m["name"]: m["better"] for m in declared}
        for workload in args.workload:
            records: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    try:
                        record = run(trees[side], workload, seed, args.seconds)
                    except RunFailed as exc:
                        print(f"{workload}: the {side} run ({shas[side][:7]}) at seed {seed} {exc}", file=sys.stderr)
                        return 1
                    records[side].append(record)
                    value = record["metrics"].get("measures_per_ref_s", {}).get("value")
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side:6s} measures_per_ref_s {value}",
                          file=sys.stderr)
            write_pairs(args, workload, seeds, shas, lines, better, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
