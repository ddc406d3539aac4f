#!/usr/bin/env python3
"""Fingerprint a fixed list of ``nbpriors`` command lines.

    python3 tools/cli_digests.py [--root PATH]

Runs each invocation in ``INVOCATIONS`` as ``python -m nbpriors`` with
``PYTHONPATH=<root>/src`` and the checkout root as working directory, and
prints one line per invocation: the sha256 of its stdout, stderr and exit
code, then its argv.  ``--root`` defaults to the checkout that holds this
file.  To check that a change leaves the output bytes alone, run it on
both checkouts (for example a ``git archive`` copy of the parent) and
diff the two outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SAMPLE = [
    "sample --process dirichlet --theta 3 --n 200 --seed 1",
    "sample --process dirichlet --theta 300 --n 200 --output csv --seed 2",
    "sample --process pdp_series --alpha 0.5 --theta 2 --n 300 --seed 3",
    "sample --process pdp_series --alpha 0.5 --theta 2 --n 300 --r 4 --seed 3",
    "sample --process pdp_series --alpha 0.5 --theta 2 --epsilon 1e-6 --seed 4",
    "sample --process pdp_series --alpha 0.5 --theta 2 --r 2.5 --n 100 --seed 10",
    "sample --process pdp_series --alpha 0.5 --theta 2 --r 2.5 --epsilon 1e-6 --seed 10",
    "sample --process stable --alpha 0.5 --epsilon 1e-6 --output csv --seed 5",
    "sample --process pkp --r 3 --n 100 --seed 6",
    "sample --process extended_dp --theta 3 --n 2000 --seed 7",
    "sample --process extended_dp --theta 3 --r 2 --n 50 --seed 2",
    "sample --process extended_dp --theta 3 --r 2 --n 50 --seed 5",
    "sample --process pdp_stick --alpha 0.5 --theta 2 --sticks 500 --seed 8",
    "sample --process pdp_stick --alpha 0.5 --theta 2 --sticks 500 --ranked --output csv --seed 8",
    "sample --process pdp_stick --alpha 0 --theta 0.01 --sticks 2000 --ranked --seed 9",
    # error cases
    "sample --process nope",
    "sample --process dirichlet --n 10",
    "sample --process dirichlet --theta 3",
    "sample --process stable --n 10",
    "sample --process pdp_stick --alpha 1.5 --theta 2 --sticks 10",
    "sample --process extended_dp --theta 3 --r 1 --n 50 --seed 1",  # the draw fails
    "sample --process pdp_series --alpha 0.5 --theta 2 --r 10 --n 10 --seed 1",  # degenerate truncation
]

INVOCATIONS = [
    *SAMPLE,
    "ks-table --seed 1 --reps 40",
    "ks-table --seed 3 --reps 20 --output csv",
    "weights --seed 2",
    "weights --theta 0.01 --reps 5 --output csv",
    "clusters",
    "clusters --process pdp_series --alpha 0.5 --theta 2 --reps 10 --seed 100",
    "clusters --process stable --alpha 0.5 --reps 10 --output csv",
    "selftest",
]


def digest(root: Path, argv: list[str]) -> str:
    """sha256 over the invocation's stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "nbpriors", *argv], cwd=root, env=env, capture_output=True, check=False
    )
    h = hashlib.sha256()
    for part in (proc.stdout, b"\0", proc.stderr, b"\0", str(proc.returncode).encode()):
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is run (default: the one holding this file)")
    root = parser.parse_args(argv).root.resolve()
    for line in INVOCATIONS:
        print(digest(root, line.split()), line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
