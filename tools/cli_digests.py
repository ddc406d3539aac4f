#!/usr/bin/env python3
"""Fingerprint a fixed list of ``nbpriors`` command lines.

    python3 tools/cli_digests.py [--root PATH] > tools/cli_digests.txt

Runs each invocation in ``INVOCATIONS`` as ``python -m nbpriors`` with
``PYTHONPATH=<root>/src``, ``COLUMNS=80`` (argparse wraps its usage text
to it) and the checkout root as working directory, and prints the Python,
numpy and scipy versions as ``#`` lines, then one line per invocation:
the sha256 of its stdout, stderr and exit code, then its argv.  ``--root``
defaults to the checkout that holds this file.  To check that a change
leaves the output bytes alone, run it on both checkouts (for example a
``git archive`` copy of the parent) and diff the two outputs.  The
committed ``cli_digests.txt`` is that output for this checkout, and
``tests/test_cli_digests.py`` recomputes it in process under the same
library versions.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

SAMPLE = [
    "sample --process dirichlet --theta 3 --n 200 --seed 1",
    "sample --process dirichlet --theta 300 --n 200 --output csv --seed 2",
    "sample --process pdp_series --alpha 0.5 --theta 2 --n 300 --seed 3",
    "sample --process pdp_series --alpha 0.5 --theta 2 --n 300 --r 4 --seed 3",
    "sample --process pdp_series --alpha 0.5 --theta 2 --n 3000 --output csv --seed 12",  # three 1,024-level rounds
    "sample --process pdp_series --alpha 0.5 --theta 2 --epsilon 1e-6 --seed 4",
    "sample --process pdp_series --alpha 0.5 --theta 2 --r 2.5 --n 100 --seed 10",
    "sample --process pdp_series --alpha 0.5 --theta 2 --r 2.5 --epsilon 1e-6 --seed 10",
    "sample --process stable --alpha 0.5 --epsilon 1e-6 --output csv --seed 5",
    "sample --process pkp --r 3 --n 100 --seed 6",
    "sample --process extended_dp --theta 3 --n 2000 --seed 7",
    "sample --process extended_dp --theta 3 --r 2 --n 50 --seed 2",
    "sample --process extended_dp --theta 3 --r 2 --n 50 --seed 5",
    "sample --process pdp_stick --alpha 0.5 --theta 2 --n 500 --seed 8",
    "sample --process pdp_stick --alpha 0.5 --theta 2 --n 500 --ranked --output csv --seed 8",
    "sample --process pdp_stick --alpha 0 --theta 0.01 --n 2000 --ranked --seed 9",
    # error cases
    "sample --process nope",
    "sample --process dirichlet --n 10",
    "sample --process dirichlet --theta 3",
    "sample --process stable --n 10",
    "sample --process pdp_stick --alpha 1.5 --theta 2 --n 10",
    "sample --process extended_dp --theta 3 --r 1 --n 50 --seed 0",  # levels past L_n's finite mass weigh zero
    "sample --process extended_dp --theta 3 --r 1 --n 50 --seed 32",  # fewer than two levels below 1
    "sample --process pdp_series --alpha 0.5 --theta 2 --r 10 --n 10 --seed 1",  # degenerate truncation
    "sample --process dirichlet --theta 3 --n 1 --seed 1",  # one point retained
    "sample --process stable --alpha 0.5 --n 2000000 --seed 1",  # above the hard cap
]

INVOCATIONS = [
    *SAMPLE,
    "ks-table --seed 1 --reps 40",
    "ks-table --seed 3 --reps 20 --output csv",
    "ks-table --n 3 --reps 2",  # a grid row no seed can draw
    "weights --seed 2",
    "weights --theta 0.01 --reps 5 --output csv",
    "clusters",
    "clusters --process pdp_series --alpha 0.5 --theta 2 --reps 10 --seed 100",
    "clusters --process pdp_series --alpha 0.9 --theta 10 --reps 2 --n-grid 10,100 --seed 11",  # at the hard cap
    "clusters --process stable --alpha 0.5 --reps 10 --output csv",
    "selftest",
]


def versions() -> list[str]:
    """The header lines of a digest list: the library versions its output bytes hold for."""
    import numpy
    import scipy

    return [f"# python {platform.python_version()}", f"# numpy {numpy.__version__}", f"# scipy {scipy.__version__}"]


def fingerprint(stdout: bytes, stderr: bytes, code: int) -> str:
    """sha256 over an invocation's stdout, stderr and exit code."""
    h = hashlib.sha256()
    for part in (stdout, b"\0", stderr, b"\0", str(code).encode()):
        h.update(part)
    return h.hexdigest()


def digest(root: Path, argv: list[str]) -> str:
    """The fingerprint of one invocation, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "nbpriors", *argv], cwd=root, env=env, capture_output=True, check=False
    )
    return fingerprint(proc.stdout, proc.stderr, proc.returncode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is run (default: the one holding this file)")
    root = parser.parse_args(argv).root.resolve()
    print(*versions(), sep="\n")
    for line in INVOCATIONS:
        print(digest(root, line.split()), line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
