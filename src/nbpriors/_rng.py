"""Seed derivation for reproducible sampling.

Every sampler builds a Philox generator from
``SeedSequence(entropy=(*seed, stream_tag))``, where ``seed`` is either a
single integer or a tuple such as ``(master_seed, replication_index)``.
The stream tags below separate the independent randomness sources of one
realization (arrival times, gamma mixing variable, atom locations,
posterior-style draws), so exchanging the base measure never perturbs the
weights and a replication's draws do not depend on the others.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Fixed stream tags; changing any of them silently changes every sampled value.
STREAM_ARRIVALS = 101
STREAM_MIXING = 102
STREAM_ATOMS = 103
STREAM_DRAWS = 104

_UINT64_MASK = (1 << 64) - 1


def seed_tuple(seed) -> tuple[int, ...]:
    """Normalize a seed (an integer or a sequence of integers; a string or a real is neither) to a tuple of
    uint64 words."""
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not parts:
        raise DomainError("seed tuple must not be empty")
    if not all(isinstance(p, (int, np.integer)) for p in parts):
        raise DomainError(f"seed must be an integer or tuple of integers: {seed!r}")
    return tuple(int(p) & _UINT64_MASK for p in parts)


def spawn_generator(seed, stream_tag: int) -> np.random.Generator:
    """Deterministic Philox generator for one randomness stream of one realization."""
    entropy = seed_tuple(seed) + (int(stream_tag),)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def replication_seed(master_seed, replication_index: int) -> tuple[int, ...]:
    """Per-replication seed: ``(*master_seed, replication_index)``."""
    if replication_index < 0:
        raise DomainError("replication index must be nonnegative")
    return seed_tuple(master_seed) + (int(replication_index),)
