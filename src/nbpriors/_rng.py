"""Seed derivation for reproducible sampling.

Every randomness stream of one realization is a Philox generator keyed by
its ``(seed, stream_tag)``, where ``seed`` is either a single integer or a
tuple such as ``(master_seed, replication_index)``: the 128-bit key is the
blake2b-128 digest of the little-endian uint64 words ``(*seed, stream_tag)``
and the counter starts at 0 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011).  The stream tags below separate the
independent randomness sources of one realization (arrival times, gamma
mixing variable, atom locations, posterior-style draws), so exchanging the
base measure never perturbs the weights and a replication's draws do not
depend on the others.

``spawn_generator`` takes a generator from a free list and re-keys it
through its ``state`` setter, which resets counter, buffer and cached
words; a new one is built only when the list is empty.  ``release`` gives
a generator back once its last draw is done, and the caller must not draw
from it again: the next spawn re-keys it for another stream.  Releasing is
optional, since a generator never released is simply collected.  The list
holds at most as many generators as were alive at once, and ``list.pop``
and ``list.append`` are atomic under the GIL, so threads may spawn and
release concurrently.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import DomainError

# Fixed stream tags; changing any of them silently changes every sampled value.
STREAM_ARRIVALS = 101
STREAM_MIXING = 102
STREAM_ATOMS = 103
STREAM_DRAWS = 104

_UINT64_MASK = (1 << 64) - 1

_FREE: list[np.random.Generator] = []  # released generators, re-keyed by the next spawns


def seed_tuple(seed) -> tuple[int, ...]:
    """Normalize a seed (an integer or a sequence of integers; a string or a real is neither) to a tuple of
    uint64 words."""
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not parts:
        raise DomainError("seed tuple must not be empty")
    if not all(isinstance(p, (int, np.integer)) for p in parts):
        raise DomainError(f"seed must be an integer or tuple of integers: {seed!r}")
    return tuple(int(p) & _UINT64_MASK for p in parts)


def stream_key(seed, stream_tag: int) -> tuple[int, int]:
    """The Philox key of one stream: blake2b-128 of the little-endian uint64 words ``(*seed, stream_tag)``,
    as two uint64 words."""
    words = seed_tuple(seed) + (int(stream_tag) & _UINT64_MASK,)
    digest = hashlib.blake2b(struct.pack(f"<{len(words)}Q", *words), digest_size=16).digest()
    return struct.unpack("<2Q", digest)


def spawn_generator(seed, stream_tag: int) -> np.random.Generator:
    """Philox generator for one randomness stream of one realization, at counter 0 of its key."""
    key = stream_key(seed, stream_tag)
    try:
        rng = _FREE.pop()
    except IndexError:
        rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def release(rng: np.random.Generator) -> None:
    """Give a spawned generator back after its last draw; the next spawn re-keys it."""
    _FREE.append(rng)


def replication_seed(master_seed, replication_index: int) -> tuple[int, ...]:
    """Per-replication seed: ``(*master_seed, replication_index)``."""
    if replication_index < 0:
        raise DomainError("replication index must be nonnegative")
    return seed_tuple(master_seed) + (int(replication_index),)
