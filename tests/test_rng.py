"""Unit tests for the keyed Philox streams and the generator free list."""

import sys
import threading

import numpy as np
import pytest

from nbpriors import TruncationPolicy, draw_from_measure, experiments, gamma_arrivals, uniform_base
from nbpriors import _rng, point_processes, random_measures
from nbpriors._rng import (
    STREAM_ARRIVALS,
    STREAM_ATOMS,
    STREAM_DRAWS,
    STREAM_MIXING,
    release,
    replication_seed,
    spawn_generator,
    stream_key,
)

UB = uniform_base()
STREAMS = (STREAM_ARRIVALS, STREAM_MIXING, STREAM_ATOMS, STREAM_DRAWS)


def fresh(seed, stream_tag) -> np.random.Generator:
    """A generator built from scratch at counter 0 of the stream's key, by numpy's own key handling."""
    lo, hi = stream_key(seed, stream_tag)
    return np.random.Generator(np.random.Philox(key=lo | hi << 64))


class TestStreamKeys:
    def test_known_answer(self):
        # blake2b-128 of the little-endian words (20261020, 7, 101) is 77e8bccbfb82f87f fc7a959c0a279356,
        # read as two little-endian words; frozen
        assert stream_key((20261020, 7), STREAM_ARRIVALS) == (0x7FF882FBCBBCE877, 0x5693270A9C957AFC)
        assert stream_key(20261020, STREAM_ARRIVALS) != stream_key((20261020, 7), STREAM_ARRIVALS)

    def test_spawn_is_counter_zero_of_the_key(self):
        rng = spawn_generator((20261020, 7), STREAM_ARRIVALS)
        assert np.array_equal(rng.random(5), fresh((20261020, 7), STREAM_ARRIVALS).random(5))

    def test_the_four_streams_have_distinct_keys(self):
        seeds = [0, 1, (0, 0), (0, 1), (1, 0), replication_seed((3, 2), 5)]
        keys = [stream_key(seed, tag) for seed in seeds for tag in STREAMS]
        assert len(set(keys)) == len(keys)

    def test_seed_words_are_uint64(self):
        # a seed word is read modulo 2^64, as seed_tuple reads it
        assert stream_key(-1, STREAM_ATOMS) == stream_key(2**64 - 1, STREAM_ATOMS)


class TestGeneratorPool:
    @pytest.mark.parametrize("partial", [
        lambda rng: rng.random(3),  # leaves part of Philox's 4-word buffer unread
        lambda rng: rng.integers(0, 10, dtype=np.uint32),  # leaves a cached 32-bit half word
    ], ids=["random_3", "uint32"])
    def test_a_released_generator_respawns_a_fresh_stream(self, partial, monkeypatch):
        monkeypatch.setattr(_rng, "_FREE", [])
        seed = replication_seed(9, 4)
        rng = spawn_generator(seed, STREAM_ARRIVALS)
        partial(rng)
        release(rng)
        again = spawn_generator(seed, STREAM_ARRIVALS)
        assert again is rng  # the same object, re-keyed
        ref = fresh(seed, STREAM_ARRIVALS)
        assert np.array_equal(again.random(7), ref.random(7))
        words = [rng.integers(0, 10, size=5, dtype=np.uint32) for rng in (again, ref)]
        assert np.array_equal(*words)
        assert np.array_equal(again.standard_exponential(9), ref.standard_exponential(9))

    @pytest.mark.parametrize("process, params, truncation", [
        ("pdp_series", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.epsilon_rule(1e-6)),  # arrivals and mixing
        ("pkp", {"r": 3, "tail": {"kind": "gamma", "theta": 2.0}}, TruncationPolicy.fixed(60)),
        ("extended_dp", {"concentration": 3.0, "n": 60}, None),
        ("pdp_stick", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.fixed(60)),
    ])
    def test_every_spawn_site_releases_its_generator(self, process, params, truncation, monkeypatch):
        monkeypatch.setattr(_rng, "_FREE", [])
        spawned = []

        def recording(seed, stream_tag):
            spawned.append(spawn_generator(seed, stream_tag))
            return spawned[-1]

        for module in (point_processes, random_measures):
            monkeypatch.setattr(module, "spawn_generator", recording)
        record = experiments._family(process, params, truncation)
        measure = record.measure(UB, 5)
        draw_from_measure(measure, 20, 5)
        record.draw([replication_seed(5, i) for i in range(3)])
        gamma_arrivals(5, 10)
        assert spawned
        assert {id(rng) for rng in spawned} == {id(rng) for rng in _rng._FREE}  # none is still held
        assert len(_rng._FREE) == len({id(rng) for rng in _rng._FREE})  # none released twice

    def test_the_free_list_holds_at_most_a_block_of_generators(self, monkeypatch):
        # an epsilon-rule block of the randomized path holds its rows' arrival generators and one mixing one
        monkeypatch.setattr(_rng, "_FREE", [])
        spec = experiments.ExperimentSpec("pdp_series", {"alpha": 0.5, "theta": 2.0}, 40,
                                          TruncationPolicy.epsilon_rule(1e-6), 3)
        assert not experiments.run_ks_experiment(spec).failures
        assert 0 < len(_rng._FREE) <= experiments._EPSILON_BLOCK + 1

    def test_threads_drawing_blocks_give_the_rows_of_a_serial_run(self):
        records = [
            experiments._family("pdp_series", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.epsilon_rule(1e-6)),
            experiments._family("pkp", {"r": 3, "tail": {"kind": "gamma", "theta": 2.0}}, TruncationPolicy.fixed(60)),
            experiments._family("pdp_stick", {"alpha": 0.5, "theta": 2.0}, TruncationPolicy.fixed(60)),
            experiments._family("stable", {"alpha": 0.5}, TruncationPolicy.epsilon_rule(1e-6)),
        ]

        def rows(k):
            seeds = [replication_seed(k, i) for i in range(20)]
            return [row.tolist() for row in experiments._replicate(records[k], seeds)]

        serial = [rows(k) for k in range(len(records))]
        results, errors = [None] * len(records), []

        def work(k):
            try:
                for _ in range(3):
                    results[k] = rows(k)
                    if results[k] != serial[k]:
                        return
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(records))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == serial
