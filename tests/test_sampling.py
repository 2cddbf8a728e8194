"""Deterministic seeding and count generation."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.ensemble import replica_frequencies
from tomospectra.sampling import (
    MULTINOMIAL,
    POISSON,
    CountModel,
    EmptySettingError,
    philox_key,
    rekey,
    stream,
)

# outcome probabilities of three settings on two qubits, in setting order
PROBS = np.array([
    [0.5, 0.25, 0.125, 0.125],
    [0.25, 0.25, 0.25, 0.25],
    [0.7, 0.0, 0.3, 0.0],
])


def test_stream_is_pure_function_of_triple():
    a = stream(42, 3, 17).integers(0, 2**63, size=4)
    b = stream(42, 3, 17).integers(0, 2**63, size=4)
    np.testing.assert_array_equal(a, b)


def test_stream_is_the_philox_generator_of_the_key():
    for master, rep, setting in ((0, 0, 0), (42, 3, 17), (2**64 - 1, 2**32 - 1, 728)):
        ours = stream(master, rep, setting)
        reference = np.random.Generator(
            np.random.Philox(key=philox_key(master, rep, setting)))
        assert repr(ours.bit_generator.state) == repr(reference.bit_generator.state)
        np.testing.assert_array_equal(ours.multinomial(100, PROBS[0], size=3),
                                      reference.multinomial(100, PROBS[0], size=3))


def test_rekey_gives_the_fresh_stream_state():
    """A used generator rekeyed to (r, s) is the generator stream(m, r, s)."""
    master = 2**63 + 9
    rng = stream(master, 5, 0)
    for rep, setting in ((5, 728), (0, 3), (5, 1), (2**32 - 1, 0), (0, 3), (7, 2**32 - 1)):
        rng.multinomial(100, PROBS[0])  # leave a used counter and buffer behind
        rng.integers(0, 10, dtype=np.uint32)  # and a half-used 64-bit word
        rekey(rng, master, rep, setting)
        fresh = stream(master, rep, setting)
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        np.testing.assert_array_equal(rng.multinomial(100, PROBS[2], size=2),
                                      fresh.multinomial(100, PROBS[2], size=2))


def test_streams_differ_across_coordinates():
    base = stream(42, 3, 17).integers(0, 2**63, size=4)
    for master, rep, setting in ((43, 3, 17), (42, 4, 17), (42, 3, 18)):
        other = stream(master, rep, setting).integers(0, 2**63, size=4)
        assert not np.array_equal(base, other)


def test_replica_setting_key_injective_in_range():
    seen = {
        tuple(philox_key(7, rep, s))
        for rep in (0, 1, 2, 2**31)
        for s in (0, 1, 728, 2**31)
    }
    assert len(seen) == 16


def test_key_bounds_enforced():
    with pytest.raises(ValueError):
        philox_key(1, -1, 0)
    with pytest.raises(ValueError):
        philox_key(1, 0, 2**32)
    with pytest.raises(ValueError):
        philox_key(1, 2**32, 0)
    # master seeds only need to fit the 64-bit word (mod reduction documented)
    philox_key(2**64 + 5, 0, 0)
    # NumPy integer indices give the key of the equal Python ints
    np.testing.assert_array_equal(
        philox_key(np.uint64(2**64 - 1), np.int64(2**32 - 1), np.int64(5)),
        philox_key(2**64 - 1, 2**32 - 1, 5))
    with pytest.raises(TypeError):
        philox_key(1, 2.0, 0)


def test_count_model_validation():
    CountModel(MULTINOMIAL, 1)
    with pytest.raises(ValueError):
        CountModel(MULTINOMIAL, 0)
    assert CountModel(MULTINOMIAL, np.int64(7)).events_per_setting == 7
    for events in (100.7, 100.0, True):
        with pytest.raises(ValueError, match="integer"):
            CountModel(MULTINOMIAL, events)
    with pytest.raises(ValueError):
        CountModel("gaussian", 10)


def test_multinomial_counts_total_and_reproducibility():
    model = CountModel(MULTINOMIAL, 500)
    freqs = replica_frequencies(PROBS, model, 1, [0])[0]
    counts = np.round(freqs * 500)
    np.testing.assert_allclose(freqs * 500, counts, atol=1e-9)
    np.testing.assert_array_equal(counts.sum(axis=1), 500)
    np.testing.assert_array_equal(freqs, replica_frequencies(PROBS, model, 1, [0])[0])
    assert not np.array_equal(freqs, replica_frequencies(PROBS, model, 1, [1])[0])


def test_multinomial_sampling_matches_numpy_generator_exactly():
    """Row s is a direct multinomial draw from stream (master, replica, s)."""
    freqs = replica_frequencies(PROBS, CountModel(MULTINOMIAL, 123), 11, [7])[0]
    for s, p in enumerate(PROBS):
        np.testing.assert_array_equal(
            freqs[s], stream(11, 7, s).multinomial(123, p) / 123)


def test_poisson_sampling_matches_numpy_generator_exactly():
    """Row s is a Poisson draw from stream (master, replica, s), normalized."""
    freqs = replica_frequencies(PROBS, CountModel(POISSON, 400), 3, [5])[0]
    for s, p in enumerate(PROBS):
        counts = stream(3, 5, s).poisson(400 * p)
        np.testing.assert_array_equal(freqs[s], counts / counts.sum())


def test_empty_poisson_setting_names_replica_and_setting():
    """One expected event per setting: the first empty setting is reported."""
    model = CountModel(POISSON, 1)
    probs = np.full((9, 4), 0.25)
    for replica in range(50):
        empty = [s for s in range(9)
                 if stream(0, replica, s).poisson(probs[s]).sum() == 0]
        if empty:
            break
    with pytest.raises(EmptySettingError,
                       match="replica %d, setting %d " % (replica, empty[0])):
        replica_frequencies(probs, model, 0, [replica])
    # a stack draws replica by replica, and its first empty (replica,
    # setting) in that order is named (here (1, 5), before (2, 4))
    stack = range(1, 5)
    first = next((r, s) for r in stack for s in range(9)
                 if stream(0, r, s).poisson(probs[s]).sum() == 0)
    with pytest.raises(EmptySettingError, match="replica %d, setting %d " % first):
        replica_frequencies(probs, model, 0, stack)


@hyp_settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    replica=st.integers(min_value=0, max_value=2**32 - 1),
    setting=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stream_reproducibility_property(seed, replica, setting):
    x = stream(seed, replica, setting).random()
    y = stream(seed, replica, setting).random()
    assert x == y
