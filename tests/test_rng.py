"""The batched stream keys against numpy's own SeedSequence and Philox."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illnessdeath._rng import stream_keys, streams


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**160 - 1),
    indices=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=6),
)
@example(seed=0, indices=[0, 1, 2**32 - 1])
@example(seed=2**32 - 1, indices=[0, 5])
@example(seed=2**32, indices=[0, 2**32 - 1])
@example(seed=2**64, indices=[3])
@example(seed=2**96 + 1, indices=[0, 7])  # five words of entropy: more than the pool holds
@example(seed=3**140, indices=[0, 2**31])  # above 2**200
@example(seed=7, indices=[2**32 - 1])  # one index: the hash runs on scalars
def test_keys_are_the_seed_sequence_states(seed, indices):
    keys = stream_keys(seed, indices)
    assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
    expected = [np.random.SeedSequence((seed, i)).generate_state(2, np.uint64) for i in indices]
    assert keys.tolist() == [row.tolist() for row in expected]


def test_stream_draws_equal_fresh_generators():
    # integers(0, n) draws 32-bit halves of 64-bit words; here every stream
    # leaves one buffered, which re-keying must drop rather than hand on
    seed, n, halves_left = 26, 7, []
    for index, rng in enumerate(streams(seed, range(16))):
        fresh = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        ours = [rng.exponential(2.0, 5), rng.random(3), rng.standard_normal(4), rng.integers(0, n, n)]
        theirs = [fresh.exponential(2.0, 5), fresh.random(3), fresh.standard_normal(4),
                  fresh.integers(0, n, n)]
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        halves_left.append(rng.bit_generator.state["has_uint32"])
    assert all(halves_left)


def test_streams_yield_one_generator_per_index():
    rngs = list(streams(3, [4, 0, 4]))
    assert len(rngs) == 3 and rngs[0] is rngs[1] is rngs[2]
    assert stream_keys(3, []).shape == (0, 2)


@pytest.mark.parametrize("seed, indices", [(-1, [0]), (0, [-1]), (0, [2**32])])
def test_keys_outside_the_contract_raise(seed, indices):
    with pytest.raises(ValueError, match="seed >= 0 and an index in"):
        stream_keys(seed, indices)
