"""The random streams: stream i of a run with seed q is Philox keyed by
``SeedSequence((q, i)).generate_state(2, np.uint64)``, a hash (mix_entropy,
then generate_state) that stream_keys runs on uint32 vectors, a lane per index."""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, Sequence

import numpy as np

_MASK, _POOL = 0xFFFFFFFF, 4  # a word's bits, and the words of SeedSequence's pool


def _chain(count: int, init: int = 0x43B0D7E5, mult: int = 0x931E8875) -> list[np.uint32]:
    """Hash constants init * mult**k mod 2**32, k < count (mix_entropy's by default)."""
    return [np.uint32(init * pow(mult, k, 1 << 32) & _MASK) for k in range(count)]


# mix_entropy's for at most 4 words of entropy, and generate_state's for 2 uint64 words
_A, _B = _chain(4 * _POOL + 1), _chain(5, 0x8B51F9DD, 0x58F38DED)


def _hash(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ value >> 16


@np.errstate(over="ignore")
def stream_keys(seed: int, indices: Sequence[int]) -> np.ndarray:
    """The (len(indices), 2) uint64 Philox keys of the streams (seed, i)."""
    index = np.asarray(indices, dtype=np.int64)
    if seed < 0 or index.size and (index.min() < 0 or index.max() > _MASK):
        raise ValueError("a stream needs a seed >= 0 and an index in [0, 2**32)")
    # the seed's little-endian words, then the index's one word (a scalar for one stream)
    entropy = [np.uint32(seed >> s & _MASK) for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.uint32(index[0]) if len(index) == 1 else index.astype(np.uint32))
    consts = _A if len(entropy) <= _POOL else _chain(4 * len(entropy) + 1)
    pairs = zip(consts, consts[1:])  # hash k xors with constant k, multiplies by k + 1

    def mix(dst: int, value) -> None:
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(value, *next(pairs))
        pool[dst] = mixed ^ mixed >> 16

    pool = [_hash(entropy[i] if i < len(entropy) else 0, *next(pairs)) for i in range(_POOL)]
    for src, dst in permutations(range(_POOL), 2):
        mix(dst, pool[src])
    for word, dst in product(entropy[_POOL:], range(_POOL)):
        mix(dst, word)
    # the index reaches every pool word, so each state word is a vector (or a scalar)
    state = np.stack([_hash(word, *_B[k : k + 2]) for k, word in enumerate(pool)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64).reshape(-1, 2)


def streams(seed: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """One Generator, re-keyed in place to each stream (seed, i) in turn (counter 0,
    buffer empty), all keys hashed in one pass: draw from each before the next."""
    rng = np.random.Generator(np.random.Philox(key=0))
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in stream_keys(seed, indices).tolist():
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng
