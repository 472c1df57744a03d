"""derive_rngs re-keys one bit generator: each key draws what derive_rng draws."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qx2src.rng import _key, derive_rng, derive_rngs

# seeds beyond 64 bits and below 0 are taken mod 2^64, as derive_rng takes them
SEEDS = [0, 1, 4, 2024, (1 << 64) - 1, -5, (1 << 70) + 3]
STREAMS = [0, 1, 0xC05, 0xB001, (1 << 64) + 7]
KEYS = [(seed, *streams) for seed in SEEDS for count in (1, 2, 3)
        for streams in itertools.islice(itertools.product(STREAMS, repeat=count), 0, None, 4)]

# 64-bit words with the top bit set, which a signed or narrowed state would
# lose, and streams past 64 bits; each key's folded words have it too
TOP_WORDS = st.integers(1 << 63, (1 << 64) - 1)
TOP_KEYS = st.tuples(TOP_WORDS, st.lists(
    st.builds(lambda high, low: high << 64 | low, st.integers(1, 1 << 20), TOP_WORDS),
    min_size=1, max_size=3)).filter(lambda key: min(_key(*key)) >= 1 << 63)


def _draws(rng, turn: int) -> list:
    """One draw of each kind the package makes, starting at a different kind
    on each turn; 32-bit draws use and may leave a spare half of a 64-bit word."""
    kinds = [lambda: rng.normal(size=5), lambda: rng.dirichlet(np.ones(4)),
             lambda: rng.integers(0, 2, size=7), lambda: rng.bytes(5),
             lambda: rng.choice(1 << 20, size=6, replace=False), lambda: rng.random(3),
             lambda: rng.integers(0, 1 << 20, size=3, dtype=np.uint32)]
    turn %= len(kinds)
    return [_as_array(kind()) for kind in kinds[turn:] + kinds[:turn]]


def _as_array(draw) -> np.ndarray:
    return np.frombuffer(draw, dtype=np.uint8) if isinstance(draw, bytes) else draw


def _assert_same(got: list, want: list, key) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), key


def test_rekeyed_generators_draw_what_fresh_ones_draw():
    assert len(KEYS) > 100
    for turn, (key, rng) in enumerate(zip(KEYS, derive_rngs(KEYS))):
        _assert_same(_draws(rng, turn), _draws(derive_rng(*key), turn), key)


def test_a_key_after_a_spare_32_bit_half_starts_fresh():
    # each key is left on an odd count of uint32 draws, which keeps half of a
    # 64-bit word (has_uint32), with the Philox buffer part read
    keys = [(4, 1), (4, 2), (5, 0xC05, 3), (5,)]
    rngs = derive_rngs(keys)
    for key in keys:
        rng, fresh = next(rngs), derive_rng(*key)
        state = rng.bit_generator.state
        assert (state["has_uint32"], state["buffer_pos"]) == (0, 4)
        _assert_same(_draws(rng, 0), _draws(fresh, 0), key)
        while not (state := rng.bit_generator.state)["has_uint32"] or state["buffer_pos"] == 4:
            rng.integers(0, 1 << 20, size=1, dtype=np.uint32)


def test_interleaved_iterators_keep_their_own_streams():
    # two live iterators, each drawing between the other's draws
    a_keys, b_keys = KEYS[::2], KEYS[1::2]
    a, b = derive_rngs(a_keys), derive_rngs(b_keys)
    for turn, (ka, kb) in enumerate(zip(a_keys, b_keys)):
        ra, rb = next(a), next(b)
        fa, fb = derive_rng(*ka), derive_rng(*kb)
        for r, f, key in ((ra, fa, ka), (rb, fb, kb), (ra, fa, ka), (rb, fb, kb)):
            _assert_same(_draws(r, turn), _draws(f, turn), key)


@pytest.mark.parametrize("keys", [[], [(7,)], [(7, 1), (7, 1)]])
def test_short_and_repeated_key_lists(keys):
    got = [rng.normal(size=2).tolist() for rng in derive_rngs(keys)]
    assert got == [derive_rng(*key).normal(size=2).tolist() for key in keys]


def _fields(state: dict, path: tuple = ()):
    """A bit generator's state, field by field: (path, dtype, values)."""
    for name, value in state.items():
        if isinstance(value, dict):
            yield from _fields(value, path + (name,))
        else:
            yield path + (name,), np.asarray(value).dtype.str, np.asarray(value).tolist()


@given(st.lists(TOP_KEYS, min_size=1, max_size=3), st.integers(1, 9))
def test_a_rekeyed_state_is_a_fresh_philox_state(keys, draws):
    for (seed, streams), rng in zip(keys, derive_rngs((seed, *streams) for seed, streams in keys)):
        fresh = np.random.Philox(key=np.array(_key(seed, streams), dtype=np.uint64))
        assert list(_fields(rng.bit_generator.state)) == list(_fields(fresh.state)), (seed, streams)
        # an odd count of 32-bit draws leaves a spare half for the next re-key
        rng.integers(0, 1 << 20, size=draws, dtype=np.uint32)
