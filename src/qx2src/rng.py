"""Counter-based random number generation.

Every randomized routine in the package derives its generator from a
64-bit base seed plus one or more stream identifiers.  Philox is
counter-based, so trial i's generator is independent of whether trials
0..i-1 were ever drawn; parallel or reordered execution reproduces the
same numbers.

A key fully determines a Philox stream, so derive_rngs re-keys one
private bit generator per call, from Python ints, in place of building a
fresh one per key: on two cores a fresh one costs 11-17 us, most of it
seeding a SeedSequence from OS entropy, and a re-key, key fold included, 1.6 us.
"""

from __future__ import annotations

from typing import Iterable, Iterator

_MASK64 = (1 << 64) - 1


def _key(seed: int, streams) -> list:
    """Philox's 2-word key for (seed, streams...): longer stream tuples fold in."""
    key = [seed & _MASK64]
    for s in streams:
        key.append(s & _MASK64)
    if len(key) == 1:
        key.append(0)
    while len(key) > 2:
        tail = key.pop()
        key[-1] = (key[-1] * 0x9E3779B97F4A7C15 + tail + 1) & _MASK64
    return key


def derive_rng(seed: int, *streams: int) -> np.random.Generator:
    """Generator keyed by (seed, streams...); deterministic and order-free."""
    import numpy as np
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, streams),
                                                             dtype=np.uint64)))


def derive_rngs(keys: Iterable[tuple]) -> Iterator[np.random.Generator]:
    """For each key (seed, *streams), a generator that draws what
    derive_rng(seed, *streams) draws.

    One Philox is built per call and re-keyed in place between keys, to
    the state a fresh one has: counter 0, an empty buffer and no spare
    32-bit half.  So each yielded generator is the same object, valid only
    until the next is drawn; two calls share nothing.
    """
    import numpy as np
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bits)
    for seed, *streams in keys:
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": _key(seed, streams)},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng
