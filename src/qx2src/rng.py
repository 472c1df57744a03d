"""Counter-based random number generation.

Every randomized routine in the package derives its generator from a
64-bit base seed plus one or more stream identifiers.  Philox is
counter-based, so trial i's generator is independent of whether trials
0..i-1 were ever drawn; parallel or reordered execution reproduces the
same numbers.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def derive_rng(seed: int, *streams: int) -> np.random.Generator:
    """Generator keyed by (seed, streams...); deterministic and order-free."""
    import numpy as np
    key = [seed & _MASK64]
    for s in streams:
        key.append(s & _MASK64)
    if len(key) == 1:
        key.append(0)
    # Philox accepts a 2-word key; fold longer stream tuples into it.
    while len(key) > 2:
        tail = key.pop()
        key[-1] = (key[-1] * 0x9E3779B97F4A7C15 + tail + 1) & _MASK64
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
