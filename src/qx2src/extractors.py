"""Two-source and seeded extractors.

The two-source core outputs bits of the form (A_i x) . y for the
multiplier matrix family of :mod:`qx2src.gf2`.  Because matrix i acts
as multiplication by alpha^i, (A_i x) equals alpha^i * x in GF(2^n),
and by the transposition principle the m bits are the first m
coefficients of the transposed product of x with y: y extended by the
modulus recurrence, then one correlation with x, and no field
multiplication per bit.  Tests cross-check this against the explicit
matrices at small n.

Two seeded extractors are provided: Toeplitz hashing (simple, seed
longer than the input, used standalone and in unit tests) and a
Trevisan-style construction (short seed, the one actually usable in
the strong-extractor composition, where the seed is produced by the
two-source core and is therefore much shorter than the input).

Two kernels carry the polynomial arithmetic.  The multi-bit core and a
Toeplitz matrix-vector product are each one correlation
(:func:`qx2src.gf2.correlate`) of x with a sequence: y extended by the
modulus recurrence, or the seed with its low m bits reversed.  The weak
design and the Trevisan extractor's Reed-Solomon/Hadamard code evaluate
polynomials over GF(2^w) by Horner's rule, for w <= 16 through
log/antilog tables built once per w on first use.  The design is an
(m, t) index array, cached, whose m polynomials are evaluated at all t
points in one table pass.  Trevisan gathers the seed's bits through that array, one row per
sub-seed, and evaluates the code polynomial at every sub-seed's point
with the blocked Horner of :func:`_horner`: at n = 4096, w = 16 its 256
coefficients take 16 steps over a (16, points) array instead of 256
steps over the points.  Above w = 16, that is t >= 64, :func:`_horner`
runs point by point, one poly_mul and one poly_mod per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import gf2
from .errors import DimensionError, ParameterError
from .gf2 import BitVector, inner_product
from .rng import derive_rng

# --------------------------------------------------------------------------
# flat sources


def _uint64(values):
    """values as a 1-D uint64 array, exact for Python ints; ParameterError unless
    a nonempty sequence of integers in [0, 2^64)."""
    import numpy as np
    given = np.asarray(values)
    try:    # exact for Python ints, which np.asarray alone makes floats past 2^63
        support = np.asarray(values, dtype=np.uint64)
    except (OverflowError, ValueError):     # past 2^64, below 0 or NaN
        support = None
    if support is None or (given.dtype != np.uint64 and not np.array_equal(support, given)):
        raise ParameterError("support values must be integers in [0, 2^64)")
    if support.ndim != 1 or not support.size:
        raise ParameterError("support must be a nonempty sequence")
    return support


@dataclass(frozen=True, eq=False)
class FlatSource:
    """Uniform over a support of n-bit strings: a read-only, increasing uint64 array."""

    n: int
    support: "np.ndarray"

    def __post_init__(self):
        import numpy as np
        support = _uint64(self.support).view()
        if np.count_nonzero(support[1:] <= support[:-1]):
            raise ParameterError("support must be sorted and duplicate-free")
        if int(support[-1]) >> self.n:
            raise ParameterError("support value out of range for n bits")
        support.flags.writeable = False
        object.__setattr__(self, "support", support)

    @classmethod
    def from_values(cls, n: int, values) -> "FlatSource":
        import numpy as np
        support = np.sort(_uint64(values))
        return cls(n, np.concatenate((support[:1], support[1:][support[1:] != support[:-1]])))

    def min_entropy(self) -> float:
        return math.log2(len(self.support))

    def probability(self) -> float:
        return 1.0 / len(self.support)


def random_flat_source(n: int, k: int, seed: int, *streams: int) -> FlatSource:
    """Flat source with support size exactly 2^k, sampled without replacement."""
    if not 0 <= k <= n:
        raise ParameterError("need 0 <= k <= n")
    rng = derive_rng(seed, 0x5053, *streams)
    values = rng.choice(1 << n, size=1 << k, replace=False)
    return FlatSource.from_values(n, values.astype("uint64"))


# --------------------------------------------------------------------------
# inner-product extractors


def ip_extract(x: BitVector, y: BitVector) -> int:
    """One-bit extractor x . y."""
    return inner_product(x, y)


def multibit_extract(x: BitVector, y: BitVector, m: int) -> BitVector:
    """m-bit extractor with bit i = (A_i x) . y over the multiplier family.

    A_i x = alpha^i * x in GF(2^n), so bit i is the sum over set bits j
    of x of z_(i+j) = <x^(i+j) mod f, y>: the first m bits of the
    transposed product, a correlation of x with y extended to n + m - 1
    terms by the modulus recurrence (gf2.extend_by_modulus, then
    gf2.correlate).  No field multiplication is formed.
    """
    n = x.length
    if y.length != n:
        raise DimensionError(f"length mismatch: {n} vs {y.length}")
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}")
    z = gf2.extend_by_modulus(y.value, gf2.find_irreducible(n).value, n + m - 1)
    return BitVector(m, gf2.correlate(x.value, z, m))


# --------------------------------------------------------------------------
# Toeplitz hashing


def toeplitz_extract(x: BitVector, seed: BitVector, m: int) -> BitVector:
    """Output T x where T is the m-by-n Toeplitz matrix defined by the seed.

    T[i][0] = seed[i] going down the first column and
    T[0][j] = seed[m-1+j] going across the first row, so the seed must
    have n + m - 1 bits.

    With s the seed whose low m bits are reversed, T[i][j] =
    s[m - 1 - i + j], so T x read from its last bit up is the first m
    bits of the correlation of x with s (gf2.correlate).
    """
    n = x.length
    if m < 1:
        raise ParameterError("m must be positive")
    if seed.length != n + m - 1:
        raise ParameterError(
            f"seed length {seed.length} != n + m - 1 = {n + m - 1}")
    low = seed.value & ((1 << m) - 1)
    s = seed.value ^ low ^ _reverse(low, m)
    return BitVector(m, _reverse(gf2.correlate(x.value, s, m), m))


def _reverse(value: int, bits: int) -> int:
    """The low bits of value in reverse order: bit j moves to bit bits - 1 - j."""
    return int(format(value, f"0{bits}b")[::-1], 2)


def toeplitz_row(seed: BitVector, m: int, i: int, n: int) -> BitVector:
    """Row i of the Toeplitz matrix, for tests and inspection."""
    bits = [seed.bit(i - j) if i >= j else seed.bit(m - 1 + j - i)
            for j in range(n)]
    return BitVector.from_bits(bits)


# --------------------------------------------------------------------------
# polynomial evaluation in GF(2^w)


def _horner(w: int, coeffs, points):
    """Values at each of points of the polynomial with coeffs[j] on x^j, in GF(2^w).

    Elements are w-bit ints modulo find_irreducible(w).  With w <=
    _TABLE_MAX_W the result is a uint16 array from a blocked Horner over
    all points at once: for a block size B near sqrt(len(coeffs)),
    p(x) = sum_{r<B} x^r q_r(x^B) where q_r takes coeffs[r], coeffs[r+B],
    ...  One Horner pass evaluates all B of the q_r at x^B, a (B, points)
    array per step, and a second one combines them at x.  Above that the
    result is a list of ints, point by point, each step one poly_mul and
    one poly_mod.
    """
    import numpy as np
    modulus = gf2.find_irreducible(w).value
    if w > _TABLE_MAX_W:
        coeffs = [int(coef) for coef in coeffs]
        out = []
        for point in points:
            acc, point = 0, int(point)
            for coef in reversed(coeffs):
                acc = gf2.poly_mod(gf2.poly_mul(acc, point), modulus) ^ coef
            out.append(acc)
        return out
    antilog, log = _log_tables(w, modulus)
    coeffs = np.asarray(coeffs, dtype=antilog.dtype)
    block = 1 << ((len(coeffs) - 1).bit_length() + 1) // 2
    # rows[s, r] is coefficient s of q_r
    rows = np.zeros(-(-len(coeffs) // block) * block, dtype=antilog.dtype)
    rows[:len(coeffs)] = coeffs
    points = np.asarray(points, dtype=np.intp)
    power = points
    for _ in range(block.bit_length() - 1):
        power = antilog.take(2 * log.take(power))
    inner = _table_horner(antilog, log, rows.reshape(-1, block, 1), log.take(power))
    return _table_horner(antilog, log, inner, log.take(points))


def _table_horner(antilog, log, rows, log_points):
    """Horner's rule through the tables: rows[j] is coefficient j, log_points the logs of the points.

    rows[j] broadcasts against log_points, so one pass evaluates as many
    polynomials as rows[j] holds coefficients.
    """
    import numpy as np
    acc = np.zeros(np.broadcast_shapes(rows.shape[1:], log_points.shape),
                   dtype=antilog.dtype)
    for row in rows[::-1]:
        acc = antilog.take(log.take(acc) + log_points) ^ row
    return acc


# Largest w for which GF(2^w) multiplies through tables; at w = 16 they
# take 768 KB, and each further bit of w doubles them.
_TABLE_MAX_W = 16


@functools.lru_cache(maxsize=None)
def _log_tables(w: int, modulus: int) -> tuple:
    """(antilog, log) tables of GF(2^w) modulo the given polynomial.

    antilog[i] = g^i for 0 <= i < 2(q - 1), with q = 2^w and g the
    smallest generator of the multiplicative group, and log inverts it
    on the non-zero elements.  log[0] points past those entries into a
    run of zeros, so antilog[log[a] + log[b]] = a * b for every a, b.
    """
    import numpy as np
    q = 1 << w
    for g in range(1, q):
        powers = _generator_powers(g, w, modulus)
        if powers is not None:
            break
    zero = 2 * q - 2
    antilog = np.zeros(2 * zero + 1, dtype=np.uint16)
    antilog[:q - 1] = powers
    antilog[q - 1:2 * q - 2] = powers
    del powers          # peak memory: log is built from antilog instead
    log = np.empty(q, dtype=np.int32)
    log[antilog[:q - 1]] = np.arange(q - 1, dtype=np.int32)
    log[0] = zero
    return antilog, log


def _generator_powers(g: int, w: int, modulus: int):
    """g^0 .. g^(q-2) in GF(2^w), or None when g does not generate GF(2^w)*.

    Doubles the known prefix each round: the next block is the prefix
    times g^len(prefix).  A product is one carry-less multiply of degree
    <= 2w - 2 and its reduction, so for w <= 16 every value fits int32.
    """
    import numpy as np

    def times(values, c):
        return gf2._mod_lanes(gf2._clmul_lanes(values, c, w), modulus, w, 2 * w - 2)

    count = (1 << w) - 1
    powers = np.ones(count, dtype=np.int32)
    filled = 1
    while filled < count:
        step = times(powers[filled - 1:filled], g)[0]     # g^filled
        block = times(powers[:min(filled, count - filled)], int(step))
        powers[filled:filled + len(block)] = block
        filled += len(block)
        if (powers[1:filled] == 1).any():
            return None
    return powers


@functools.lru_cache(maxsize=64)
def weak_design(m: int, t: int, c: int | None = None) -> tuple:
    """Polynomial weak design: m subsets of [t^2], each of size t.

    t is a power of two.  Set p is the graph {(a, p(a)) : a in GF(t)} of
    the p-th polynomial of degree < c in lexicographic coefficient
    order, flattened as a * t + p(a) and so listed in increasing order.
    Two distinct polynomials of degree < c agree on at most c - 1
    points, so pairwise intersections are at most c - 1.  The sets are
    tuples of ints, the rows of _design_array.
    """
    return tuple(map(tuple, _design_array(m, t, c).tolist()))


@functools.lru_cache(maxsize=64)
def _design_array(m: int, t: int, c: int | None = None):
    """weak_design(m, t, c) as a read-only (m, t) index array, built in one pass.

    Coefficient j of polynomial p is base-t digit j of p, so only the
    digits of m - 1 can be non-zero and a larger c gives the same sets.
    One table Horner evaluates all m polynomials at all t points.
    """
    import numpy as np
    if t < 2 or t & (t - 1) or t > 1 << _TABLE_MAX_W:
        raise ParameterError(
            f"field size {t} must be a power of two between 2 and 2^{_TABLE_MAX_W}")
    if c is None:
        c = _default_degree_bound(m, t)
    if c < 0:
        raise ParameterError(f"degree bound c must be >= 0, got {c}")
    digits = _design_digits(m, t)
    if digits > c:
        raise ParameterError(f"m={m} exceeds the t^c polynomials of degree < c={c} "
                             f"over GF({t})")
    w = t.bit_length() - 1
    antilog, log = _log_tables(w, gf2.find_irreducible(w).value)
    shifts = w * np.arange(digits)[:, None, None]
    rows = (np.arange(m)[:, None] >> shifts & (t - 1)).astype(antilog.dtype)
    design = np.arange(t) * t + _table_horner(antilog, log, rows, log[:t])
    design.flags.writeable = False
    return design


def _design_digits(m: int, t: int) -> int:
    """Base-t digits of the largest design index m - 1: the least c with m <= t^c."""
    return -(-(max(m, 1) - 1).bit_length() // (t.bit_length() - 1))


# --------------------------------------------------------------------------
# Trevisan-style seeded extractor


@dataclass(frozen=True)
class SeededExtractorSpec:
    """Parameters of a seeded extractor.

    kind "toeplitz": d = n + m - 1.
    kind "trevisan": d = t^2 where t is the weak-design field size and
    also the sub-seed length; each sub-seed indexes one bit of the
    Reed-Solomon-then-Hadamard encoding of the input, so t = 2w with
    GF(2^w) the Reed-Solomon alphabet.
    """

    kind: str
    n: int
    m: int
    t: int = 0
    c: int = 0

    def __post_init__(self):
        if self.kind not in ("toeplitz", "trevisan"):
            raise ParameterError(f"unknown kind {self.kind!r}")
        if self.n < 1 or self.m < 1:
            raise ParameterError("n and m must be positive")
        if self.c < 0:
            raise ParameterError(f"degree bound c must be >= 0, got {self.c}")
        if self.kind == "trevisan" and self.m > self.t * self.t + self.n:
            raise ParameterError("cannot output more than d + n bits")
        if self.kind == "trevisan":
            if self.t < 4 or self.t % 2:
                # t = 2 fits no composition: GF(2^1) holds at most n = 2 input
                # bits, and compose_two_source needs d = t^2 = 4 <= n
                raise ParameterError("trevisan needs even t = 2w >= 4")
            if self.t & (self.t - 1):
                raise ParameterError("trevisan t must be a power of two")
            w = self.t // 2
            if _rs_symbols(self.n, w) > (1 << w):
                raise ParameterError(
                    f"message of {_rs_symbols(self.n, w)} symbols does not fit "
                    f"GF(2^{w}); increase t")
            if _design_digits(self.m, self.t) > self.degree_bound:
                raise ParameterError("m exceeds the weak design capacity")

    @property
    def d(self) -> int:
        if self.kind == "toeplitz":
            return self.n + self.m - 1
        return self.t * self.t

    @property
    def degree_bound(self) -> int:
        return self.c or _default_degree_bound(self.m, self.t)


def _default_degree_bound(m: int, t: int) -> int:
    return max(1, _design_digits(m, t))


def _rs_symbols(n: int, w: int) -> int:
    return (n + w - 1) // w


def trevisan_extract(x: BitVector, seed: BitVector, spec: SeededExtractorSpec) -> BitVector:
    """Bit i = code bit of x indexed by the seed restricted to design set i.

    One gather of the seed's bits through the design array gives every
    sub-seed at once: row i holds sub-seed i, whose high w bits are the
    Reed-Solomon point and whose low w bits the Hadamard mask.
    """
    import numpy as np
    if spec.kind != "trevisan":
        raise ParameterError("spec kind must be 'trevisan'")
    if x.length != spec.n:
        raise DimensionError(f"input length {x.length} != spec n {spec.n}")
    if seed.length != spec.d:
        raise ParameterError(f"seed length {seed.length} != spec d {spec.d}")
    w = spec.t // 2
    count = _rs_symbols(x.length, w)
    symbols = _pack_rows(_bit_array(x.value, count * w).reshape(count, w))
    subs = _bit_array(seed.value, seed.length)[
        _design_array(spec.m, spec.t, spec.degree_bound)]
    points, masks = _pack_rows(subs[:, w:]), _pack_rows(subs[:, :w])
    values = _horner(w, symbols, points)
    if w <= _TABLE_MAX_W:
        bits = np.bitwise_count(values & masks) & 1
    else:
        bits = [(value & mask).bit_count() & 1
                for value, mask in zip(values, masks.tolist())]
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return BitVector(spec.m, int.from_bytes(packed.tobytes(), "little"))


def _bit_array(value: int, length: int):
    """Bits 0 .. length - 1 of value as a uint8 array."""
    import numpy as np
    raw = np.frombuffer(value.to_bytes(-(-length // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length]


def _pack_rows(bits):
    """Each row of a 0/1 array as an int with column j on 2^j: int64, or Python ints past 62 columns."""
    import numpy as np
    width = bits.shape[-1]
    return bits @ np.array([1 << j for j in range(width)],
                           dtype=np.int64 if width < 63 else object)


# --------------------------------------------------------------------------
# composition: strong two-source core feeding a seeded extractor


def compose_two_source(x: BitVector, y: BitVector, which: str,
                       spec: SeededExtractorSpec) -> BitVector:
    """E(x, y) = E_seeded(side, multibit_extract(x, y, d)).

    The inner multi-bit extractor supplies the d-bit seed; ``which``
    selects whether the seeded extractor is applied to the x or y side.
    """
    if which not in ("X", "Y"):
        raise ParameterError("which must be 'X' or 'Y'")
    d = spec.d
    n = x.length
    if y.length != n:
        raise DimensionError("source length mismatch")
    if spec.n != n:
        raise ParameterError("seeded extractor input length must equal n")
    if d > n:
        raise ParameterError(
            f"inner extractor emits at most n={n} bits but spec needs d={d}")
    seed = multibit_extract(x, y, d)
    side = x if which == "X" else y
    if spec.kind == "toeplitz":
        return toeplitz_extract(side, seed, spec.m)
    return trevisan_extract(side, seed, spec)
