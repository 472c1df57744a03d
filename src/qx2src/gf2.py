"""Packed GF(2) linear algebra and the shifted-multiplier matrix family.

Bit vectors and polynomial coefficient strings are packed into Python
ints, bit j of the int being coordinate j (little-endian).  In string
literals such as "1011" the leftmost character is coordinate 0, so
"1011" is the vector (1, 0, 1, 1).

The matrix family used by the multi-bit extractor is built from
multiplication in GF(2^n): matrix i represents multiplication by
alpha^i in the basis (1, alpha, ..., alpha^(n-1)) of GF(2)[x] modulo a
fixed irreducible polynomial.  Its rows come from the power sequence
that :func:`extend_by_modulus` builds for the extractor itself.  The XOR
of any non-empty subset of the family is multiplication by a non-zero
field element and therefore invertible, which is the property the
extractor needs.  The verification suite checks it by computing every
subset matrix's rank: :func:`subset_tables` builds, once per family, a
16-entry table of subset XORs for each group of four matrices,
:func:`subset_rows` forms a whole stack of subset XORs from them, one
gather per 4-bit digit of the mask, and :func:`batched_rank` reduces the
stack on leading bits, each row below a pivot p becoming min(row, row ^ p),
with no search, gather or multiply.  Rows are packed in the narrowest
unsigned type that holds them (uint32 at n = 32), and the reduction runs
in that type.  :func:`subset_matrix` and :func:`rank`, one matrix at a
time by XOR-basis insertion, are their reference.

Scalar polynomials have one kernel per job: :func:`poly_mul`,
:func:`poly_mod` and :func:`poly_gcd`.  The carry-less product serves
:func:`is_irreducible`, textbook Ben-Or, the scalar reference of the
modulus search, and Horner's rule over GF(2^w) above w = 16.  It XORs
one shifted copy of one operand per set bit of the other, the sparser.
:func:`correlate` cuts a into byte-aligned segments of about S = 2000
bits, one below about 3000 bits, and walks each segment's bytes, shifting
right, through a 256-entry table of shifted XORs of the S + m - 1 bits of
b it can reach.  So it forms only the first m coefficients of a
transposed product, which the multi-bit extractor (after
:func:`extend_by_modulus`) and the Toeplitz hash share, in n/S tables and
n/8 steps on (S + m)-bit ints.
numpy lanes of small polynomials have one each too: _clmul_lanes,
_square_lanes and _mod_lanes, which the sieve and GF(2^w)'s log tables
share.

The search for a degree-n modulus first sieves its candidate tails in
numpy, blocks of 2^14 at a time: every irreducible p of degree
2..min(16, n // 2) marks the tails t with p | x^n + t, a coset of p's
multiples.  The unmarked tails then take Rabin's test 64 at a time,
bit-sliced (:func:`_rabin_lanes`): bit c of each uint64 word belongs to
candidate c, so one numpy pass squares x^(2^i) mod x^n + t for all of
them.  Squarings slice that way; Ben-Or's dense products and gcds do
not, which is why Rabin's test, slower per candidate, wins here.

numpy is imported inside the functions that use it: the int paths
(inner products, correlations, the memoized moduli) run without it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from .errors import DimensionError, ParameterError

# --------------------------------------------------------------------------
# bit vectors


@dataclass(frozen=True)
class BitVector:
    """Fixed-length bit string packed into an int (bit j = coordinate j)."""

    length: int
    value: int

    def __post_init__(self):
        if self.length <= 0:
            raise ParameterError("BitVector length must be positive")
        if self.value < 0 or self.value >> self.length:
            raise ParameterError("BitVector value has bits beyond its length")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        seq = list(bits)
        value = 0
        for j, b in enumerate(seq):
            if b:
                value |= 1 << j
        return cls(len(seq), value)

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitVector":
        if 8 * len(data) < length:
            raise ParameterError("not enough bytes for requested length")
        value = int.from_bytes(data, "little") & ((1 << length) - 1)
        return cls(length, value)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.length + 7) // 8, "little")

    def bit(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise ParameterError("bit index out of range")
        return (self.value >> j) & 1


def inner_product(x: BitVector, y: BitVector) -> int:
    """Parity of the bitwise AND of two equal-length vectors."""
    if x.length != y.length:
        raise DimensionError(f"length mismatch: {x.length} vs {y.length}")
    return (x.value & y.value).bit_count() & 1


# --------------------------------------------------------------------------
# bit matrices


@dataclass(frozen=True)
class BitMatrix:
    """Row-major GF(2) matrix; each row packed like a BitVector."""

    rows: int
    cols: int
    row_values: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ParameterError("matrix dimensions must be positive")
        if len(self.row_values) != self.rows:
            raise ParameterError("row count mismatch")
        for r in self.row_values:
            if r < 0 or r >> self.cols:
                raise ParameterError("row has bits beyond cols")


def rank(a: BitMatrix) -> int:
    """GF(2) rank by XOR-basis insertion on packed rows.

    r ^ v < r exactly when r has v's leading bit, so a reduced row lacks every
    basis row's leading bit, and it is zero exactly when it lies in their span.
    """
    basis: List[int] = []
    for r in a.row_values:
        for v in basis:
            r = min(r, r ^ v)
        if r:
            basis.append(r)
    return len(basis)


# --------------------------------------------------------------------------
# polynomials over GF(2), packed as ints (bit j = coefficient of x^j)


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial over GF(2); value bit j is the coefficient of x^j."""

    value: int


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b."""
    if a < 0 or b <= 0:
        raise ParameterError(f"poly_mod needs a >= 0 and b > 0, got {a} and {b}")
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor by Euclid's algorithm."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_mul(a: int, b: int) -> int:
    """Carry-less product.

    Swaps the operands so that a has fewer set bits, then XORs one
    shifted copy of b per set bit of a.  The count follows the set bits,
    not the length, so a long sparse operand such as x^1000 costs one xor.
    """
    if a < 0 or b < 0:
        raise ParameterError(f"poly_mul needs operands >= 0, got {a} and {b}")
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


# Nominal width in bits of correlate's segments: an a of n bits is cut into
# round(n / _SEGMENT_BITS) near-equal ones, one below 3000 bits.  Each
# segment pays for a 256-entry table of its window of b, about as much as
# walking 256 of its bytes.  Against one walk (in process, alternated
# medians, two cores) two segments were even at 2560 bits and 2-8% faster at
# 2816-3072, and widths of 1536 and 2048 read the same from 4096 bits up.
# At m = 64: 3000 bits 86 -> 81 us, 4096 151 -> 107, 16384 1486 -> 427.
_SEGMENT_BITS = 2000


def correlate(a: int, b: int, m: int) -> int:
    """The first m bits of the correlation of a with b: bit i is the parity of a & (b >> i).

    That is the XOR over set bits j of a of b >> j, read in bits 0..m-1.
    a of n bits is cut into round(n / _SEGMENT_BITS) byte-aligned segments
    of near-equal width S (one below about 3000 bits; the top one a few
    bytes shorter).  The segment at bits lo .. lo + S - 1 can reach only
    bits lo .. lo + S + m - 2 of b, its window, shifted down to bit 0.  It
    walks its bytes from the top through a 256-entry table whose entry for
    a byte is the XOR of window << (7 - k) over its set bits k, as
    walk = (walk >> 8) ^ T[byte]; right shifts distribute over XOR, so the
    low coefficients of the full carry-less product are never formed.  The
    walks are XORed and the 7 guard bits dropped.  That costs n/S tables
    and n/8 steps on (S + m)-bit ints, where one walk of a long a would
    take n/8 steps on (n + m)-bit ints: time linear in n, not quadratic.
    """
    n = a.bit_length()
    data = a.to_bytes((n + 7) // 8, "big")
    segments = max((n + _SEGMENT_BITS // 2) // _SEGMENT_BITS, 1)
    step = max(-(-len(data) // segments), 1)    # a = 0 has no bytes; range refuses 0
    reach = (1 << (8 * step + m - 1)) - 1
    acc = 0
    for end in range(len(data), 0, -step):
        window = (b >> 8 * (len(data) - end)) & reach
        table = [0, window << 7]
        for k in range(1, 8):
            shifted = window << (7 - k)
            table += [shifted ^ v for v in table]
        walk = 0
        for byte in data[max(end - step, 0):end]:
            walk = (walk >> 8) ^ table[byte]
        acc ^= walk
    return (acc >> 7) & ((1 << m) - 1)


def extend_by_modulus(y: int, modulus: int, length: int) -> int:
    """z_0 .. z_(length-1) packed, with z_k = <x^k mod f, y> for f = modulus of degree n.

    y has degree < n and z_k = y_k for k < n.  Writing f = x^n + tail,
    x^(k+n) = x^k tail mod f gives the recurrence z_(k+n) = XOR over the
    set bits j of tail of z_(k+j).  One round XORs one shifted copy of z
    per set bit of tail and adds the n - deg(tail) terms it determines,
    so a small tail takes one or two rounds for length <= 2n - 1.
    """
    if modulus < 2:
        raise ParameterError(f"modulus must have degree >= 1, got {modulus}")
    n = modulus.bit_length() - 1
    tail = modulus ^ (1 << n)
    taps = [j for j in range(tail.bit_length()) if tail >> j & 1]
    step = n - max(tail.bit_length() - 1, 0)
    z, known = y, n
    while known < length:
        fresh = 0
        for j in taps:
            fresh ^= z >> (known - n + j)
        z |= (fresh & ((1 << step) - 1)) << known
        known += step
    return z & ((1 << length) - 1)


def is_irreducible(f: int) -> bool:
    """Deterministic irreducibility test for a polynomial over GF(2), Ben-Or's.

    f of degree n is irreducible exactly when it has no irreducible
    factor of degree d <= n/2, that is when gcd(f, x^(2^d) - x) = 1 for
    d = 1..n/2.  s walks the Frobenius chain x^(2^d) mod f by scalar
    squarings.  The d = 1 gcd rejects the factors x and x + 1.

    This is the scalar reference.  The live modulus search tests its
    candidates 64 at a time with _rabin_lanes instead.
    """
    n = f.bit_length() - 1
    if n <= 0:
        return False
    s = 2  # the polynomial x
    for _ in range(n // 2):
        s = poly_mod(poly_mul(s, s), f)
        if poly_gcd(f, s ^ 2) != 1:
            return False
    return True


def _prime_divisors(n: int) -> List[int]:
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]


def _lane_planes(values: Sequence[int], bits: int) -> np.ndarray:
    """(bits, W) uint64 planes: bit c of word w of plane b is bit b of values[64w + c]."""
    import numpy as np
    size = -(-bits // 8)
    raw = np.frombuffer(b"".join(v.to_bytes(size, "little") for v in values), dtype=np.uint8)
    lanes = np.unpackbits(raw.reshape(len(values), size), axis=1, bitorder="little")[:, :bits]
    lanes = np.pad(lanes, ((0, -len(values) % 64), (0, 0)))
    return np.ascontiguousarray(np.packbits(lanes, axis=0, bitorder="little").T).view("<u8")


def _lane_poly(rows: np.ndarray, c: int) -> int:
    """Lane c of (W, n) bit-sliced rows as a packed polynomial."""
    import numpy as np
    w, c = divmod(c, 64)
    bits = ((rows[w] >> np.uint64(c)) & np.uint64(1)).astype(np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _rabin_lanes(n: int, tails: Sequence[int]) -> np.ndarray:
    """Rabin's irreducibility test of x^n + t for each tail t, bit-sliced.

    Domain: n >= 2 and 0 <= t < 2^n, that is deg t < n; anything else
    raises ParameterError.  Returns a bool per tail.

    Candidate 64w + c is bit c of word w, and row j of the (W, n) state
    holds coefficient j of every candidate's x^(2^i) mod x^n + t_c.  A
    squaring moves row j to row 2j.  A row that lands at n + j, past the
    top, reduces as x^n = t_c: masked by the plane of the tails' bit b,
    it is xored into row j + b, for every b, in one strided numpy write
    and one xor-reduction over b.  For tails below 2^K that costs about
    K * n / 2 word operations per squaring, however many lanes a word
    holds, and overflows by K - 2 rows, which the same step folds back
    down until none are left.

    After n squarings, a lane whose state is x has f | x^(2^n) - x.  Only
    those lanes take the scalar gcds with x^(2^(n/p)) - x, one per prime
    p | n, from rows saved at those steps.
    """
    import numpy as np
    tails = [int(t) for t in tails]
    if n < 2 or not tails or min(tails) < 0 or max(tails) >> n:
        raise ParameterError(f"need n >= 2 and tails in [0, 2^n), got n={n}")
    k = max(2, max(tails).bit_length())
    planes = _lane_planes(tails, k)[:, :, None]
    words = planes.shape[1]
    half = (n + 1) // 2  # rows from half on square to n or beyond
    # row half + i, masked by plane b, goes to b + 2i (+1 when n is odd)
    spread = np.zeros((k, words, n + k - 2), dtype=np.uint64)
    s0, s1, s2 = spread.strides
    spread_at = np.lib.stride_tricks.as_strided(
        spread[:, :, 2 * half - n:], (k, words, n - half), (s0 + s2, s1, 2 * s2))
    # materialised: a broadcast operand makes each squaring's write ~30% slower
    masks = np.ascontiguousarray(np.broadcast_to(planes, spread_at.shape))
    folds = []
    over = k - 2
    while over > 0:  # overflow row n + i, masked by plane b, goes to b + i
        fold = np.zeros((k, words, over + k - 1), dtype=np.uint64)
        t0, t1, t2 = fold.strides
        folds.append((over, fold, np.lib.stride_tricks.as_strided(
            fold, (k, words, over), (t0 + t2, t1, t2)), np.empty(fold.shape[1:], np.uint64)))
        over += k - 1 - n
    buffers = [np.empty((words, n + k - 2), dtype=np.uint64) for _ in range(2)]
    state = np.zeros((words, n), dtype=np.uint64)
    state[:, 1] = ~np.uint64(0)  # x
    keep = {n // p for p in _prime_divisors(n)}
    saved = []
    for i in range(1, n + 1):
        r = buffers[i & 1]
        np.bitwise_and(state[:, half:], masks, out=spread_at)
        np.bitwise_xor.reduce(spread, axis=0, out=r)
        r[:, :n:2] ^= state[:, :half]
        for over, fold, fold_at, folded in folds:
            np.bitwise_and(r[:, n:n + over], planes, out=fold_at)
            np.bitwise_xor.reduce(fold, axis=0, out=folded)
            if folded.shape[1] > n:  # another fold follows
                r[:, n:n + over] = 0
            r[:, :folded.shape[1]] ^= folded
        state = r[:, :n]
        if i in keep:
            saved.append(state.copy())
    state[:, 1] = ~state[:, 1]
    stray = np.bitwise_or.reduce(state, axis=1).tolist()
    passed = np.zeros(len(tails), dtype=bool)
    for c, t in enumerate(tails):
        if not stray[c // 64] >> (c % 64) & 1:
            f = (1 << n) | t
            passed[c] = all(poly_gcd(f, _lane_poly(s, c) ^ 2) == 1 for s in saved)
    return passed


# The live search sieves candidate tails by every irreducible polynomial of
# degree 2.._SIEVE_DEG, 2^_SIEVE_BLOCK_BITS consecutive tails at a time.
# At degree 16 the sieve's arrays stay under 1 MB.  Degree 20 (111k
# irreducibles) took ~13% off the searches but peaked at ~7 MB.
_SIEVE_DEG = 16
_SIEVE_BLOCK_BITS = 14


def _clmul_lanes(a, b, bits: int):
    """Carry-less products a*b over numpy lanes, for b below 2^bits."""
    acc = 0
    for j in range(bits):
        acc = acc ^ (a << j) * ((b >> j) & 1)
    return acc


def _square_lanes(r: np.ndarray) -> np.ndarray:
    """r*r over GF(2) for r below 2^16 in uint64 lanes: bit j moves to bit 2j."""
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
        r = (r | (r << shift)) & mask
    return r


def _mod_lanes(v: np.ndarray, p, d: int, top: int) -> np.ndarray:
    """v mod p over integer lanes, where p (lanes or one int) has degree d and v degree <= top."""
    for j in range(top, d - 1, -1):
        v = v ^ (p << (j - d)) * ((v >> j) & 1)
    return v


@functools.lru_cache(maxsize=None)
def _small_irreducibles(max_deg: int) -> dict:
    """The irreducible polynomials of degree 2..max_deg, by a numpy sieve.

    Maps each degree d to a uint64 array of those of degree d.  The sieve
    starts from the polynomials with a constant term and odd weight, so
    with no factor x or x + 1.  Walking up from x^2 + x + 1, one that no
    smaller one has marked is irreducible.  Every composite of degree
    <= max_deg has a factor q of degree <= max_deg / 2, so only those mark
    their multiples q*h, each h also free of x and x + 1.
    """
    import numpy as np
    odd_weight = np.zeros(1, dtype=bool)
    for _ in range(max_deg + 1):
        odd_weight = np.concatenate([odd_weight, ~odd_weight])
    odd_weight[::2] = False
    prime = odd_weight.copy()
    for q in range(7, 2 << max_deg // 2, 2):
        if prime[q]:
            bits = q.bit_length()
            h = np.flatnonzero(odd_weight[2:2 << (max_deg + 1 - bits)]) + 2
            prime[_clmul_lanes(h, q, bits)] = False
    return {d: np.flatnonzero(prime[1 << d:2 << d]).astype(np.uint64) + (1 << d)
            for d in range(2, max_deg + 1)}


def _sieve_blocks(n: int, max_deg: int):
    """Yield (start, marked) for the blocks of 2^_SIEVE_BLOCK_BITS tails from 0 up.

    marked[u] is True when x^n + (start + u) has an irreducible factor p of
    degree 2..max_deg below n, that is when start + u = x^n mod p.  Each
    p's residue x^n mod p comes once, by square-and-multiply in uint64
    lanes.  In a block, with r = (x^n + start) mod p, the marked tails
    are start + (r + p*h): every h when deg p < _SIEVE_BLOCK_BITS, and h = 0
    alone, if r fits the block, otherwise.
    """
    import numpy as np
    size = 1 << _SIEVE_BLOCK_BITS
    groups = []
    for d, polys in _small_irreducibles(max_deg).items():
        if d >= n:
            break
        r = np.ones_like(polys)
        for bit in bin(n)[2:]:
            r = _square_lanes(r) << int(bit)
            r = _mod_lanes(r, polys, d, 2 * d - 1)
        span = max(_SIEVE_BLOCK_BITS - d, 0)
        multiples = _clmul_lanes(polys[:, None], np.arange(1 << span, dtype=np.uint64), span)
        groups.append((d, polys, r, multiples))
    for start in itertools.count(0, size):
        marked = np.zeros(size, dtype=bool)
        for d, polys, r, multiples in groups:
            r = _mod_lanes(r ^ start, polys, d, start.bit_length() - 1)
            marks = (r[:, None] ^ multiples).ravel()
            marked[marks[marks < size]] = True
        yield start, marked


# Memoized outputs of find_irreducible for large degrees where the scan
# is slow; each entry is the tail (modulus minus the leading x^n term)
# and was produced by this module's own search.  Verified by tests at
# 1024, 2048 and 4096.
_KNOWN_TAILS = {1024: 0x2CD, 2048: 0xBC7, 4096: 0xA93}


@functools.lru_cache(maxsize=None)
def find_irreducible(n: int) -> Gf2Poly:
    """Lexicographically smallest monic irreducible polynomial of degree n.

    Polynomials of equal degree are compared as packed coefficient
    integers, so the result is reproducible bit for bit.
    """
    if n < 1:
        raise ParameterError("degree must be at least 1")
    if modulus_source(n) == "search":
        return Gf2Poly(_search_irreducible(n))
    return Gf2Poly((1 << n) | _KNOWN_TAILS.get(n, 0))  # at n = 1, x comes before x + 1


def modulus_source(n: int) -> str:
    """"search" when find_irreducible(n) scans candidates, "memo" when it does not."""
    return "search" if n > 1 and n not in _KNOWN_TAILS else "memo"


def _search_irreducible(n: int) -> int:
    """The live scan behind find_irreducible, for degree n >= 2.

    Bypasses the memo table and the cache, so tests can re-derive the
    frozen tails.  Tails go up from 0 in blocks of 2^_SIEVE_BLOCK_BITS.
    The sieve (_sieve_blocks) marks those where x^n + tail has an
    irreducible factor of degree <= min(_SIEVE_DEG, n // 2).  The cap at
    n // 2 suffices, as in Ben-Or's test, and keeps small fields such as
    GF(2^16) and GF(32) cheap.  The unmarked tails that are odd and of
    even weight (so no factor x or x + 1) are the survivors.  When the
    sieve reached n // 2 (n <= 33), the first survivor is irreducible.
    Otherwise the survivors take _rabin_lanes in increasing order, in
    chunks of n // 8 lanes, at least 8 and at most one word of 64: small
    n rarely need more than a few, and each extra lane that passes costs
    scalar gcds.  The first that passes is the answer, the one Ben-Or's
    test would find one at a time, as both tests are exact.  The answer's
    tail is below 2^n, so every tail tested before it is too.
    """
    import numpy as np
    sieved = min(_SIEVE_DEG, n // 2)
    u = np.arange(1 << _SIEVE_BLOCK_BITS, dtype=np.uint64)
    odd, parity = (u & 1) == 1, np.bitwise_count(u) & 1
    lanes = min(64, max(8, n // 8))
    for start, marked in _sieve_blocks(n, sieved):
        survivors = np.flatnonzero(~marked & odd & (parity == start.bit_count() % 2))
        survivors = (survivors + start).tolist()
        if survivors and sieved == n // 2:
            return (1 << n) | survivors[0]
        for lo in range(0, len(survivors), lanes):
            chunk = survivors[lo:lo + lanes]
            passed = np.flatnonzero(_rabin_lanes(n, chunk))
            if len(passed):
                return (1 << n) | chunk[passed[0]]


# --------------------------------------------------------------------------
# the multiplier matrix family


def multiply_by_alpha(v: int, n: int, modulus: int) -> int:
    """One multiplication by the field generator, reduced: the step of the
    tests' reference for multiplier_matrices."""
    v <<= 1
    if v >> n:
        v ^= modulus
    return v


@functools.lru_cache(maxsize=32)
def multiplier_matrices(n: int, m: int) -> tuple:
    """Matrices of multiplication by alpha^0 .. alpha^(m-1) in GF(2^n).

    Column j of matrix i is the coefficient vector of alpha^(i+j), so
    the XOR of the matrices selected by any non-empty subset S is the
    matrix of multiplication by the non-zero field element
    sum_{i in S} alpha^i, hence full rank.  Row r of matrix i is then
    bits i .. i+n-1 of the power sequence z_k = bit r of x^k mod f,
    which extend_by_modulus builds from y = x^r, as the multi-bit
    extractor does from its y.
    """
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    modulus, mask = find_irreducible(n).value, (1 << n) - 1
    powers = [extend_by_modulus(1 << r, modulus, n + m - 1) for r in range(n)]
    return tuple(BitMatrix(n, n, tuple(z >> i & mask for z in powers)) for i in range(m))


def subset_matrix(mats: Sequence[BitMatrix], subset_mask: int) -> BitMatrix:
    """Entrywise XOR of the matrices selected by the bits of subset_mask."""
    if subset_mask == 0:
        raise ParameterError("empty subset is excluded")
    if subset_mask >> len(mats):
        raise ParameterError("subset mask has bits beyond the family")
    shape = (mats[0].rows, mats[0].cols)
    acc = [0] * shape[0]
    for i, mat in enumerate(mats):
        if (subset_mask >> i) & 1:
            if (mat.rows, mat.cols) != shape:
                raise DimensionError("matrices in family differ in shape")
            for r in range(shape[0]):
                acc[r] ^= mat.row_values[r]
    return BitMatrix(shape[0], shape[1], tuple(acc))


def subset_tables(mats: Sequence[BitMatrix]) -> tuple:
    """The tables subset_rows reads, built once per family of up to 64 matrices.

    One table per group of four matrices: entry e of group g's table holds
    the rows of the XOR of matrices 4g + k over the set bits k of e, so the
    last group's table has 2^(its size) entries.  Rows are packed in the
    narrowest unsigned type that holds cols bits: uint8, uint16, uint32 or
    uint64.  Sixteen 16-entry tables at 64 x 64 take 128 KB.
    """
    import numpy as np
    dtype = np.min_scalar_type((1 << mats[0].cols) - 1)
    rows = np.array([mat.row_values for mat in mats], dtype=dtype)
    tables = []
    for lo in range(0, len(mats), 4):
        table = np.zeros((1, mats[0].rows), dtype=dtype)
        for row in rows[lo:lo + 4]:
            table = np.concatenate([table, table ^ row])
        tables.append(table)
    return tuple(tables)


def subset_rows(tables: tuple, masks: np.ndarray) -> np.ndarray:
    """Packed rows of subset_matrix(mats, mask) for a uint64 array of masks,
    given tables = subset_tables(mats).

    Each 4-bit digit of a mask indexes its group's table, so a mask costs
    one gather and xor per digit.  The result has one row of words, of the
    tables' type, per mask.
    """
    import numpy as np
    masks = np.asarray(masks, dtype=np.uint64)
    if not masks.all():
        raise ParameterError("empty subset is excluded")
    if (masks >> np.uint64(4 * len(tables) - 4) >= len(tables[-1])).any():
        raise ParameterError("subset mask has bits beyond the family")
    out = tables[0][masks & np.uint64(15)]
    for g, table in enumerate(tables[1:], 1):
        out ^= table[(masks >> np.uint64(4 * g)) & np.uint64(15)]
    return out


def batched_rank(rows: np.ndarray) -> np.ndarray:
    """GF(2) rank of each matrix in a (B, r) stack of rows packed in unsigned words.

    XOR-basis reduction on leading bits, over an (r, B) copy so that row i
    of every matrix is one contiguous slice.  Row i is the pivot p, and
    each row below it becomes min(row, row ^ p): in unsigned words,
    row ^ p < row exactly when the row has p's top bit set, so the rows
    below lose that bit, and a zero pivot changes nothing.  Rows above i
    are never touched, and no later pivot holds p's top bit, so the nonzero
    rows left have distinct top bits and the rank is their count.  Rows of
    at most 32 columns rank in uint32 (or narrower) words, at half the
    traffic.
    """
    import numpy as np
    if rows.dtype.kind != "u":
        raise ParameterError(f"rows must be unsigned integers, got {rows.dtype}")
    a = np.array(rows.T, order="C")
    del rows  # the caller's rows, if it handed them over, are freed here
    scratch = np.empty_like(a[1:])
    for i in range(len(a) - 1):
        below = a[i + 1:]
        np.minimum(below, np.bitwise_xor(below, a[i], out=scratch[i:]), out=below)
    return np.count_nonzero(a, axis=0)
