"""Packed GF(2) linear algebra and the shifted-multiplier matrix family.

Bit vectors and polynomial coefficient strings are packed into Python
ints, bit j of the int being coordinate j (little-endian).  In string
literals such as "1011" the leftmost character is coordinate 0, so
"1011" is the vector (1, 0, 1, 1).

The matrix family used by the multi-bit extractor is built from
multiplication in GF(2^n): matrix i represents multiplication by
alpha^i in the basis (1, alpha, ..., alpha^(n-1)) of GF(2)[x] modulo a
fixed irreducible polynomial.  The XOR of any non-empty subset of the
family is multiplication by a non-zero field element and therefore
invertible, which is the property the extractor needs.  The
verification suite checks it by computing every subset matrix's rank
through XOR-basis insertion on its packed rows.

One carry-less product, :func:`poly_mul`, serves all polynomial work:
the irreducible-modulus search (Ben-Or's test, gcds over windows of
16 Frobenius steps) and the Toeplitz hash.  Sparse operands take a
shift-xor loop over set bits, dense ones a byte-windowed table walk.
"""

from __future__ import annotations

import functools
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
    def from_str(cls, bits: str) -> "BitVector":
        """Parse "1011" with the leftmost character as coordinate 0."""
        value = 0
        for j, ch in enumerate(bits):
            if ch == "1":
                value |= 1 << j
            elif ch != "0":
                raise ParameterError(f"invalid bit character {ch!r}")
        return cls(len(bits), value)

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

    def to_str(self) -> str:
        return "".join("1" if (self.value >> j) & 1 else "0" for j in range(self.length))

    def bit(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise ParameterError("bit index out of range")
        return (self.value >> j) & 1

    def weight(self) -> int:
        return self.value.bit_count()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise DimensionError("length mismatch in xor")
        return BitVector(self.length, self.value ^ other.value)


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
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def poly_gcd(a: int, b: int) -> int:
    """Euclid's algorithm, with the remainder steps of poly_mod inlined."""
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


# Set bits in the sparser operand from which poly_mul walks bytes through
# a table: building the table costs about as much as 75 shifted xors.
_WINDOW_MIN_WEIGHT = 80


def poly_mul(a: int, b: int) -> int:
    """Carry-less product.

    Walks the operand with fewer set bits.  With few set bits it xors
    one shifted copy of the other operand per set bit; otherwise it
    walks the bytes from the top through a 256-entry table of the other
    operand's products with every byte, as acc = (acc << 8) ^ T[byte].
    The choice follows the set-bit count, not the length, because a long
    sparse operand such as x^1000 costs one xor in the first loop.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    if a.bit_count() < _WINDOW_MIN_WEIGHT:
        while a:
            low = a & -a
            acc ^= b << (low.bit_length() - 1)
            a ^= low
        return acc
    table = [0, b]
    for k in range(1, 8):
        shifted = b << k
        table += [shifted ^ v for v in table]
    for byte in a.to_bytes((a.bit_length() + 7) // 8, "big"):
        acc = (acc << 8) ^ table[byte]
    return acc


# zero-interleave table: squaring a GF(2) polynomial spreads its bits
_SPREAD_BYTES = []
for _b in range(256):
    _s = 0
    for _j in range(8):
        if (_b >> _j) & 1:
            _s |= 1 << (2 * _j)
    _SPREAD_BYTES.append(_s.to_bytes(2, "little"))


def poly_square(p: int) -> int:
    if p == 0:
        return 0
    raw = p.to_bytes((p.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(_SPREAD_BYTES[byte] for byte in raw), "little")


def _make_reducer(modulus: int):
    """Fast reduction mod x^n + tail, exploiting that tail is sparse."""
    n = modulus.bit_length() - 1
    tail = modulus ^ (1 << n)
    shifts = [j for j in range(tail.bit_length()) if (tail >> j) & 1]
    mask = (1 << n) - 1

    def reduce(a: int) -> int:
        while a.bit_length() > n:
            hi = a >> n
            a &= mask
            for j in shifts:
                a ^= hi << j
        return a

    return reduce


@functools.lru_cache(maxsize=None)
def _small_irreducibles(max_deg: int) -> tuple:
    """All irreducible polynomials of degree 2..max_deg, by sieve.

    Walking up from x, a polynomial that no smaller one has marked is
    irreducible.  Every composite of degree <= max_deg has a factor of
    degree <= max_deg / 2, so only those factors mark their multiples:
    the span of their shifts, enumerated in Gray-code order.
    """
    size = 1 << (max_deg + 1)
    composite = bytearray(size)
    out = []
    for f in range(2, size):
        if composite[f]:
            continue
        d = f.bit_length() - 1
        if d >= 2:
            out.append(f)
        if 2 * d > max_deg:
            continue
        shifts = [f << k for k in range(max_deg + 1 - d)]
        multiple = 0
        for i in range(1, 1 << len(shifts)):
            multiple ^= shifts[(i & -i).bit_length() - 1]
            composite[multiple] = 1
    return tuple(out)


def is_irreducible(f: int) -> bool:
    """Deterministic irreducibility test for a monic polynomial over GF(2).

    Checks that f has no irreducible factor of degree at most deg(f)/2
    by walking the Frobenius chain x^(2^d) mod f and taking gcds of
    windowed products of x^(2^d) - x with f.
    """
    n = f.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f & 1:          # divisible by x
        return False
    if f.bit_count() % 2 == 0:  # f(1) = 0, divisible by x + 1
        return False
    reduce = _make_reducer(f)
    s = 2  # the polynomial x
    prod = 1
    pending = 0
    window = 16
    for d in range(1, n // 2 + 1):
        s = reduce(poly_square(s))
        prod = reduce(poly_mul(prod, s ^ 2))
        pending += 1
        if pending == window or d == n // 2:
            if prod == 0 or poly_gcd(f, prod) != 1:
                return False
            pending = 0
    return True


# Memoized outputs of find_irreducible for large degrees where the scan
# is slow; each entry is the tail (modulus minus the leading x^n term)
# and was produced by this module's own search.  Verified by tests at
# 1024/2048 and, behind QX2SRC_SLOW_TESTS=1, at 4096.
_KNOWN_TAILS = {1024: 0x2CD, 2048: 0xBC7, 4096: 0xA93}


@functools.lru_cache(maxsize=None)
def find_irreducible(n: int) -> Gf2Poly:
    """Lexicographically smallest monic irreducible polynomial of degree n.

    Polynomials of equal degree are compared as packed coefficient
    integers, so the result is reproducible bit for bit.
    """
    if n < 1:
        raise ParameterError("degree must be at least 1")
    if n == 1:
        return Gf2Poly(2)  # x comes before x + 1
    if n in _KNOWN_TAILS:
        return Gf2Poly((1 << n) | _KNOWN_TAILS[n])
    return Gf2Poly(_search_irreducible(n))


def modulus_source(n: int) -> str:
    """"search" when find_irreducible(n) scans candidates, "memo" when it does not."""
    return "search" if n > 1 and n not in _KNOWN_TAILS else "memo"


def _search_irreducible(n: int) -> int:
    """The live scan behind find_irreducible, for degree n >= 2.

    Bypasses the memo table and the cache, so tests can re-derive the
    frozen tails.
    """
    # Trial divisors: precompute x^n mod p once per small irreducible p,
    # so each candidate x^n + tail only costs a tiny reduction of tail.
    trial = []
    for p in _small_irreducibles(13):
        dp = p.bit_length() - 1
        if dp >= n:
            continue
        red_p = _make_reducer(p)
        r, base, e = 1, 2, n
        while e:
            if e & 1:
                r = red_p(poly_mul(r, base))
            base = red_p(poly_mul(base, base))
            e >>= 1
        trial.append((p, r))

    tail = 1
    while True:
        tail += 2
        f = (1 << n) | tail
        if f.bit_count() % 2 == 0:
            continue
        if any(poly_mod(tail, p) == r for p, r in trial):
            continue
        if is_irreducible(f):
            return f


# --------------------------------------------------------------------------
# the multiplier matrix family


def alpha_powers(n: int, count: int) -> List[int]:
    """Coefficient vectors of alpha^0 .. alpha^(count-1) in GF(2^n)."""
    modulus = find_irreducible(n).value
    powers = [1]
    for _ in range(count - 1):
        powers.append(multiply_by_alpha(powers[-1], n, modulus))
    return powers


def multiply_by_alpha(v: int, n: int, modulus: int) -> int:
    """One multiplication by the field generator, reduced."""
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
    sum_{i in S} alpha^i, hence full rank.
    """
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    powers = alpha_powers(n, n + m - 1)
    mats = []
    for i in range(m):
        rows = [0] * n
        for j in range(n):
            col = powers[i + j]
            while col:
                low = col & -col
                rows[low.bit_length() - 1] |= 1 << j
                col ^= low
        mats.append(BitMatrix(n, n, tuple(rows)))
    return tuple(mats)


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
