"""Bit-level linear algebra and the multiplier matrix family."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx2src import gf2
from qx2src.errors import DimensionError, ParameterError
from qx2src.gf2 import BitMatrix, BitVector
from qx2src.rng import derive_rng


def bv(s):
    """The vector of a bit-string literal, its leftmost character coordinate 0."""
    return BitVector(len(s), int(s[::-1], 2))


def bits(v):
    """The bit-string literal of a vector."""
    return format(v.value, f"0{v.length}b")[::-1]


# --------------------------------------------------------------------------
# bit vectors and inner products


def test_bitvector_str_roundtrip():
    v = bv("1011")
    assert v.length == 4
    assert [v.bit(j) for j in range(4)] == [1, 0, 1, 1]
    assert v.value == 0b1101 and bits(v) == "1011"


def test_bitvector_bytes_little_endian():
    v = BitVector.from_bytes(b"\x01\x80", 16)
    assert v.bit(0) == 1
    assert v.bit(15) == 1
    assert v.value.bit_count() == 2
    assert v.to_bytes() == b"\x01\x80"


def test_inner_product_examples():
    assert gf2.inner_product(bv("0000"), bv("1011")) == 0
    # coordinatewise products 1,0,1,0 -> parity 0
    assert gf2.inner_product(bv("1011"), bv("1110")) == 0
    assert gf2.inner_product(bv("1"), bv("1")) == 1


def test_inner_product_length_mismatch():
    with pytest.raises(DimensionError):
        gf2.inner_product(bv("101"), bv("1011"))


# --------------------------------------------------------------------------
# rank


def _identity_rows(n):
    return tuple(1 << i for i in range(n))


def test_rank_small_cases():
    assert gf2.rank(BitMatrix(5, 5, _identity_rows(5))) == 5
    assert gf2.rank(BitMatrix(4, 4, (0,) * 4)) == 0
    assert gf2.rank(BitMatrix(2, 2, (0b01, 0b01))) == 1


def _naive_rank(rows, cols):
    """Dense elimination oracle over GF(2) using numpy int arrays."""
    a = np.array([[(r >> j) & 1 for j in range(cols)] for r in rows], dtype=np.int64)
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(a)):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(len(a)):
            if r != rank and a[r, col]:
                a[r] ^= a[rank]
        rank += 1
    return rank


def test_rank_matches_naive_oracle():
    rng = derive_rng(7, 1)
    for trial in range(200):
        rows_n = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        rows = [int(rng.integers(0, 1 << cols)) for _ in range(rows_n)]
        mat = BitMatrix(rows_n, cols, tuple(rows))
        assert gf2.rank(mat) == _naive_rank(rows, cols)


def _span_rank(rows):
    """log2 of the number of distinct XORs of subsets of rows."""
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span).bit_length() - 1


@pytest.mark.parametrize("n", [3, 4])
def test_rank_exhaustive_against_span_size(n):
    for entries in range(1 << (n * n)):
        rows = tuple(entries >> (n * i) & ((1 << n) - 1) for i in range(n))
        assert gf2.rank(BitMatrix(n, n, rows)) == _span_rank(rows)


@st.composite
def _deficient_rows(draw, rows_n, cols):
    """k free rows, some with the top column set, and rows_n - k XORs of them."""
    k = draw(st.integers(0, rows_n))
    row = st.integers(0, (1 << cols) - 1) | st.integers(1 << (cols - 1), (1 << cols) - 1)
    free = draw(st.lists(row, min_size=k, max_size=k))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1),
                          min_size=rows_n - k, max_size=rows_n - k))
    combos = [0] * len(masks)
    for j, mask in enumerate(masks):
        for i, row in enumerate(free):
            if mask >> i & 1:
                combos[j] ^= row
    return draw(st.permutations(free + combos))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_matches_column_scan_property(data):
    # most matrices are rank-deficient
    cols = data.draw(st.integers(1, 64))
    rows_n = data.draw(st.integers(1, 64))
    rows = data.draw(_deficient_rows(rows_n, cols))
    assert gf2.rank(BitMatrix(rows_n, cols, tuple(rows))) == _naive_rank(rows, cols)


# --------------------------------------------------------------------------
# the batched kernels behind the matrices suite, against rank and subset_matrix


def _rank_of(rows):
    return gf2.rank(BitMatrix(len(rows), 64, tuple(int(r) for r in rows)))


@pytest.mark.parametrize("n", [3, 4])
def test_batched_rank_exhaustive(n):
    # every n x n matrix, all in one stack
    entries = np.arange(1 << (n * n), dtype=np.uint64)[:, None]
    shifts = np.arange(0, n * n, n, dtype=np.uint64)
    stack = entries >> shifts & np.uint64((1 << n) - 1)
    assert gf2.batched_rank(stack).tolist() == [_rank_of(rows) for rows in stack]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_rank_matches_rank_property(data):
    # random and rank-deficient stacks, often 64 columns wide with bit 63 set
    cols = data.draw(st.just(64) | st.integers(1, 64))
    rows_n = data.draw(st.integers(1, 64))
    stack = data.draw(st.lists(_deficient_rows(rows_n, cols), min_size=1, max_size=6))
    got = gf2.batched_rank(np.array(stack, dtype=np.uint64))
    assert got.tolist() == [_rank_of(rows) for rows in stack]


@pytest.mark.parametrize("rows_n, cols", [(2, 8), (8, 2), (3, 5), (5, 3)])
def test_batched_rank_exhaustive_non_square(rows_n, cols):
    # every rows_n x cols matrix: fewer rows than columns leaves pivots
    # unused, more rows than columns ends in rows eliminated to zero
    entries = np.arange(1 << (rows_n * cols), dtype=np.uint64)[:, None]
    shifts = np.arange(0, rows_n * cols, cols, dtype=np.uint64)
    stack = entries >> shifts & np.uint64((1 << cols) - 1)
    assert gf2.batched_rank(stack).tolist() == [_rank_of(rows) for rows in stack.tolist()]


def test_batched_rank_row_pivot_edges():
    # one stack, so that a matrix's zero pivot row (row ^ 0 = row, a no-op)
    # sits beside another's live pivot at the same row index
    eye = [1 << i for i in range(64)]
    stack = [
        eye,
        [0] + eye[1:],                                  # a zero first row
        eye[:-1] + [eye[0] ^ eye[40] ^ eye[62]],        # a dependency only in the last row
        eye[::-1],                                      # first pivot 2^63, the word's top bit
        [1 << 63, 1 << 63] + eye[:62],                  # 2^63 cleared from the row below
        [(1 << 64) - 1] * 64,                           # every row the first
        [0] * 64,
    ]
    got = gf2.batched_rank(np.array(stack, dtype=np.uint64)).tolist()
    assert got == [64, 63, 63, 64, 63, 1, 0] == [_rank_of(rows) for rows in stack]


def test_batched_rank_of_empty_and_zero_stacks():
    assert gf2.batched_rank(np.zeros((0, 5), dtype=np.uint64)).tolist() == []
    assert gf2.batched_rank(np.zeros((3, 5), dtype=np.uint64)).tolist() == [0, 0, 0]


@pytest.mark.parametrize("n, m", [(n, n) for n in range(1, 9)] + [(10, 10), (12, 9)])
def test_subset_rows_match_subset_matrix_exhaustive(n, m):
    mats = gf2.multiplier_matrices(n, m)
    rows = gf2.subset_rows(gf2.subset_tables(mats), np.arange(1, 1 << m, dtype=np.uint64))
    assert [tuple(r) for r in rows.tolist()] == [
        gf2.subset_matrix(mats, mask).row_values for mask in range(1, 1 << m)]


def test_subset_rows_match_subset_matrix_n64():
    mats = gf2.multiplier_matrices(64, 64)
    masks = derive_rng(11, 3).integers(1, 1 << 64, size=200, dtype=np.uint64)
    masks[::2] |= np.uint64(1 << 63)
    masks = np.append(masks, np.array([1 << 63, (1 << 64) - 1], dtype=np.uint64))
    rows = gf2.subset_rows(gf2.subset_tables(mats), masks)
    for mask, got in zip(masks.tolist(), rows.tolist()):
        want = gf2.subset_matrix(mats, mask)
        assert tuple(got) == want.row_values
    assert gf2.batched_rank(rows).tolist() == [_rank_of(r) for r in rows]


# the column counts where the row type changes, and that type's width in bits
TYPE_BOUNDARIES = [(8, 8), (9, 16), (16, 16), (17, 32), (32, 32), (33, 64), (64, 64)]


def _top_bit_masks(n, count=300):
    """count random non-empty n-bit masks, half with bit n - 1 set, then
    2^(n-1) and the full mask."""
    masks = derive_rng(11, n).integers(1, 1 << n, size=count, dtype=np.uint64)
    masks[::2] |= np.uint64(1 << (n - 1))
    return np.append(masks, np.array([1 << (n - 1), (1 << n) - 1], dtype=np.uint64))


def _boundary_stack(cols, count=300):
    """count cols x cols matrices in the narrowest type that holds a row.
    Every other row has the top column set, and in every other matrix the
    last row is the XOR of the two rows before it, so only the last pivot
    row can clear it."""
    stack = derive_rng(12, cols).integers(0, 1 << cols, size=(count, cols), dtype=np.uint64)
    stack[:, ::2] |= np.uint64(1 << (cols - 1))
    stack[1::2, -1] = stack[1::2, -2] ^ stack[1::2, -3]
    return stack.astype(np.min_scalar_type((1 << cols) - 1))


@pytest.mark.parametrize("n, width", TYPE_BOUNDARIES)
def test_subset_rows_match_subset_matrix_at_type_boundaries(n, width):
    # every mask where 2^n is small, sampled masks with the top bit set elsewhere
    mats = gf2.multiplier_matrices(n, n)
    masks = np.arange(1, 1 << n, dtype=np.uint64) if n <= 9 else _top_bit_masks(n)
    rows = gf2.subset_rows(gf2.subset_tables(mats), masks)
    assert rows.dtype.kind == "u" and rows.dtype.itemsize * 8 == width
    assert [tuple(r) for r in rows.tolist()] == [
        gf2.subset_matrix(mats, mask).row_values for mask in masks.tolist()]


@pytest.mark.parametrize("cols, width", TYPE_BOUNDARIES)
def test_batched_rank_matches_rank_at_type_boundaries(cols, width):
    stack = _boundary_stack(cols)
    assert stack.dtype.itemsize * 8 == width
    got = gf2.batched_rank(stack).tolist()
    assert got == [_rank_of(rows) for rows in stack.tolist()]
    assert cols - 1 in got and cols in got


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_narrow_stacks_rank_as_their_uint64_copies(data):
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    width = 8 * np.dtype(dtype).itemsize
    cols = data.draw(st.just(width) | st.integers(1, width))
    rows_n = data.draw(st.integers(1, 40))
    stack = np.array(data.draw(st.lists(_deficient_rows(rows_n, cols), min_size=1, max_size=6)),
                     dtype=np.uint64)
    assert gf2.batched_rank(stack.astype(dtype)).tolist() == gf2.batched_rank(stack).tolist()


def test_batched_rank_refuses_signed_rows():
    # in int64 a row with bit 63 set is negative: where that is p's top bit,
    # row ^ p (the bit cleared) compares above row, min keeps row, and bit 63
    # is never cleared
    with pytest.raises(ParameterError, match="unsigned"):
        gf2.batched_rank(np.array([[1 << 62, 1]], dtype=np.int64))


def test_subset_rows_errors():
    tables = gf2.subset_tables(gf2.multiplier_matrices(4, 3))
    with pytest.raises(ParameterError, match="empty"):
        gf2.subset_rows(tables, np.array([1, 0], dtype=np.uint64))
    with pytest.raises(ParameterError, match="beyond"):
        gf2.subset_rows(tables, np.array([0b1000], dtype=np.uint64))


# --------------------------------------------------------------------------
# carry-less product, against oracles written here


def _oracle_mul(a, b):
    """Shift-xor over the set bits of a."""
    acc = 0
    for j in range(a.bit_length()):
        if (a >> j) & 1:
            acc ^= b << j
    return acc


def _oracle_mod(a, f):
    """Long division, one leading bit at a time."""
    df = f.bit_length() - 1
    for j in range(a.bit_length() - 1, df - 1, -1):
        if (a >> j) & 1:
            a ^= f << (j - df)
    return a


def test_poly_mul_matches_oracle_exhaustive_7_bits():
    for a in range(1 << 7):
        for b in range(1 << 7):
            assert gf2.poly_mul(a, b) == _oracle_mul(a, b)


_OPERANDS = st.one_of(
    st.just(0),
    st.integers(0, 8191).map(lambda k: 1 << k),
    # dense, of any length up to 8192 bits
    st.integers(0, 8192).flatmap(lambda k: st.integers((1 << k) >> 1, (1 << k) - 1)),
    # 79 to 81 set bits spread over 8192
    st.lists(st.integers(0, 8191), min_size=79, max_size=81,
             unique=True).map(lambda ks: sum(1 << k for k in ks)))


@settings(max_examples=150, deadline=None)
@given(a=_OPERANDS, b=_OPERANDS)
def test_poly_mul_matches_oracle_property(a, b):
    # both orders: the kernel walks whichever operand has fewer set bits
    want = _oracle_mul(a, b)
    assert gf2.poly_mul(a, b) == want
    assert gf2.poly_mul(b, a) == want


def _oracle_correlation_bit(a, b, i):
    return (a & (b >> i)).bit_count() & 1


def test_correlate_matches_oracle_exhaustive():
    # a of 0..9 bits, across one byte boundary; b of up to 6 bits, so shorter
    # than a, and output bits past b's reach, which must read 0
    for a in range(1 << 9):
        for b in range(1 << 6):
            want = sum(_oracle_correlation_bit(a, b, i) << i for i in range(14))
            assert gf2.correlate(a, b, 14) == want
    for a in range(1 << 5):
        for b in range(1 << 5):
            for m in range(1, 7):
                assert gf2.correlate(a, b, m) == gf2.correlate(a, b, 14) & ((1 << m) - 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_correlate_matches_oracle_property(data):
    a = data.draw(_OPERANDS, label="a")
    b = data.draw(_OPERANDS, label="b")
    m = data.draw(st.integers(1, 8192), label="m")
    out = gf2.correlate(a, b, m)
    assert out >> m == 0
    for i in {0, m - 1} | set(data.draw(st.lists(st.integers(0, m - 1), max_size=8),
                                        label="bits")):
        assert out >> i & 1 == _oracle_correlation_bit(a, b, i)


_S = gf2._SEGMENT_BITS


@pytest.mark.parametrize("a_bits", [_S - 1, _S, _S + 1, 3 * _S // 2 - 1, 3 * _S // 2,
                                    2 * _S, 2 * _S + 1, 3 * _S + 5])
def test_correlate_matches_oracle_at_segment_edges(a_bits):
    # a of one, two and three segments (the split starts at 1.5 widths); every
    # output bit, so a segment edge that drops or doubles a bit of a, or of a
    # segment's window of b, shows
    rng = derive_rng(31, a_bits)

    def dense(bits):
        return int.from_bytes(rng.bytes(-(-bits // 8)), "little") & ((1 << bits) - 1)

    for a in ((1 << a_bits) - 1, dense(a_bits) | 1 << (a_bits - 1)):
        for m in (1, 8, 9, _S - 1, _S + 1):
            longer, shorter = a_bits + m + 20, a_bits // 2
            # one bit a byte, at the offset where a byte-aligned window ends
            sparse = sum(1 << k for k in range((m - 2) % 8, longer, 8))
            for b in (dense(longer), dense(shorter), sparse, sparse & ((1 << shorter) - 1)):
                assert gf2.correlate(a, b, m) == \
                    sum(_oracle_correlation_bit(a, b, i) << i for i in range(m))


def test_extend_by_modulus_matches_reduced_powers_exhaustive():
    # z_k = <x^k mod f, y>, for every modulus the package finds up to degree 7
    for n in range(1, 8):
        f = gf2.find_irreducible(n).value
        powers = [_oracle_mod(1 << k, f) for k in range(2 * n)]
        for y in range(1 << n):
            for length in range(1, 2 * n):
                z = gf2.extend_by_modulus(y, f, length)
                assert z == sum(((p & y).bit_count() & 1) << k
                                for k, p in enumerate(powers[:length]))


# --------------------------------------------------------------------------
# irreducible polynomials


def test_find_irreducible_small_values():
    assert gf2.find_irreducible(1).value == 0b10          # x
    assert gf2.find_irreducible(2).value == 0b111         # x^2+x+1
    assert gf2.find_irreducible(3).value == 0b1011        # x^3+x+1
    assert gf2.find_irreducible(8).value == 0x11B


def _has_nontrivial_factor(f):
    deg = f.bit_length() - 1
    for g in range(2, 1 << deg):
        if g.bit_length() - 1 >= 1 and gf2.poly_mod(f, g) == 0:
            return True
    return False


def test_find_irreducible_brute_force_check():
    for n in range(1, 11):
        f = gf2.find_irreducible(n).value
        assert f.bit_length() - 1 == n
        assert not _has_nontrivial_factor(f)
        # nothing smaller of the same degree is irreducible
        for candidate in range(1 << n, f):
            assert _has_nontrivial_factor(candidate)


def _prime_divisors(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, p))]


def _frobenius(k, f):
    """x^(2^k) mod f by k oracle squarings."""
    s = 2
    for _ in range(k):
        s = _oracle_mod(_oracle_mul(s, s), f)
    return s


def _oracle_gcd(a, b):
    while b:
        a, b = b, _oracle_mod(a, b)
    return a


def _rabin_irreducible(f):
    """Rabin's test: x^(2^n) = x mod f, and x^(2^(n/p)) - x is prime to f."""
    n = f.bit_length() - 1
    if _frobenius(n, f) != 2:
        return False
    return all(_oracle_gcd(f, _frobenius(n // p, f) ^ 2) == 1
               for p in _prime_divisors(n))


def test_rabin_oracle_on_small_degrees():
    for n in range(2, 9):
        for f in range(1 << n, 1 << (n + 1)):
            assert _rabin_irreducible(f) == (not _has_nontrivial_factor(f))


def test_ben_or_matches_rabin_oracle_on_small_degrees():
    for f in range(1 << 2, 1 << 13):
        assert gf2.is_irreducible(f) == _rabin_irreducible(f), bin(f)
    assert gf2.is_irreducible(0b10) and gf2.is_irreducible(0b11)
    assert not gf2.is_irreducible(0) and not gf2.is_irreducible(1)


def test_find_irreducible_mid_degree_live():
    # degrees outside the memo exercise the full scan path
    for n in (96, 200):
        f = gf2.find_irreducible(n).value
        assert f.bit_length() - 1 == n
        assert gf2.is_irreducible(f)
        assert _rabin_irreducible(f)


def test_live_search_tails_are_pinned():
    # live results of the shift-xor search, which every later kernel must keep
    for n, tail in ((768, 0x16C1), (1536, 0x54B), (2000, 0x2441)):
        assert gf2.modulus_source(n) == "search"
        assert gf2._search_irreducible(n) == (1 << n) | tail


def test_memoized_tails_match_live_search():
    # recompute the frozen 1024/2048 entries with the scan itself
    for n in (1024, 2048):
        assert gf2._search_irreducible(n) == (1 << n) | gf2._KNOWN_TAILS[n]


def test_memoized_tail_4096_matches_live_search():
    assert gf2._search_irreducible(4096) == (1 << 4096) | gf2._KNOWN_TAILS[4096]


@functools.cache
def _oracle_irreducibles(max_deg):
    """Irreducibles of degree 2..max_deg, in increasing order.

    Walking up from x, a polynomial that no smaller irreducible has marked
    is irreducible.  Those of degree <= max_deg / 2 mark their products
    with every polynomial of degree >= 1.
    """
    composite = bytearray(2 << max_deg)
    for a in range(2, 2 << max_deg // 2):
        if not composite[a]:
            for b in range(2, 2 << (max_deg - (a.bit_length() - 1))):
                composite[_oracle_mul(a, b)] = 1
    return [a for a in range(4, 2 << max_deg) if not composite[a]]


def _oracle_x_power(n, p):
    """x^n mod p by square-and-multiply with the oracles."""
    r = 1
    for bit in bin(n)[2:]:
        r = _oracle_mod(_oracle_mul(r, r) << int(bit), p)
    return r


def test_small_irreducibles_match_oracle():
    listed = [int(p) for polys in gf2._small_irreducibles(16).values() for p in polys]
    assert listed == _oracle_irreducibles(16)
    assert len(listed) == 8798


@pytest.mark.parametrize("n", [5, 16, 17, 33, 40, 768])
def test_sieve_marks_exactly_the_tails_a_small_irreducible_divides(n):
    # trial division, done the other way round: the tails t in the first two
    # blocks with p | x^n + t are x^n mod p plus each multiple of p there.
    # p of degree >= n marks nothing: x^n + t may be p itself.
    bits = gf2._SIEVE_BLOCK_BITS + 1
    want = np.zeros(1 << bits, dtype=bool)
    for p in _oracle_irreducibles(16):
        dp = p.bit_length() - 1
        if dp >= n:
            continue
        r = _oracle_x_power(n, p)
        for h in range(1 << max(bits - dp, 0)):
            t = r ^ _oracle_mul(h, p)
            if t >> bits == 0:
                want[t] = True
    blocks = gf2._sieve_blocks(n, 16)
    got = np.concatenate([next(blocks)[1], next(blocks)[1]])
    assert np.array_equal(got, want)
    if n == 5:
        assert not got[0b00101]  # x^5 + x^2 + 1 is irreducible, of degree 5


def _oracle_search(n):
    """The first odd-weight x^n + tail, tails going up, that passes Rabin's test."""
    for tail in range(1 << n):
        f = (1 << n) | tail
        if f.bit_count() % 2 and _rabin_irreducible(f):
            return f


def test_search_matches_oracle_search():
    for n in range(2, 65):
        assert gf2._search_irreducible(n) == _oracle_search(n), n


def test_sieved_ben_or_agrees_with_full_test():
    n = 200
    _, marked = next(gf2._sieve_blocks(n, 16))
    survivors = [t for t in np.flatnonzero(~marked).tolist()
                 if t & 1 and t.bit_count() % 2 == 0][:50]
    assert len(survivors) == 50
    answer = gf2._search_irreducible(n)
    tails = survivors + [answer ^ (1 << n)]
    want = gf2._rabin_lanes(n, tails).tolist()
    assert [gf2.is_irreducible((1 << n) | t) for t in tails] == want
    assert want[-1] and not all(want)


_LANE_COUNTS = (1, 63, 64, 65, 129)


def _lane_chunks(count):
    """Bounds of consecutive calls, cycling through the lane counts above."""
    lo, k = 0, 0
    while lo < count:
        hi = lo + _LANE_COUNTS[k % len(_LANE_COUNTS)]
        yield lo, hi
        lo, k = hi, k + 1


def assert_rabin_lanes_match_oracle(n: int) -> int:
    """_rabin_lanes on every tail below 2^n, forwards and backwards, in calls
    of 1..129 lanes, against the scalar oracle.  Returns how many reducible
    f divide x^(2^n) - x all the same, which only the gcds reject."""
    for tails in (list(range(1 << n)), list(range(1 << n))[::-1]):
        want = [_rabin_irreducible((1 << n) | t) for t in tails]
        for lo, hi in _lane_chunks(len(tails)):
            assert gf2._rabin_lanes(n, tails[lo:hi]).tolist() == want[lo:hi], (n, lo)
    return sum(_frobenius(n, (1 << n) | t) == 2 and not ok for t, ok in zip(tails, want))


def test_rabin_lanes_match_oracle_over_the_whole_domain():
    assert sum(assert_rabin_lanes_match_oracle(n) for n in range(2, 11)) > 0
    f = _oracle_mul(0b10011, 0b11001)  # (x^4 + x + 1)(x^4 + x^3 + 1)
    assert f >> 8 == 1 and _frobenius(8, f) == 2
    assert gf2._rabin_lanes(8, [f ^ (1 << 8)]).tolist() == [False]


@pytest.mark.parametrize("n", range(34, 65))
def test_rabin_lanes_agree_with_ben_or_on_survivors(n):
    # the first 200 sieve survivors, as the search would test them
    _, marked = next(gf2._sieve_blocks(n, 16))
    tails = [t for t in np.flatnonzero(~marked).tolist()
             if t & 1 and t.bit_count() % 2 == 0][:200]
    assert len(tails) == 200
    want = [gf2.is_irreducible((1 << n) | t) for t in tails]
    assert 0 < sum(want) < 200
    assert gf2._rabin_lanes(n, tails).tolist() == want
    for lo, hi in _lane_chunks(len(tails)):
        assert gf2._rabin_lanes(n, tails[lo:hi]).tolist() == want[lo:hi]


@pytest.mark.parametrize("n, tails", [(1, [1]), (0, [0]), (8, []), (8, [256]),
                                      (8, [3, 1 << 8]), (8, [-1]), (64, [1 << 64])])
def test_rabin_lanes_reject_tails_outside_the_domain(n, tails):
    with pytest.raises(ParameterError):
        gf2._rabin_lanes(n, tails)


def test_rabin_lanes_accept_the_domain_edges():
    # the largest tails, deg t = n - 1, fold many times; at n = 100 they pass 64 bits
    for n, count in ((40, 64), (100, 9)):
        top = [(1 << n) - 1 - 2 * j for j in range(count)]
        want = [gf2.is_irreducible((1 << n) | t) for t in top]
        assert gf2._rabin_lanes(n, top).tolist() == want


def test_live_search_memory_stays_bounded():
    tracemalloc.start()
    try:
        assert gf2._search_irreducible(2000) == (1 << 2000) | 0x2441
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


# --------------------------------------------------------------------------
# multiplier matrices


def _column(mat, j):
    """Column j of mat, packed with bit i holding row i."""
    return sum(((row >> j) & 1) << i for i, row in enumerate(mat.row_values))


def test_multiplier_first_matrix_is_identity():
    mats = gf2.multiplier_matrices(3, 1)
    assert mats[0].row_values == _identity_rows(3)


def test_multiplier_second_matrix_columns():
    # multiplication by alpha mod x^3+x+1: 1 -> alpha, alpha -> alpha^2,
    # alpha^2 -> 1 + alpha
    a1 = gf2.multiplier_matrices(3, 2)[1]
    assert bits(BitVector(3, _column(a1, 0))) == "010"
    assert bits(BitVector(3, _column(a1, 1))) == "001"
    assert bits(BitVector(3, _column(a1, 2))) == "110"


def alpha_powers(n, count):
    """Coefficient vectors of alpha^0 .. alpha^(count-1) in GF(2^n), one
    multiplication by alpha at a time."""
    modulus = gf2.find_irreducible(n).value
    powers = [1]
    for _ in range(count - 1):
        powers.append(gf2.multiply_by_alpha(powers[-1], n, modulus))
    return powers


def test_multiplier_matches_alpha_powers():
    # column j of matrix i is alpha^(i+j): 188 families, n <= 64 and m in {1, n // 2, n}
    for n in range(1, 65):
        powers = alpha_powers(n, 2 * n - 1)
        for m in sorted({1, max(1, n // 2), n}):
            mats = gf2.multiplier_matrices(n, m)
            assert len(mats) == m and all(mat.rows == mat.cols == n for mat in mats)
            for i, mat in enumerate(mats):
                assert [_column(mat, j) for j in range(n)] == powers[i:i + n]


def test_subset_matrix_cases():
    mats = gf2.multiplier_matrices(3, 2)
    assert gf2.subset_matrix(mats, 0b01).row_values == mats[0].row_values
    self_cancel = gf2.subset_matrix([mats[0], mats[0]], 0b11)
    assert all(r == 0 for r in self_cancel.row_values)
    assert gf2.rank(gf2.subset_matrix(mats, 0b11)) == 3
    with pytest.raises(ParameterError):
        gf2.subset_matrix(mats, 0)


def test_multiplier_family_param_errors():
    with pytest.raises(ParameterError):
        gf2.multiplier_matrices(3, 4)


def test_subset_ranks_exhaustive_n4():
    mats = gf2.multiplier_matrices(4, 4)
    for mask in range(1, 16):
        assert gf2.rank(gf2.subset_matrix(mats, mask)) == 4
