"""Bit-level linear algebra and the multiplier matrix family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx2src import gf2
from qx2src.errors import DimensionError, ParameterError
from qx2src.gf2 import BitMatrix, BitVector
from qx2src.rng import derive_rng


def bv(s):
    return BitVector.from_str(s)


# --------------------------------------------------------------------------
# bit vectors and inner products


def test_bitvector_str_roundtrip():
    v = bv("1011")
    assert v.length == 4
    assert [v.bit(j) for j in range(4)] == [1, 0, 1, 1]
    assert v.to_str() == "1011"


def test_bitvector_bytes_little_endian():
    v = BitVector.from_bytes(b"\x01\x80", 16)
    assert v.bit(0) == 1
    assert v.bit(15) == 1
    assert v.weight() == 2
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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_matches_column_scan_property(data):
    # k free rows, the rest XORs of them, so most stacks are rank-deficient
    cols = data.draw(st.integers(1, 64))
    rows_n = data.draw(st.integers(1, 64))
    k = data.draw(st.integers(0, rows_n))
    free = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=k, max_size=k))
    masks = data.draw(st.lists(st.integers(0, (1 << k) - 1),
                               min_size=rows_n - k, max_size=rows_n - k))
    combos = [0] * len(masks)
    for j, mask in enumerate(masks):
        for i, row in enumerate(free):
            if mask >> i & 1:
                combos[j] ^= row
    rows = data.draw(st.permutations(free + combos))
    assert gf2.rank(BitMatrix(rows_n, cols, tuple(rows))) == _naive_rank(rows, cols)


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


_CUTOFF = gf2._WINDOW_MIN_WEIGHT
_OPERANDS = st.one_of(
    st.just(0),
    st.integers(0, 8191).map(lambda k: 1 << k),
    # dense, of any length up to 8192 bits
    st.integers(0, 8192).flatmap(lambda k: st.integers((1 << k) >> 1, (1 << k) - 1)),
    # set-bit counts on both sides of the cutoff
    st.lists(st.integers(0, 8191), min_size=_CUTOFF - 1, max_size=_CUTOFF + 1,
             unique=True).map(lambda ks: sum(1 << k for k in ks)))


@settings(max_examples=150, deadline=None)
@given(a=_OPERANDS, b=_OPERANDS)
def test_poly_mul_matches_oracle_property(a, b):
    # both orders: the kernel walks whichever operand has fewer set bits
    want = _oracle_mul(a, b)
    assert gf2.poly_mul(a, b) == want
    assert gf2.poly_mul(b, a) == want


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


def test_find_irreducible_mid_degree_live():
    # degrees outside the memo exercise the full scan path
    for n in (96, 200):
        f = gf2.find_irreducible(n).value
        assert f.bit_length() - 1 == n
        assert gf2.is_irreducible(f)
        assert _rabin_irreducible(f)


def test_live_search_tails_are_pinned():
    # live results of the shift-xor search, which the windowed product must keep
    for n, tail in ((768, 0x16C1), (1536, 0x54B)):
        assert gf2.modulus_source(n) == "search"
        assert gf2._search_irreducible(n) == (1 << n) | tail


def test_memoized_tails_match_live_search():
    # recompute the frozen 1024/2048 entries with the scan itself
    for n in (1024, 2048):
        assert gf2._search_irreducible(n) == (1 << n) | gf2._KNOWN_TAILS[n]


@pytest.mark.skipif("not __import__('os').environ.get('QX2SRC_SLOW_TESTS')")
def test_memoized_tail_4096_matches_live_search():
    assert gf2._search_irreducible(4096) == (1 << 4096) | gf2._KNOWN_TAILS[4096]


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
    assert BitVector(3, _column(a1, 0)).to_str() == "010"
    assert BitVector(3, _column(a1, 1)).to_str() == "001"
    assert BitVector(3, _column(a1, 2)).to_str() == "110"


def test_multiplier_matches_alpha_powers():
    for n in (4, 6):
        mats = gf2.multiplier_matrices(n, n)
        powers = gf2.alpha_powers(n, 2 * n - 1)
        for i in range(n):
            for j in range(n):
                assert _column(mats[i], j) == powers[i + j]


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
