"""Extractor primitives: inner product, multi-bit core, Toeplitz, Trevisan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx2src import bounds, extractors, gf2
from qx2src.errors import DimensionError, ParameterError
from qx2src.extractors import (FlatSource, SeededExtractorSpec,
                               compose_two_source, ip_extract,
                               multibit_extract, toeplitz_extract, toeplitz_row,
                               trevisan_extract, weak_design)
from qx2src.gf2 import BitMatrix, BitVector
from qx2src.rng import derive_rng


def bv(s):
    """The vector of a bit-string literal, its leftmost character coordinate 0."""
    return BitVector(len(s), int(s[::-1], 2))


def bits(v):
    """The bit-string literal of a vector."""
    return format(v.value, f"0{v.length}b")[::-1]


# --------------------------------------------------------------------------
# one-bit extractors


def _transformed_ip(a, x, y):
    """(A x) . y over GF(2) for a square matrix A, from its packed rows."""
    if not a.rows == a.cols == x.length == y.length:
        raise DimensionError("need a square matrix and vectors of its size")
    ax = sum(((row & x.value).bit_count() & 1) << i for i, row in enumerate(a.row_values))
    return (ax & y.value).bit_count() & 1


def test_transformed_ip_identity_matrix():
    identity = BitMatrix(4, 4, tuple(1 << i for i in range(4)))
    for x in (bv("1011"), bv("0000")):
        assert _transformed_ip(identity, x, bv("1110")) == ip_extract(x, bv("1110")) == 0
    with pytest.raises(DimensionError):
        _transformed_ip(identity, bv("101"), bv("101"))


def test_transformed_ip_alpha_matrix():
    a1 = gf2.multiplier_matrices(3, 2)[1]
    assert _transformed_ip(a1, bv("100"), bv("010")) == 1


# --------------------------------------------------------------------------
# multi-bit extractor


def test_multibit_zero_input():
    assert bits(multibit_extract(bv("000"), bv("101"), 2)) == "00"


def test_multibit_hand_example():
    assert bits(multibit_extract(bv("100"), bv("010"), 2)) == "01"


def test_multibit_matches_explicit_matrices():
    rng = derive_rng(3, 1)
    for n in (3, 5, 8, 16):
        mats = gf2.multiplier_matrices(n, n)
        for _ in range(20):
            x = BitVector(n, int(rng.integers(0, 1 << n)))
            y = BitVector(n, int(rng.integers(0, 1 << n)))
            out = multibit_extract(x, y, n)
            for i in range(n):
                assert out.bit(i) == _transformed_ip(mats[i], x, y)


def test_multibit_character_identity_exhaustive_n4():
    # the XOR of any output subset equals the subset-matrix inner product
    n = m = 4
    mats = gf2.multiplier_matrices(n, m)
    for xv in range(1 << n):
        for yv in range(1 << n):
            x, y = BitVector(n, xv), BitVector(n, yv)
            e = multibit_extract(x, y, m)
            for mask in range(1, 1 << m):
                expect = _transformed_ip(gf2.subset_matrix(mats, mask), x, y)
                assert ((e.value & mask).bit_count() & 1) == expect


def test_multibit_linearity():
    rng = derive_rng(5, 2)
    n, m = 12, 7
    for _ in range(100):
        x1 = BitVector(n, int(rng.integers(0, 1 << n)))
        x2 = BitVector(n, int(rng.integers(0, 1 << n)))
        y = BitVector(n, int(rng.integers(0, 1 << n)))
        lhs = multibit_extract(BitVector(n, x1.value ^ x2.value), y, m)
        rhs = multibit_extract(x1, y, m).value ^ multibit_extract(x2, y, m).value
        assert lhs.value == rhs


def _multibit_oracle_bit(x, y, i):
    """<x * X^i mod f, y>, one field product per bit through poly_mul and poly_mod."""
    f = gf2.find_irreducible(x.length).value
    return (gf2.poly_mod(gf2.poly_mul(x.value, 1 << i), f) & y.value).bit_count() & 1


def test_multibit_matches_per_bit_oracle_exhaustive():
    # n = 1 has tail 0; n = 2 and 3 a tail of degree 1, so n - 1 new terms a round
    for n in range(1, 8):
        f = gf2.find_irreducible(n).value
        for xv in range(1 << n):
            products = [gf2.poly_mod(gf2.poly_mul(xv, 1 << i), f) for i in range(n)]
            for yv in range(1 << n):
                want = sum(((p & yv).bit_count() & 1) << i for i, p in enumerate(products))
                x, y = BitVector(n, xv), BitVector(n, yv)
                for m in range(1, n + 1):
                    assert multibit_extract(x, y, m).value == want & ((1 << m) - 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multibit_matches_per_bit_oracle_property(data):
    # the memoized moduli, and live-search degrees
    n = data.draw(st.one_of(st.sampled_from([1024, 2048, 4096]), st.integers(1, 200)),
                  label="n")
    m = data.draw(st.integers(1, n), label="m")
    x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1), label="x"))
    y = BitVector(n, data.draw(st.integers(0, (1 << n) - 1), label="y"))
    out = multibit_extract(x, y, m)
    assert out.length == m
    for i in {0, m - 1} | set(data.draw(st.lists(st.integers(0, m - 1), max_size=4),
                                        label="bits")):
        assert out.bit(i) == _multibit_oracle_bit(x, y, i)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_ip_bias_exhaustive(n):
    zeros = sum((xv & yv).bit_count() % 2 == 0
                for xv in range(1 << n) for yv in range(1 << n))
    # exactly 2^(2n-1) + 2^(n-1) zero pairs
    assert zeros == (1 << (2 * n - 1)) + (1 << (n - 1))


def test_multibit_param_errors():
    with pytest.raises(ParameterError):
        multibit_extract(bv("101"), bv("110"), 4)
    with pytest.raises(DimensionError):
        multibit_extract(bv("101"), bv("1100"), 2)


# --------------------------------------------------------------------------
# Toeplitz hashing


def test_toeplitz_zero_seed():
    out = toeplitz_extract(bv("10110"), BitVector(7, 0), 3)
    assert bits(out) == "000"


def test_toeplitz_parity_row():
    out = toeplitz_extract(bv("1011"), bv("1111"), 1)
    assert out.bit(0) == 1  # parity of 1011


def test_toeplitz_hand_example():
    seed = bv("1000")
    assert bits(toeplitz_row(seed, 2, 0, 3)) == "100"
    assert bits(toeplitz_row(seed, 2, 1, 3)) == "010"
    assert bits(toeplitz_extract(bv("101"), seed, 2)) == "10"


def test_toeplitz_seed_length_error():
    with pytest.raises(ParameterError):
        toeplitz_extract(bv("101"), bv("10"), 2)


def _toeplitz_oracle(x, seed, m, rows):
    """Bits of T x at the given rows, each from an explicit toeplitz_row."""
    return {i: (toeplitz_row(seed, m, i, x.length).value & x.value).bit_count() & 1
            for i in rows}


def test_toeplitz_matches_row_oracle_exhaustive():
    for n in range(1, 6):
        for m in range(1, 4):
            d = n + m - 1
            for sv in range(1 << d):
                for xv in range(1 << n):
                    x, seed = BitVector(n, xv), BitVector(d, sv)
                    want = _toeplitz_oracle(x, seed, m, range(m))
                    assert toeplitz_extract(x, seed, m).value == sum(
                        bit << i for i, bit in want.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_toeplitz_matches_row_oracle_property(data):
    n = data.draw(st.integers(1, 4096), label="n")
    m = data.draw(st.integers(1, n), label="m")
    x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1), label="x"))
    seed = BitVector(n + m - 1,
                     data.draw(st.integers(0, (1 << (n + m - 1)) - 1), label="seed"))
    rows = {0, m - 1} | set(data.draw(
        st.lists(st.integers(0, m - 1), max_size=6), label="rows"))
    out = toeplitz_extract(x, seed, m)
    assert out.length == m
    for i, bit in _toeplitz_oracle(x, seed, m, rows).items():
        assert out.bit(i) == bit


def test_toeplitz_two_universality_exhaustive():
    n, m = 4, 2
    d = n + m - 1
    for xv in range(1 << n):
        for xpv in range(xv + 1, 1 << n):
            x, xp = BitVector(n, xv), BitVector(n, xpv)
            collisions = sum(
                toeplitz_extract(x, BitVector(d, s), m).value
                == toeplitz_extract(xp, BitVector(d, s), m).value
                for s in range(1 << d))
            assert collisions <= (1 << d) >> m


# --------------------------------------------------------------------------
# weak designs


def test_weak_design_t2_exact_sets():
    sets = weak_design(4, 2, 2)
    assert sets == ((0, 2), (1, 3), (0, 3), (1, 2))


def test_weak_design_single_set():
    (only,) = weak_design(1, 2)
    assert len(only) == 2


def test_weak_design_t4_overlaps():
    sets = weak_design(16, 4, 2)
    assert len(sets) == 16
    for i in range(16):
        assert len(sets[i]) == 4
        assert all(0 <= v < 16 for v in sets[i])
        for j in range(i + 1, 16):
            assert len(set(sets[i]) & set(sets[j])) <= 1


def test_weak_design_rejects_non_prime_power():
    with pytest.raises(ParameterError):
        weak_design(4, 6)


def test_weak_design_rejects_odd_prime():
    # the design field is GF(2^w): an odd prime t has no caller
    with pytest.raises(ParameterError, match="power of two"):
        weak_design(4, 3)


def test_weak_design_capacity_error():
    with pytest.raises(ParameterError):
        weak_design(5, 2, 2)


def _design_oracle(m, t, c):
    """weak_design from its definition: set p is {a * t + p(a)}, p's coefficients its base-t digits."""
    w = t.bit_length() - 1
    return [sorted(a * t + _horner_oracle([p // t ** j % t for j in range(c)], a, w)
                   for a in range(t))
            for p in range(m)]


@pytest.mark.parametrize("t", [4, 8, 16, 32])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_weak_design_matches_the_oracle(t, c):
    m = min(t ** c, 150)
    sets = weak_design(m, t, c)
    assert sets == tuple(map(tuple, _design_oracle(m, t, c)))
    # coefficients above the digits of m - 1 are zero, so any larger c
    # gives the same sets; capacity is exactly t^c
    assert weak_design(m, t, 40000) == sets
    if t ** c <= 4096:
        assert len(weak_design(t ** c, t, c)) == t ** c
    with pytest.raises(ParameterError, match="exceeds"):
        weak_design(t ** c + 1, t, c)


def test_weak_design_rows_are_increasing_python_ints():
    # perfbench's spot check shifts 1 << pos, which a numpy int would overflow
    sets = weak_design(1024, 32, 2)
    assert len(sets) == 1024
    for positions in sets:
        assert all(type(pos) is int for pos in positions)
        assert list(positions) == sorted(set(positions))


def test_negative_degree_bound_is_rejected():
    with pytest.raises(ParameterError, match="c must be >= 0, got -1"):
        weak_design(4, 4, -1)
    with pytest.raises(ParameterError, match="c must be >= 0, got -1"):
        SeededExtractorSpec(kind="trevisan", n=64, m=8, t=8, c=-1)


# --------------------------------------------------------------------------
# polynomial evaluation in GF(2^w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_blocked_horner_matches_the_oracle(data):
    # counts up to 300 cover block sizes 1 .. 32 and partial last blocks
    w = data.draw(st.integers(1, 16))
    element = st.integers(0, (1 << w) - 1)
    coeffs = data.draw(st.lists(st.one_of(st.just(0), element), min_size=1, max_size=300))
    points = [0, 1] + data.draw(st.lists(element, max_size=4))
    assert_horner_matches_the_oracle(w, coeffs, points)


def assert_horner_matches_the_oracle(w, coeffs, points):
    assert extractors._horner(w, coeffs, points).tolist() == \
        [_horner_oracle(coeffs, point, w) for point in points]


# --------------------------------------------------------------------------
# Reed-Solomon/Hadamard code and the Trevisan extractor


def _rs_hadamard_codeword(x, w):
    """Concatenated Reed-Solomon/Hadamard encoding of x, as 2^(2w) bits.

    Bit (u, z) (flattened z + u * 2^w) is <p_x(u), z> where p_x is the
    polynomial over GF(2^w) whose coefficients are the w-bit symbols
    of x and u ranges over the field.
    """
    size = 1 << w
    symbols = [(x.value >> (j * w)) & (size - 1) for j in range(-(-x.length // w))]
    bits = []
    for u in range(size):
        acc = _horner_oracle(symbols, u, w)
        bits.extend((acc & z).bit_count() & 1 for z in range(size))
    return BitVector.from_bits(bits)


def test_rs_hadamard_distance_exhaustive():
    # n=8 over GF(16): distinct messages differ on >= (1/2 - 2/16) of bits
    w = 4
    words = [_rs_hadamard_codeword(BitVector(8, v), w).value for v in range(256)]
    length = 1 << (2 * w)
    min_frac = 0.5 - 2 / 16
    for i in range(256):
        for j in range(i + 1, 256):
            assert (words[i] ^ words[j]).bit_count() >= min_frac * length


def _assert_trevisan_bits_are_code_lookups(spec, x, seed):
    w = spec.t // 2
    code = _rs_hadamard_codeword(x, w)
    out = trevisan_extract(x, seed, spec)
    for i, positions in enumerate(weak_design(spec.m, spec.t, spec.degree_bound)):
        sub = sum(seed.bit(pos) << k for k, pos in enumerate(positions))
        assert out.bit(i) == code.bit(sub)


def test_trevisan_single_bit_is_code_lookup():
    spec = SeededExtractorSpec(kind="trevisan", n=8, m=1, t=8, c=1)
    rng = derive_rng(9, 3)
    for _ in range(50):
        x = BitVector(8, int(rng.integers(0, 256)))
        seed = BitVector(spec.d,
                         int.from_bytes(rng.bytes(spec.d // 8), "little"))
        _assert_trevisan_bits_are_code_lookups(spec, x, seed)


def test_trevisan_multibit_is_code_lookup_t2_exhaustive():
    # w = 1 (a GF(2) alphabet, n <= 2) fits no composition, so the spec is
    # rejected; the t = 8 test below keeps the multi-bit code-lookup check
    with pytest.raises(ParameterError, match=r"t = 2w >= 4"):
        SeededExtractorSpec(kind="trevisan", n=2, m=4, t=2)


def test_trevisan_multibit_is_code_lookup_t8():
    spec = SeededExtractorSpec(kind="trevisan", n=12, m=20, t=8)
    rng = derive_rng(9, 5)
    for _ in range(50):
        x = BitVector(spec.n, int(rng.integers(0, 1 << spec.n)))
        seed = BitVector(spec.d, int.from_bytes(rng.bytes(spec.d // 8), "little"))
        _assert_trevisan_bits_are_code_lookups(spec, x, seed)


def _horner_oracle(coeffs, point, w):
    """p(point) in GF(2^w), each Horner step one gf2.poly_mul and one gf2.poly_mod."""
    modulus = gf2.find_irreducible(w).value
    acc = 0
    for coef in reversed(coeffs):
        acc = gf2.poly_mod(gf2.poly_mul(acc, point), modulus) ^ coef
    return acc


def _trevisan_oracle(x, seed, spec):
    """trevisan_extract from its definition, with the design built here too.

    The design lives in GF(t), the code in GF(2^w) with t = 2w.
    """
    w = spec.t // 2
    c = spec.degree_bound
    symbols = [(x.value >> (j * w)) & ((1 << w) - 1)
               for j in range(-(-spec.n // w))]
    out = 0
    for i, positions in enumerate(_design_oracle(spec.m, spec.t, c)):
        sub = sum(seed.bit(pos) << k for k, pos in enumerate(positions))
        value = _horner_oracle(symbols, sub >> w, w)
        out |= ((value & sub & ((1 << w) - 1)).bit_count() & 1) << i
    return out


def test_trevisan_matches_oracle_t2_exhaustive():
    # t = 2 is rejected: the sizes it allows (n <= 2) are below the
    # d = t^2 = 4 <= n composition needs, so no t = 2 output exists to compare
    for n in (1, 2):
        with pytest.raises(ParameterError, match=r"t = 2w >= 4"):
            SeededExtractorSpec(kind="trevisan", n=n, m=4, t=2)


def test_trevisan_matches_oracle_t4_exhaustive():
    # every input, and every sub-seed value on all four (disjoint) design sets
    spec = SeededExtractorSpec(kind="trevisan", n=8, m=4, t=4)
    design = weak_design(spec.m, spec.t, spec.degree_bound)
    assert sorted(pos for positions in design for pos in positions) == list(range(16))
    for sub in range(16):
        sv = sum(((sub >> k) & 1) << pos
                 for positions in design for k, pos in enumerate(positions))
        seed = BitVector(spec.d, sv)
        for xv in range(1 << spec.n):
            x = BitVector(spec.n, xv)
            assert trevisan_extract(x, seed, spec).value == \
                _trevisan_oracle(x, seed, spec)


def test_trevisan_matches_oracle_t32_n4096():
    spec = SeededExtractorSpec(kind="trevisan", n=4096, m=96, t=32)
    rng = derive_rng(9, 7)
    for _ in range(3):
        x = BitVector(spec.n, int.from_bytes(rng.bytes(spec.n // 8), "little"))
        seed = BitVector(spec.d, int.from_bytes(rng.bytes(spec.d // 8), "little"))
        assert trevisan_extract(x, seed, spec).value == _trevisan_oracle(x, seed, spec)


@pytest.mark.parametrize("t", [64, 128])
def test_trevisan_matches_oracle_wide_fields_n4096(t):
    # w = 32 and w = 64: the point-by-point path, and sub-seeds past 62 bits
    spec = SeededExtractorSpec(kind="trevisan", n=4096, m=6, t=t)
    rng = derive_rng(9, 11, t)
    for _ in range(2):
        x = BitVector(spec.n, int.from_bytes(rng.bytes(spec.n // 8), "little"))
        seed = BitVector(spec.d, int.from_bytes(rng.bytes(spec.d // 8), "little"))
        assert trevisan_extract(x, seed, spec).value == _trevisan_oracle(x, seed, spec)


def _prime_divisors(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, p))]


def test_field_tables_generator_has_full_order():
    for w in range(1, 17):
        q = 1 << w
        modulus = gf2.find_irreducible(w).value
        antilog, log = extractors._log_tables(w, modulus)
        g = int(antilog[1 % (q - 1)])

        def power(e):
            return _horner_oracle([0] * e + [1], g, w) if e else 1
        assert power(q - 1) == 1
        assert all(power((q - 1) // p) != 1 for p in _prime_divisors(q - 1))
        assert sorted(antilog[:q - 1].tolist()) == list(range(1, q))
        if w <= 6:
            for a in range(q):
                for b in range(q):
                    assert int(antilog[log[a] + log[b]]) == \
                        _horner_oracle([0, a], b, w)


def test_trevisan_deterministic():
    spec = SeededExtractorSpec(kind="trevisan", n=12, m=5, t=8)
    x = bv("101101001110")
    seed = BitVector(64, 0x1234_5678_9ABC_DEF0)
    assert trevisan_extract(x, seed, spec).value == trevisan_extract(x, seed, spec).value


def test_trevisan_spec_validation():
    with pytest.raises(ParameterError):
        SeededExtractorSpec(kind="trevisan", n=8, m=1, t=3)
    with pytest.raises(ParameterError, match="does not fit"):
        # 2^2 field cannot hold a 5-symbol message
        SeededExtractorSpec(kind="trevisan", n=10, m=1, t=4)


# --------------------------------------------------------------------------
# composition


def test_compose_zero_input_toeplitz():
    n = 5
    spec = SeededExtractorSpec(kind="toeplitz", n=n, m=1)
    assert spec.d == n
    out = compose_two_source(bv("00000"), bv("11010"), "X", spec)
    assert out.value == 0


def test_compose_sides_agree_on_equal_inputs():
    n = 64
    spec = SeededExtractorSpec(kind="trevisan", n=n, m=3, t=8)
    assert spec.d == n
    x = BitVector(n, 0xBEEF_CAFE_1234_5678)
    assert (compose_two_source(x, x, "X", spec).value
            == compose_two_source(x, x, "Y", spec).value)


def test_compose_seed_length_guard():
    spec = SeededExtractorSpec(kind="toeplitz", n=6, m=4)  # d = 9 > n = 6
    with pytest.raises(ParameterError):
        compose_two_source(BitVector(6, 9), BitVector(6, 21), "X", spec)


def test_compose_end_to_end_matches_calculator():
    n = 1024
    p = bounds.ParamSet(n=n, k1=n, k2=n, b1=0, b2=0, eps=2.0 ** -20,
                        c_poly=0.001)
    report = bounds.composed_output_len(p, "storage")
    assert report.satisfied
    m = int(report.value)
    spec = SeededExtractorSpec(kind="trevisan", n=n, m=m, t=16)
    assert spec.d == 256
    rng = derive_rng(17, 4)
    x = BitVector(n, int.from_bytes(rng.bytes(n // 8), "little"))
    y = BitVector(n, int.from_bytes(rng.bytes(n // 8), "little"))
    out = compose_two_source(x, y, "X", spec)
    assert out.length == m


# --------------------------------------------------------------------------
# flat sources


def test_flat_source_validation():
    src = FlatSource.from_values(3, [5, 1, 1])
    assert src.support.dtype == "uint64" and src.support.tolist() == [1, 5]
    assert src.min_entropy() == 1.0
    with pytest.raises(ValueError, match="read-only"):
        src.support[0] = 3
    top = FlatSource.from_values(64, [(1 << 64) - 1, 1 << 63, 1])
    assert top.support.tolist() == [1, 1 << 63, (1 << 64) - 1]
    for n, support in [(3, ()), (2, (1, 7)),                    # empty, beyond n bits
                       (3, (5, 1)), (3, (1, 1, 5)),             # unsorted, repeated
                       (3, (-1, 1)), (64, (1, 1 << 64)),        # below 0, 2^64
                       (64, [1 << 63, 1 << 64]),                # 2^64 beside 2^63
                       (3, [1.5, 2]), (3, [float("nan")])]:     # not integers
        with pytest.raises(ParameterError) as err:
            FlatSource(n, support)
        assert "\n" not in str(err.value), support
    for values in ([-1, 5], extractors.random_flat_source(6, 3, 1).support.astype(int) - 64,
                   [1, 1 << 64]):
        with pytest.raises(ParameterError, match=r"integers in \[0, 2\^64\)"):
            FlatSource.from_values(65, values)
    for values in ([], 5, [[1, 2], [3, 4]]):                   # empty, scalar, 2-D
        with pytest.raises(ParameterError, match="^support must be a nonempty sequence$"):
            FlatSource.from_values(3, values)


def test_random_flat_source_support_size_and_determinism():
    a = extractors.random_flat_source(6, 3, seed=42, )
    b = extractors.random_flat_source(6, 3, seed=42)
    assert a.support.tolist() == b.support.tolist()
    assert len(a.support) == 8
    assert a.min_entropy() == 3.0
