"""Storage strategies, Bell-pair protocols, and attack constructions."""

import dataclasses
import functools
import importlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qx2src import adversaries, qsim
from qx2src.adversaries import (biased_product_sources, bell_outcome,
                                guessing_entropy_counterexample,
                                measure_attack_advantage, random_storage,
                                smp_ip_protocol, superdense_roundtrip,
                                tightness_attack)
from qx2src.errors import DimensionError, ParameterError, SearchExhaustedError
from qx2src.extractors import ip_extract, random_flat_source
from qx2src.gf2 import BitVector, inner_product


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bv(s):
    return BitVector.from_str(s)


def _stored(strategy, x: BitVector, y: BitVector) -> np.ndarray:
    """The strategy's state for the single pair (x, y) of instance 0, a batch of one."""
    return strategy(np.array([x.value]), np.array([y.value]), np.zeros(1, dtype=np.int64))[0]


# --------------------------------------------------------------------------
# Bell pairs, SMP protocol, superdense coding


def test_bell_outcome_is_xor():
    for a0 in range(2):
        for a1 in range(2):
            for b0 in range(2):
                for b1 in range(2):
                    c, p = bell_outcome((a0, a1), (b0, b1))
                    assert c == (a0 ^ b0, a1 ^ b1)
                    assert abs(p - 1.0) <= 1e-12


def test_smp_zero_input():
    res = smp_ip_protocol(bv("0000"), bv("1011"))
    assert res.output == 0
    assert res.qubits_per_party == 4


def test_smp_all_ones_n2():
    # |x| = |y| = 2, |x xor y| = 0: ((2 + 2 - 0) mod 4) / 2 = 0 = x . y
    res = smp_ip_protocol(bv("11"), bv("11"))
    assert res.output == 0
    assert res.output == ip_extract(bv("11"), bv("11"))


def test_smp_exhaustive_n2():
    for xv in range(4):
        for yv in range(4):
            x, y = BitVector(2, xv), BitVector(2, yv)
            res = smp_ip_protocol(x, y)
            assert res.output == ip_extract(x, y)
            assert abs(res.success_probability - 1.0) <= 1e-9


def test_smp_odd_length_pads():
    res = smp_ip_protocol(bv("101"), bv("110"))
    assert res.output == ip_extract(bv("101"), bv("110"))
    assert res.qubits_per_party == 2 + 2  # padded to n = 4


def test_superdense_two_bit_roundtrips():
    assert superdense_roundtrip(bv("00")).to_str() == "00"
    for a in "01":
        for b in "01":
            assert superdense_roundtrip(bv(a + b)).to_str() == a + b


def test_superdense_vector_roundtrip():
    for n in (2, 4):
        for v in range(1 << n):
            assert superdense_roundtrip(BitVector(n, v)).value == v
    with pytest.raises(ParameterError):
        superdense_roundtrip(bv("101"))


# --------------------------------------------------------------------------
# storage strategies


def test_zero_budget_storage_is_scalar():
    for flavor in ("product", "entangled"):
        s = random_storage(0, 0, flavor, [1])
        rho = _stored(s, bv("101"), bv("011"))
        assert rho.shape == (1, 1)
        assert abs(rho[0, 0] - 1.0) <= 1e-9


def test_random_storage_determinism():
    xs = [BitVector(3, v) for v in range(8)]
    ys = [BitVector(3, v) for v in range(8)]
    for flavor in ("product", "entangled"):
        a = random_storage(1, 1, flavor, [9])
        b = random_storage(1, 1, flavor, [9])
        for x in xs[:4]:
            for y in ys[:4]:
                assert np.array_equal(_stored(a, x, y), _stored(b, x, y))


def test_random_storage_states_are_valid(check_density_matrix):
    for flavor in ("product", "entangled"):
        s = random_storage(1, 2, flavor, [5])
        for xv in range(4):
            for yv in range(4):
                rho = _stored(s, BitVector(2, xv), BitVector(2, yv))
                assert rho.shape == (8, 8)
                check_density_matrix(rho)
    for flavor in ("quantum", "classical"):
        with pytest.raises(ParameterError, match="unknown flavor"):
            random_storage(1, 2, flavor, [5])


@pytest.mark.parametrize("flavor", ["product", "entangled"])
@pytest.mark.parametrize("stack_bytes", [qsim.STACK_BYTES, 1])
def test_random_storage_stacks_match_per_pair_products(flavor, stack_bytes, monkeypatch,
                                                      random_storage_oracle):
    # at STACK_BYTES = 1 the entangled flavor conjugates one pair at a time
    monkeypatch.setattr(qsim, "STACK_BYTES", stack_bytes)
    xs, ys = np.array([0, 5, 3, 5, 7, 0]), np.array([1, 1, 6, 2, 0, 7])
    for b1, b2 in itertools.product(range(3), repeat=2):
        stack = random_storage(b1, b2, flavor, [17])(xs, ys, np.zeros(6, dtype=np.int64))
        oracle = random_storage_oracle(b1, b2, flavor, seed=17)
        expect = np.array([oracle(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
        assert stack.shape == (6, 1 << (b1 + b2), 1 << (b1 + b2))
        assert stack.tobytes() == expect.tobytes()


def test_random_storage_draws_each_side_once_per_value(monkeypatch):
    # 16 pairs of 2-bit values need 4 x-side and 4 y-side unitaries
    calls = []
    draw = qsim.random_unitary
    monkeypatch.setattr(qsim, "random_unitary", lambda *a: calls.append(1) or draw(*a))
    s = random_storage(1, 1, "entangled", [2])
    for xv in range(4):
        for yv in range(4):
            _stored(s, BitVector(2, xv), BitVector(2, yv))
    assert len(calls) == 8


def test_product_flavor_factorizes():
    # every stored state is its x-side marginal tensor its y-side marginal
    s = random_storage(1, 1, "product", [3])
    for xv in range(4):
        for yv in range(4):
            rho = _stored(s, BitVector(2, xv), BitVector(2, yv))
            rho_a = qsim.partial_trace(rho, [2, 2], [0])
            rho_b = qsim.partial_trace(rho, [2, 2], [1])
            assert np.max(np.abs(rho - np.kron(rho_a, rho_b))) <= 1e-9


def test_classical_block_storage_stacks_basis_states():
    # b1 != b2, so Alice's and Bob's block indices cannot trade places unseen
    s = adversaries.classical_block_storage([0, 2], [1], 3, 1)
    xs, ys = np.array([0, 1, 4, 5, 7]), np.array([0, 2, 2, 0, 3])
    expect = np.zeros((5, 16, 16))
    for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        k = (x & 1 | (x >> 2 & 1) << 1) << 1 | y >> 1 & 1
        expect[i, k, k] = 1.0
    assert np.array_equal(s(xs, ys, np.zeros(5, dtype=np.int64)), expect)


def test_smp_block_storage_budget_check():
    with pytest.raises(ParameterError):
        adversaries.smp_block_storage([0, 1], [0, 1], 2, 2)  # needs 3 each
    with pytest.raises(ParameterError):
        adversaries.superdense_block_storage([0, 1, 2], 1)  # needs 2 qubits
    with pytest.raises(ParameterError):
        adversaries.classical_block_storage([0, 1], [0], 1, 1)


def test_superdense_strategy_holds_alices_budget_and_bobs_halves(check_density_matrix):
    # three block bits on two pairs, one pad qubit for Alice
    s = adversaries.superdense_block_storage([0, 1, 2], 3)
    assert (s.b1, s.b2) == (3, 2)
    states = []
    for xv in range(8):
        x, y = BitVector(3, xv), BitVector(3, 7 - xv)
        rho = _stored(s, x, y)         # [Alice's halves, pad, Bob's halves]
        check_density_matrix(rho)
        # traced over Bob's halves: maximally mixed on Alice's, |0> on her pad
        alice = qsim.partial_trace(rho, [8, 4], [0])
        assert np.max(np.abs(alice - np.kron(np.eye(4) / 4, np.diag([1.0, 0.0])))) <= 1e-12
        states.append(rho)
    # pure and pairwise orthogonal, so the referee decodes all three block bits
    overlaps = np.array([[np.trace(a @ b).real for b in states] for a in states])
    assert np.max(np.abs(overlaps - np.eye(8))) <= 1e-12


def _bell_pairs(bits):
    """One Bell pair per two bits, Pauli-coded by them, Alice's halves first,
    as one np.kron chain."""
    vec = np.array([1.0 + 0j])
    for c in zip(bits[::2], bits[1::2]):
        vec = np.kron(vec, adversaries._BELL_BASIS[c])
    p = len(bits) // 2
    return qsim.permute_qubits_vector(vec, [*range(0, 2 * p, 2), *range(1, 2 * p, 2)])


def _basis_vec(qubits, index):
    vec = np.zeros(1 << qubits, dtype=complex)
    vec[index] = 1.0
    return vec


def _block_bits(v, positions):
    bits = [v >> p & 1 for p in positions]
    return bits + [0] * (len(bits) % 2)


def _smp_vector(x_bits, y_bits, b1, b2, x, y):
    """The SMP block strategy's state vector for one pair, built per pair."""
    pairs = (len(x_bits) + 1) // 2
    pad_a, pad_b = b1 - pairs - 2, b2 - pairs - 2
    xa, yb = _block_bits(x, x_bits), _block_bits(y, y_bits)
    dits = np.kron(_basis_vec(2 + pad_a, sum(xa) % 4 << pad_a),
                   _basis_vec(2 + pad_b, sum(yb) % 4 << pad_b))
    order = [*range(pairs), *range(2 * pairs, pairs + b1),
             *range(pairs, 2 * pairs), *range(pairs + b1, b1 + b2)]
    return qsim.permute_qubits_vector(
        np.kron(_bell_pairs([a ^ b for a, b in zip(xa, yb)]), dits), order)


def _superdense_vector(x_bits, b1, x):
    """The superdense block strategy's state vector for one x, built per value."""
    pairs = (len(x_bits) + 1) // 2
    pad_a = b1 - pairs
    order = [*range(pairs), *range(2 * pairs, 2 * pairs + pad_a), *range(pairs, 2 * pairs)]
    return qsim.permute_qubits_vector(
        np.kron(_bell_pairs(_block_bits(x, x_bits)), _basis_vec(pad_a, 0)), order)


BASIS_STRATEGIES = [
    ("classical", ([0, 2], [1], 3, 1)), ("classical", ([3], [], 2, 2)),
    ("smp", ([], [], 2, 3)), ("smp", ([1], [2], 3, 3)), ("smp", ([0, 1], [0, 1], 3, 4)),
    ("smp", ([0, 2, 3], [3, 1, 0], 5, 4)),
    ("superdense", ([], 0)), ("superdense", ([2], 1)), ("superdense", ([0, 1, 3], 3)),
]


def _build(kind, args):
    return {"classical": adversaries.classical_block_storage,
            "smp": adversaries.smp_block_storage,
            "superdense": adversaries.superdense_block_storage}[kind](*args)


@pytest.mark.parametrize("kind, args", BASIS_STRATEGIES)
def test_basis_strategies_store_orthonormal_rows_of_their_table(kind, args):
    s = _build(kind, args)
    table = s.basis()
    dim = 1 << (s.b1 + s.b2)
    assert table.shape[1] == dim and len(table) <= dim
    assert np.max(np.abs(table @ table.conj().T - np.eye(len(table)))) <= 1e-12
    xs, ys = (np.repeat(np.arange(16), 16), np.tile(np.arange(16), 16))
    rows = s.index(xs, ys)
    assert rows.dtype == np.int64 and rows.min() >= 0 and rows.max() < len(table)
    # the same indices from Python ints, as for sources of 64 bits or more
    assert np.array_equal(s.index(xs.astype(object), ys.astype(object)), rows)
    if kind == "classical":
        x_bits, y_bits, b1, b2 = args
        expect = [sum((x >> p & 1) << j for j, p in enumerate(x_bits)) << b2
                  | sum((y >> p & 1) << j for j, p in enumerate(y_bits))
                  for x, y in zip(xs.tolist(), ys.tolist())]
        assert rows.tolist() == expect
    else:
        vector = (functools.partial(_smp_vector, *args) if kind == "smp" else
                  lambda x, y: _superdense_vector(*args, x))
        expect = np.array([vector(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
        assert np.array_equal(table[rows], expect)
    pick = [0, 37, 255]
    stack = s(xs[pick], ys[pick], np.zeros(3, dtype=np.int64))
    assert np.array_equal(stack, np.array([np.outer(v, v.conj()) for v in table[rows[pick]]]))


# --------------------------------------------------------------------------
# biased product sources


def test_ip_zero_table_matches_inner_product():
    for l in range(1, 7):
        table = adversaries._ip_zero_table(l)
        assert table.dtype == np.int32 and table.shape == (1 << l, 1 << l)
        for i in range(1 << l):
            for j in range(1 << l):
                assert table[i, j] == 1 - inner_product(BitVector(l, i), BitVector(l, j))


def test_biased_sources_l4_exhaustive():
    pair = biased_product_sources(4)
    assert pair.prob_zero == 1.0
    assert pair.prob_zero > 0.5 + 2 ** -1.5
    assert pair.x.min_entropy() == 1.0
    assert pair.y.min_entropy() == 1.0
    # verify the bias claim directly on the returned supports
    zeros = sum((xv & yv).bit_count() % 2 == 0
                for xv in pair.x.support for yv in pair.y.support)
    assert zeros == 4


def _exhaustive_l4_optimum():
    """The first pair of 2-element supports, in lexicographic order, with
    the most inner-product-zero pairs, and its Pr[X . Y = 0]."""
    supports = list(itertools.combinations(range(16), 2))
    score, neg_i, neg_j = max(
        (sum((a & b).bit_count() % 2 == 0 for a in xs for b in ys), -i, -j)
        for i, xs in enumerate(supports) for j, ys in enumerate(supports))
    return supports[-neg_i], supports[-neg_j], score / 4


@pytest.mark.parametrize("seed", range(21))
def test_biased_sources_l4_match_exhaustive_optimum(seed):
    xs, ys, prob = _exhaustive_l4_optimum()
    pair = biased_product_sources(4, seed)
    assert (pair.x.support, pair.y.support, pair.prob_zero) == (xs, ys, prob)


@pytest.mark.parametrize("l", [5, 6, 7, 8])
def test_biased_sources_hill_climb(l):
    pair = biased_product_sources(l, seed=0)
    assert pair.prob_zero > pair.bound
    assert pair.x.min_entropy() == l - 3
    assert pair.y.min_entropy() == l - 3
    zeros = sum((xv & yv).bit_count() % 2 == 0
                for xv in pair.x.support for yv in pair.y.support)
    assert zeros / (len(pair.x.support) * len(pair.y.support)) == pair.prob_zero


def test_biased_sources_l10():
    pair = biased_product_sources(10, seed=0)
    assert pair.prob_zero > 0.5 + 2 ** -4.5
    assert pair.x.min_entropy() == 7.0


def test_biased_sources_range_errors():
    with pytest.raises(ParameterError):
        biased_product_sources(3)
    with pytest.raises(SearchExhaustedError):
        biased_product_sources(11)


# --------------------------------------------------------------------------
# tightness attacks


def test_tightness_exact_branch_classical():
    attack = tightness_attack(4, 4, 4, 4, 4, "non-entangled")
    assert attack.branch == "exact"
    assert attack.exposed is None
    assert not attack.entangled and not attack.superstrong
    measured = measure_attack_advantage(attack)
    assert abs(measured - 0.5) <= 1e-9


def test_tightness_exact_branch_entangled():
    attack = tightness_attack(4, 4, 4, 4, 4, "entangled")
    assert attack.branch == "exact"
    assert attack.effective_block == 4
    measured = measure_attack_advantage(attack)
    assert abs(measured - 0.5) <= 1e-9


def test_tightness_biased_branch_l4():
    # Delta = 2, b = 4 covered bits, l = 4: the found sources are exactly
    # orthogonal so the storage bit equals the full inner product
    attack = tightness_attack(8, 5, 5, 4, 4, "non-entangled", branch="biased")
    assert attack.l == 4
    assert attack.bias_found == 1.0
    measured = measure_attack_advantage(attack)
    assert measured > attack.predicted_advantage
    assert measured > 2 ** (-(5 + 5 - 4 - 8 + 5) / 2)


def test_tightness_min_entropy_audit():
    attack = tightness_attack(8, 5, 5, 4, 4, "non-entangled", branch="biased")
    assert attack.x_source.min_entropy() == 5.0
    assert attack.y_source.min_entropy() == 5.0
    assert len(attack.x_source.support) == 32


def test_tightness_storage_respects_budgets(check_density_matrix):
    attack = tightness_attack(4, 4, 4, 4, 4, "entangled")
    rho = _stored(attack.storage, attack.x_source.vectors()[3], attack.y_source.vectors()[5])
    assert rho.shape == (1 << 8, 1 << 8)
    check_density_matrix(rho)


def test_output_state_keeps_no_per_pair_matrices():
    # 1,024 source pairs at d = 64: one 64 KiB matrix per pair would be 64 MiB
    attack = tightness_attack(8, 5, 5, 3, 3, "entangled")
    assert attack.storage.b1 + attack.storage.b2 == 6 and attack.branch == "exact"
    tracemalloc.start()
    try:
        state = qsim.extractor_output_state([attack.x_source], [attack.y_source],
                                            attack.storage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert qsim.cq_distance_from_uniform(state, 1)[0] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("k, b", [(3, 3), (6, 1)])
def test_security_output_state_memory_stays_within_the_chunk_budget(k, b):
    # whole stacks would be 4^k pairs of 2^(2b+2)-square joint states: 64 MiB at
    # (3, 3) and 16 MiB at (6, 1), each with three products of that size.  Chunked,
    # the peak is the output chunk, one joint-state chunk and its three products.
    xs, ys = random_flat_source(8, k, 5, 1), random_flat_source(8, k, 5, 2)
    storage = random_storage(b, b, "entangled", [5])
    tracemalloc.start()
    try:
        state = qsim.extractor_output_state([xs], [ys], storage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * qsim.STACK_BYTES + (1 << 20)
    assert qsim.cq_distance_from_uniform(state, 1)[0] <= 0.5


def test_tightness_parameter_errors():
    with pytest.raises(ParameterError):
        tightness_attack(4, 5, 4, 2, 2, "entangled")
    with pytest.raises(ParameterError):
        tightness_attack(4, 4, 4, 1, 1, "bogus")
    with pytest.raises(ParameterError):
        # exact branch demanded but Delta exceeds the covered block
        tightness_attack(4, 4, 4, 1, 1, "non-entangled", branch="exact")


def test_tightness_biased_infeasible_blocks():
    # k1 = n forces a negative filler block
    with pytest.raises(ParameterError):
        tightness_attack(4, 4, 4, 2, 2, "entangled", branch="biased")


def test_tightness_superstrong_non_entangled():
    # one-way: Alice stores the overlap, the y side is exposed in the label
    attack = tightness_attack(2, 2, 2, 2, 0, "superstrong-non-entangled")
    assert attack.exposed == "Y" and (attack.storage.b1, attack.storage.b2) == (2, 0)
    assert not attack.entangled and attack.superstrong
    assert abs(measure_attack_advantage(attack) - 0.5) <= 1e-9


def test_tightness_superstrong_entangled_superdense():
    # 1 qubit of Alice storage covers 2 overlap bits once Bob's halves are
    # exposed, exactly the superdense factor
    attack = tightness_attack(2, 2, 2, 1, 0, "superstrong-entangled")
    assert attack.exposed == "Y" and (attack.storage.b1, attack.storage.b2) == (1, 1)
    assert attack.entangled and attack.superstrong
    assert attack.effective_block == 2
    assert abs(measure_attack_advantage(attack) - 0.5) <= 1e-9


def test_tightness_superstrong_mirror_guard():
    with pytest.raises(ParameterError):
        tightness_attack(2, 2, 2, 0, 1, "superstrong-entangled")


def test_tightness_search_range_propagates():
    with pytest.raises(SearchExhaustedError):
        tightness_attack(20, 16, 16, 1, 1, "non-entangled")


def test_tightness_biased_hill_climb_end_to_end():
    # Delta = 4, b = 1, so the biased block is found by hill climbing (l = 9)
    attack = tightness_attack(10, 7, 7, 1, 1, "non-entangled")
    assert attack.branch == "biased" and attack.l == 9
    assert attack.x_source.min_entropy() == 7.0
    measured = measure_attack_advantage(attack)
    assert measured > attack.predicted_advantage
    # the storage bit flips the output exactly when the biased block is odd
    assert abs(measured - (attack.bias_found - 0.5)) <= 1e-9


# (n, k1, k2, b1, b2) per setting and branch, all at n <= 6; the first exact
# tuple of each setting has an empty overlap, the biased ones run l = 4..6
COUNTED = {
    ("non-entangled", "exact"): [(6, 3, 2, 1, 1), (4, 3, 3, 2, 2)],
    ("entangled", "exact"): [(6, 3, 3, 2, 2), (4, 3, 3, 3, 3)],
    ("superstrong-non-entangled", "exact"): [(6, 2, 3, 1, 1), (4, 3, 3, 2, 1)],
    ("superstrong-entangled", "exact"): [(6, 3, 3, 1, 0), (4, 3, 3, 1, 1), (3, 3, 3, 2, 0)],
    ("non-entangled", "biased"): [(6, 3, 3, 1, 1), (6, 3, 3, 2, 2), (6, 3, 3, 0, 0)],
    ("entangled", "biased"): [(6, 3, 3, 2, 2), (6, 3, 3, 3, 3)],
    ("superstrong-non-entangled", "biased"): [(6, 3, 3, 1, 0), (6, 3, 3, 2, 1)],
    ("superstrong-entangled", "biased"): [(6, 3, 3, 1, 1)],
}


def _basis_state_map(storage):
    """The strategy's states rebuilt from its basis table and its indices."""
    def stored(xs, ys, at):
        rows = storage.basis()[storage.index(xs, ys)]
        return rows[:, :, None] * rows.conj()[:, None, :]
    return stored


@pytest.mark.parametrize("setting, branch", COUNTED)
def test_counted_advantage_matches_the_dense_cq_state(setting, branch):
    # the constructed sources, which at n <= 6 reach the full 1/2, and random
    # sources of the same min-entropies, whose groups mix both outputs
    measured = set()
    for n, k1, k2, b1, b2 in COUNTED[setting, branch]:
        for seed in (0, 1):
            attack = tightness_attack(n, k1, k2, b1, b2, setting, branch=branch, seed=seed)
            for sources in ({}, {"x_source": random_flat_source(n, k1, seed, 1),
                                 "y_source": random_flat_source(n, k2, seed, 2)}):
                probe = dataclasses.replace(attack, **sources)
                state = qsim.extractor_output_state([probe.x_source], [probe.y_source],
                                                    _basis_state_map(probe.storage),
                                                    probe.exposed)
                dense = qsim.cq_distance_from_uniform(state, 1)[0]
                measured.add(measure_attack_advantage(probe))
                assert abs(measure_attack_advantage(probe) - dense) <= 1e-12
    assert 0.5 in measured and min(measured) < 0.5


def test_benchmark_tightness_tuples_measure_exact_rationals(monkeypatch):
    # the exact branch is 1/2 by construction; the biased branch's storage bit
    # flips the output exactly when the biased block is odd
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for params in workloads.TIGHTNESS:
        for seed in (1, 2, 3):
            attack = tightness_attack(
                *params, seed=workloads.derive_seed("cli-attack", seed) % (1 << 32))
            measured = measure_attack_advantage(attack)
            if attack.branch == "exact":
                assert measured == 0.5, params
            else:
                assert measured == attack.bias_found - 0.5, params


def test_measurement_rejects_indices_beyond_the_budget():
    attack = tightness_attack(4, 4, 4, 4, 4, "non-entangled")
    wide = adversaries.StorageStrategy(1, 1, attack.storage.stored,
                                       lambda xs, ys: np.full(len(xs), 4))
    with pytest.raises(DimensionError, match="budget dim 4"):
        measure_attack_advantage(dataclasses.replace(attack, storage=wide))


# --------------------------------------------------------------------------
# guessing-entropy counterexample


@pytest.mark.parametrize("n,expect", [(3, 1.0), (4, 2.0)])
def test_counterexample_small(n, expect):
    rep = guessing_entropy_counterexample(n)
    assert rep.referee_correct_fraction == 1.0
    assert rep.triples_checked == 8 ** n
    assert rep.guessing_entropy_single == expect
    assert rep.weight_classes == 4


def test_counterexample_referee_check_memory():
    # all 2^24 (x, y, r) triples at n = 8; (2^n)^3 int64 arrays would be 128 MiB each
    tracemalloc.start()
    try:
        rep = guessing_entropy_counterexample(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.triples_checked == 2 ** 24 and rep.referee_correct_fraction == 1.0
    assert peak < 8 * 2 ** 20


def test_counterexample_combined_entropy_reference():
    rep = guessing_entropy_counterexample(4)
    # combined storage still leaves nearly full entropy: n - O(1)
    assert rep.guessing_entropy_combined >= rep.n - 4
    assert rep.guessing_entropy_combined <= rep.guessing_entropy_single + 1e-12


def test_counterexample_needs_n3():
    with pytest.raises(ParameterError):
        guessing_entropy_counterexample(2)
