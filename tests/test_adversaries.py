"""Storage strategies, Bell-pair protocols, and attack constructions."""

import tracemalloc

import numpy as np
import pytest

from qx2src import adversaries, qsim
from qx2src.adversaries import (biased_product_sources, bell_outcome,
                                guessing_entropy_counterexample,
                                measure_attack_advantage, random_storage,
                                smp_ip_protocol, superdense_roundtrip,
                                tightness_attack)
from qx2src.errors import ParameterError, SearchExhaustedError
from qx2src.extractors import ip_extract
from qx2src.gf2 import BitVector, inner_product


def bv(s):
    return BitVector.from_str(s)


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
        s = random_storage(0, 0, flavor, seed=1)
        rho = s(bv("101"), bv("011"))
        assert rho.shape == (1, 1)
        assert abs(rho[0, 0] - 1.0) <= 1e-9


def test_random_storage_determinism():
    xs = [BitVector(3, v) for v in range(8)]
    ys = [BitVector(3, v) for v in range(8)]
    for flavor in ("product", "entangled"):
        a = random_storage(1, 1, flavor, seed=9)
        b = random_storage(1, 1, flavor, seed=9)
        for x in xs[:4]:
            for y in ys[:4]:
                assert np.array_equal(a(x, y), b(x, y))


def test_random_storage_states_are_valid(check_density_matrix):
    for flavor in ("product", "entangled"):
        s = random_storage(1, 2, flavor, seed=5)
        for xv in range(4):
            for yv in range(4):
                rho = s(BitVector(2, xv), BitVector(2, yv))
                assert rho.shape == (8, 8)
                check_density_matrix(rho)
    for flavor in ("quantum", "classical"):
        with pytest.raises(ParameterError, match="unknown flavor"):
            random_storage(1, 2, flavor, seed=5)


def test_random_storage_draws_each_side_once_per_value(monkeypatch):
    # 16 pairs of 2-bit values need 4 x-side and 4 y-side unitaries
    calls = []
    draw = qsim.random_unitary
    monkeypatch.setattr(qsim, "random_unitary", lambda *a: calls.append(1) or draw(*a))
    s = random_storage(1, 1, "entangled", seed=2)
    for xv in range(4):
        for yv in range(4):
            s(BitVector(2, xv), BitVector(2, yv))
    assert len(calls) == 8


def test_product_flavor_factorizes():
    # every stored state is its x-side marginal tensor its y-side marginal
    s = random_storage(1, 1, "product", seed=3)
    for xv in range(4):
        for yv in range(4):
            rho = s(BitVector(2, xv), BitVector(2, yv))
            rho_a = qsim.partial_trace(rho, [2, 2], [0])
            rho_b = qsim.partial_trace(rho, [2, 2], [1])
            assert np.max(np.abs(rho - np.kron(rho_a, rho_b))) <= 1e-9


def test_smp_block_storage_budget_check():
    with pytest.raises(ParameterError):
        adversaries.smp_block_storage([0, 1], [0, 1], 2, 2)  # needs 3 each
    with pytest.raises(ParameterError):
        adversaries.superdense_block_storage([0, 1, 2], 1, 0)  # needs 2 qubits
    with pytest.raises(ParameterError):
        adversaries.classical_block_storage([0, 1], [0], 1, 1)


def test_superdense_budget_state_is_full_b_without_bobs_halves(check_density_matrix):
    # three block bits on two pairs, one pad qubit for Alice, one qubit for Bob
    s = adversaries.superdense_block_storage([0, 1, 2], 3, 1)
    pad_and_bob = qsim.basis_state(4, 0)
    for xv in range(8):
        x, y = BitVector(3, xv), BitVector(3, 7 - xv)
        rho = s(x, y)
        check_density_matrix(rho)
        # maximally mixed on Alice's halves, |0> on her pad and on Bob's qubit
        assert np.max(np.abs(rho - np.kron(np.eye(4) / 4, pad_and_bob))) <= 1e-12
        full = s.full_b(x, y)          # [Alice's halves, pad, Bob's halves]
        check_density_matrix(full)
        alice = qsim.partial_trace(full, [8, 4], [0])
        assert np.max(np.abs(rho - np.kron(alice, qsim.basis_state(2, 0)))) <= 1e-12


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
    assert attack.exposed is None and attack.measured is attack.storage
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
    rho = attack.storage(attack.x_source.vectors()[3], attack.y_source.vectors()[5])
    assert rho.shape == (1 << 8, 1 << 8)
    check_density_matrix(rho)


def test_output_state_keeps_no_per_pair_matrices():
    # 1,024 source pairs at d = 64: one 64 KiB matrix per pair would be 64 MiB
    attack = tightness_attack(8, 5, 5, 3, 3, "entangled")
    assert attack.storage.b1 + attack.storage.b2 == 6 and attack.branch == "exact"
    tracemalloc.start()
    try:
        state = qsim.extractor_output_state(ip_extract, attack.x_source,
                                            attack.y_source, attack.storage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert qsim.cq_distance_from_uniform(state, 1) == pytest.approx(0.5, abs=1e-9)


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
    assert attack.exposed == "Y" and attack.measured is attack.storage
    assert not attack.entangled and attack.superstrong
    assert abs(measure_attack_advantage(attack) - 0.5) <= 1e-9


def test_tightness_superstrong_entangled_superdense():
    # 1 qubit of Alice storage covers 2 overlap bits once Bob's halves are
    # exposed, exactly the superdense factor
    attack = tightness_attack(2, 2, 2, 1, 0, "superstrong-entangled")
    assert attack.exposed == "Y" and attack.measured == attack.storage.full_b
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
