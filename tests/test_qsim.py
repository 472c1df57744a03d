"""Exact quantum numerics: distances, measurements, reduction lemmas."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx2src import adversaries, qsim
from qx2src.errors import DimensionError, ParameterError, ValidationError
from qx2src.extractors import FlatSource, ip_extract, multibit_extract, random_flat_source
from qx2src.gf2 import BitVector
from qx2src.rng import derive_rng

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


# --------------------------------------------------------------------------
# eigensolver and trace distance


def test_eigenvalues_examples():
    assert np.allclose(qsim.hermitian_eigenvalues(np.diag([1.0, -2.0])), [1, -2])
    assert np.allclose(qsim.hermitian_eigenvalues(qsim.PAULIS[(1, 0)]), [1, -1])
    assert np.allclose(qsim.hermitian_eigenvalues(np.array([[2.5]])), [2.5])


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        qsim.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigenvalue_sum_equals_trace():
    rng = derive_rng(21, 0)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = g + g.conj().T
        vals = qsim.hermitian_eigenvalues(h)
        assert abs(vals.sum() - np.real(np.trace(h))) <= 1e-9


def _trace_distance(a, b):
    return 0.5 * qsim.l1_norm(a - b)


def test_trace_distance_examples():
    assert _trace_distance(KET0, KET0) == 0
    assert abs(_trace_distance(KET0, KET1) - 1) <= 1e-12
    assert abs(_trace_distance(np.eye(2) / 2, KET0) - 0.5) <= 1e-12


def test_trace_distance_triangle_inequality():
    rng = derive_rng(22, 0)
    for _ in range(40):
        dim = 4
        a = qsim.random_density(dim, rng)
        b = qsim.random_density(dim, rng)
        c = qsim.random_density(dim, rng)
        assert (_trace_distance(a, c)
                <= _trace_distance(a, b) + _trace_distance(b, c) + 1e-9)


def test_partial_trace_and_tensor():
    rng = derive_rng(23, 0)
    a = qsim.random_density(2, rng)
    b = qsim.random_density(4, rng)
    joint = np.kron(a, b)
    assert np.allclose(qsim.partial_trace(joint, [2, 4], [0]), a)
    assert np.allclose(qsim.partial_trace(joint, [2, 4], [1]), b)


def test_permute_qubits_vector():
    # |01> with qubit order swapped becomes |10>
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0
    swapped = qsim.permute_qubits_vector(vec, [1, 0])
    assert swapped[2] == 1.0


# --------------------------------------------------------------------------
# cq-states from extractors


def _trivial_storage():
    """Zero-qubit storage; every stored state is the scalar 1."""
    one = np.ones((1, 1), dtype=complex)
    return adversaries.StorageStrategy(0, 0, lambda x, y: one)


def _classical_joint_storage(fn, bits):
    """Stores a joint classical function of both inputs as a basis state.

    Not realizable as a (b1, b2) product storage; exercises the verifier
    on states that perfectly encode the extractor output.
    """
    return adversaries.StorageStrategy(
        bits, 0, lambda x, y: qsim.basis_state(1 << bits, fn(x, y)))


def test_output_state_constant_extractor():
    x = FlatSource.uniform(2)
    y = FlatSource.uniform(2)
    storage = _trivial_storage()
    state = qsim.extractor_output_state(lambda a, b: BitVector(1, 0), x, y, storage)
    assert len(state.labels) == 1
    assert state.labels[0] == 0
    assert abs(state.probs[0] - 1.0) <= 1e-12
    assert abs(qsim.cq_distance_from_uniform(state, 1) - 0.5) <= 1e-12


def test_output_state_ip_uniform_n2():
    x = FlatSource.uniform(2)
    y = FlatSource.uniform(2)
    state = qsim.extractor_output_state(ip_extract, x, y, _trivial_storage())
    probs = dict(zip(state.labels.tolist(), state.probs))
    assert abs(probs[0] - 5 / 8) <= 1e-12
    assert abs(probs[1] - 3 / 8) <= 1e-12
    assert abs(qsim.cq_distance_from_uniform(state, 1) - 0.125) <= 1e-12


def test_output_state_perfect_classical_encoding():
    x = FlatSource.uniform(2)
    y = FlatSource.uniform(2)
    storage = _classical_joint_storage(lambda a, b: ip_extract(a, b), 1)
    state = qsim.extractor_output_state(ip_extract, x, y, storage)
    rho0, rho1 = state.rhos
    assert abs(np.trace(rho0 @ rho1)) <= 1e-12  # orthogonal supports
    assert abs(qsim.cq_distance_from_uniform(state, 1) - 0.5) <= 1e-12


def test_unknown_exposed_side_rejected():
    x = FlatSource.uniform(1)
    y = FlatSource.uniform(1)
    for exposed in ("Z", "weak", "X-strong"):
        with pytest.raises(ParameterError, match="exposed side"):
            qsim.extractor_output_state(ip_extract, x, y, _trivial_storage(), exposed)


def test_strategy_checks_its_budget_dimension():
    x, y = BitVector(1, 0), BitVector(1, 1)
    half = adversaries.StorageStrategy(1, 1, lambda x, y: np.eye(2) / 2)
    with pytest.raises(DimensionError, match="budget dim 4"):
        half(x, y)
    with pytest.raises(DimensionError):
        qsim.extractor_output_state(ip_extract, FlatSource.uniform(1),
                                    FlatSource.uniform(1), half)
    with pytest.raises(ParameterError, match="nonnegative"):
        adversaries.StorageStrategy(-1, 0, lambda x, y: np.eye(1))


def test_strong_mode_labels():
    x = FlatSource.uniform(1)
    y = FlatSource.uniform(1)
    state = qsim.extractor_output_state(ip_extract, x, y, _trivial_storage(), "X")
    labels = set(zip(state.labels.tolist(), state.sides.tolist()))
    assert (1, 1) in labels and (0, 0) in labels


def _string_label_oracle(extractor, xs, ys, state_map, exposed):
    """The state as a dict of string labels, built entry by entry.

    Labels are coordinate-0-first bit strings, (output, side) tuples when
    a source is exposed, sorted as strings; each matrix is the running
    sum of its pairs' stored states, renormalized once at the end.
    """
    p_pair = xs.probability() * ys.probability()
    acc = {}
    for xv in xs.vectors():
        for yv in ys.vectors():
            out = extractor(xv, yv)
            out = BitVector(1, out) if isinstance(out, int) else out
            side = {"X": xv, "Y": yv}.get(exposed)
            label = out.to_str() if exposed is None else (out.to_str(), side.to_str())
            rho = state_map(xv, yv)
            if label in acc:
                acc[label][0] += p_pair
                acc[label][1] += rho
            else:
                acc[label] = [p_pair, rho.astype(complex, copy=True)]
    return [(label, p, total * p_pair / p) for label, (p, total) in sorted(acc.items())]


def _assert_matches_oracle(state, expect, n, exposed):
    outs = [BitVector(state.width, v).to_str() for v in state.labels]
    if exposed is None:
        assert state.sides is None
        labels = outs
    else:
        labels = list(zip(outs, [BitVector(n, v).to_str() for v in state.sides]))
    assert labels == [label for label, _, _ in expect]
    assert state.probs.tolist() == [p for _, p, _ in expect]
    assert state.rhos.tobytes() == np.array([rho for _, _, rho in expect]).tobytes()


# the security notions: the side exposed with the output, and whether the
# state map keeps that side's whole state
NOTIONS = {"weak": (None, False), "X-strong": ("X", False), "Y-strong": ("Y", False),
           "X-superstrong": ("X", True), "Y-superstrong": ("Y", True)}


def _state_maps(notion, n, seed):
    """The state maps the oracle tests run for a notion on n-bit sources.

    The superstrong maps keep one side's whole state: the superdense
    strategy for Y, and for X the same strategy with the sources' roles
    swapped.
    """
    exposed, whole = NOTIONS[notion]
    if whole:
        superdense = adversaries.superdense_block_storage(sorted({0, n - 1}), 1)
        return [superdense if exposed == "Y" else lambda x, y: superdense(y, x)]
    return [adversaries.random_storage(1, 1, "product", seed),
            adversaries.random_storage(1, 1, "entangled", seed),
            adversaries.classical_block_storage([0], [n - 1], 1, 1)]


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_matches_string_label_oracle(notion):
    exposed = NOTIONS[notion][0]
    for n in (1, 2, 3):
        extractors = [ip_extract] + [
            lambda x, y, m=m: multibit_extract(x, y, m) for m in range(1, n + 1)]
        sources = [(FlatSource.uniform(n), FlatSource.uniform(n)),
                   (random_flat_source(n, n - 1, 7, 1), random_flat_source(n, 1, 7, 2))]
        for state_map in _state_maps(notion, n, seed=5 + n):
            for extractor in extractors:
                for xs, ys in sources:
                    state = qsim.extractor_output_state(extractor, xs, ys, state_map, exposed)
                    expect = _string_label_oracle(extractor, xs, ys, state_map, exposed)
                    _assert_matches_oracle(state, expect, n, exposed)


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_matches_string_label_oracle_at_64_bits(notion):
    # k1 = k2 = 2 sources whose values need all 64 bits, where int64 labels
    # would overflow and bit 63 would flip the order
    exposed = NOTIONS[notion][0]
    xs = FlatSource.from_values(64, [1, 1 << 63, 3 << 62, (1 << 64) - 1])
    ys = FlatSource.from_values(64, [2, 1 << 63, 5 << 60, (1 << 64) - 2])
    extractors = [ip_extract, lambda x, y: multibit_extract(x, y, 64)]
    for state_map in _state_maps(notion, 64, seed=11):
        for extractor in extractors:
            state = qsim.extractor_output_state(extractor, xs, ys, state_map, exposed)
            expect = _string_label_oracle(extractor, xs, ys, state_map, exposed)
            _assert_matches_oracle(state, expect, 64, exposed)
        ip_state = qsim.extractor_output_state(ip_extract, xs, ys, state_map, exposed)
        assert abs(qsim.cq_distance_from_uniform(ip_state, 1)
                   - _global_distance_oracle(ip_state, 1)) <= 1e-10


# --------------------------------------------------------------------------
# boolean reduction and the xor lemma


def _global_distance_oracle(state, label_bits):
    """Distance from uniform via one eigendecomposition of the full operator.

    Builds the literal block-diagonal matrix of (E, side) x storage and
    takes half its 1-norm, independently of the per-block evaluation.
    """
    groups = {}
    sides = state.labels * 0 if state.sides is None else state.sides
    for out, side, p, rho in zip(state.labels.tolist(), sides.tolist(),
                                 state.probs, state.rhos):
        groups.setdefault(side, {})[out] = (p, rho)
    dim = state.dim
    blocks = []
    for side, outs in groups.items():
        marg = sum(p * rho for p, rho in outs.values())
        for out in range(1 << label_bits):
            p, rho = outs.get(out, (0.0, np.zeros((dim, dim), complex)))
            blocks.append(p * rho - marg / (1 << label_bits))
    full = np.zeros((dim * len(blocks), dim * len(blocks)), dtype=complex)
    for i, blk in enumerate(blocks):
        full[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = blk
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(full))))


def test_cq_distance_matches_global_eigendecomposition():
    for t in range(30):
        m = 1 + t % 3
        d = t % 3
        s = qsim.random_cq_state(m, d, seed=2468, stream=t)
        direct = _global_distance_oracle(s, m)
        assert abs(qsim.cq_distance_from_uniform(s, m) - direct) <= 1e-10


def test_cq_distance_matches_per_entry_loop():
    # the block sums in entry order, side groups in order of first appearance
    storage = adversaries.random_storage(1, 1, "product", seed=29)
    xs, ys = random_flat_source(3, 2, 3, 1), random_flat_source(3, 2, 3, 2)
    for exposed in (None, "X", "Y"):
        for m in (1, 2, 3):
            s = qsim.extractor_output_state(
                lambda x, y, m=m: multibit_extract(x, y, m), xs, ys, storage, exposed)
            sides = [None] * len(s.labels) if s.sides is None else s.sides.tolist()
            groups = {}
            for side, p, rho in zip(sides, s.probs.tolist(), s.rhos):
                groups.setdefault(side, []).append(p * rho)
            total = 0.0
            for blocks in groups.values():
                marg = sum(blocks)
                for blk in blocks:
                    total += qsim.l1_norm(blk - marg / (1 << m))
                total += ((1 << m) - len(blocks)) / (1 << m) * float(np.real(np.trace(marg)))
            assert qsim.cq_distance_from_uniform(s, m) == 0.5 * total


def test_cq_distance_strong_mode_matches_oracle():
    from qx2src import adversaries
    from qx2src.extractors import FlatSource, ip_extract
    x = FlatSource.uniform(2)
    y = FlatSource.uniform(2)
    storage = adversaries.random_storage(1, 1, "entangled", seed=13)
    for exposed in (None, "X", "Y"):
        s = qsim.extractor_output_state(ip_extract, x, y, storage, exposed)
        direct = _global_distance_oracle(s, 1)
        assert abs(qsim.cq_distance_from_uniform(s, 1) - direct) <= 1e-10


def test_boolean_reduce_constant():
    s = qsim.random_cq_state(2, 1, seed=77)
    reduced = qsim.boolean_reduce(s, np.ones(4, dtype=int))
    assert abs(qsim.cq_distance_from_uniform(reduced, 1) - 0.5) <= 1e-12


def test_boolean_reduce_merge_identity():
    for t in range(25):
        m, d = 2, 2
        s = qsim.random_cq_state(m, d, seed=1000 + t)
        f = qsim.random_boolean_fn(m, seed=1000 + t)
        reduced = qsim.boolean_reduce(s, f)
        dim = s.dim
        rho = {0: np.zeros((dim, dim), complex), 1: np.zeros((dim, dim), complex)}
        for z, p, r in zip(s.labels, s.probs, s.rhos):
            rho[f[z]] += p * r
        lhs = 2 * qsim.cq_distance_from_uniform(reduced, 1)
        assert abs(lhs - qsim.l1_norm(rho[0] - rho[1])) <= 1e-9


def test_boolean_reduce_preserves_probability_and_average():
    for t in range(20):
        s = qsim.random_cq_state(2, 2, seed=888, stream=t)
        f = qsim.random_boolean_fn(2, seed=888, stream=t)
        reduced = qsim.boolean_reduce(s, f)
        assert abs(sum(reduced.probs) - 1.0) <= 1e-12
        assert np.max(np.abs(reduced.average_state() - s.average_state())) <= 1e-12


def test_parity_mask_fn():
    # labels "101", "100", "001" with coordinate 0 in bit 0
    assert qsim.character(np.array([0b101, 0b001, 0b100]), 0b101).tolist() == [0, 1, 1]


def _reduce_loop(s, f):
    """boolean_reduce entry by entry: per bit, the running sum of p rho over p."""
    parts = {}
    for z, p, rho in zip(s.labels.tolist(), s.probs.tolist(), s.rhos):
        b = f[z]
        if b in parts:
            parts[b][0] += p
            parts[b][1] += p * rho
        else:
            parts[b] = [p, p * rho]
    return [(b, parts[b][0], parts[b][1] / parts[b][0]) for b in (0, 1)
            if b in parts and parts[b][0] > 0]


def _parity_loop(z, mask, m):
    acc = 0
    for j in range(m):
        acc ^= (z >> j) & (mask >> j) & 1
    return acc


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), qubits=st.integers(0, 2),
       stream=st.integers(0, 2 ** 16), data=st.data())
def test_reduction_and_characters_match_per_label_loops(m, qubits, stream, data):
    s = qsim.random_cq_state(m, qubits, seed=4242, stream=stream)
    f = np.array(data.draw(st.lists(st.integers(0, 1), min_size=1 << m,
                                    max_size=1 << m)))
    reduced = qsim.boolean_reduce(s, f)
    expect = _reduce_loop(s, f)
    assert reduced.labels.tolist() == [b for b, _, _ in expect]
    assert reduced.probs.tolist() == [p for _, p, _ in expect]
    assert reduced.rhos.tobytes() == np.array([r for _, _, r in expect]).tobytes()
    char_sum = 0.0
    for mask in range(1, 1 << m):
        table = [_parity_loop(z, mask, m) for z in range(1 << m)]
        assert qsim.character(np.arange(1 << m), mask).tolist() == table
        merged = qsim.boolean_reduce(s, np.array(table))
        char_sum += qsim.cq_distance_from_uniform(merged, 1) ** 2
    assert qsim.xor_lemma_check(s).character_sum == char_sum


def test_pgm_reduction_matches_per_entry_loop():
    for t in range(30):
        m = 1 + t % 3
        s = qsim.random_cq_state(m, t % 3, seed=808, stream=t)
        f = qsim.random_boolean_fn(m, seed=808, stream=t)
        elements = qsim.pgm(s).elements
        joint, marg = {}, {}
        for z, p, rho in zip(s.labels.tolist(), s.probs.tolist(), s.rhos):
            for w, el in enumerate(elements):
                q = p * float(np.real(np.trace(el @ rho)))
                joint[(f[z], w)] = joint.get((f[z], w), 0.0) + q
                marg[w] = marg.get(w, 0.0) + q
        dist = 0.0
        for w, pw in marg.items():
            for b in (0, 1):
                dist += abs(joint.get((b, w), 0.0) - 0.5 * pw)
        assert qsim.pgm_reduction_check(s, f).classical_distance == 0.5 * dist


def test_pgm_reduction_memory_linear_in_labels():
    # 256 labels at d = 2: the (K, K, d, d) product stack alone would be 4 MiB
    s = qsim.random_cq_state(8, 1, seed=31)
    f = qsim.random_boolean_fn(8, seed=31)
    tracemalloc.start()
    try:
        qsim.pgm_reduction_check(s, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_xor_lemma_single_bit_case():
    s = qsim.random_cq_state(1, 2, seed=5)
    res = qsim.xor_lemma_check(s)
    # only one character, whose squared distance is exactly the lhs
    assert abs(res.character_sum - res.lhs_squared) <= 1e-10
    assert res.rhs_bound >= res.lhs_squared - 1e-12
    assert res.rhs_bound == min(res.rhs_bound_dim, res.rhs_bound_labels)


def test_xor_lemma_classical_embedding():
    # diagonal one-dimensional side information: factor 2^min(0, m) = 1
    rng = derive_rng(31, 0)
    probs = rng.dirichlet(np.ones(4))
    s = qsim.CqState(np.arange(4), probs, np.ones((4, 1, 1)), 2)
    res = qsim.xor_lemma_check(s)
    assert res.rhs_bound == res.character_sum
    assert res.lhs_squared <= res.character_sum + 1e-10


def test_xor_lemma_random_states_hold():
    for t in range(60):
        m = 1 + t % 3
        d = t // 3 % 4
        s = qsim.random_cq_state(m, d, seed=123, stream=t)
        res = qsim.xor_lemma_check(s)
        assert res.lhs_squared <= res.rhs_bound + 1e-8


def test_xor_lemma_character_sum_matches_direct_fourier():
    # each character term equals half the 1-norm of sum_z chi_S(z) p(z) rho_z,
    # computed here without going through the merge-and-distance path
    for t in range(20):
        m = 1 + t % 3
        s = qsim.random_cq_state(m, 2, seed=1357, stream=t)
        direct = 0.0
        for mask in range(1, 1 << m):
            acc = np.zeros((s.dim, s.dim), dtype=complex)
            for z, p, rho in zip(s.labels.tolist(), s.probs, s.rhos):
                sign = (-1) ** (bin(z & mask).count("1") % 2)
                acc += sign * p * rho
            direct += (0.5 * qsim.l1_norm(acc)) ** 2
        res = qsim.xor_lemma_check(s)
        assert abs(res.character_sum - direct) <= 1e-10


def test_xor_lemma_both_proof_branches_hold():
    # the dimension-factor and label-factor variants are each upper bounds
    for t in range(40):
        m = 1 + t % 3
        d = t % 4
        s = qsim.random_cq_state(m, d, seed=321, stream=t)
        res = qsim.xor_lemma_check(s)
        assert res.lhs_squared <= res.rhs_bound_dim + 1e-8
        assert res.lhs_squared <= res.rhs_bound_labels + 1e-8
        assert res.rhs_bound == min(res.rhs_bound_dim, res.rhs_bound_labels)


# --------------------------------------------------------------------------
# measurements


def test_pgm_orthogonal_states():
    s = qsim.CqState([0, 1], [0.5, 0.5], [KET0, KET1], 1)
    m = qsim.pgm(s)
    assert np.allclose(m.elements[0], KET0)
    assert abs(qsim.guess_success(s, m) - 1.0) <= 1e-12


def test_pgm_identical_states():
    rho = np.eye(2) / 2
    s = qsim.CqState([0, 1, 2, 3], [0.25] * 4, [rho] * 4, 2)
    m = qsim.pgm(s)
    for el in m.elements:
        assert np.allclose(el, np.eye(2) / 4)
    assert abs(qsim.guess_success(s, m) - 0.25) <= 1e-12


def test_pgm_two_pure_states_matches_helstrom():
    s = qsim.CqState([0, 1], [0.5, 0.5], [KET0, PLUS], 1)
    p = qsim.guess_success(s, qsim.pgm(s))
    expected = 0.5 * (1 + 1 / math.sqrt(2))
    assert abs(p - expected) <= 1e-9
    assert abs(qsim.helstrom_advantage(0.5, KET0, 0.5, PLUS) - expected) <= 1e-12


def test_guess_success_uniform_povm():
    s = qsim.CqState([0, 1], [0.5, 0.5], [KET0, KET1], 1)
    m = qsim.Povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
    assert abs(qsim.guess_success(s, m) - 0.5) <= 1e-12


def test_pgm_within_square_of_optimal_binary():
    rng = derive_rng(37, 0)
    for t in range(100):
        dim = 2 if t % 2 else 4
        p0 = float(rng.uniform(0.1, 0.9))
        rho0 = qsim.random_density(dim, rng)
        rho1 = qsim.random_density(dim, rng)
        s = qsim.CqState([0, 1], [p0, 1 - p0], [rho0, rho1], 1)
        p_pgm = qsim.guess_success(s, qsim.pgm(s))
        p_opt = qsim.helstrom_advantage(p0, rho0, 1 - p0, rho1)
        assert p_pgm <= p_opt + 1e-9
        assert p_pgm >= p_opt ** 2 - 1e-9


def test_helstrom_examples():
    assert abs(qsim.helstrom_advantage(0.5, KET0, 0.5, KET1) - 1.0) <= 1e-12
    assert abs(qsim.helstrom_advantage(0.3, KET0, 0.7, KET0) - 0.7) <= 1e-12
    with pytest.raises(ParameterError):
        qsim.helstrom_advantage(0.6, KET0, 0.6, KET1)


def test_guessing_entropy_identical_scalar_states():
    k = 3
    one = np.array([[1.0 + 0j]])
    s = qsim.CqState(np.arange(2 ** k), [1 / 2 ** k] * 2 ** k, [one] * 2 ** k, k)
    bracket = qsim.guessing_entropy_bounds(s)
    assert abs(bracket.lower - k) <= 1e-9
    assert abs(bracket.upper - k) <= 1e-9


def test_guessing_entropy_orthogonal_states():
    s = qsim.CqState([0, 1], [0.5, 0.5], [KET0, KET1], 1)
    bracket = qsim.guessing_entropy_bounds(s)
    assert abs(bracket.lower) <= 1e-9
    assert abs(bracket.upper) <= 1e-9


def test_guessing_entropy_bracket_contains_optimal_binary():
    rng = derive_rng(41, 0)
    for t in range(100):
        p0 = float(rng.uniform(0.2, 0.8))
        rho0 = qsim.random_density(2, rng)
        rho1 = qsim.random_density(2, rng)
        s = qsim.CqState([0, 1], [p0, 1 - p0], [rho0, rho1], 1)
        h_opt = -math.log2(qsim.helstrom_advantage(p0, rho0, 1 - p0, rho1))
        bracket = qsim.guessing_entropy_bounds(s)
        assert bracket.lower - 1e-9 <= h_opt <= bracket.upper + 1e-9


def test_pgm_povm_invariants():
    for t in range(20):
        s = qsim.random_cq_state(1 + t % 3, t % 3, seed=99, stream=t)
        qsim.pgm(s)  # Povm constructor validates PSD and completeness


# --------------------------------------------------------------------------
# reduction lemmas


def test_pgm_reduction_orthogonal_classical():
    s = qsim.CqState([0, 1], [0.5, 0.5], [KET0, KET1], 1)
    res = qsim.pgm_reduction_check(s, np.array([0, 1]))
    assert abs(res.lhs - 0.5) <= 1e-9
    assert abs(res.bound - 0.5) <= 1e-9
    assert res.lhs <= res.bound + 1e-8


def test_pgm_reduction_constant_function():
    s = qsim.random_cq_state(2, 1, seed=55)
    res = qsim.pgm_reduction_check(s, np.zeros(4, dtype=int))
    assert abs(res.lhs - 0.5) <= 1e-9
    assert abs(res.classical_distance - 0.5) <= 1e-9
    assert abs(res.bound - 0.5) <= 1e-9


def test_pgm_reduction_random_states():
    for t in range(50):
        m = 1 + t % 3
        s = qsim.random_cq_state(m, t % 4, seed=500, stream=t)
        f = qsim.random_boolean_fn(m, seed=500, stream=t)
        res = qsim.pgm_reduction_check(s, f)
        assert res.lhs <= res.bound + 1e-8


def test_weighted_l2_bound_zero_operator():
    sigma = np.eye(4) / 4
    lhs, rhs = qsim.trace_norm_weighted_l2_bound(np.zeros((4, 4)), sigma)
    assert lhs == 0 and rhs == 0


def test_weighted_l2_bound_equality_case():
    dim = 4
    op = np.eye(dim) / dim
    lhs, rhs = qsim.trace_norm_weighted_l2_bound(op, op)
    assert abs(lhs - 0.5) <= 1e-12
    assert abs(rhs - 0.5) <= 1e-9


def test_weighted_l2_bound_random():
    rng = derive_rng(43, 0)
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s_op = (g + g.conj().T) / 2
        sigma = qsim.random_density(dim, rng)
        lhs, rhs = qsim.trace_norm_weighted_l2_bound(s_op, sigma)
        assert lhs <= rhs + 1e-8


def test_weighted_l2_bound_support_violation():
    sigma = np.diag([1.0, 0.0]).astype(complex)
    s_op = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValidationError):
        qsim.trace_norm_weighted_l2_bound(s_op, sigma)


# --------------------------------------------------------------------------
# validation of the data types


def test_density_matrix_validation(check_density_matrix):
    # the check the storage tests rely on rejects each kind of invalid state
    for bad, reason in ((np.eye(2), "trace"),
                        (np.diag([1.5, -0.5]), "PSD"),
                        (np.array([[0.5, 1j], [0, 0.5]]), "Hermitian"),
                        (np.eye(3) / 3, "power of two"),
                        (np.ones(4) / 4, "square")):
        with pytest.raises(AssertionError, match=reason):
            check_density_matrix(bad)
    check_density_matrix(np.eye(4) / 4)


def test_cq_state_validation():
    with pytest.raises(ValidationError):
        qsim.CqState([0, 1], [0.7, 0.7], [KET0, KET1], 1)
    with pytest.raises(ValidationError):
        qsim.CqState([0, 0], [0.5, 0.5], [KET0, KET1], 1)
    with pytest.raises(ValidationError, match="differ in dimension"):
        qsim.CqState([0, 1], [0.5, 0.5], [KET0, np.eye(4) / 4], 1)


def test_povm_validation():
    with pytest.raises(ValidationError):
        qsim.Povm(np.array([np.eye(2) * 0.7, np.eye(2) * 0.7]))
    with pytest.raises(ValidationError, match="differ in dimension"):
        qsim.Povm([np.eye(2), np.zeros((4, 4))])


def test_guess_success_rejects_broken_povm():
    # 2 I passes no Povm validation, so build it around __post_init__
    s = qsim.CqState([0, 1], [0.5, 0.5], [KET0, KET1], 1)
    broken = object.__new__(qsim.Povm)
    object.__setattr__(broken, "elements", np.array([2 * np.eye(2), 2 * np.eye(2)], dtype=complex))
    with pytest.raises(ParameterError, match="2.0"):
        qsim.guess_success(s, broken)
