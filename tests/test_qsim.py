"""Exact quantum numerics: distances, measurements, reduction lemmas."""

import itertools
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
    return adversaries.StorageStrategy(0, 0, lambda xs, ys, at: np.ones((len(xs), 1, 1)))


def _classical_joint_storage(fn, n, bits):
    """Stores a joint classical function of both n-bit inputs as a basis state.

    Not realizable as a (b1, b2) product storage; exercises the verifier
    on states that perfectly encode the extractor output.
    """
    return adversaries.StorageStrategy(bits, 0, lambda xs, ys, at: np.array([
        np.diag(np.eye(1 << bits)[fn(BitVector(n, x), BitVector(n, y))])
        for x, y in zip(xs.tolist(), ys.tolist())]))


def _stored(state_map, x: BitVector, y: BitVector) -> np.ndarray:
    """The state map on the single pair (x, y) of instance 0, a batch of one."""
    return state_map(np.array([x.value], dtype=object), np.array([y.value], dtype=object),
                     np.zeros(1, dtype=np.int64))[0]


def _alone(stack, t=0):
    """State t of a stack as a CqState of its own."""
    return qsim.CqState(stack.labels, stack.probs[t], stack.rhos[t], stack.width, stack.sides)


def test_output_state_constant_extractor():
    # x = 0 on the whole support, so the inner product is constant
    x = FlatSource.from_values(2, [0])
    y = FlatSource.uniform(2)
    storage = _trivial_storage()
    state = qsim.extractor_output_state([x], [y], storage)
    assert len(state.labels) == 1
    assert state.labels[0] == 0
    assert abs(state.probs[0, 0] - 1.0) <= 1e-12
    assert abs(qsim.cq_distance_from_uniform(state, 1)[0] - 0.5) <= 1e-12


def test_output_state_ip_uniform_n2():
    x = FlatSource.uniform(2)
    y = FlatSource.uniform(2)
    state = qsim.extractor_output_state([x], [y], _trivial_storage())
    probs = dict(zip(state.labels.tolist(), state.probs[0]))
    assert abs(probs[0] - 5 / 8) <= 1e-12
    assert abs(probs[1] - 3 / 8) <= 1e-12
    assert abs(qsim.cq_distance_from_uniform(state, 1)[0] - 0.125) <= 1e-12


def test_output_state_perfect_classical_encoding():
    x = FlatSource.uniform(2)
    y = FlatSource.uniform(2)
    storage = _classical_joint_storage(ip_extract, 2, 1)
    state = qsim.extractor_output_state([x], [y], storage)
    rho0, rho1 = state.rhos[0]
    assert abs(np.trace(rho0 @ rho1)) <= 1e-12  # orthogonal supports
    assert abs(qsim.cq_distance_from_uniform(state, 1)[0] - 0.5) <= 1e-12


def test_unknown_exposed_side_rejected():
    x = FlatSource.uniform(1)
    y = FlatSource.uniform(1)
    for exposed in ("Z", "weak", "X-strong"):
        with pytest.raises(ParameterError, match="exposed side"):
            qsim.extractor_output_state([x], [y], _trivial_storage(), exposed)


def test_strategy_checks_its_budget_dimension():
    xs, ys, at = np.array([0, 1]), np.array([1, 1]), np.zeros(2, dtype=np.int64)
    half = adversaries.StorageStrategy(1, 1, lambda xs, ys, at: np.array([np.eye(2) / 2] * len(xs)))
    with pytest.raises(DimensionError, match="budget dim 4"):
        half(xs, ys, at)
    one_short = adversaries.StorageStrategy(0, 0, lambda xs, ys, at: np.ones((len(xs) - 1, 1, 1)))
    with pytest.raises(DimensionError, match="for 2 pairs"):
        one_short(xs, ys, at)
    with pytest.raises(DimensionError):
        qsim.extractor_output_state([FlatSource.uniform(1)], [FlatSource.uniform(1)], half)
    with pytest.raises(ParameterError, match="nonnegative"):
        adversaries.StorageStrategy(-1, 0, lambda xs, ys, at: np.ones((len(xs), 1, 1)))


def test_output_state_stacks_need_paired_sources_and_no_exposed_side():
    one, two = FlatSource.uniform(1), FlatSource.uniform(2)
    for xs, ys, exposed, match in (([one, one], [one, one], "X", "exposes no side"),
                                   ([one, one], [one], None, "pair up"),
                                   ([one, two], [one, one], None, "pair up"),
                                   ([], [], None, "pair up")):
        with pytest.raises(ParameterError, match=match):
            qsim.extractor_output_state(xs, ys, _trivial_storage(), exposed)


def test_strong_mode_labels():
    x = FlatSource.uniform(1)
    y = FlatSource.uniform(1)
    state = qsim.extractor_output_state([x], [y], _trivial_storage(), "X")
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
            rho = _stored(state_map, xv, yv)
            if label in acc:
                acc[label][0] += p_pair
                acc[label][1] += rho
            else:
                acc[label] = [p_pair, rho.astype(complex, copy=True)]
    return [(label, p, total * p_pair / p) for label, (p, total) in sorted(acc.items())]


def _oracle_state(extractor, xs, ys, state_map, exposed, width):
    """The string-label oracle's entries as a CqState of width-bit outputs."""
    expect = _string_label_oracle(extractor, xs, ys, state_map, exposed)
    labels = [label if exposed is None else label[0] for label, _, _ in expect]
    sides = None if exposed is None else [
        BitVector.from_str(label[1]).value for label, _, _ in expect]
    return qsim.CqState([BitVector.from_str(out).value for out in labels],
                        [p for _, p, _ in expect], [rho for _, _, rho in expect], width, sides)


def _assert_matches_oracle(state, expect, n, exposed):
    """state, a stack of one, holds the oracle's entries."""
    assert state.probs.shape == (1, len(state.labels))
    outs = [BitVector(state.width, v).to_str() for v in state.labels]
    if exposed is None:
        assert state.sides is None
        labels = outs
    else:
        labels = list(zip(outs, [BitVector(n, v).to_str() for v in state.sides]))
    assert labels == [label for label, _, _ in expect]
    assert state.probs[0].tolist() == [p for _, p, _ in expect]
    assert state.rhos[0].tobytes() == np.array([rho for _, _, rho in expect]).tobytes()


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
        return [superdense if exposed == "Y" else lambda xs, ys, at: superdense(ys, xs, at)]
    return [adversaries.random_storage(1, 1, "product", [seed]),
            adversaries.random_storage(1, 1, "entangled", [seed]),
            adversaries.classical_block_storage([0], [n - 1], 1, 1)]


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_matches_string_label_oracle(notion):
    exposed = NOTIONS[notion][0]
    for n in (1, 2, 3):
        sources = [(FlatSource.uniform(n), FlatSource.uniform(n)),
                   (random_flat_source(n, n - 1, 7, 1), random_flat_source(n, 1, 7, 2))]
        for state_map in _state_maps(notion, n, seed=5 + n):
            for xs, ys in sources:
                state = qsim.extractor_output_state([xs], [ys], state_map, exposed)
                expect = _string_label_oracle(ip_extract, xs, ys, state_map, exposed)
                _assert_matches_oracle(state, expect, n, exposed)
                assert abs(qsim.cq_distance_from_uniform(state, 1)[0]
                           - _global_distance_oracle(_alone(state), 1)) <= 1e-10


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_matches_string_label_oracle_at_64_bits(notion):
    # k1 = k2 = 2 sources whose values need all 64 bits, where int64 labels
    # would overflow and bit 63 would flip the order
    exposed = NOTIONS[notion][0]
    xs = FlatSource.from_values(64, [1, 1 << 63, 3 << 62, (1 << 64) - 1])
    ys = FlatSource.from_values(64, [2, 1 << 63, 5 << 60, (1 << 64) - 2])
    for state_map in _state_maps(notion, 64, seed=11):
        state = qsim.extractor_output_state([xs], [ys], state_map, exposed)
        expect = _string_label_oracle(ip_extract, xs, ys, state_map, exposed)
        _assert_matches_oracle(state, expect, 64, exposed)
        assert abs(qsim.cq_distance_from_uniform(state, 1)[0]
                   - _global_distance_oracle(_alone(state), 1)) <= 1e-10


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_is_the_same_in_any_chunking(notion, monkeypatch):
    # chunks of 1 and 3 pairs against the default, where all 32 pairs fit one
    exposed = NOTIONS[notion][0]
    xs, ys = FlatSource.uniform(3), random_flat_source(3, 2, 7, 2)
    for state_map in _state_maps(notion, 3, seed=9):
        whole = qsim.extractor_output_state([xs], [ys], state_map, exposed)
        for pairs in (1, 3):
            monkeypatch.setattr(qsim, "STACK_BYTES", 8 * pairs * whole.rhos[0, 0].nbytes)
            chunked = qsim.extractor_output_state([xs], [ys], state_map, exposed)
            monkeypatch.undo()
            for field in ("labels", "sides", "probs", "rhos"):
                a, b = getattr(whole, field), getattr(chunked, field)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), field


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
        s = qsim.random_cq_state(m, d, 2468, [t])
        direct = _global_distance_oracle(_alone(s), m)
        assert abs(qsim.cq_distance_from_uniform(s, m)[0] - direct) <= 1e-10


def test_cq_distance_matches_per_entry_loop():
    # the block sums in entry order, side groups in order of first appearance
    storage = adversaries.random_storage(1, 1, "product", [29])
    xs, ys = random_flat_source(3, 2, 3, 1), random_flat_source(3, 2, 3, 2)
    for exposed in (None, "X", "Y"):
        for m in (1, 2, 3):
            s = _oracle_state(lambda x, y, m=m: multibit_extract(x, y, m),
                              xs, ys, storage, exposed, m)
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
    storage = adversaries.random_storage(1, 1, "entangled", [13])
    for exposed in (None, "X", "Y"):
        s = qsim.extractor_output_state([x], [y], storage, exposed)
        direct = _global_distance_oracle(_alone(s), 1)
        assert abs(qsim.cq_distance_from_uniform(s, 1)[0] - direct) <= 1e-10


def test_boolean_reduce_constant():
    s = _alone(qsim.random_cq_state(2, 1, 77, [0]))
    reduced = qsim.boolean_reduce(s, np.ones(4, dtype=int))
    assert abs(qsim.cq_distance_from_uniform(reduced, 1) - 0.5) <= 1e-12


def test_boolean_reduce_merge_identity():
    for t in range(25):
        m, d = 2, 2
        s = _alone(qsim.random_cq_state(m, d, 1000 + t, [0]))
        f = qsim.random_boolean_fn(m, 1000 + t, [0])[0]
        reduced = qsim.boolean_reduce(s, f)
        dim = s.dim
        rho = {0: np.zeros((dim, dim), complex), 1: np.zeros((dim, dim), complex)}
        for z, p, r in zip(s.labels, s.probs, s.rhos):
            rho[f[z]] += p * r
        lhs = 2 * qsim.cq_distance_from_uniform(reduced, 1)
        assert abs(lhs - qsim.l1_norm(rho[0] - rho[1])) <= 1e-9


def test_boolean_reduce_preserves_probability_and_average():
    for t in range(20):
        s = _alone(qsim.random_cq_state(2, 2, 888, [t]))
        f = qsim.random_boolean_fn(2, 888, [t])[0]
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
    stack = qsim.random_cq_state(m, qubits, 4242, [stream])
    f = np.array(data.draw(st.lists(st.integers(0, 1), min_size=1 << m,
                                    max_size=1 << m)))
    reduced = qsim.boolean_reduce(stack, f)
    expect = {b: (p, rho) for b, p, rho in _reduce_loop(_alone(stack), f)}
    # both bits, a bit the table misses at probability 0
    assert reduced.labels.tolist() == [0, 1]
    assert reduced.probs[0].tolist() == [expect.get(b, (0.0,))[0] for b in (0, 1)]
    for b, (_, rho) in expect.items():
        assert reduced.rhos[0, b].tobytes() == rho.tobytes()
    char_sum = 0.0
    for mask in range(1, 1 << m):
        table = [_parity_loop(z, mask, m) for z in range(1 << m)]
        assert qsim.character(np.arange(1 << m), mask).tolist() == table
        merged = qsim.boolean_reduce(stack, np.array(table))
        char_sum += qsim.cq_distance_from_uniform(merged, 1).tolist()[0] ** 2
    assert qsim.xor_lemma_check(stack).character_sum.tolist() == [char_sum]


def _character_sum_loop(s):
    """The xor lemma's character sum mask by mask, through boolean_reduce
    and cq_distance_from_uniform."""
    every_label = np.arange(1 << s.width)
    char_sum = 0.0
    for mask in range(1, 1 << s.width):
        reduced = qsim.boolean_reduce(s, qsim.character(every_label, mask))
        char_sum += qsim.cq_distance_from_uniform(reduced, 1) ** 2
    return char_sum


def _with_labels(s, keep):
    """s restricted to the labels in keep, renormalized."""
    keep = np.asarray(sorted(keep))
    probs = s.probs[keep]
    return qsim.CqState(s.labels[keep], probs / np.add.accumulate(probs)[-1],
                        s.rhos[keep], s.width)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 4), qubits=st.integers(0, 3),
       stream=st.integers(0, 2 ** 16), data=st.data())
def test_batched_characters_match_the_per_mask_loop(m, qubits, stream, data):
    # labels left out make characters one-sided: every label of a character
    # on one side, the other side absent from the reduced state
    s = _alone(qsim.random_cq_state(m, qubits, 2718, [stream]))
    keep = data.draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1))
    if len(keep) < 1 << m:
        s = _with_labels(s, keep)
    res = qsim.xor_lemma_check(s)
    char_sum = _character_sum_loop(s)
    lhs = qsim.cq_distance_from_uniform(s, m)
    assert res.character_sum == char_sum
    assert res.lhs_squared == lhs * lhs
    assert res.rhs_bound == (1 << min(qubits, m)) * char_sum


def test_one_sided_characters():
    # one label: every character is one-sided, its reduced state one entry of
    # probability 1 at distance 1/2 (half the block plus half the missing side)
    s = _alone(qsim.random_cq_state(3, 2, 8, [1]))
    single = _with_labels(s, [5])
    char_sum = qsim.xor_lemma_check(single).character_sum
    assert char_sum == _character_sum_loop(single) == pytest.approx(7 * 0.25, abs=1e-12)
    # labels 0 and 3 of two bits: mask 3 sees parity 0 on both, masks 1 and 2 both sides
    pair = _with_labels(_alone(qsim.random_cq_state(2, 1, 8, [2])), [0, 3])
    assert qsim.xor_lemma_check(pair).character_sum == _character_sum_loop(pair)


def test_xor_lemma_checks_each_character_probability_sum():
    # the check boolean_reduce's CqState makes, on a state built around __post_init__
    s = _alone(qsim.random_cq_state(2, 1, 4, [0]))
    broken = object.__new__(qsim.CqState)
    for name, value in (("labels", s.labels), ("probs", 0.9 * s.probs), ("rhos", s.rhos),
                        ("width", 2), ("sides", None)):
        object.__setattr__(broken, name, value)
    with pytest.raises(ValidationError, match="probabilities sum to 0.8999"):
        qsim.xor_lemma_check(broken)


def test_random_cq_state_is_the_per_label_density_draw():
    for m, qubits in itertools.product(range(1, 4), range(4)):
        s = _alone(qsim.random_cq_state(m, qubits, 61, [4 * m + qubits]))
        rng = derive_rng(61, 0xC05, 4 * m + qubits)
        probs = rng.dirichlet(np.ones(1 << m))
        rhos = [qsim.random_density(1 << qubits, rng) for _ in range(1 << m)]
        assert s.probs.tobytes() == probs.tobytes()
        assert s.rhos.tobytes() == np.array(rhos).tobytes()


def test_pgm_reduction_matches_per_entry_loop():
    for t in range(30):
        m = 1 + t % 3
        s = _alone(qsim.random_cq_state(m, t % 3, 808, [t]))
        f = qsim.random_boolean_fn(m, 808, [t])[0]
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
    s = _alone(qsim.random_cq_state(8, 1, 31, [0]))
    f = qsim.random_boolean_fn(8, 31, [0])[0]
    tracemalloc.start()
    try:
        qsim.pgm_reduction_check(s, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_xor_lemma_single_bit_case():
    s = _alone(qsim.random_cq_state(1, 2, 5, [0]))
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
        s = _alone(qsim.random_cq_state(m, d, 123, [t]))
        res = qsim.xor_lemma_check(s)
        assert res.lhs_squared <= res.rhs_bound + 1e-8


def test_xor_lemma_character_sum_matches_direct_fourier():
    # each character term equals half the 1-norm of sum_z chi_S(z) p(z) rho_z,
    # computed here without going through the merge-and-distance path
    for t in range(20):
        m = 1 + t % 3
        s = _alone(qsim.random_cq_state(m, 2, 1357, [t]))
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
        s = _alone(qsim.random_cq_state(m, d, 321, [t]))
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
        s = _alone(qsim.random_cq_state(1 + t % 3, t % 3, 99, [t]))
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
    s = _alone(qsim.random_cq_state(2, 1, 55, [0]))
    res = qsim.pgm_reduction_check(s, np.zeros(4, dtype=int))
    assert abs(res.lhs - 0.5) <= 1e-9
    assert abs(res.classical_distance - 0.5) <= 1e-9
    assert abs(res.bound - 0.5) <= 1e-9


def test_pgm_reduction_random_states():
    for t in range(50):
        m = 1 + t % 3
        s = _alone(qsim.random_cq_state(m, t % 4, 500, [t]))
        f = qsim.random_boolean_fn(m, 500, [t])[0]
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # inf - inf
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tolerance_checks_reject_non_finite_values(bad):
    # nan > tol is False: each check fails unless its value is within tolerance
    poisoned = np.array([[bad, 0], [0, 0]], dtype=complex)
    state = qsim.CqState([0, 1], [0.5, 0.5], [poisoned, KET1], 1)   # checked where used
    for run in (lambda: qsim.hermitian_eigenvalues(poisoned + KET1),
                lambda: qsim.l1_norm(poisoned + KET1),
                lambda: qsim.helstrom_advantage(0.5, poisoned, 0.5, KET1),
                lambda: qsim.CqState([0, 1], [bad, 0.5], [KET0, KET1], 1),
                lambda: qsim.CqState([0, 1], [0.5, -bad], [KET0, KET1], 1),
                lambda: qsim.cq_distance_from_uniform(state, 1),
                lambda: qsim.pgm(state),
                lambda: qsim.Povm([poisoned, np.eye(2)]),
                lambda: qsim.Povm([poisoned, np.eye(2) - poisoned]),
                lambda: qsim.trace_norm_weighted_l2_bound(poisoned, np.eye(2) / 2),
                lambda: qsim.trace_norm_weighted_l2_bound(KET0, poisoned + KET1)):
        with pytest.raises(ValidationError):
            run()
    with pytest.raises(ParameterError, match="priors must sum to 1"):
        qsim.helstrom_advantage(bad, KET0, 0.5, KET1)


# --------------------------------------------------------------------------
# stacks of states against the per-state checks they replaced


def _distance_oracle(s, m):
    """cq_distance_from_uniform of one state with simple labels, as it was
    computed one state at a time."""
    group = np.zeros(len(s.labels), dtype=np.intp)
    weighted = s.weighted()
    margs = np.zeros((1, s.dim, s.dim), dtype=complex)
    np.add.at(margs, group, weighted)
    scale = 1.0 / (1 << m)
    total = 0.0
    for norm in qsim.l1_norm(weighted - scale * margs[group]):
        total += norm
    total += ((1 << m) - len(s.labels)) * scale * np.real(np.trace(margs[0]))
    return 0.5 * float(total)


def _reduce_oracle(s, f):
    return qsim.CqState(*zip(*_reduce_loop(s, f)), 1)


def _xor_oracle(s):
    """xor_lemma_check one state at a time: a character at a time."""
    m, d = s.width, s.dim.bit_length() - 1
    lhs = _distance_oracle(s, m)
    char_sum = 0.0
    for mask in range(1, 1 << m):
        table = qsim.character(np.arange(1 << m), mask)
        char_sum += _distance_oracle(_reduce_oracle(s, table), 1) ** 2
    return qsim.XorLemmaResult(lhs * lhs, (1 << min(d, m)) * char_sum, (1 << d) * char_sum,
                               (1 << m) * char_sum, char_sum)


def _pgm_reduction_oracle(s, f):
    """pgm_reduction_check one state at a time."""
    vals, vecs = np.linalg.eigh(sum(s.weighted()))
    inv = np.where(vals > qsim.PINV_CUTOFF,
                   1.0 / np.sqrt(np.maximum(vals, qsim.PINV_CUTOFF)), 0.0)
    r = (vecs * inv) @ vecs.conj().T
    kernel = (vecs * (vals <= qsim.PINV_CUTOFF).astype(float)) @ vecs.conj().T
    el = s.probs[:, None, None] * (r @ s.rhos @ r) + kernel / len(s.probs)
    elements = 0.5 * (el + el.conj().swapaxes(1, 2))
    q = np.array([p * np.real(np.trace(elements @ rho, axis1=1, axis2=2))
                  for p, rho in zip(s.probs, s.rhos)])
    joint = np.zeros((2, len(elements)))
    np.add.at(joint, f[s.labels], q)
    marg = np.add.accumulate(q, axis=0)[-1]
    classical = 0.5 * float(np.add.accumulate(np.abs(joint - 0.5 * marg).T.ravel())[-1])
    return qsim.PgmReductionResult(_distance_oracle(_reduce_oracle(s, f), 1), classical,
                                   math.sqrt(0.5 * classical))


STACK_SHAPES = list(itertools.product(range(1, 5), range(5)))   # max_m = max_d = 4


def _cq_state_oracle(m, d, seed, stream):
    """random_cq_state's arrays drawn alone, from a fresh derive_rng."""
    rng = derive_rng(seed, 0xC05, stream)
    probs = rng.dirichlet(np.ones(1 << m))
    g = rng.normal(size=(1 << m, 2, 1 << d, 1 << d))
    g = g[:, 0] + 1j * g[:, 1]
    rhos = g @ g.conj().swapaxes(-1, -2)
    return probs, rhos / np.real(np.trace(rhos, axis1=1, axis2=2))[:, None, None]


@pytest.mark.parametrize("m, d", STACK_SHAPES)
def test_stacked_draws_equal_the_per_stream_draws(m, d):
    # streams out of order, repeated and past 64 bits, against each drawn alone
    streams = [3, 0, 0x10000 + 7, 3, (1 << 64) + 5, 1]
    stack = qsim.random_cq_state(m, d, 2024, streams)
    tables = qsim.random_boolean_fn(m, 2024, streams)
    assert stack.probs.shape == (len(streams), 1 << m)
    assert stack.rhos.shape == (len(streams), 1 << m, 1 << d, 1 << d)
    assert tables.shape == (len(streams), 1 << m) and tables.dtype == np.int64
    for t, stream in enumerate(streams):
        alone = qsim.random_cq_state(m, d, 2024, [stream])
        probs, rhos = _cq_state_oracle(m, d, 2024, stream)
        assert (stack.probs[t] == alone.probs[0]).all() and (alone.probs[0] == probs).all()
        assert (stack.rhos[t] == alone.rhos[0]).all() and (alone.rhos[0] == rhos).all()
        table = qsim.random_boolean_fn(m, 2024, [stream])[0]
        assert (tables[t] == table).all()
        assert (table == derive_rng(2024, 0xB001, stream).integers(0, 2, size=1 << m)).all()


@pytest.mark.parametrize("per_stack", [None, 2])
@pytest.mark.parametrize("m, d", STACK_SHAPES)
def test_stacked_checks_match_the_per_state_oracles(monkeypatch, m, d, per_stack):
    # five states per shape, drawn in stacks of an eighth of STACK_BYTES of
    # states; two per stack puts the boundaries inside the shape
    states = [_alone(qsim.random_cq_state(m, d, 2024, [t])) for t in range(5)]
    tables = [qsim.random_boolean_fn(m, 2024, [t])[0] for t in range(5)]
    if per_stack:
        monkeypatch.setattr(qsim, "STACK_BYTES", 8 * per_stack * states[0].rhos.nbytes)
    sizes, got = [], {"xor": [], "pgm": [], "merged": []}
    for part in qsim.stack_chunks(5, 8 * states[0].rhos.nbytes):
        stack = qsim.random_cq_state(m, d, 2024, range(5)[part])
        f = qsim.random_boolean_fn(m, 2024, range(5)[part])
        sizes.append(len(stack.probs))
        for name, res in (("xor", qsim.xor_lemma_check(stack)),
                          ("pgm", qsim.pgm_reduction_check(stack, f))):
            got[name] += zip(*(getattr(res, k).tolist() for k in res.__dataclass_fields__))
        got["merged"] += qsim.cq_distance_from_uniform(qsim.boolean_reduce(stack, f), 1).tolist()
    assert sum(sizes) == 5 and (sizes == [2, 2, 1] or not per_stack)
    for t, (s, f) in enumerate(zip(states, tables)):
        xor = _xor_oracle(s)
        assert got["xor"][t] == tuple(getattr(xor, k) for k in xor.__dataclass_fields__), t
        pgm = _pgm_reduction_oracle(s, f)
        assert got["pgm"][t] == tuple(getattr(pgm, k) for k in pgm.__dataclass_fields__), t
        assert got["merged"][t] == _distance_oracle(_reduce_oracle(s, f), 1), t
        # a state without a stack axis gets the same numbers
        assert qsim.xor_lemma_check(s) == xor
        assert qsim.pgm_reduction_check(s, f) == pgm


def test_merged_stack_keeps_a_bit_its_table_misses():
    # a constant table puts every label on one bit: the merged state holds the
    # other at probability 0, in a stack as for one state, and measures the
    # distance of the state without it
    s = _alone(qsim.random_cq_state(2, 1, 3, [1]))
    for table in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]):
        single = qsim.boolean_reduce(s, np.array(table))
        stack = qsim.CqState(s.labels, [s.probs, s.probs], [s.rhos, s.rhos], s.width)
        merged = qsim.boolean_reduce(stack, np.array([table, [0, 1, 0, 1]]))
        assert merged.labels.tolist() == single.labels.tolist() == [0, 1]
        assert merged.probs.shape == (2, 2) and single.probs.shape == (2,)
        oracle = _reduce_oracle(s, np.array(table))
        for b in (0, 1):
            assert (merged.probs[0, b] == 0) == (single.probs[b] == 0) \
                == (b not in oracle.labels.tolist())
        assert qsim.cq_distance_from_uniform(merged, 1)[0] \
            == qsim.cq_distance_from_uniform(single, 1) == _distance_oracle(oracle, 1)


def test_character_sums_square_with_pow():
    # verify xor at seed 1, trial 849 (m = 1, d = 3): the one character's
    # distance x has x ** 2 (libm pow) one ulp above the rounded x * x, and
    # the reports sum pow's squares
    s = qsim.random_cq_state(1, 3, 1, [849])
    x = qsim.cq_distance_from_uniform(qsim.boolean_reduce(s, np.array([0, 1])), 1).tolist()[0]
    assert x == 0.2828725197186212 and x ** 2 != x * x
    assert qsim.xor_lemma_check(s).character_sum.tolist() == [x ** 2]
    stack = qsim.random_cq_state(1, 3, 1, [846, 849])
    assert qsim.xor_lemma_check(stack).character_sum[1] == x ** 2


def _unchecked_state(**fields):
    """A CqState built around __post_init__."""
    state = object.__new__(qsim.CqState)
    for name, value in dict(sides=None, **fields).items():
        object.__setattr__(state, name, value)
    return state


def test_stacks_raise_what_one_state_raises(monkeypatch):
    good = _alone(qsim.random_cq_state(2, 1, 4, [0]))
    broken = _unchecked_state(labels=good.labels, probs=0.9 * good.probs,
                              rhos=good.rhos, width=2)
    with pytest.raises(ValidationError) as alone:
        qsim.CqState(broken.labels, broken.probs, broken.rhos, 2)
    with pytest.raises(ValidationError) as stacked:
        qsim.CqState(good.labels, [good.probs, broken.probs, good.probs],
                     [good.rhos, broken.rhos, good.rhos], 2)
    assert str(stacked.value) == str(alone.value)
    # the characters' merge checks each sum, in a stack as for one state
    with pytest.raises(ValidationError) as alone:
        qsim.xor_lemma_check(broken)
    stack = _unchecked_state(labels=good.labels, probs=np.array([good.probs, broken.probs]),
                             rhos=np.array([good.rhos, broken.rhos]), width=2)
    with pytest.raises(ValidationError) as stacked:
        qsim.xor_lemma_check(stack)
    assert str(stacked.value) == str(alone.value)
    assert "probabilities sum to 0.8999" in str(alone.value)
    # each state's POVM is checked: at PSD_ATOL = -1 no element passes
    f = qsim.random_boolean_fn(2, 4, [0])[0]
    stack, fs = qsim.random_cq_state(2, 1, 4, [0, 0]), qsim.random_boolean_fn(2, 4, [0, 0])
    monkeypatch.setattr(qsim, "PSD_ATOL", -1.0)
    for args in ((good, f), (stack, fs)):
        with pytest.raises(ValidationError, match="POVM element not PSD"):
            qsim.pgm_reduction_check(*args)


def test_stacked_guessing_probability_and_min_entropy_are_per_state():
    states = [_alone(qsim.random_cq_state(2, 1, 9, [t])) for t in range(3)]
    stack = qsim.random_cq_state(2, 1, 9, range(3))
    assert qsim.guess_success(stack, qsim.pgm(stack)).tolist() \
        == [qsim.guess_success(s, qsim.pgm(s)) for s in states]
    assert stack.min_entropy().tolist() == [s.min_entropy() for s in states]


def test_stacks_need_shared_labels_and_width():
    # a stack holds one label array, side array and width: a state over other
    # labels, more labels or wider ones does not fit it
    a = _alone(qsim.random_cq_state(2, 1, 6, [0]))
    wider = _alone(qsim.random_cq_state(3, 1, 6, [0]))
    part = _with_labels(_alone(qsim.random_cq_state(2, 1, 6, [1])), [0, 1, 3])
    with pytest.raises(ValidationError, match="states differ in dimension"):
        qsim.CqState(a.labels, [a.probs, wider.probs], [a.rhos, wider.rhos], 2)
    with pytest.raises(ValidationError, match="differ in length"):
        qsim.CqState(a.labels, [part.probs, part.probs], [part.rhos, part.rhos], 2)
    with pytest.raises(ValidationError, match="label out of range for 2 bits"):
        qsim.CqState(wider.labels, [wider.probs, wider.probs], [wider.rhos, wider.rhos], 2)
    sided = qsim.CqState([0, 0], [[0.5, 0.5], [1.0, 0.0]], [[KET0, KET1], [KET0, KET1]], 1,
                         sides=[0, 1])
    assert sided.sides.tolist() == [0, 1] and sided.probs.shape == (2, 2)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), qubits=st.integers(0, 2), count=st.integers(1, 4),
       stream=st.integers(0, 2 ** 16), data=st.data())
def test_stacked_sided_distances_match_the_global_oracle(m, qubits, count, stream, data):
    # entries in up to four side groups, each state of the stack holding some
    # of them at probability 0
    entries = data.draw(st.lists(st.tuples(st.integers(0, (1 << m) - 1), st.integers(0, 3)),
                                 min_size=1, max_size=12, unique=True))
    held = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=len(entries),
                                                max_size=len(entries)),
                                       min_size=count, max_size=count)))
    held[np.arange(count), np.arange(count) % len(entries)] = True
    rng = derive_rng(stream, 0)
    probs = np.where(held, rng.dirichlet(np.ones(len(entries)), size=count), 0.0)
    probs /= np.add.accumulate(probs, axis=-1)[:, -1:]
    rhos = [[qsim.random_density(1 << qubits, rng) for _ in entries] for _ in range(count)]
    stack = qsim.CqState([z for z, _ in entries], probs, rhos, m, [v for _, v in entries])
    got = qsim.cq_distance_from_uniform(stack, m)
    assert got.shape == (count,)
    for t in range(count):
        assert abs(got[t] - _global_distance_oracle(_alone(stack, t), m)) <= 1e-10
