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
from qx2src.harness import MAX_CQ_M
from qx2src.rng import derive_rng
from test_harness import FROZEN_UNDER, _environment

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


# --------------------------------------------------------------------------
# eigensolver and trace distance


def test_eigenvalues_examples():
    assert np.allclose(qsim.hermitian_eigenvalues(np.diag([1.0, -2.0])), [1, -2])
    assert np.allclose(qsim.hermitian_eigenvalues(qsim.PAULIS[(1, 0)]), [1, -1])
    assert np.allclose(qsim.hermitian_eigenvalues(np.array([[2.5]])), [2.5])


def test_eigenvalues_are_eigvalsh_reversed_bit_for_bit():
    # eigvalsh returns ascending values, so reversing them is the whole
    # ordering: stacks of rank-deficient states, whose zero eigenvalues
    # repeat, and of zero matrices and projectors
    rng = derive_rng(22, 0)
    for dim, rank in [(2, 0), (2, 1), (4, 1), (4, 2), (8, 3)]:
        g = rng.normal(size=(6, dim, rank)) + 1j * rng.normal(size=(6, dim, rank))
        projectors = [np.kron(np.eye(dim // 2), p) for p in (KET0, KET1, PLUS)]
        stack = np.concatenate([g @ g.conj().swapaxes(-1, -2), np.zeros((1, dim, dim)),
                                projectors])
        got = qsim.hermitian_eigenvalues(stack)
        assert got.tobytes() == np.linalg.eigvalsh(stack)[..., ::-1].tobytes()
        assert (np.diff(got, axis=-1) <= 0).all()


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
        a = qsim.random_density(rng.normal(size=(2, dim, dim)))
        b = qsim.random_density(rng.normal(size=(2, dim, dim)))
        c = qsim.random_density(rng.normal(size=(2, dim, dim)))
        assert (_trace_distance(a, c)
                <= _trace_distance(a, b) + _trace_distance(b, c) + 1e-9)


def test_partial_trace_and_tensor():
    rng = derive_rng(23, 0)
    a = qsim.random_density(rng.normal(size=(2, 2, 2)))
    b = qsim.random_density(rng.normal(size=(2, 4, 4)))
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


def _uniform(n):
    """The flat source of every n-bit value."""
    return FlatSource.from_values(n, range(1 << n))


def _bits(v):
    """The bit string of a vector, coordinate 0 first."""
    return format(v.value, f"0{v.length}b")[::-1]


def _alone(stack, t=0):
    """State t of a stack as a CqState of its own."""
    return qsim.CqState(stack.probs[t], stack.rhos[t])


def test_output_state_constant_extractor():
    # x = 0 on the whole support, so the inner product is constant
    x = FlatSource.from_values(2, [0])
    y = _uniform(2)
    storage = _trivial_storage()
    state = qsim.extractor_output_state([x], [y], storage)
    assert state.probs.tolist() == [[1.0, 0.0]]
    assert abs(qsim.cq_distance_from_uniform(state)[0] - 0.5) <= 1e-12


def test_output_state_ip_uniform_n2():
    x = _uniform(2)
    y = _uniform(2)
    state = qsim.extractor_output_state([x], [y], _trivial_storage())
    p0, p1 = state.probs[0]
    assert abs(p0 - 5 / 8) <= 1e-12
    assert abs(p1 - 3 / 8) <= 1e-12
    assert abs(qsim.cq_distance_from_uniform(state)[0] - 0.125) <= 1e-12


def test_output_state_perfect_classical_encoding():
    x = _uniform(2)
    y = _uniform(2)
    storage = _classical_joint_storage(ip_extract, 2, 1)
    state = qsim.extractor_output_state([x], [y], storage)
    rho0, rho1 = state.rhos[0]
    assert abs(np.trace(rho0 @ rho1)) <= 1e-12  # orthogonal supports
    assert abs(qsim.cq_distance_from_uniform(state)[0] - 0.5) <= 1e-12


def test_strategy_checks_its_budget_dimension():
    xs, ys, at = np.array([0, 1]), np.array([1, 1]), np.zeros(2, dtype=np.int64)
    half = adversaries.StorageStrategy(1, 1, lambda xs, ys, at: np.array([np.eye(2) / 2] * len(xs)))
    with pytest.raises(DimensionError, match="budget dim 4"):
        half(xs, ys, at)
    one_short = adversaries.StorageStrategy(0, 0, lambda xs, ys, at: np.ones((len(xs) - 1, 1, 1)))
    with pytest.raises(DimensionError, match="for 2 pairs"):
        one_short(xs, ys, at)
    with pytest.raises(DimensionError):
        qsim.extractor_output_state([_uniform(1)], [_uniform(1)], half)
    with pytest.raises(ParameterError, match="nonnegative"):
        adversaries.StorageStrategy(-1, 0, lambda xs, ys, at: np.ones((len(xs), 1, 1)))


def test_output_state_stacks_need_paired_sources():
    one, two = _uniform(1), _uniform(2)
    for xs, ys in (([one, one], [one]), ([one, two], [one, one]), ([], [])):
        with pytest.raises(ParameterError, match="pair up"):
            qsim.extractor_output_state(xs, ys, _trivial_storage())


def _string_label_oracle(extractor, xs, ys, state_map, exposed):
    """The state as a dict of string labels, built entry by entry.

    Labels are coordinate-0-first bit strings, (output, side) tuples when
    a source is exposed, sorted as strings; each matrix is the running
    sum of its pairs' stored states, renormalized once at the end.
    """
    p_pair = xs.probability() * ys.probability()
    acc = {}
    for xv in (BitVector(xs.n, v) for v in xs.support.tolist()):
        for yv in (BitVector(ys.n, v) for v in ys.support.tolist()):
            out = extractor(xv, yv)
            out = BitVector(1, out) if isinstance(out, int) else out
            side = {"X": xv, "Y": yv}.get(exposed)
            label = _bits(out) if exposed is None else (_bits(out), _bits(side))
            rho = _stored(state_map, xv, yv)
            if label in acc:
                acc[label][0] += p_pair
                acc[label][1] += rho
            else:
                acc[label] = [p_pair, rho.astype(complex, copy=True)]
    return [(label, p, total * p_pair / p) for label, (p, total) in sorted(acc.items())]


def _oracle_state(extractor, xs, ys, state_map, width):
    """The string-label oracle's entries as a CqState of width-bit outputs,
    an output no pair has at probability 0."""
    held = {int(label[::-1], 2): (p, rho)
            for label, p, rho in _string_label_oracle(extractor, xs, ys, state_map, None)}
    absent = (0.0, np.zeros_like(next(iter(held.values()))[1]))
    return qsim.CqState(*zip(*(held.get(out, absent) for out in range(1 << width))))


# the security notions: the side exposed with the output, and whether the
# state map keeps that side's whole state.  A cq-state holds the output
# alone; with a side exposed, the state is measured as one instance per
# value of that side, each under the weak notion.
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


def _assert_matches_oracle(conditioned_state, xs, ys, state_map, exposed):
    """One stacked call over the instances of (xs, ys) with exposed: each
    instance holds the oracle's entries for that instance, an output it
    lacks at probability 0 and zero state, and their mean distance is the
    exposed state's, from the oracle's entries by one eigendecomposition."""
    x_list, y_list, state = conditioned_state(xs, ys, state_map, exposed)
    assert state.probs.shape == (len(x_list), 2)
    for t, (x, y) in enumerate(zip(x_list, y_list)):
        held = {int(out): (p, rho)
                for out, p, rho in _string_label_oracle(ip_extract, x, y, state_map, None)}
        assert state.probs[t].tolist() == [held.get(out, (0.0,))[0] for out in (0, 1)]
        for out in (0, 1):
            if out in held:
                assert state.rhos[t, out].tobytes() == held[out][1].tobytes()
            else:
                assert not state.rhos[t, out].any()
    whole = _string_label_oracle(ip_extract, xs, ys, state_map, exposed)
    assert abs(np.mean(qsim.cq_distance_from_uniform(state))
               - _global_distance_oracle(whole, 1)) <= 1e-10


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_matches_string_label_oracle(notion, conditioned_state):
    exposed = NOTIONS[notion][0]
    for n in (1, 2, 3):
        sources = [(_uniform(n), _uniform(n)),
                   (random_flat_source(n, n - 1, 7, 1), random_flat_source(n, 1, 7, 2))]
        for state_map in _state_maps(notion, n, seed=5 + n):
            for xs, ys in sources:
                _assert_matches_oracle(conditioned_state, xs, ys, state_map, exposed)


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_matches_string_label_oracle_at_64_bits(notion, conditioned_state):
    # k1 = k2 = 2 sources whose values need all 64 bits, which overflow int64
    exposed = NOTIONS[notion][0]
    xs = FlatSource.from_values(64, [1, 1 << 63, 3 << 62, (1 << 64) - 1])
    ys = FlatSource.from_values(64, [2, 1 << 63, 5 << 60, (1 << 64) - 2])
    for state_map in _state_maps(notion, 64, seed=11):
        _assert_matches_oracle(conditioned_state, xs, ys, state_map, exposed)


@pytest.mark.parametrize("notion", NOTIONS)
def test_output_state_is_the_same_in_any_chunking(notion, monkeypatch, conditioned_state):
    # chunks of 1 and 3 pairs against the default, where all 32 pairs fit one;
    # with a side exposed, the chunks cross the instances' boundaries
    xs, ys, exposed = _uniform(3), random_flat_source(3, 2, 7, 2), NOTIONS[notion][0]
    for state_map in _state_maps(notion, 3, seed=9):
        whole = conditioned_state(xs, ys, state_map, exposed)[2]
        for pairs in (1, 3):
            monkeypatch.setattr(qsim, "STACK_BYTES", 8 * pairs * whole.rhos[0, 0].nbytes)
            chunked = conditioned_state(xs, ys, state_map, exposed)[2]
            monkeypatch.undo()
            assert whole.probs.tobytes() == chunked.probs.tobytes()
            assert whole.rhos.tobytes() == chunked.rhos.tobytes()


# --------------------------------------------------------------------------
# boolean reduction and the xor lemma


def _global_distance_oracle(entries, label_bits):
    """Distance from uniform via one eigendecomposition of the full operator.

    entries are (label, p, rho), a label an (output, side) tuple when a
    source is exposed.  Builds the literal block-diagonal matrix of
    (output, side) x storage, an output a side's group lacks a block of the
    marginal term alone, and takes half its 1-norm, independently of the
    per-block evaluation.
    """
    groups = {}
    for label, p, rho in entries:
        side = label[1] if isinstance(label, tuple) else None
        groups.setdefault(side, []).append(p * rho)
    count = 1 << label_bits
    blocks = []
    for held in groups.values():
        marg = sum(held)
        blocks += [blk - marg / count for blk in held] + [-marg / count] * (count - len(held))
    dim = len(blocks[0])
    full = np.zeros((dim * len(blocks), dim * len(blocks)), dtype=complex)
    for i, blk in enumerate(blocks):
        full[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = blk
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(full))))


def _held(s):
    """The (output, p, rho) entries of one state that it holds."""
    return [(out, p, rho) for out, (p, rho) in enumerate(s.entries) if p]


def test_cq_distance_matches_global_eigendecomposition():
    for t in range(30):
        m = 1 + t % 3
        d = t % 3
        s = qsim.random_cq_state(m, d, 2468, [t])
        direct = _global_distance_oracle(_held(_alone(s)), m)
        assert abs(qsim.cq_distance_from_uniform(s)[0] - direct) <= 1e-10


def test_cq_distance_matches_per_entry_loop():
    # the block sums in output order; an output no pair has counts the
    # marginal term alone
    storage = adversaries.random_storage(1, 1, "product", [29])
    xs, ys = random_flat_source(3, 2, 3, 1), random_flat_source(3, 2, 3, 2)
    held = []
    for m in (1, 2, 3):
        s = _oracle_state(lambda x, y, m=m: multibit_extract(x, y, m), xs, ys, storage, m)
        blocks = [p * rho for p, rho in zip(s.probs.tolist(), s.rhos) if p]
        held.append(len(blocks))
        marg = sum(blocks)
        total = 0.0
        for blk in blocks:
            total += qsim.l1_norm(blk - marg / (1 << m))
        total += ((1 << m) - len(blocks)) / (1 << m) * float(np.real(np.trace(marg)))
        assert qsim.cq_distance_from_uniform(s) == 0.5 * total
    assert held[-1] < 8          # the 3-bit outputs miss some value


def test_cq_distance_strong_mode_matches_oracle(conditioned_state):
    # a source exposed with the output, as the mean over its values
    x = _uniform(2)
    y = _uniform(2)
    storage = adversaries.random_storage(1, 1, "entangled", [13])
    for exposed in (None, "X", "Y"):
        _assert_matches_oracle(conditioned_state, x, y, storage, exposed)


def test_boolean_reduce_constant():
    s = _alone(qsim.random_cq_state(2, 1, 77, [0]))
    reduced = qsim.boolean_reduce(s, np.ones(4, dtype=int))
    assert abs(qsim.cq_distance_from_uniform(reduced) - 0.5) <= 1e-12


def test_boolean_reduce_merge_identity():
    for t in range(25):
        m, d = 2, 2
        s = _alone(qsim.random_cq_state(m, d, 1000 + t, [0]))
        f = qsim.random_boolean_fn(m, 1000 + t, [0])[0]
        reduced = qsim.boolean_reduce(s, f)
        dim = s.dim
        rho = {0: np.zeros((dim, dim), complex), 1: np.zeros((dim, dim), complex)}
        for z, (p, r) in enumerate(zip(s.probs, s.rhos)):
            rho[f[z]] += p * r
        lhs = 2 * qsim.cq_distance_from_uniform(reduced)
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
    """boolean_reduce entry by entry: per bit, the running sum of p rho over p,
    as (bit, p, rho) for the bits the state holds."""
    parts = {}
    for z, (p, rho) in enumerate(zip(s.probs.tolist(), s.rhos)):
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
    assert reduced.probs.shape == (1, 2)
    assert reduced.probs[0].tolist() == [expect.get(b, (0.0,))[0] for b in (0, 1)]
    for b, (_, rho) in expect.items():
        assert reduced.rhos[0, b].tobytes() == rho.tobytes()
    char_sum = 0.0
    for mask in range(1, 1 << m):
        table = [_parity_loop(z, mask, m) for z in range(1 << m)]
        assert qsim.character(np.arange(1 << m), mask).tolist() == table
        merged = qsim.boolean_reduce(stack, np.array(table))
        char_sum += qsim.cq_distance_from_uniform(merged).tolist()[0] ** 2
    assert qsim.xor_lemma_check(stack).character_sum.tolist() == [char_sum]


def _character_sum_loop(s):
    """The xor lemma's character sum mask by mask, through boolean_reduce
    and cq_distance_from_uniform."""
    every_label = np.arange(1 << s.width)
    char_sum = 0.0
    for mask in range(1, 1 << s.width):
        reduced = qsim.boolean_reduce(s, qsim.character(every_label, mask))
        char_sum += qsim.cq_distance_from_uniform(reduced) ** 2
    return char_sum


def _with_outputs(s, keep):
    """s restricted to the outputs in keep, renormalized, the others at
    probability 0."""
    probs = np.where(np.isin(np.arange(len(s.probs)), list(keep)), s.probs, 0.0)
    return qsim.CqState(probs / np.add.accumulate(probs)[-1], s.rhos)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 4), qubits=st.integers(0, 3),
       stream=st.integers(0, 2 ** 16), data=st.data())
def test_batched_characters_match_the_per_mask_loop(m, qubits, stream, data):
    # outputs left out make characters one-sided: every output of a character
    # on one side, the other side absent from the reduced state
    s = _alone(qsim.random_cq_state(m, qubits, 2718, [stream]))
    keep = data.draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1))
    if len(keep) < 1 << m:
        s = _with_outputs(s, keep)
    res = qsim.xor_lemma_check(s)
    char_sum = _character_sum_loop(s)
    lhs = qsim.cq_distance_from_uniform(s)
    assert res.character_sum == char_sum
    assert res.lhs_squared == lhs * lhs
    assert res.rhs_bound == (1 << min(qubits, m)) * char_sum


def test_one_sided_characters():
    # one output: every character is one-sided, its reduced state one entry of
    # probability 1 at distance 1/2 (half the block plus half the missing side)
    s = _alone(qsim.random_cq_state(3, 2, 8, [1]))
    single = _with_outputs(s, [5])
    char_sum = qsim.xor_lemma_check(single).character_sum
    assert char_sum == _character_sum_loop(single) == pytest.approx(7 * 0.25, abs=1e-12)
    # outputs 0 and 3 of two bits: mask 3 sees parity 0 on both, masks 1 and 2 both sides
    pair = _with_outputs(_alone(qsim.random_cq_state(2, 1, 8, [2])), [0, 3])
    assert qsim.xor_lemma_check(pair).character_sum == _character_sum_loop(pair)


def test_xor_lemma_checks_each_character_probability_sum():
    # the check boolean_reduce's CqState makes, on a state built around __post_init__
    s = _alone(qsim.random_cq_state(2, 1, 4, [0]))
    broken = object.__new__(qsim.CqState)
    for name, value in (("probs", 0.9 * s.probs), ("rhos", s.rhos)):
        object.__setattr__(broken, name, value)
    with pytest.raises(ValidationError, match="probabilities sum to 0.8999"):
        qsim.xor_lemma_check(broken)


def test_random_cq_state_is_the_per_label_density_draw():
    for m, qubits in itertools.product(range(1, MAX_CQ_M + 1), range(4)):
        s = _alone(qsim.random_cq_state(m, qubits, 61, [4 * m + qubits]))
        rng = derive_rng(61, 0xC05, 4 * m + qubits)
        probs = rng.dirichlet(np.ones(1 << m))
        rhos = [_random_density_oracle(1 << qubits, rng) for _ in range(1 << m)]
        assert s.probs.tobytes() == probs.tobytes()
        assert s.rhos.tobytes() == np.array(rhos).tobytes()


def test_pgm_reduction_matches_per_entry_loop():
    for t in range(30):
        m = 1 + t % 3
        s = _alone(qsim.random_cq_state(m, t % 3, 808, [t]))
        f = qsim.random_boolean_fn(m, 808, [t])[0]
        elements = qsim.pgm(s).elements
        joint, marg = {}, {}
        for z, (p, rho) in enumerate(zip(s.probs.tolist(), s.rhos)):
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
    # 256 outputs at d = 2: the (K, K, d, d) product stack alone would be 4 MiB
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
    s = qsim.CqState(probs, np.ones((4, 1, 1)))
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
            for z, (p, rho) in enumerate(zip(s.probs, s.rhos)):
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
    s = qsim.CqState([0.5, 0.5], [KET0, KET1])
    m = qsim.pgm(s)
    assert np.allclose(m.elements[0], KET0)
    assert abs(qsim.guess_success(s, m) - 1.0) <= 1e-12


def test_pgm_identical_states():
    rho = np.eye(2) / 2
    s = qsim.CqState([0.25] * 4, [rho] * 4)
    m = qsim.pgm(s)
    for el in m.elements:
        assert np.allclose(el, np.eye(2) / 4)
    assert abs(qsim.guess_success(s, m) - 0.25) <= 1e-12


def test_pgm_two_pure_states_matches_helstrom():
    s = qsim.CqState([0.5, 0.5], [KET0, PLUS])
    p = qsim.guess_success(s, qsim.pgm(s))
    expected = 0.5 * (1 + 1 / math.sqrt(2))
    assert abs(p - expected) <= 1e-9
    assert abs(qsim.helstrom_advantage(0.5, KET0, 0.5, PLUS) - expected) <= 1e-12


def test_guess_success_uniform_povm():
    s = qsim.CqState([0.5, 0.5], [KET0, KET1])
    m = qsim.Povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
    assert abs(qsim.guess_success(s, m) - 0.5) <= 1e-12


def test_pgm_within_square_of_optimal_binary():
    rng = derive_rng(37, 0)
    for t in range(100):
        dim = 2 if t % 2 else 4
        p0 = float(rng.uniform(0.1, 0.9))
        rho0 = qsim.random_density(rng.normal(size=(2, dim, dim)))
        rho1 = qsim.random_density(rng.normal(size=(2, dim, dim)))
        s = qsim.CqState([p0, 1 - p0], [rho0, rho1])
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
    s = qsim.CqState([1 / 2 ** k] * 2 ** k, [one] * 2 ** k)
    bracket = qsim.guessing_entropy_bounds(s)
    assert abs(bracket.lower - k) <= 1e-9
    assert abs(bracket.upper - k) <= 1e-9


def test_guessing_entropy_orthogonal_states():
    s = qsim.CqState([0.5, 0.5], [KET0, KET1])
    bracket = qsim.guessing_entropy_bounds(s)
    assert abs(bracket.lower) <= 1e-9
    assert abs(bracket.upper) <= 1e-9


def test_guessing_entropy_bracket_contains_optimal_binary():
    rng = derive_rng(41, 0)
    for t in range(100):
        p0 = float(rng.uniform(0.2, 0.8))
        rho0 = qsim.random_density(rng.normal(size=(2, 2, 2)))
        rho1 = qsim.random_density(rng.normal(size=(2, 2, 2)))
        s = qsim.CqState([p0, 1 - p0], [rho0, rho1])
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
    s = qsim.CqState([0.5, 0.5], [KET0, KET1])
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
        sigma = qsim.random_density(rng.normal(size=(2, dim, dim)))
        lhs, rhs = qsim.trace_norm_weighted_l2_bound(s_op, sigma)
        assert lhs <= rhs + 1e-8


def _random_density_oracle(dim, rng):
    """random_density for one matrix, drawn from rng."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _weighted_l2_oracle(s_op, sigma):
    """trace_norm_weighted_l2_bound for one pair: (lhs, rhs)."""
    s_op = np.asarray(s_op, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    lhs = 0.5 * qsim.l1_norm(s_op)
    if not qsim.hermitian_eigenvalues(sigma)[-1] >= -qsim.PSD_ATOL:
        raise ValidationError("sigma is not PSD")
    r, kernel = qsim._pinv_sqrt_and_kernel(sigma)
    if not np.max(np.abs(kernel @ s_op)) <= 1e-8:
        raise ValidationError("support of the operator leaks outside sigma")
    inner = float(np.real(np.trace(r @ s_op @ r @ s_op)))
    rhs = 0.5 * math.sqrt(max(float(np.real(np.trace(sigma))), 0.0) * max(inner, 0.0))
    return lhs, rhs


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_random_density_is_the_per_draw_wishart_matrix(dim):
    stack = qsim.random_density(derive_rng(47, dim).normal(size=(5, 2, dim, dim)))
    rng = derive_rng(47, dim)
    assert stack.tobytes() == np.array([_random_density_oracle(dim, rng)
                                        for _ in range(5)]).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), count=st.integers(1, 4), qubits=st.integers(0, 4),
       rank=st.integers(1, 16))
def test_stacked_weighted_l2_bound_matches_the_per_pair_oracle(seed, count, qubits, rank):
    # sigma of rank min(rank, dim) with the operator inside its support, so
    # some stacks have a kernel
    dim = 1 << qubits
    draws = derive_rng(seed, 0x12).normal(size=(count, 4, dim, dim))
    keep = np.diag(np.arange(dim) < rank).astype(complex)
    g = draws[:, 0] + 1j * draws[:, 1]
    s_op = keep @ ((g + g.conj().swapaxes(-1, -2)) / 2) @ keep
    sigma = keep @ qsim.random_density(draws[:, 2:]) @ keep
    lhs, rhs = qsim.trace_norm_weighted_l2_bound(s_op, sigma)
    assert lhs.shape == rhs.shape == (count,)
    for t in range(count):
        assert (lhs[t], rhs[t]) == _weighted_l2_oracle(s_op[t], sigma[t])


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
        qsim.CqState([0.7, 0.7], [KET0, KET1])
    with pytest.raises(ValidationError, match="differ in dimension"):
        qsim.CqState([0.5, 0.5], [KET0, np.eye(4) / 4])
    with pytest.raises(ValidationError, match="differ in length"):
        qsim.CqState([0.5, 0.5], [KET0])
    # entry k is output k, so the entries are every output of some width
    with pytest.raises(ValidationError, match="3 outputs are not a power of two"):
        qsim.CqState([0.5, 0.25, 0.25], [KET0, KET1, KET0])
    assert qsim.CqState([1.0], [KET0]).width == 0
    assert qsim.CqState([0.125] * 8, [KET0] * 8).width == 3


def test_povm_validation():
    with pytest.raises(ValidationError):
        qsim.Povm(np.array([np.eye(2) * 0.7, np.eye(2) * 0.7]))
    with pytest.raises(ValidationError, match="differ in dimension"):
        qsim.Povm([np.eye(2), np.zeros((4, 4))])


class _Unwalked(np.ndarray):
    """An array that fails when walked item by item."""

    def __iter__(self):
        raise AssertionError("a stack was walked state by state")


def test_array_stacks_are_checked_whole_and_sequences_item_by_item():
    s = qsim.random_cq_state(2, 1, 6, range(3))
    assert qsim.CqState(s.probs, s.rhos.view(_Unwalked)).rhos.tobytes() == s.rhos.tobytes()
    assert qsim.Povm(np.broadcast_to(np.eye(2) / 2, (2, 2, 2)).view(_Unwalked)).elements.shape \
        == (2, 2, 2)
    # a numeric array cannot be ragged, so its shape errors name the stack's shape
    for bad in (np.ones((2, 2, 3)), np.ones((0, 2, 2)), np.ones((2, 2))):
        with pytest.raises(ValidationError, match="states must be a nonempty stack of square"):
            qsim.CqState(np.ones(bad.shape[:-2]), bad.view(_Unwalked))
        with pytest.raises(ValidationError, match="POVM elements must be a nonempty stack"):
            qsim.Povm(bad.view(_Unwalked))
    # a sequence or an object array is walked, and one of mixed shapes says so
    ragged = np.empty(2, dtype=object)
    ragged[0], ragged[1] = KET0, np.eye(4) / 4
    for mats in ([KET0, np.eye(4) / 4], ragged):
        with pytest.raises(ValidationError, match="states differ in dimension"):
            qsim.CqState([0.5, 0.5], mats)
        with pytest.raises(ValidationError, match="POVM elements differ in dimension"):
            qsim.Povm(mats)


def test_guess_success_rejects_broken_povm():
    # 2 I passes no Povm validation, so build it around __post_init__
    s = qsim.CqState([0.5, 0.5], [KET0, KET1])
    broken = object.__new__(qsim.Povm)
    object.__setattr__(broken, "elements", np.array([2 * np.eye(2), 2 * np.eye(2)], dtype=complex))
    with pytest.raises(ParameterError, match="2.0"):
        qsim.guess_success(s, broken)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # inf - inf
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tolerance_checks_reject_non_finite_values(bad):
    # nan > tol is False: each check fails unless its value is within tolerance
    poisoned = np.array([[bad, 0], [0, 0]], dtype=complex)
    state = qsim.CqState([0.5, 0.5], [poisoned, KET1])   # checked where used
    for run in (lambda: qsim.hermitian_eigenvalues(poisoned + KET1),
                lambda: qsim.l1_norm(poisoned + KET1),
                lambda: qsim.helstrom_advantage(0.5, poisoned, 0.5, KET1),
                lambda: qsim.CqState([bad, 0.5], [KET0, KET1]),
                lambda: qsim.CqState([0.5, -bad], [KET0, KET1]),
                lambda: qsim.cq_distance_from_uniform(state),
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


def _distance_oracle(entries, m):
    """cq_distance_from_uniform of one state from the (output, p, rho)
    entries it holds, as it was computed one state at a time."""
    group = np.zeros(len(entries), dtype=np.intp)
    weighted = (np.array([p for _, p, _ in entries], dtype=float)[:, None, None]
                * np.array([rho for _, _, rho in entries], dtype=complex))
    margs = np.zeros((1,) + weighted.shape[1:], dtype=complex)
    np.add.at(margs, group, weighted)
    scale = 1.0 / (1 << m)
    total = 0.0
    for norm in qsim.l1_norm(weighted - scale * margs[group]):
        total += norm
    total += ((1 << m) - len(entries)) * scale * np.real(np.trace(margs[0]))
    return 0.5 * float(total)


def _xor_oracle(s):
    """xor_lemma_check one state at a time: a character at a time."""
    m, d = s.width, s.dim.bit_length() - 1
    lhs = _distance_oracle(_held(s), m)
    char_sum = 0.0
    for mask in range(1, 1 << m):
        table = qsim.character(np.arange(1 << m), mask)
        char_sum += _distance_oracle(_reduce_loop(s, table), 1) ** 2
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
    np.add.at(joint, f, q)
    marg = np.add.accumulate(q, axis=0)[-1]
    classical = 0.5 * float(np.add.accumulate(np.abs(joint - 0.5 * marg).T.ravel())[-1])
    return qsim.PgmReductionResult(_distance_oracle(_reduce_loop(s, f), 1), classical,
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


@pytest.mark.parametrize("m", range(1, MAX_CQ_M + 1))
def test_random_cq_state_probabilities_are_dirichlet_draws_at_every_allowed_size(m):
    # the probabilities are Dirichlet(1) drawn as normalised exponentials;
    # rng.dirichlet stays the oracle, in case numpy changes its algorithm, and
    # the normal draws after it must still line up
    stack = qsim.random_cq_state(m, 1, 2026, range(200))
    for t in range(200):
        probs, rhos = _cq_state_oracle(m, 1, 2026, t)
        assert stack.probs[t].tobytes() == probs.tobytes(), t
        assert stack.rhos[t].tobytes() == rhos.tobytes(), t


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
    for part in qsim.stack_chunks(5, states[0].rhos.nbytes):
        stack = qsim.random_cq_state(m, d, 2024, range(5)[part])
        f = qsim.random_boolean_fn(m, 2024, range(5)[part])
        sizes.append(len(stack.probs))
        for name, res in (("xor", qsim.xor_lemma_check(stack)),
                          ("pgm", qsim.pgm_reduction_check(stack, f))):
            got[name] += zip(*(getattr(res, k).tolist() for k in res.__dataclass_fields__))
        got["merged"] += qsim.cq_distance_from_uniform(qsim.boolean_reduce(stack, f)).tolist()
    assert sum(sizes) == 5 and (sizes == [2, 2, 1] or not per_stack)
    for t, (s, f) in enumerate(zip(states, tables)):
        xor = _xor_oracle(s)
        assert got["xor"][t] == tuple(getattr(xor, k) for k in xor.__dataclass_fields__), t
        pgm = _pgm_reduction_oracle(s, f)
        assert got["pgm"][t] == tuple(getattr(pgm, k) for k in pgm.__dataclass_fields__), t
        assert got["merged"][t] == _distance_oracle(_reduce_loop(s, f), 1), t
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
        stack = qsim.CqState([s.probs, s.probs], [s.rhos, s.rhos])
        merged = qsim.boolean_reduce(stack, np.array([table, [0, 1, 0, 1]]))
        assert merged.probs.shape == (2, 2) and single.probs.shape == (2,)
        oracle = _reduce_loop(s, np.array(table))
        for b in (0, 1):
            assert (merged.probs[0, b] == 0) == (single.probs[b] == 0) \
                == (b not in [bit for bit, _, _ in oracle])
        assert qsim.cq_distance_from_uniform(merged)[0] \
            == qsim.cq_distance_from_uniform(single) == _distance_oracle(oracle, 1)


def test_character_sums_square_with_pow():
    # verify xor at seed 1, trial 849 (m = 1, d = 3): the one character's
    # distance x has x ** 2 (libm pow) one ulp above the rounded x * x, and
    # the reports sum pow's squares
    s = qsim.random_cq_state(1, 3, 1, [849])
    x = qsim.cq_distance_from_uniform(qsim.boolean_reduce(s, np.array([0, 1]))).tolist()[0]
    assert x == 0.2828725197186212 and x ** 2 != x * x, \
        f"frozen under {FROZEN_UNDER}, run under {_environment()}"
    assert qsim.xor_lemma_check(s).character_sum.tolist() == [x ** 2]
    stack = qsim.random_cq_state(1, 3, 1, [846, 849])
    assert qsim.xor_lemma_check(stack).character_sum[1] == x ** 2


def _unchecked_state(**fields):
    """A CqState built around __post_init__."""
    state = object.__new__(qsim.CqState)
    for name, value in fields.items():
        object.__setattr__(state, name, value)
    return state


def test_stacks_raise_what_one_state_raises(monkeypatch):
    good = _alone(qsim.random_cq_state(2, 1, 4, [0]))
    broken = _unchecked_state(probs=0.9 * good.probs, rhos=good.rhos)
    with pytest.raises(ValidationError) as alone:
        qsim.CqState(broken.probs, broken.rhos)
    with pytest.raises(ValidationError) as stacked:
        qsim.CqState([good.probs, broken.probs, good.probs], [good.rhos, broken.rhos, good.rhos])
    assert str(stacked.value) == str(alone.value)
    # the characters' merge checks each sum, in a stack as for one state
    with pytest.raises(ValidationError) as alone:
        qsim.xor_lemma_check(broken)
    stack = _unchecked_state(probs=np.array([good.probs, broken.probs]),
                             rhos=np.array([good.rhos, broken.rhos]))
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


def test_stacked_guessing_entropy_and_helstrom_are_per_state():
    stack = qsim.random_cq_state(2, 1, 9, range(3))
    bracket = qsim.guessing_entropy_bounds(stack)
    for t in range(3):
        alone = qsim.guessing_entropy_bounds(_alone(stack, t))
        for name in qsim.GuessingEntropyBracket.__dataclass_fields__:
            assert getattr(bracket, name)[t] == getattr(alone, name), name
    # stacked priors and states, each pair against its scalar call
    pairs = qsim.random_cq_state(1, 2, 9, range(4))
    p0, p1 = pairs.probs[:, 0], pairs.probs[:, 1]
    rho0, rho1 = pairs.rhos[:, 0], pairs.rhos[:, 1]
    got = qsim.helstrom_advantage(p0, rho0, p1, rho1)
    assert got.shape == (4,)
    assert got.tolist() == [qsim.helstrom_advantage(float(p0[t]), rho0[t], float(p1[t]), rho1[t])
                            for t in range(4)]
    with pytest.raises(ParameterError, match="priors must sum to 1"):
        qsim.helstrom_advantage(p0, rho0, p1 + np.array([0, 0, 1e-6, 0]), rho1)


def test_stack_chunks_hold_an_eighth_of_the_budget():
    # the work on a chunk holds about eight arrays of its size
    assert qsim.stack_chunks(7, qsim.STACK_BYTES // 24) == [slice(0, 3), slice(3, 6),
                                                             slice(6, 9)]
    assert qsim.stack_chunks(2, qsim.STACK_BYTES) == [slice(0, 1), slice(1, 2)]


def test_stacks_need_shared_outputs_and_dimension():
    # a stack holds one output count and one dimension: a state over more
    # outputs, or of another dimension, does not fit it
    a = _alone(qsim.random_cq_state(2, 1, 6, [0]))
    wider = _alone(qsim.random_cq_state(3, 1, 6, [0]))
    larger = _alone(qsim.random_cq_state(2, 2, 6, [0]))
    for other in (wider, larger):
        with pytest.raises(ValidationError, match="states differ in dimension"):
            qsim.CqState([a.probs, other.probs], [a.rhos, other.rhos])
    with pytest.raises(ValidationError, match="differ in length"):
        qsim.CqState([a.probs, a.probs], [wider.rhos, wider.rhos])
