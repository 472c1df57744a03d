"""Exact finite-dimensional quantum numerics.

Density matrices are plain dense complex numpy arrays; every norm is
computed from a full Hermitian eigendecomposition, so all checks are
exact up to double-precision roundoff.  Throughout, "trace distance"
denotes half the sum of absolute eigenvalues of the difference, that is
0.5 * l1_norm(a - b).

A cq-state is array-shaped and indexed by output: entry k of K = 2^m is
output k (bit j is coordinate j, as in BitVector), with its probability
in probs (..., K) and its quantum state in rhos (..., K, d, d), in each
state of a stack.  An entry of probability 0 is an output the state
does not hold.  Samplers and builders take sequences and return a stack
with a leading axis: random_cq_state draws one state per stream through
one re-keyed generator (rng.derive_rngs), and extractor_output_state
builds one per pair of sources from a state map, usually an
adversaries.StorageStrategy, with each pair's inner product a popcount
parity on the sources' uint64 supports; random_density makes a stack of
Wishart states from a stack of normal draws.  Every check broadcasts over
the leading axes of its state, or of its priors and matrices, and gives
each state the numbers it gets alone.  The tightness attacks' strategies
store basis vectors, and adversaries measures them, strong and superstrong
notions included, by exact counts without building a state.
Consumers work on these arrays by index; every sum over entries runs
left to right in entry order (np.add.at, np.add.accumulate or Python's
sum, never np.sum's pairwise order), so the numbers match a per-entry
loop bit for bit.  The same holds for stacks: stacked @, np.trace on
axes and batched eigvalsh compute each matrix of a stack exactly as
they compute it alone, and a sum that a stack feeds runs in pair or
output order whatever the chunk boundaries.  Stacks of per-pair matrices
are built in chunks of at most STACK_BYTES.

The sizes handled here are deliberately small (states up to a few
qubits, up to a few thousand outputs): the inequalities being
verified are dimension-generic, so exactness matters more than scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .rng import derive_rngs

HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
POVM_SUM_ATOL = 1e-9
PROB_ATOL = 1e-9          # rounding allowed outside [0, 1] in a probability
PINV_CUTOFF = 1e-10
# the largest stack of per-pair matrices built at once; a pair whose own
# matrices are larger is computed alone
STACK_BYTES = 1 << 20

# --------------------------------------------------------------------------
# primitive linear algebra


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each in a stack, descending."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError("matrix must be square")
    if not np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= HERMITIAN_ATOL:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)[..., ::-1]


def l1_norm(m: np.ndarray):
    """Sum of absolute eigenvalues (trace norm, unhalved), of each matrix in a stack."""
    return np.sum(np.abs(hermitian_eigenvalues(m)), axis=-1)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in keep (dims in tensor order),
    of one matrix or of each in a stack."""
    dims = list(dims)
    keep = sorted(keep)
    total = math.prod(dims)
    if rho.shape[-2:] != (total, total):
        raise DimensionError("density matrix shape disagrees with dims")
    batch = list(rho.shape[:-2])
    t = rho.reshape(batch + dims + dims)
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        axis = len(batch) + i - offset
        t = np.trace(t, axis1=axis, axis2=axis + (n - offset))
    kd = math.prod(dims[i] for i in keep)
    return t.reshape(batch + [kd, kd])


def stack_chunks(count: int, item_bytes: int) -> list:
    """Consecutive slices of range(count), each of as many items of
    item_bytes as an eighth of STACK_BYTES holds, and at least one.  The
    work on a stack holds about eight arrays of its size at once (a
    check's merged or weighted copies, a state map's factors and
    products), so a whole chunk's work fits in STACK_BYTES."""
    step = max(1, STACK_BYTES // (8 * item_bytes))
    return [slice(i, i + step) for i in range(0, count, step)]


def permute_qubits_vector(vec: np.ndarray, new_order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a state vector of qubits, or of each row
    of a stack of them.

    new_order[k] is the old position of the qubit that ends up at
    position k (position 0 = leftmost/kron-first factor).
    """
    q = len(new_order)
    if vec.shape[-1:] != (1 << q,):
        raise DimensionError("vector length disagrees with qubit count")
    batch = vec.shape[:-1]
    axes = [*range(len(batch)), *(len(batch) + k for k in new_order)]
    return vec.reshape((*batch, *[2] * q)).transpose(axes).reshape((*batch, 1 << q))


PAULIS: Dict[Tuple[int, int], np.ndarray] = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[1, 0], [0, -1]], dtype=complex) @ np.array([[0, 1], [1, 0]], dtype=complex),
}


# --------------------------------------------------------------------------
# density matrices, cq-states, POVMs


def _square_stack(mats, what: str) -> np.ndarray:
    """A nonempty sequence of equal-sized square matrices as one (K, d, d)
    stack, or a sequence of such stacks as one (..., K, d, d).  A numeric
    array cannot be ragged, so only other sequences are walked for shapes."""
    if getattr(mats, "dtype", object) == object and len({np.shape(m) for m in mats}) > 1:
        raise ValidationError(f"{what} differ in dimension")
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim < 3 or not stack.shape[-3] or stack.shape[-1] != stack.shape[-2]:
        raise ValidationError(f"{what} must be a nonempty stack of square matrices")
    return stack


# -log2 of each value, by math.log2
_neg_log2 = np.vectorize(lambda p: -math.log2(p), otypes=[float])


@dataclass(frozen=True, eq=False)
class CqState:
    """Classical-quantum ensembles indexed by output: in each state of the
    stack, output k of K = 2^width has probability probs[..., k] and state
    rhos[..., k, :, :].  Output k is a width-bit int, bit j holding
    coordinate j as in BitVector.
    """

    probs: np.ndarray                    # (..., K)
    rhos: np.ndarray                     # (..., K, d, d) complex

    def __post_init__(self):
        rhos = _square_stack(self.rhos, "states")     # first: it names ragged stacks
        probs = np.asarray(self.probs, dtype=float)
        if rhos.shape[:-2] != probs.shape:
            raise ValidationError("probs and states differ in length")
        k = probs.shape[-1]
        if k & (k - 1):
            raise ValidationError(f"{k} outputs are not a power of two")
        if not probs.min() >= -1e-15:
            raise ValidationError("negative or NaN probability")
        total = np.add.accumulate(probs, axis=-1)[..., -1]
        off = total[~(np.abs(total - 1.0) <= TRACE_ATOL)]
        if off.size:
            raise ValidationError(f"probabilities sum to {off[0]}, not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "rhos", rhos)

    @property
    def width(self) -> int:
        return self.probs.shape[-1].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.rhos.shape[-1]

    @property
    def entries(self) -> tuple:
        """(prob, rho) per output, views into the arrays; over a stack, each
        holds the output's value in each state."""
        return tuple(zip(np.moveaxis(self.probs, -1, 0), np.moveaxis(self.rhos, -3, 0)))

    def weighted(self) -> np.ndarray:
        """The stack p(z) rho_z."""
        return self.probs[..., None, None] * self.rhos

    def average_state(self) -> np.ndarray:
        return sum(np.moveaxis(self.weighted(), -3, 0))

    def min_entropy(self):
        return _neg_log2(self.probs.max(axis=-1))


@dataclass(frozen=True, eq=False)
class Povm:
    """PSD elements (K, d, d) summing to the identity; element k answers output k.

    The measurements of a stack of states are one stack (..., K, d, d)."""

    elements: np.ndarray

    def __post_init__(self):
        els = _square_stack(self.elements, "POVM elements")
        if not np.linalg.eigvalsh(els).min() >= -PSD_ATOL:
            raise ValidationError("POVM element not PSD")
        if not np.max(np.abs(sum(np.moveaxis(els, -3, 0)) - np.eye(els.shape[-1]))) \
                <= POVM_SUM_ATOL:
            raise ValidationError("POVM elements do not sum to identity")
        object.__setattr__(self, "elements", els)


# --------------------------------------------------------------------------
# building cq-states from extractors and storage


def _add_in_order(sums: np.ndarray, rows: np.ndarray, states: np.ndarray,
                  start: int, period: int) -> None:
    """sums[rows[i]] += states[i] for the states of pairs start, start + 1,
    ..., in pair order within each sum.

    An instance's pairs are period consecutive ones, so pairs a period
    apart belong to different instances and sums, and each pair index is
    one add over the instances.  np.add.at adds in the same order, but
    over trailing (d, d) axes it takes ~1.7 ms per 256-square matrix.
    """
    for o in sorted(range(min(period, len(rows))), key=lambda o: (start + o) % period):
        sums[rows[o::period]] += states[o::period]


def extractor_output_state(x_sources, y_sources, stored: Callable[..., np.ndarray]) -> CqState:
    """Joint states of the inner-product bit with what the adversaries
    store, one per instance.

    Instance i is the pair of sources (x_sources[i], y_sources[i]), the x
    sources of one support size and the y sources of another, and stored
    is a state map (see adversaries.StorageStrategy).  Output e's state is
    the normalized mixture of stored states over the pairs whose inner
    product x . y is e, at probability 0 where an instance has none.

    The pairs go to stored instance by instance, each in x-major order,
    one pair and then stack_chunks of states, and each chunk is added
    into one running sum per (instance, output).
    """
    if not x_sources or len(x_sources) != len(y_sources) \
            or len({len(s.support) for s in x_sources}) > 1 \
            or len({len(s.support) for s in y_sources}) > 1:
        raise ParameterError("stacked sources must pair up, each side's of one support size")
    # (instance, support position) arrays of source values
    xs = np.stack([s.support for s in x_sources])
    ys = np.stack([s.support for s in y_sources])
    count = len(xs)
    xi = np.repeat(np.arange(xs.shape[1]), ys.shape[1])
    yi = np.tile(np.arange(ys.shape[1]), xs.shape[1])
    # pair f is pair f % P of instance f // P; its sum is row 2 (f // P) + its output
    instance = np.repeat(np.arange(count), len(xi))
    rows = 2 * instance + character(xs[:, xi], ys[:, yi]).reshape(-1)
    xs, ys = xs[:, xi].reshape(-1), ys[:, yi].reshape(-1)

    def states(pairs):
        return stored(xs[pairs], ys[pairs], instance[pairs])

    p_pair = x_sources[0].probability() * y_sources[0].probability()
    probs = np.zeros(2 * count)
    np.add.at(probs, rows, p_pair)
    # the first pair alone gives the state size; -0.0 is the exact identity of
    # +, so each sum equals its pairs' states added left to right
    first = states(slice(0, 1))
    size = first.nbytes
    sums = np.full((len(probs),) + first.shape[1:], complex(-0.0, -0.0))
    _add_in_order(sums, rows[:1], first, 0, len(xi))
    del first                   # one chunk of states is alive at a time
    rest = np.arange(1, len(rows))
    for part in stack_chunks(len(rest), size):
        pairs = rest[part]
        _add_in_order(sums, rows[pairs], states(pairs), int(pairs[0]), len(xi))
    sums *= p_pair
    np.divide(sums, probs[:, None, None], out=sums, where=probs[:, None, None] > 0)
    return CqState(probs.reshape(count, 2), sums.reshape((count, 2) + sums.shape[1:]))


# --------------------------------------------------------------------------
# distances


def cq_distance_from_uniform(s: CqState):
    """Trace distance of each cq-state of a stack from uniform-output times
    its marginal.

    Works block by block: the block for output e is p(e)rho_e minus 2^-m
    times the marginal, and the distance is half the total 1-norm, summed
    in output order.  An output of probability 0 contributes the marginal
    term alone.
    """
    weighted = s.weighted()
    count = s.probs.shape[-1]
    scale = 1.0 / count
    marg = np.zeros(weighted.shape[:-3] + weighted.shape[-2:], dtype=complex)
    for k in range(count):
        marg += weighted[..., k, :, :]
    weighted -= scale * marg[..., None, :, :]
    held = s.probs != 0
    norms = np.where(held, l1_norm(weighted), 0.0)
    total = np.add.accumulate(norms, axis=-1)[..., -1]
    total += (count - held.sum(axis=-1)) * scale * np.real(np.trace(marg, axis1=-2, axis2=-1))
    return 0.5 * total


def boolean_reduce(s: CqState, f: np.ndarray) -> CqState:
    """Merge each cq-state's outputs into {0, 1} through f, a 0/1 table
    indexed by output, or a stack of tables (..., K) broadcast against the
    states; both bits are kept, at probability 0 where a table misses one.
    """
    bits = np.asarray(f)
    batch = np.broadcast_shapes(s.probs.shape[:-1], bits.shape[:-1])
    bits = np.broadcast_to(bits, batch + bits.shape[-1:])
    at = np.indices(batch, sparse=True)
    # per bit the output-order sums of p and of p rho; -0.0 is the identity of +
    probs = np.zeros(batch + (2,))
    rhos = np.full(probs.shape + s.rhos.shape[-2:], complex(-0.0, -0.0))
    weighted = s.weighted()
    for k in range(s.probs.shape[-1]):
        probs[(*at, bits[..., k])] += s.probs[..., k]
        rhos[(*at, bits[..., k])] += weighted[..., k, :, :]
    kept = probs > 0
    np.divide(rhos, probs[..., None, None], out=rhos, where=kept[..., None, None])
    return CqState(np.where(kept, probs, 0.0), rhos)


def character(labels: np.ndarray, mask) -> np.ndarray:
    """chi_S(z) as int64 0/1: the parity of the mask-selected bits of each
    label, which is also the inner product z . S over GF(2), on integer
    arrays of up to 64 bits such as flat sources' uint64 supports."""
    return (np.bitwise_count(labels & mask) & 1).astype(np.int64)


@dataclass(frozen=True)
class XorLemmaResult:
    lhs_squared: float
    rhs_bound: float          # 2^min(d, m) times the character sum
    rhs_bound_dim: float      # 2^d variant
    rhs_bound_labels: float   # 2^m variant
    character_sum: float


def xor_lemma_check(s: CqState) -> XorLemmaResult:
    """Multi-bit distance squared vs the character-sum bound, each field
    one value per state.

    Both proof branches are reported: one pays a factor 2^d in the
    state dimension, the other 2^m in the label length; the headline
    bound takes the smaller factor.  The characters chi_S, S = 1 .. 2^m - 1,
    merge every state at once, and their squared distances are summed in
    mask order with Python's pow, which rounds differently from x * x.
    """
    m = s.width
    d = s.dim.bit_length() - 1
    lhs = cq_distance_from_uniform(s)
    # one table per mask, each broadcast over the stack
    masks = np.arange(1, 1 << m).reshape((-1,) + (1,) * np.ndim(lhs) + (1,))
    dists = cq_distance_from_uniform(boolean_reduce(s, character(np.arange(1 << m), masks)))
    char_sums = []
    for row in np.moveaxis(dists, 0, -1).reshape(-1, len(dists)).tolist():
        char_sum = 0.0
        for dist in row:
            char_sum += dist ** 2
        char_sums.append(char_sum)
    char_sum = np.reshape(char_sums, np.shape(lhs))
    return XorLemmaResult(
        lhs_squared=lhs * lhs,
        rhs_bound=(1 << min(d, m)) * char_sum,
        rhs_bound_dim=(1 << d) * char_sum,
        rhs_bound_labels=(1 << m) * char_sum,
        character_sum=char_sum,
    )


# --------------------------------------------------------------------------
# measurements


def _pinv_sqrt_and_kernel(rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root and kernel projector of rho, or of each in a stack."""
    vals, vecs = np.linalg.eigh(rho)
    inv = np.where(vals > PINV_CUTOFF, 1.0 / np.sqrt(np.maximum(vals, PINV_CUTOFF)), 0.0)
    kernel_sel = (vals <= PINV_CUTOFF).astype(float)
    adjoint = vecs.conj().swapaxes(-1, -2)
    return (vecs * inv[..., None, :]) @ adjoint, (vecs * kernel_sel[..., None, :]) @ adjoint


def pgm(s: CqState) -> Povm:
    """Square-root measurement of each cq-state of a stack.

    Elements are p(z) R rho_z R with R the pseudo-inverse square root
    of the average state; the kernel projector is split evenly across
    elements so they sum to the identity exactly.
    """
    r, kernel = _pinv_sqrt_and_kernel(s.average_state())
    r = r[..., None, :, :]
    el = s.probs[..., None, None] * (r @ s.rhos @ r) + kernel[..., None, :, :] / s.probs.shape[-1]
    return Povm(0.5 * (el + el.conj().swapaxes(-1, -2)))


def guess_success(s: CqState, m: Povm):
    """Probability that measuring with m recovers the output, per state."""
    if m.elements.shape != s.rhos.shape:
        raise ParameterError(f"POVM elements {m.elements.shape} do not match "
                             f"the state's outputs and states {s.rhos.shape}")
    traces = np.real(np.trace(m.elements @ s.rhos, axis1=-2, axis2=-1))
    total = np.add.accumulate(s.probs * traces, axis=-1)[..., -1]
    off = total[~((total >= -PROB_ATOL) & (total <= 1.0 + PROB_ATOL))]
    if off.size:
        raise ParameterError(f"success probability {float(off[0])!r} is outside "
                             "[0, 1]; the POVM is not valid")
    return np.clip(total, 0.0, 1.0)


def helstrom_advantage(p0, rho0: np.ndarray, p1, rho1: np.ndarray):
    """Optimal success probability for binary discrimination, per pair of
    a stack: priors (...) and states (..., d, d).

    Equals 1/2 + 1/2 ||p0 rho0 - p1 rho1||_1 with the full (unhalved)
    1-norm of the weighted difference.
    """
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    if not (np.abs(p0 + p1 - 1.0) <= 1e-9).all():
        raise ParameterError("priors must sum to 1")
    return 0.5 + 0.5 * l1_norm(p0[..., None, None] * np.asarray(rho0, dtype=complex)
                               - p1[..., None, None] * np.asarray(rho1, dtype=complex))


@dataclass(frozen=True)
class GuessingEntropyBracket:
    lower: float
    upper: float
    pgm_success: float
    storage_floor: float


def guessing_entropy_bounds(s: CqState) -> GuessingEntropyBracket:
    """Bracket on -log2 of the optimal guessing probability, each field
    one value per state.

    The square-root measurement is within a square of optimal, so the
    optimal guessing probability lies in [p_pgm, sqrt(p_pgm)]; the
    independent floor min-entropy-minus-log-dim also lower-bounds the
    guessing entropy.
    """
    p_pgm = guess_success(s, pgm(s))
    upper = _neg_log2(p_pgm)
    floor = s.min_entropy() - math.log2(s.dim)
    lower = np.maximum(_neg_log2(np.sqrt(p_pgm)), floor)
    return GuessingEntropyBracket(lower=lower, upper=upper,
                                  pgm_success=p_pgm, storage_floor=floor)


# --------------------------------------------------------------------------
# reduction lemmas


@dataclass(frozen=True)
class PgmReductionResult:
    lhs: float                 # quantum distance of f(Z) from uniform
    classical_distance: float  # variational distance after the PGM
    bound: float               # sqrt(classical_distance / 2)


def pgm_reduction_check(s: CqState, f: np.ndarray) -> PgmReductionResult:
    """Quantum-to-classical reduction through the square-root measurement.

    f is a 0/1 table indexed by output.  lhs is the trace distance of the
    reduced bit from uniform; the classical side measures the joint of
    f(Z) with the measurement outcome against an independent uniform
    bit, as a variational distance; the claimed bound is sqrt(half the
    classical distance).  f may hold one table per state, and each field
    holds one value per state.
    """
    lhs = cq_distance_from_uniform(boolean_reduce(s, f))
    elements = pgm(s).elements
    # q[..., k, w] = p(z_k) tr(E_w rho_k): output k measured as outcome w, one
    # output at a time, so that no (K, K, d, d) product is held
    q = np.stack([p[..., None] * np.real(np.trace(elements @ rho[..., None, :, :],
                                                  axis1=-2, axis2=-1))
                  for p, rho in zip(np.moveaxis(s.probs, -1, 0), np.moveaxis(s.rhos, -3, 0))],
                 axis=-2)
    joint = np.zeros(q.shape[:-2] + (2, q.shape[-1]))
    at = np.indices(q.shape[:-2], sparse=True)
    bits = np.asarray(f)
    for k in range(s.probs.shape[-1]):
        joint[(*at, bits[..., k])] += q[..., k, :]
    marg = np.add.accumulate(q, axis=-2)[..., -1, :]
    # summed outcome by outcome, bit 0 before bit 1
    dist = np.add.accumulate(np.abs(joint - 0.5 * marg[..., None, :]).swapaxes(-1, -2)
                             .reshape(q.shape[:-2] + (-1,)), axis=-1)[..., -1]
    classical = 0.5 * dist
    return PgmReductionResult(lhs=lhs, classical_distance=classical,
                              bound=np.sqrt(0.5 * classical))


def trace_norm_weighted_l2_bound(s_op: np.ndarray, sigma: np.ndarray) -> Tuple:
    """Half-1-norm of a Hermitian operator vs its sigma-weighted 2-norm,
    per pair of a stack: operators and sigmas (..., d, d).

    Returns (lhs, rhs) with lhs = half the sum of absolute eigenvalues
    of s_op and rhs = half sqrt(tr(sigma) tr(R s R s)) for R the
    pseudo-inverse square root of sigma; lhs <= rhs whenever the
    support of s_op lies inside the support of sigma.
    """
    s_op = np.asarray(s_op, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    lhs = 0.5 * l1_norm(s_op)  # checks that s_op is Hermitian
    if not (hermitian_eigenvalues(sigma)[..., -1] >= -PSD_ATOL).all():
        raise ValidationError("sigma is not PSD")
    r, kernel = _pinv_sqrt_and_kernel(sigma)
    if not np.max(np.abs(kernel @ s_op)) <= 1e-8:
        raise ValidationError("support of the operator leaks outside sigma")
    inner = np.real(np.trace(r @ s_op @ r @ s_op, axis1=-2, axis2=-1))
    trace = np.real(np.trace(sigma, axis1=-2, axis2=-1))
    return lhs, 0.5 * np.sqrt(np.maximum(trace, 0.0) * np.maximum(inner, 0.0))


# --------------------------------------------------------------------------
# seeded sampling for verification batches


def random_density(draws: np.ndarray) -> np.ndarray:
    """Wishart-drawn density matrices g g^dagger / tr(g g^dagger), one per
    pair of normal planes in draws (..., 2, d, d): g is the first plane
    plus i times the second."""
    g = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    rhos = g @ g.conj().swapaxes(-1, -2)
    del g
    rhos /= np.real(np.trace(rhos, axis1=-2, axis2=-1))[..., None, None]
    return rhos


def random_unitary(dim: int, rngs) -> np.ndarray:
    """A stack of Haar-ish unitaries, one drawn from each generator rngs
    yields (each is drawn from before the next is taken, so a lazy
    rng.derive_rngs serves); a stacked QR gives each matrix the Q and R it
    gets alone."""
    g = np.array([r.normal(size=(2, dim, dim)) for r in rngs])
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_cq_state(label_bits: int, qubits: int, seed: int, streams) -> CqState:
    """Seeded cq-states, one per stream: Dirichlet(1) probabilities (T, K),
    drawn as Generator.dirichlet draws them, exponentials times the reciprocal
    of their sequential sum (tests keep dirichlet as the oracle), and
    random_density states (T, K, d, d)."""
    count, dim = 1 << label_bits, 1 << qubits
    probs = np.empty((len(streams), count))
    g = np.empty((len(streams), count, 2, dim, dim))
    for t, rng in enumerate(derive_rngs((seed, 0xC05, s) for s in streams)):
        probs[t] = rng.standard_exponential(count)
        g[t] = rng.normal(size=(count, 2, dim, dim))
    probs *= 1.0 / np.add.accumulate(probs, axis=-1)[:, -1:]
    return CqState(probs, random_density(g))


def random_boolean_fn(label_bits: int, seed: int, streams) -> np.ndarray:
    """Seeded Boolean functions on label_bits-bit labels, one per stream, as
    a (T, 2^label_bits) stack of 0/1 tables indexed by output."""
    tables = np.empty((len(streams), 1 << label_bits), dtype=np.int64)
    for t, rng in enumerate(derive_rngs((seed, 0xB001, s) for s in streams)):
        tables[t] = rng.integers(0, 2, size=1 << label_bits)
    return tables
