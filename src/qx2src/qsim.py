"""Exact finite-dimensional quantum numerics.

Density matrices are plain dense complex numpy arrays; every norm is
computed from a full Hermitian eigendecomposition, so all checks are
exact up to double-precision roundoff.  Throughout, "trace distance"
denotes half the sum of absolute eigenvalues of the difference, that is
0.5 * l1_norm(a - b).

A cq-state is array-shaped: K int labels of a fixed bit width (bit j is
coordinate j, as in BitVector), their probabilities (K,) and quantum
states (K, d, d), plus the exposed source value of each entry when one
source is exposed with the output.  Labels and source values are int64,
or Python ints once one needs 64 bits, so an exposed source may have any
length.  extractor_output_state builds one from any state map (x, y) ->
stored state, usually an adversaries.StorageStrategy.
Consumers work on these arrays by index; every sum over entries runs
left to right in entry order (np.add.at, np.add.accumulate or Python's
sum, never np.sum's pairwise order), so the numbers match a per-entry
loop bit for bit.

The sizes handled here are deliberately small (states up to a few
qubits, label sets up to a few thousand): the inequalities being
verified are dimension-generic, so exactness matters more than scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .extractors import FlatSource
from .gf2 import BitVector
from .rng import derive_rng

HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
POVM_SUM_ATOL = 1e-9
PROB_ATOL = 1e-9          # rounding allowed outside [0, 1] in a probability
PINV_CUTOFF = 1e-10

# --------------------------------------------------------------------------
# primitive linear algebra


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each in a stack, descending."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError("matrix must be square")
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > HERMITIAN_ATOL:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return np.sort(np.linalg.eigvalsh(m), axis=-1)[..., ::-1]


def l1_norm(m: np.ndarray):
    """Sum of absolute eigenvalues (trace norm, unhalved); an array for a stack."""
    norms = np.sum(np.abs(hermitian_eigenvalues(m)), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in keep (dims in tensor order)."""
    dims = list(dims)
    keep = sorted(keep)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise DimensionError("density matrix shape disagrees with dims")
    t = rho.reshape(dims + dims)
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        axis = i - offset
        t = np.trace(t, axis1=axis, axis2=axis + (n - offset))
    kd = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(kd, kd)


def permute_qubits_vector(vec: np.ndarray, new_order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a state vector of qubits.

    new_order[k] is the old position of the qubit that ends up at
    position k (position 0 = leftmost/kron-first factor).
    """
    q = len(new_order)
    if vec.shape != (1 << q,):
        raise DimensionError("vector length disagrees with qubit count")
    return vec.reshape([2] * q).transpose(new_order).reshape(-1)


PAULIS: Dict[Tuple[int, int], np.ndarray] = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[1, 0], [0, -1]], dtype=complex) @ np.array([[0, 1], [1, 0]], dtype=complex),
}


# --------------------------------------------------------------------------
# density matrices, cq-states, POVMs


def basis_state(dim: int, index: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def _int_array(values) -> np.ndarray:
    """values as int64, or as Python ints when one needs 64 bits or more."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _square_stack(mats, what: str) -> np.ndarray:
    """A nonempty sequence of equal-sized square matrices as one (K, d, d) stack."""
    if len({np.shape(m) for m in mats}) > 1:
        raise ValidationError(f"{what} differ in dimension")
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"{what} must be a nonempty stack of square matrices")
    return stack


@dataclass(frozen=True, eq=False)
class CqState:
    """Classical-quantum ensemble: label k has probability probs[k] and state rhos[k].

    labels are width-bit ints, bit j holding coordinate j as in BitVector.
    When a source is exposed, sides holds its value for each entry and
    (label, side) pairs are distinct; otherwise sides is None.
    """

    labels: np.ndarray                   # (K,) int
    probs: np.ndarray                    # (K,)
    rhos: np.ndarray                     # (K, d, d) complex
    width: int
    sides: Optional[np.ndarray] = None   # (K,) int

    def __post_init__(self):
        labels = _int_array(self.labels)
        probs = np.asarray(self.probs, dtype=float)
        rhos = _square_stack(self.rhos, "states")
        sides = np.zeros_like(labels) if self.sides is None else _int_array(self.sides)
        k = len(labels)
        if probs.shape != (k,) or sides.shape != (k,) or labels.shape != (k,) \
                or len(rhos) != k:
            raise ValidationError("labels, sides, probs and states differ in length")
        if int(labels.min()) < 0 or int(labels.max()) >> self.width:
            raise ValidationError(f"label out of range for {self.width} bits")
        if len(set(zip(labels.tolist(), sides.tolist()))) != k:
            raise ValidationError("duplicate labels in cq-state")
        if probs.min() < -1e-15:
            raise ValidationError("negative probability")
        total = float(np.add.accumulate(probs)[-1])
        if abs(total - 1.0) > TRACE_ATOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "rhos", rhos)
        if self.sides is not None:
            object.__setattr__(self, "sides", sides)

    @property
    def dim(self) -> int:
        return self.rhos.shape[1]

    @property
    def entries(self) -> tuple:
        """(label, prob, rho) per entry, views into the arrays."""
        return tuple(zip(self.labels, self.probs, self.rhos))

    def weighted(self) -> np.ndarray:
        """The stack p(z) rho_z."""
        return self.probs[:, None, None] * self.rhos

    def average_state(self) -> np.ndarray:
        return sum(self.weighted())

    def min_entropy(self) -> float:
        return -math.log2(float(self.probs.max()))


@dataclass(frozen=True, eq=False)
class Povm:
    """PSD elements (K, d, d) summing to the identity; element k answers label k."""

    elements: np.ndarray

    def __post_init__(self):
        els = _square_stack(self.elements, "POVM elements")
        if np.linalg.eigvalsh(els).min() < -PSD_ATOL:
            raise ValidationError("POVM element not PSD")
        if np.max(np.abs(sum(els) - np.eye(els.shape[1]))) > POVM_SUM_ATOL:
            raise ValidationError("POVM elements do not sum to identity")
        object.__setattr__(self, "elements", els)


# --------------------------------------------------------------------------
# building cq-states from extractors and storage


def _lex_rank(value: int, width: int) -> int:
    """Bit reversal within width: the rank of value's coordinate-0-first string."""
    rank = 0
    for j in range(width):
        rank = rank << 1 | (value >> j & 1)
    return rank


def extractor_output_state(extractor: Callable[[BitVector, BitVector], object],
                           x_source: FlatSource, y_source: FlatSource,
                           stored: Callable[[BitVector, BitVector], np.ndarray],
                           exposed: Optional[str] = None) -> CqState:
    """Joint state of the extractor output with what the adversaries store.

    stored(x, y) is the adversaries' state for the source pair (x, y).
    The label is the output e and the state is the normalized mixture of
    stored states over extractor preimages.  With exposed = "X" or "Y"
    that source's value is held with the output as the entry's side; a
    superstrong evaluation passes a map that keeps that side's whole
    state.  Entries are ordered by output, then side, each compared as
    its coordinate-0-first string.
    """
    if exposed not in (None, "X", "Y"):
        raise ParameterError(f"exposed side must be None, 'X' or 'Y', got {exposed!r}")
    side_width = {"X": x_source.n, "Y": y_source.n}.get(exposed, 0)
    p_pair = x_source.probability() * y_source.probability()
    # one running sum per (output, side): per-pair matrices are never kept
    acc: Dict[Tuple[int, int], list] = {}
    for xv in x_source.vectors():
        for yv in y_source.vectors():
            out = extractor(xv, yv)
            if isinstance(out, int):
                out = BitVector(1, out)
            side = xv.value if exposed == "X" else yv.value if exposed == "Y" else 0
            rho = stored(xv, yv)
            slot = acc.get((out.value, side))
            if slot is None:
                acc[(out.value, side)] = [p_pair, rho.astype(complex, copy=True)]
            else:
                slot[0] += p_pair
                slot[1] += rho
    width = out.length
    keys = sorted(acc, key=lambda k: (_lex_rank(k[0], width), _lex_rank(k[1], side_width)))
    probs = [acc[k][0] for k in keys]
    rhos = [acc[k][1] * p_pair / acc[k][0] for k in keys]
    return CqState([k[0] for k in keys], probs, rhos, width,
                   [k[1] for k in keys] if exposed else None)


# --------------------------------------------------------------------------
# distances


def cq_distance_from_uniform(s: CqState, label_bits: int) -> float:
    """Trace distance of a cq-state from uniform-output times its marginal.

    Works block by block: within each group of entries sharing the same
    exposed side value, the block for output e is p(e)rho_e minus
    2^-m times the group marginal; the distance is half the total
    1-norm.  Outputs absent from a group contribute the marginal term
    alone.
    """
    if s.width != label_bits:
        raise ValidationError(f"labels are {s.width}-bit, not {label_bits}-bit")
    if s.sides is None:
        first, group = [0], np.zeros(len(s.labels), dtype=np.intp)
    else:
        _, first, group = np.unique(s.sides, return_index=True, return_inverse=True)
    weighted = s.weighted()
    margs = np.zeros((len(first), s.dim, s.dim), dtype=complex)
    np.add.at(margs, group, weighted)
    scale = 1.0 / (1 << label_bits)
    norms = l1_norm(weighted - scale * margs[group])
    counts = np.bincount(group)
    traces = np.real(np.trace(margs, axis1=1, axis2=2))
    total = 0.0
    for g in np.argsort(first):     # groups in order of first appearance
        for norm in norms[group == g]:
            total += norm
        total += ((1 << label_bits) - int(counts[g])) * scale * traces[g]
    return 0.5 * float(total)


def boolean_reduce(s: CqState, f: np.ndarray) -> CqState:
    """Merge a cq-state's labels into {0, 1} through f, a 0/1 table indexed by label."""
    if s.sides is not None:
        raise ParameterError("boolean_reduce expects simple labels")
    bits = np.asarray(f)[s.labels]
    probs = np.zeros(2)
    np.add.at(probs, bits, s.probs)
    weighted = s.weighted()
    kept = [b for b in (0, 1) if probs[b] > 0]
    rhos = [np.add.accumulate(weighted[bits == b], axis=0)[-1] / probs[b] for b in kept]
    return CqState(kept, probs[kept], rhos, 1)


def character(labels: np.ndarray, mask: int) -> np.ndarray:
    """chi_S(z) as 0/1: the parity of the mask-selected bits of each label."""
    return np.bitwise_count(labels & mask) & 1


@dataclass(frozen=True)
class XorLemmaResult:
    lhs_squared: float
    rhs_bound: float          # 2^min(d, m) times the character sum
    rhs_bound_dim: float      # 2^d variant
    rhs_bound_labels: float   # 2^m variant
    character_sum: float


def xor_lemma_check(s: CqState) -> XorLemmaResult:
    """Multi-bit distance squared vs the character-sum bound.

    Both proof branches are reported: one pays a factor 2^d in the
    state dimension, the other 2^m in the label length; the headline
    bound takes the smaller factor.
    """
    if s.sides is not None:
        raise ValidationError("xor lemma needs simple m-bit labels")
    m = s.width
    d = s.dim.bit_length() - 1
    lhs = cq_distance_from_uniform(s, m)
    every_label = np.arange(1 << m)
    char_sum = 0.0
    for mask in range(1, 1 << m):
        reduced = boolean_reduce(s, character(every_label, mask))
        char_sum += cq_distance_from_uniform(reduced, 1) ** 2
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
    vals, vecs = np.linalg.eigh(rho)
    inv = np.where(vals > PINV_CUTOFF, 1.0 / np.sqrt(np.maximum(vals, PINV_CUTOFF)), 0.0)
    kernel_sel = (vals <= PINV_CUTOFF).astype(float)
    r = (vecs * inv) @ vecs.conj().T
    kernel = (vecs * kernel_sel) @ vecs.conj().T
    return r, kernel


def pgm(s: CqState) -> Povm:
    """Square-root measurement of a cq-state.

    Elements are p(z) R rho_z R with R the pseudo-inverse square root
    of the average state; the kernel projector is split evenly across
    elements so they sum to the identity exactly.
    """
    r, kernel = _pinv_sqrt_and_kernel(s.average_state())
    el = s.probs[:, None, None] * (r @ s.rhos @ r) + kernel / len(s.probs)
    return Povm(0.5 * (el + el.conj().swapaxes(1, 2)))


def guess_success(s: CqState, m: Povm) -> float:
    """Probability that measuring with m recovers the label."""
    if m.elements.shape != s.rhos.shape:
        raise ParameterError(f"POVM elements {m.elements.shape} do not match "
                             f"the state's labels and states {s.rhos.shape}")
    traces = np.real(np.trace(m.elements @ s.rhos, axis1=1, axis2=2))
    total = float(np.add.accumulate(s.probs * traces)[-1])
    if not -PROB_ATOL <= total <= 1.0 + PROB_ATOL:
        raise ParameterError(
            f"success probability {total!r} is outside [0, 1]; the POVM is not valid")
    return min(max(total, 0.0), 1.0)


def helstrom_advantage(p0: float, rho0: np.ndarray, p1: float, rho1: np.ndarray) -> float:
    """Optimal success probability for binary discrimination.

    Equals 1/2 + 1/2 ||p0 rho0 - p1 rho1||_1 with the full (unhalved)
    1-norm of the weighted difference.
    """
    if abs(p0 + p1 - 1.0) > 1e-9:
        raise ParameterError("priors must sum to 1")
    return 0.5 + 0.5 * l1_norm(p0 * np.asarray(rho0, dtype=complex)
                               - p1 * np.asarray(rho1, dtype=complex))


@dataclass(frozen=True)
class GuessingEntropyBracket:
    lower: float
    upper: float
    pgm_success: float
    storage_floor: float


def guessing_entropy_bounds(s: CqState) -> GuessingEntropyBracket:
    """Bracket on -log2 of the optimal guessing probability.

    The square-root measurement is within a square of optimal, so the
    optimal guessing probability lies in [p_pgm, sqrt(p_pgm)]; the
    independent floor min-entropy-minus-log-dim also lower-bounds the
    guessing entropy.
    """
    p_pgm = guess_success(s, pgm(s))
    upper = -math.log2(p_pgm)
    floor = s.min_entropy() - math.log2(s.dim)
    lower = max(-math.log2(math.sqrt(p_pgm)), floor)
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

    f is a 0/1 table indexed by label.  lhs is the trace distance of the
    reduced bit from uniform; the classical side measures the joint of
    f(Z) with the measurement outcome against an independent uniform
    bit, as a variational distance; the claimed bound is sqrt(half the
    classical distance).
    """
    lhs = cq_distance_from_uniform(boolean_reduce(s, f), 1)
    elements = pgm(s).elements
    # q[k, w] = p(z_k) tr(E_w rho_k): label k measured as outcome w, one row at a time
    q = np.array([p * np.real(np.trace(elements @ rho, axis1=1, axis2=2))
                  for p, rho in zip(s.probs, s.rhos)])
    joint = np.zeros((2, len(elements)))
    np.add.at(joint, np.asarray(f)[s.labels], q)
    marg = np.add.accumulate(q, axis=0)[-1]
    # summed outcome by outcome, bit 0 before bit 1
    dist = np.add.accumulate(np.abs(joint - 0.5 * marg).T.ravel())[-1]
    classical = 0.5 * float(dist)
    return PgmReductionResult(lhs=lhs, classical_distance=classical,
                              bound=math.sqrt(0.5 * classical))


def trace_norm_weighted_l2_bound(s_op: np.ndarray, sigma: np.ndarray) -> Tuple[float, float]:
    """Half-1-norm of a Hermitian operator vs its sigma-weighted 2-norm.

    Returns (lhs, rhs) with lhs = half the sum of absolute eigenvalues
    of s_op and rhs = half sqrt(tr(sigma) tr(R s R s)) for R the
    pseudo-inverse square root of sigma; lhs <= rhs whenever the
    support of s_op lies inside the support of sigma.
    """
    s_op = np.asarray(s_op, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    lhs = 0.5 * l1_norm(s_op)  # checks that s_op is Hermitian
    sig_vals = np.linalg.eigvalsh(sigma)
    if sig_vals.min() < -PSD_ATOL:
        raise ValidationError("sigma is not PSD")
    r, kernel = _pinv_sqrt_and_kernel(sigma)
    if np.max(np.abs(kernel @ s_op)) > 1e-8:
        raise ValidationError("support of the operator leaks outside sigma")
    inner = float(np.real(np.trace(r @ s_op @ r @ s_op)))
    rhs = 0.5 * math.sqrt(max(float(np.real(np.trace(sigma))), 0.0) * max(inner, 0.0))
    return lhs, rhs


# --------------------------------------------------------------------------
# seeded sampling for verification batches


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_cq_state(label_bits: int, qubits: int, seed: int, stream: int = 0) -> CqState:
    """Seeded cq-state: simplex-drawn probabilities, Wishart-drawn states."""
    rng = derive_rng(seed, 0xC05, stream)
    count = 1 << label_bits
    dim = 1 << qubits
    probs = rng.dirichlet(np.ones(count))
    rhos = [random_density(dim, rng) for _ in range(count)]
    return CqState(np.arange(count), probs, rhos, label_bits)


def random_boolean_fn(label_bits: int, seed: int, stream: int = 0) -> np.ndarray:
    """Seeded Boolean function on label_bits-bit labels, as a 0/1 table indexed by label."""
    return derive_rng(seed, 0xB001, stream).integers(0, 2, size=1 << label_bits)
