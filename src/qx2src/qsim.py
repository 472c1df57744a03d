"""Exact finite-dimensional quantum numerics.

Density matrices are dense complex numpy arrays; every norm is computed
from a full Hermitian eigendecomposition, so all checks are exact up to
double-precision roundoff.  Throughout, "trace distance" denotes half
the sum of absolute eigenvalues of the difference, and a cq-state pairs
classical labels with probabilities and quantum states.

The sizes handled here are deliberately small (states up to a few
qubits, label sets up to a few thousand): the inequalities being
verified are dimension-generic, so exactness matters more than scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import CapabilityError, DimensionError, ParameterError, ValidationError
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
    """Real eigenvalues of a Hermitian matrix, descending."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("matrix must be square")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return np.sort(np.linalg.eigvalsh(m))[::-1]


def l1_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues (trace norm, unhalved)."""
    return float(np.sum(np.abs(hermitian_eigenvalues(m))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the 1-norm of the difference of two operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return 0.5 * l1_norm(a - b)


def tensor(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace operator on a power-of-two dimension."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("density matrix must be square")
        d = m.shape[0]
        if d & (d - 1):
            raise ValidationError("dimension must be a power of two")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValidationError("density matrix not Hermitian")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -PSD_ATOL:
            raise ValidationError(f"density matrix not PSD (min eig {evals.min():.3e})")
        if abs(float(np.real(np.trace(m))) - 1.0) > TRACE_ATOL:
            raise ValidationError("density matrix trace differs from 1")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1


def scalar_state() -> np.ndarray:
    return np.array([[1.0 + 0j]])


def basis_state(dim: int, index: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


Label = object  # a bit string, or a (output, exposed-side) tuple of bit strings


@dataclass(frozen=True)
class CqEntry:
    label: Label
    prob: float
    rho: np.ndarray


@dataclass(frozen=True)
class CqState:
    """Classical-quantum ensemble {(label, p, rho)} with matching dims."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("cq-state needs at least one entry")
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate labels in cq-state")
        dim = self.entries[0].rho.shape[0]
        total = 0.0
        for e in self.entries:
            if e.prob < -1e-15:
                raise ValidationError("negative probability")
            if e.rho.shape != (dim, dim):
                raise ValidationError("states differ in dimension")
            total += e.prob
        if abs(total - 1.0) > TRACE_ATOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")

    @classmethod
    def from_entries(cls, entries, validate_states: bool = False) -> "CqState":
        items = tuple(CqEntry(lbl, float(p), np.asarray(rho, dtype=complex))
                      for (lbl, p, rho) in entries)
        state = cls(items)
        if validate_states:
            for e in items:
                DensityMatrix(e.rho)
        return state

    @property
    def dim(self) -> int:
        return self.entries[0].rho.shape[0]

    def average_state(self) -> np.ndarray:
        return sum(e.prob * e.rho for e in self.entries)

    def min_entropy(self) -> float:
        return -math.log2(max(e.prob for e in self.entries))


@dataclass(frozen=True)
class Povm:
    """POVM {(label, element)}: PSD elements summing to the identity."""

    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValidationError("POVM needs at least one element")
        dim = self.elements[0][1].shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for _, el in self.elements:
            if el.shape != (dim, dim):
                raise ValidationError("POVM elements differ in dimension")
            if np.linalg.eigvalsh(el).min() < -PSD_ATOL:
                raise ValidationError("POVM element not PSD")
            acc += el
        if np.max(np.abs(acc - np.eye(dim))) > POVM_SUM_ATOL:
            raise ValidationError("POVM elements do not sum to identity")

    def element(self, label) -> np.ndarray:
        table = self.as_dict()
        if label not in table:
            raise ParameterError(f"no POVM element labeled {label!r}")
        return table[label]

    def as_dict(self) -> dict:
        return {lbl: el for lbl, el in self.elements}


# --------------------------------------------------------------------------
# building cq-states from extractors and storage


MODES = ("weak", "X-strong", "Y-strong", "X-superstrong", "Y-superstrong")


def extractor_output_state(extractor: Callable[[BitVector, BitVector], object],
                           x_source: FlatSource, y_source: FlatSource,
                           storage, mode: str = "weak") -> CqState:
    """Joint state of the extractor output with the adversaries' storage.

    In weak mode the label is the output string e and the state is the
    normalized mixture of storage states over extractor preimages.  The
    strong modes expose one source value in the label; the superstrong
    modes additionally replace the stored state by the strategy's
    full-side state for that side.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if mode.endswith("superstrong"):
        side = mode[0]
        if not storage.has_full_side(side):
            raise CapabilityError(
                f"strategy retains no full {side}-side states")
    p_pair = x_source.probability() * y_source.probability()
    acc: Dict[object, list] = {}
    for xv in x_source.vectors():
        for yv in y_source.vectors():
            out = extractor(xv, yv)
            if isinstance(out, int):
                out = BitVector(1, out)
            if mode == "weak":
                label = out.to_str()
                rho = storage.state_for(xv, yv)
            elif mode == "X-strong":
                label = (out.to_str(), xv.to_str())
                rho = storage.state_for(xv, yv)
            elif mode == "Y-strong":
                label = (out.to_str(), yv.to_str())
                rho = storage.state_for(xv, yv)
            elif mode == "X-superstrong":
                label = (out.to_str(), xv.to_str())
                rho = storage.full_state_a(xv, yv)
            else:
                label = (out.to_str(), yv.to_str())
                rho = storage.full_state_b(xv, yv)
            slot = acc.get(label)
            if slot is None:
                acc[label] = [p_pair, rho.astype(complex, copy=True)]
            else:
                slot[0] += p_pair
                slot[1] += rho
    entries = []
    for label in sorted(acc, key=_label_sort_key):
        p, total = acc[label]
        entries.append((label, p, total * p_pair / p))
    return CqState.from_entries(entries)


def _label_sort_key(label):
    return (0, label) if isinstance(label, str) else (1,) + tuple(label)


# --------------------------------------------------------------------------
# distances


def _split_label(label) -> Tuple[str, object]:
    if isinstance(label, tuple):
        return label[0], label[1:]
    return label, None


def cq_distance_from_uniform(s: CqState, label_bits: int) -> float:
    """Trace distance of a cq-state from uniform-output times its marginal.

    Works block by block: within each group of labels sharing the same
    exposed side value, the block for output e is p(e)rho_e minus
    2^-m times the group marginal; the distance is half the total
    1-norm.  Outputs absent from a group contribute the marginal term
    alone.
    """
    groups: Dict[object, Dict[str, CqEntry]] = {}
    for e in s.entries:
        out, side = _split_label(e.label)
        if len(out) != label_bits:
            raise ValidationError(
                f"label {out!r} is not a {label_bits}-bit string")
        groups.setdefault(side, {})[out] = e
    m_scale = 1.0 / (1 << label_bits)
    total = 0.0
    for outs in groups.values():
        marg = sum(e.prob * e.rho for e in outs.values())
        marg_trace = float(np.real(np.trace(marg)))
        present = 0
        for out, e in outs.items():
            total += l1_norm(e.prob * e.rho - m_scale * marg)
            present += 1
        total += ((1 << label_bits) - present) * m_scale * marg_trace
    return 0.5 * total


def boolean_reduce(s: CqState, f: Callable[[str], int]) -> CqState:
    """Merge a cq-state's labels through a Boolean function into {0, 1}."""
    parts = {0: [0.0, None], 1: [0.0, None]}
    dim = s.dim
    for e in s.entries:
        out, side = _split_label(e.label)
        if side is not None:
            raise ParameterError("boolean_reduce expects simple labels")
        b = 1 if f(out) else 0
        parts[b][0] += e.prob
        if parts[b][1] is None:
            parts[b][1] = e.prob * e.rho.astype(complex, copy=True)
        else:
            parts[b][1] += e.prob * e.rho
    entries = []
    for b in (0, 1):
        p, total = parts[b]
        if p > 0:
            entries.append((str(b), p, total / p))
    return CqState.from_entries(entries)


def parity_mask_fn(mask: int) -> Callable[[str], int]:
    """The character z -> parity of the mask-selected bits of z."""

    def f(label: str) -> int:
        acc = 0
        for j, ch in enumerate(label):
            if (mask >> j) & 1 and ch == "1":
                acc ^= 1
        return acc

    return f


@dataclass(frozen=True)
class XorLemmaResult:
    lhs_squared: float
    rhs_bound: float          # 2^min(d, m) times the character sum
    rhs_bound_dim: float      # 2^d variant
    rhs_bound_labels: float   # 2^m variant
    character_sum: float

    def holds(self, atol: float = 1e-8) -> bool:
        return self.lhs_squared <= self.rhs_bound + atol


def xor_lemma_check(s: CqState) -> XorLemmaResult:
    """Multi-bit distance squared vs the character-sum bound.

    Both proof branches are reported: one pays a factor 2^d in the
    state dimension, the other 2^m in the label length; the headline
    bound takes the smaller factor.
    """
    m = len(s.entries[0].label)
    if any(len(e.label) != m or not isinstance(e.label, str) for e in s.entries):
        raise ValidationError("xor lemma needs simple m-bit labels")
    d = s.dim.bit_length() - 1
    lhs = cq_distance_from_uniform(s, m)
    char_sum = 0.0
    for mask in range(1, 1 << m):
        reduced = boolean_reduce(s, parity_mask_fn(mask))
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
    avg = s.average_state()
    r, kernel = _pinv_sqrt_and_kernel(avg)
    n = len(s.entries)
    elements = []
    for e in s.entries:
        el = e.prob * (r @ e.rho @ r) + kernel / n
        elements.append((e.label, 0.5 * (el + el.conj().T)))
    return Povm(tuple(elements))


def guess_success(s: CqState, m: Povm) -> float:
    """Probability that measuring with m recovers the label."""
    table = m.as_dict()
    total = 0.0
    for e in s.entries:
        if e.label not in table:
            raise ParameterError(f"POVM lacks element for label {e.label!r}")
        total += e.prob * float(np.real(np.trace(table[e.label] @ e.rho)))
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

    def holds(self, atol: float = 1e-8) -> bool:
        return self.lhs <= self.bound + atol


def pgm_reduction_check(s: CqState, f: Callable[[str], int]) -> PgmReductionResult:
    """Quantum-to-classical reduction through the square-root measurement.

    lhs is the trace distance of the reduced bit from uniform; the
    classical side measures the joint of f(Z) with the measurement
    outcome against an independent uniform bit, as a variational
    distance; the claimed bound is sqrt(half the classical distance).
    """
    lhs = cq_distance_from_uniform(boolean_reduce(s, f), 1)
    measurement = pgm(s)
    joint: Dict[Tuple[int, object], float] = {}
    marg: Dict[object, float] = {}
    for e in s.entries:
        b = 1 if f(e.label) else 0
        for lbl, el in measurement.elements:
            q = e.prob * float(np.real(np.trace(el @ e.rho)))
            joint[(b, lbl)] = joint.get((b, lbl), 0.0) + q
            marg[lbl] = marg.get(lbl, 0.0) + q
    dist = 0.0
    for w, pw in marg.items():
        for b in (0, 1):
            dist += abs(joint.get((b, w), 0.0) - 0.5 * pw)
    classical = 0.5 * dist
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
    if np.max(np.abs(s_op - s_op.conj().T)) > HERMITIAN_ATOL:
        raise ValidationError("operator is not Hermitian")
    sig_vals = np.linalg.eigvalsh(sigma)
    if sig_vals.min() < -PSD_ATOL:
        raise ValidationError("sigma is not PSD")
    r, kernel = _pinv_sqrt_and_kernel(sigma)
    if np.max(np.abs(kernel @ s_op)) > 1e-8:
        raise ValidationError("support of the operator leaks outside sigma")
    lhs = 0.5 * l1_norm(s_op)
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
    entries = []
    for v in range(count):
        entries.append((BitVector(label_bits, v).to_str(), float(probs[v]),
                        random_density(dim, rng)))
    return CqState.from_entries(entries)


def random_boolean_fn(label_bits: int, seed: int, stream: int = 0) -> Callable[[str], int]:
    rng = derive_rng(seed, 0xB001, stream)
    table = rng.integers(0, 2, size=1 << label_bits)
    values = {BitVector(label_bits, v).to_str(): int(table[v])
              for v in range(1 << label_bits)}
    return lambda label: values[label]
