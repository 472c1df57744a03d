"""Concrete storage strategies and attacks.

A storage strategy is a state map (see StorageStrategy) returning a
stack of joint stored states on b1 + b2 qubits, one per source pair,
Alice's qubits first, checked against the budgets.  In the superdense
strategy Bob keeps his whole state, so b2 counts all of his qubits.
The block strategies of the tightness attacks are basis strategies:
each pair's state is one vector of a fixed orthonormal basis of the
budget space, named by a basis index, so an attack measures the
strategy by exact counts over those indices and builds no state.
Strategies here cover seeded random adversaries (product and
entangled, one per seed of a sequence), classical blocks, the exact
Bell-pair protocol that computes the inner product in the simultaneous
message passing model, superdense coding, and the source/storage
constructions that sit right at the security bounds.  The protocols
report only what the attacks check: the output, its probability and
the qubits each party sends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, get_args

import numpy as np

from . import qsim
from .bounds import Branch, Setting
from .errors import DimensionError, ParameterError, SearchExhaustedError
from .extractors import FlatSource
from .gf2 import BitVector
from .rng import derive_rng, derive_rngs

# --------------------------------------------------------------------------
# Bell-pair machinery

_EPR = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
_BELL_BASIS = {c: np.kron(qsim.PAULIS[c], np.eye(2)) @ _EPR for c in qsim.PAULIS}


@functools.cache
def bell_outcome(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[Tuple[int, int], float]:
    """Bell measurement after Alice applies sigma_a and Bob sigma_b.

    Returns the most likely outcome and its probability; the encoding
    leaves the pair in an exact Bell state, so the probability is 1 up
    to roundoff and the outcome equals a xor b.  Each of the 16 Pauli
    pairs is simulated once and its result kept.
    """
    state = np.kron(qsim.PAULIS[a], qsim.PAULIS[b]) @ _EPR
    best, best_p = None, -1.0
    for c, vec in _BELL_BASIS.items():
        p = abs(np.vdot(vec, state)) ** 2
        if p > best_p:
            best, best_p = c, p
    return best, best_p


@dataclass(frozen=True)
class SmpOutcome:
    output: int
    success_probability: float
    qubits_per_party: int


def smp_ip_protocol(x: BitVector, y: BitVector) -> SmpOutcome:
    """Exact inner product in the entangled SMP model.

    Each party Pauli-encodes two input bits per shared EPR pair and
    additionally sends its Hamming weight mod 4 in two qubits used
    classically.  The referee Bell-measures every pair, recovers
    x xor y, and outputs ((|x| + |y| - |x xor y|) mod 4) / 2, which
    equals the inner product with certainty.
    """
    if x.length != y.length:
        raise DimensionError("input length mismatch")
    n = x.length
    xb = [x.bit(j) for j in range(n)]
    yb = [y.bit(j) for j in range(n)]
    if n % 2:
        xb.append(0)
        yb.append(0)
    w_xor = 0
    p_total = 1.0
    for i in range(0, len(xb), 2):
        c, p = bell_outcome((xb[i], xb[i + 1]), (yb[i], yb[i + 1]))
        w_xor += sum(c)
        p_total *= p
    output = ((x.weight() % 4 + y.weight() % 4 - w_xor) % 4) // 2
    return SmpOutcome(output=output, success_probability=p_total,
                      qubits_per_party=len(xb) // 2 + 2)


def superdense_roundtrip(message: BitVector) -> BitVector:
    """Round-trip an even-length message through pairwise superdense coding.

    Each pair of bits is encoded on one EPR half and Bell-decoded.
    """
    if message.length % 2:
        raise ParameterError("message length must be even")
    out_bits = []
    for i in range(0, message.length, 2):
        c, p = bell_outcome((message.bit(i), message.bit(i + 1)), (0, 0))
        if p < 1 - 1e-9:
            raise AssertionError("Bell states failed to be distinguishable")
        out_bits.extend(c)
    return BitVector.from_bits(out_bits)


# --------------------------------------------------------------------------
# storage strategies


@dataclass(frozen=True)
class StorageStrategy:
    """Map from source pairs to stored states within declared qubit budgets.

    Every state map is called as stored(xs, ys, at) on equally long int
    arrays: pair i is (xs[i], ys[i]) under strategy at[i] of a stack of
    them, and the result is the (P, 2^(b1+b2), 2^(b1+b2)) stack of their
    states, Alice's qubits first, which calling the strategy checks.  A
    basis strategy ignores at and also has index(xs, ys), the int64 rows
    of the orthonormal table basis() whose pure states stored returns.
    """

    b1: int
    b2: int
    stored: Callable[..., np.ndarray]
    index: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    basis: Optional[Callable[[], np.ndarray]] = None

    def __post_init__(self):
        if self.b1 < 0 or self.b2 < 0:
            raise ParameterError("budgets must be nonnegative")

    def __call__(self, xs: np.ndarray, ys: np.ndarray, at: np.ndarray) -> np.ndarray:
        rhos = np.asarray(self.stored(xs, ys, at), dtype=complex)
        dim = 1 << (self.b1 + self.b2)
        if rhos.shape != (len(xs), dim, dim):
            raise DimensionError(f"strategy produced states of shape {rhos.shape[1:]} "
                                 f"for {len(xs)} pairs, budget dim {dim}")
        return rhos


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each pair in two equally long stacks of matrices."""
    (p, ra, ca), (_, rb, cb) = a.shape, b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(p, ra * rb, ca * cb)


def _per_value(build: Callable[[list], np.ndarray]) -> Callable[..., tuple]:
    """Factors by (instance, source value): look(at, vs) returns a stack of
    factors and, for each i, the row of (at[i], vs[i])'s factor in it.
    build(keys) makes each new key's factor once, all of a call's new keys
    as one stack.  A stack of strategies is called instance by instance,
    so only factors from a call's last instance on are kept."""
    table = {}

    def look(at, vs):
        keys = list(zip(at.tolist(), vs.tolist()))
        rows = {key: row for row, key in enumerate(dict.fromkeys(keys))}
        new = [key for key in rows if key not in table]
        if new:
            table.update(zip(new, build(new)))
        factors = np.array([table[key] for key in rows])
        for key in [key for key in table if key[0] < keys[-1][0]]:
            del table[key]
        return factors, np.array([rows[key] for key in keys])

    return look


def random_storage(b1: int, b2: int, flavor: str, seeds) -> StorageStrategy:
    """A stack of seeded random strategies of the requested flavor, one per
    seed, pair i under seeds[at[i]].

    Entangled: a fixed Gaussian-random shared pure state with one extra
    working qubit per side, per-input Haar-ish local unitaries, then a
    partial trace down to the budgets.  Product: an independent
    per-input purification per side, traced to the budget.  Each side's
    factor is drawn once per (seed, source value), every new value of a
    call in one stack, through one re-keyed generator (rng.derive_rngs).
    The entangled flavor conjugates and traces its 2^(b1+b2+2)-square
    joint states in chunks of an eighth of qsim.STACK_BYTES, and holds
    one seed's shared state at a time.
    """
    if flavor == "entangled":
        wa, wb = b1 + 1, b2 + 1
        dims = [2] * (wa + wb)
        keep = list(range(b1)) + [wa + i for i in range(b2)]

        @functools.lru_cache(maxsize=1)
        def pure(i):
            rng = derive_rng(seeds[i], 0xE27)
            g = rng.normal(size=1 << (wa + wb)) + 1j * rng.normal(size=1 << (wa + wb))
            shared = g / np.linalg.norm(g)
            return np.outer(shared, shared.conj())

        ua = _per_value(lambda keys: qsim.random_unitary(
            1 << wa, derive_rngs((seeds[i], 0xA11CE, v) for i, v in keys)))
        ub = _per_value(lambda keys: qsim.random_unitary(
            1 << wb, derive_rngs((seeds[i], 0xB0B, v) for i, v in keys)))

        def stored(xs, ys, at):
            out = np.empty((len(xs), 1 << (b1 + b2), 1 << (b1 + b2)), dtype=complex)
            (fa, ia), (fb, ib) = ua(at, xs), ub(at, ys)
            # an eighth of STACK_BYTES of joint states, 16 bytes an entry
            for part in qsim.stack_chunks(len(xs), 8 * 16 << 2 * (wa + wb)):
                u = _kron(fa[ia[part]], fb[ib[part]])
                # one seed's pairs at a time; u^dagger is written over u, which
                # saves a copy of u
                edges = [0, *(np.flatnonzero(np.diff(at[part])) + 1).tolist(), len(u)]
                for lo, hi in zip(edges, edges[1:]):
                    run = u[lo:hi]
                    mixed = run @ pure(int(at[part][lo]))
                    mixed = mixed @ np.conjugate(run, out=run).swapaxes(-1, -2)
                    rho = qsim.partial_trace(mixed, dims, keep)
                    out[part][lo:hi] = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
            return out

        return StorageStrategy(b1, b2, stored)

    if flavor == "product":
        def side(stream, b):
            def build(keys):
                g = np.array([r.normal(size=1 << (b + 1)) + 1j * r.normal(size=1 << (b + 1))
                              for r in derive_rngs((seeds[i], stream, v) for i, v in keys)])
                # np.linalg.norm's sqrt(re . re + im . im), row by row:
                # norm(g, axis=-1) rounds differently
                re, im = g.real[:, None, :], g.imag[:, None, :]
                pure = g / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
                kept = qsim.partial_trace(pure[:, :, None] * pure.conj()[:, None, :],
                                          [1 << b, 2], [0])
                return 0.5 * (kept + kept.conj().swapaxes(-1, -2))
            return _per_value(build)

        alice, bob = side(0xA11CE, b1), side(0xB0B, b2)

        def stored(xs, ys, at):
            (fa, ia), (fb, ib) = alice(at, xs), bob(at, ys)
            return _kron(fa[ia], fb[ib])

        return StorageStrategy(b1, b2, stored)

    raise ParameterError(f"unknown flavor {flavor!r}")


def _basis_strategy(b1: int, b2: int, basis: Callable[[], np.ndarray],
                    index: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> StorageStrategy:
    """The strategy storing row index(xs, ys) of the orthonormal table
    basis(), which is built on first use and kept read-only."""
    @functools.cache
    def table():
        rows = basis()
        rows.flags.writeable = False
        return rows

    def stored(xs, ys, at):
        rows = table()[index(xs, ys)]
        return rows[:, :, None] * rows.conj()[:, None, :]

    return StorageStrategy(b1, b2, stored, index, table)


def _block_code(vs: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Bit positions[j] of each v as bit j of an int64 code; vs may hold
    Python ints of any length."""
    code = np.zeros(len(vs), dtype=np.int64)
    for j, p in enumerate(positions):
        code |= (vs >> p & 1).astype(np.int64) << j
    return code


def _pair_code(vs: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """The block bits of each v, padded with one zero to an even count, as
    a code with the first bit most significant: the row of _bell_table
    holding the pairs they Pauli-code."""
    return _block_code(vs, positions[::-1]) << len(positions) % 2


def _bell_table(pairs: int) -> np.ndarray:
    """Row c: one Bell pair per two bits of c, Pauli-coded by them with the
    first pair the most significant, Alice's halves first."""
    table = np.ones((1, 1), dtype=complex)
    for _ in range(pairs):
        table = np.kron(table, np.array(list(_BELL_BASIS.values())))
    return qsim.permute_qubits_vector(
        table, [*range(0, 2 * pairs, 2), *range(1, 2 * pairs, 2)])


def classical_block_storage(x_bits: Sequence[int], y_bits: Sequence[int],
                            b1: int, b2: int) -> StorageStrategy:
    """Each party stores a fixed block of its own input in basis states.

    Alice stores the x_bits coordinates of x (padded with zeros up to b1
    qubits), Bob the y_bits coordinates of y.  The paired strategy for
    breaking the one-bit extractor on overlapping uniform blocks.
    """
    if len(x_bits) > b1 or len(y_bits) > b2:
        raise ParameterError("block does not fit the declared budget")
    return _basis_strategy(
        b1, b2, lambda: np.eye(1 << (b1 + b2), dtype=complex),
        lambda xs, ys: _block_code(xs, x_bits) << b2 | _block_code(ys, y_bits))


def smp_block_storage(x_bits: Sequence[int], y_bits: Sequence[int],
                      b1: int, b2: int) -> StorageStrategy:
    """Entangled storage realizing the SMP inner-product protocol on a block.

    Alice keeps her Pauli-encoded EPR halves plus her block weight mod 4
    in two qubits; Bob symmetrically.  Qubit order inside each party:
    pair halves, weight dits, zero padding.  The basis index is the xor
    of the two blocks' pair codes, then Alice's weight, then Bob's.
    """
    if len(x_bits) != len(y_bits):
        raise ParameterError("blocks must have equal length")
    pairs = (len(x_bits) + 1) // 2
    used = pairs + 2
    if used > b1 or used > b2:
        raise ParameterError(
            f"protocol needs {used} qubits per party, budgets are ({b1}, {b2})")
    pad_a, pad_b = b1 - used, b2 - used
    # [A halves, B halves, A dits + pad, B dits + pad] -> Alice's qubits first
    order = [*range(pairs), *range(2 * pairs, pairs + b1),
             *range(pairs, 2 * pairs), *range(pairs + b1, b1 + b2)]

    def basis():
        dits = np.kron(np.eye(4 << pad_a)[::1 << pad_a], np.eye(4 << pad_b)[::1 << pad_b])
        return qsim.permute_qubits_vector(np.kron(_bell_table(pairs), dits), order)

    def index(xs, ys):
        cx, cy = _pair_code(xs, x_bits), _pair_code(ys, y_bits)
        return (cx ^ cy) << 4 | np.bitwise_count(cx) % 4 << 2 | np.bitwise_count(cy) % 4

    return _basis_strategy(b1, b2, basis, index)


def superdense_block_storage(x_bits: Sequence[int], b1: int) -> StorageStrategy:
    """Alice superdense-encodes a block of x; Bob keeps his whole state.

    Alice's b1 qubits hold her encoded EPR halves (two block bits per
    qubit) and zero padding.  Bob's state is the other halves, one qubit
    per pair, so the strategy's b2 is the pair count.  Together they let
    the referee decode the block exactly when Y is exposed.  The state
    depends on x alone; its basis index is the block's pair code.
    """
    pairs = (len(x_bits) + 1) // 2
    if pairs > b1:
        raise ParameterError(f"need {pairs} qubits for Alice, budget {b1}")
    pad_a = b1 - pairs
    # [A halves, B halves, A pad] -> Alice's budget qubits, then Bob's halves
    order = [*range(pairs), *range(2 * pairs, 2 * pairs + pad_a), *range(pairs, 2 * pairs)]
    return _basis_strategy(
        b1, pairs,
        lambda: qsim.permute_qubits_vector(
            np.kron(_bell_table(pairs), np.eye(1 << pad_a)[:1]), order),
        lambda xs, ys: _pair_code(xs, x_bits))


# --------------------------------------------------------------------------
# highly biased product sources


@dataclass(frozen=True)
class BiasedSourcePair:
    x: FlatSource
    y: FlatSource
    prob_zero: float
    bound: float
    l: int


def _ip_zero_table(l: int) -> np.ndarray:
    """table[i, j] = 1 when the l-bit inner product of i and j is zero."""
    v = np.arange(1 << l, dtype=np.uint32)
    return (1 - (np.bitwise_count(v[:, None] & v[None, :]) & 1)).astype(np.int32)


def _hill_climb(l: int, seed: int) -> Tuple[float, tuple, tuple]:
    restarts, iters = 4, 4000
    size = 1 << (l - 3)
    univ = 1 << l
    table = _ip_zero_table(l)
    best_overall = (-1.0, None, None)
    for restart in range(restarts + 1):
        if restart == 0:
            # orthogonal-subspace seed: X spans the low l-3 coordinates,
            # Y starts from the complementary 3-coordinate span
            xsel = np.zeros(univ, dtype=bool)
            xsel[:size] = True
            ysel = np.zeros(univ, dtype=bool)
            high = np.arange(0, univ, size)
            ysel[high[:min(size, len(high))]] = True
            rng = derive_rng(seed, 0xB1A5, 0)
            need = size - int(ysel.sum())
            if need > 0:
                pool = np.flatnonzero(~ysel)
                ysel[rng.choice(pool, size=need, replace=False)] = True
        else:
            rng = derive_rng(seed, 0xB1A5, restart)
            xsel = np.zeros(univ, dtype=bool)
            xsel[rng.choice(univ, size=size, replace=False)] = True
            ysel = np.zeros(univ, dtype=bool)
            ysel[rng.choice(univ, size=size, replace=False)] = True
        score = int(table[np.ix_(xsel, ysel)].sum())
        for _ in range(iters):
            col = table[:, ysel].sum(axis=1)
            x_out = int(np.argmin(np.where(xsel, col, np.iinfo(np.int32).max)))
            x_in = int(np.argmax(np.where(~xsel, col, -1)))
            gain_x = int(col[x_in] - col[x_out])
            row = table[xsel, :].sum(axis=0)
            y_out = int(np.argmin(np.where(ysel, row, np.iinfo(np.int32).max)))
            y_in = int(np.argmax(np.where(~ysel, row, -1)))
            gain_y = int(row[y_in] - row[y_out])
            if gain_x <= 0 and gain_y <= 0:
                break
            if gain_x >= gain_y:
                xsel[x_out] = False
                xsel[x_in] = True
                score += gain_x
            else:
                ysel[y_out] = False
                ysel[y_in] = True
                score += gain_y
        prob = score / (size * size)
        if prob > best_overall[0]:
            best_overall = (prob, tuple(np.flatnonzero(xsel)), tuple(np.flatnonzero(ysel)))
    return best_overall


def biased_product_sources(l: int, seed: int = 0) -> BiasedSourcePair:
    """Flat l-bit sources of min-entropy l - 3 with Pr[X . Y = 0] beyond
    1/2 + 2^(-(l-1)/2).

    Found for 4 <= l <= 10 by seeded hill-climbing over single-element
    support swaps.  The first start is orthogonal: at l = 4 it is
    X = {0, 1}, Y = {0, 2}, where every inner product is 0, so the
    optimum Pr = 1 is returned.  The achieved probability is measured on
    the returned pair and must clear the bound, otherwise a
    search-exhausted error carrying the best value found is raised.
    """
    if l < 4:
        raise ParameterError("need l >= 4")
    if l > 10:
        raise SearchExhaustedError(f"l={l} beyond the supported search range", best=None)
    bound = 0.5 + 2 ** (-(l - 1) / 2)
    prob, xsup, ysup = _hill_climb(l, seed)
    if prob <= bound:
        raise SearchExhaustedError(
            f"search stalled at Pr={prob:.6f} <= bound {bound:.6f} for l={l}",
            best=prob)
    return BiasedSourcePair(x=FlatSource.from_values(l, xsup),
                            y=FlatSource.from_values(l, ysup),
                            prob_zero=prob, bound=bound, l=l)


# --------------------------------------------------------------------------
# tightness attacks


@dataclass(frozen=True)
class TightnessAttack:
    x_source: FlatSource
    y_source: FlatSource
    storage: StorageStrategy  # the state map measured
    exposed: Optional[str]   # the source held with the output, if any
    entangled: bool
    superstrong: bool
    predicted_advantage: float
    branch: str            # "exact" or "biased"
    effective_block: int   # b, the number of inner-product bits the storage covers
    l: Optional[int] = None
    bias_found: Optional[float] = None


SETTINGS = get_args(Setting)


def _attack_storage(entangled: bool, superstrong: bool, block: List[int],
                    b1: int, b2: int) -> Tuple[StorageStrategy, Optional[str]]:
    """Storage computing the block inner product, and the source exposed
    with the output."""
    if superstrong and entangled:
        return superdense_block_storage(block, b1), "Y"
    if superstrong:
        # one-way: Alice stores her block, the y side is exposed anyway
        return classical_block_storage(block, [], b1, b2), "Y"
    build = smp_block_storage if entangled else classical_block_storage
    return build(block, block, b1, b2), None


def tightness_attack(n: int, k1: int, k2: int, b1: int, b2: int,
                     setting: Setting, branch: Branch = "auto",
                     seed: int = 0) -> TightnessAttack:
    """Sources plus storage sitting at the security frontier.

    With Delta = k1 + k2 - n not exceeding the block size b the storage
    can afford, the sources overlap on at most b coordinates, the
    storage computes the overlapping inner product outright and the
    advantage is exactly 1/2.  Otherwise the sources are assembled from
    four blocks - a b-bit uniform block covered by the storage, filler
    blocks that keep the min-entropies at k1 and k2, and a highly
    biased pair on l = Delta + 6 - b bits - so that the storage's block
    bit matches the full inner product with probability beyond
    1/2 + 2^(-(Delta + 5 - b)/2).
    """
    if setting not in SETTINGS:
        raise ParameterError(f"unknown setting {setting!r}")
    if not (0 < k1 <= n and 0 < k2 <= n):
        raise ParameterError("need 0 < k1, k2 <= n")
    if b1 < 0 or b2 < 0:
        raise ParameterError(f"need storage budgets b1, b2 >= 0, got b1={b1}, b2={b2}")
    if branch not in get_args(Branch):
        raise ParameterError("branch must be auto, exact, or biased")
    entangled = "non-" not in setting
    superstrong = setting.startswith("superstrong")
    if superstrong and b1 < b2:
        # the construction stores the x side; with the larger budget on the
        # y side, swap the sources and attack the mirrored property instead
        raise ParameterError("superstrong attack assumes b1 >= b2; "
                             "swap the roles of the sources to mirror it")
    # b, the block the storage covers.  In the weak settings both parties
    # store it, so the smaller budget counts; the SMP protocol spends two
    # qubits per party on its weight mod 4 and carries two block bits per
    # remaining EPR pair.  In the superstrong settings Bob's state is
    # exposed whole, so Alice's budget counts, and superdense coding
    # carries two block bits per qubit.
    if superstrong:
        b = 2 * b1 if entangled else b1
    else:
        b = max(0, 2 * (min(b1, b2) - 2)) if entangled else min(b1, b2)
    delta = k1 + k2 - n
    if branch == "auto":
        branch = "exact" if delta <= b else "biased"

    l = bias_found = None
    if branch == "exact":
        if delta > b:
            raise ParameterError(
                f"exact branch needs Delta={delta} <= covered block b={b}")
        x_source = FlatSource.from_values(n, range(1 << k1))
        y_source = FlatSource.from_values(
            n, (v << (n - k2) for v in range(1 << k2)))
        block = list(range(n - k2, k1))  # the overlap, empty when Delta <= 0
        predicted = 0.5
    else:
        l = delta + 6 - b
        len2 = k1 - delta - 3           # equals n - k2 - 3
        len4 = n - k1 - 3               # equals k2 - delta - 3
        if l < 4 or len2 < 0 or len4 < 0:
            raise ParameterError(
                f"biased construction infeasible: l={l}, filler lengths ({len2}, {len4})")
        biased = biased_product_sources(l, seed=seed)
        shift3 = b + len2
        x_vals = []
        for x3 in biased.x.support:
            for x2 in range(1 << len2):
                for x1 in range(1 << b):
                    x_vals.append(x1 | (x2 << b) | (x3 << shift3))
        y_vals = []
        for y3 in biased.y.support:
            for y4 in range(1 << len4):
                for y1 in range(1 << b):
                    y_vals.append(y1 | (y3 << shift3) | (y4 << (shift3 + l)))
        x_source = FlatSource.from_values(n, x_vals)
        y_source = FlatSource.from_values(n, y_vals)
        block = list(range(b))
        predicted = 2.0 ** (-(k1 + k2 - b - n + 5) / 2)
        bias_found = biased.prob_zero
    storage, exposed = _attack_storage(entangled, superstrong, block, b1, b2)
    return TightnessAttack(x_source=x_source, y_source=y_source, storage=storage,
                           exposed=exposed, entangled=entangled,
                           superstrong=superstrong, predicted_advantage=predicted,
                           branch=branch, effective_block=b, l=l,
                           bias_found=bias_found)


def measure_attack_advantage(attack: TightnessAttack) -> float:
    """Exact distance from uniform of the inner-product bit given the storage.

    The strategy stores one vector of an orthonormal basis per pair, so
    every block of the cq-state is diagonal in that basis, and the trace
    distance is a total-variation distance over (side, basis index).
    With c0 and c1 the pairs of each group whose inner product is 0 and
    1, it is sum |c0 - c1| / (2 |X| |Y|), integers up to one division.
    The exposed side is keyed by its position in its source's support.
    """
    storage = attack.storage
    xs = qsim._int_array(attack.x_source.support)
    ys = qsim._int_array(attack.y_source.support)
    xv, yv = np.repeat(xs, len(ys)), np.tile(ys, len(xs))      # the pairs, x-major
    odd = qsim.character(xv, yv) == 1
    key = storage.index(xv, yv)
    del xv, yv                  # before np.unique makes its copies of key
    dim = 1 << (storage.b1 + storage.b2)
    if int(key.min()) < 0 or int(key.max()) >= dim:
        raise DimensionError(f"basis index beyond the budget dim {dim}")
    if attack.exposed == "X":
        key += np.repeat(np.arange(len(xs)) * dim, len(ys))
    elif attack.exposed == "Y":
        key += np.tile(np.arange(len(ys)) * dim, len(xs))
    _, group = np.unique(key, return_inverse=True)
    del key
    pairs = np.bincount(group)
    ones = np.bincount(group[odd], minlength=len(pairs))
    return int(np.abs(pairs - 2 * ones).sum()) / (2 * len(xs) * len(ys))


# --------------------------------------------------------------------------
# the guessing-entropy counterexample


@dataclass(frozen=True)
class CounterexampleReport:
    n: int
    referee_correct_fraction: float
    triples_checked: int
    guessing_entropy_single: float    # H_g(X <- one adversary's storage), exact
    guessing_entropy_combined: float  # H_g(X <- both adversaries' storage), exact
    weight_classes: int


def guessing_entropy_counterexample(n: int) -> CounterexampleReport:
    """Shared-pad storage that computes x . y while guessing entropy stays high.

    Alice stores (x xor r, |x| mod 4) and Bob (y xor r, |y| mod 4) for a
    shared uniform pad r; the referee reconstructs x xor y and outputs
    ((|x| + |y| - |x xor y|) mod 4) / 2, which equals x . y on every
    input triple.  The guessing entropy of X given Alice's storage is
    exactly n - 2: the pad makes x xor r useless and the posterior is
    uniform on one of the four weight classes.  The combined-storage
    posterior (given both pads and both weights) is also enumerated
    exhaustively for reference.
    """
    if n < 3:
        raise ParameterError("need n >= 3 so all four weight residues occur")
    size = 1 << n
    # the narrowest unsigned values, uint8 weights: the referee loop below
    # moves about half the bytes of int64 arrays; weights - pop wraps mod
    # 2^8, a multiple of 4, so the residues mod 4 stay exact
    vals = np.arange(size, dtype=np.min_scalar_type(size - 1))
    pop = np.bitwise_count(vals).astype(np.uint8)

    # referee correctness over all (x, y, r), one pad r at a time so the
    # arrays stay (2^n)^2 rather than (2^n)^3
    x = vals[:, None]
    y = vals[None, :]
    weights = pop[x] % 4 + pop[y] % 4
    truth = pop[x & y] % 2
    agree = 0
    for r in range(size):
        out = ((weights - pop[(x ^ r) ^ (y ^ r)]) % 4) // 2
        agree += int(np.count_nonzero(out == truth))
    correct = agree / size ** 3

    # H_g(X <- (x xor r, |x| mod 4)): the posterior given any transcript is
    # uniform on a weight class, so p_guess = (#classes) / 2^n exactly
    classes = len(set(int(pop[v]) % 4 for v in range(size)))
    h_single = n - math.log2(classes)

    # H_g(X <- combined storage): the transcript (a, w1, b, w2) pins c = a xor b
    # and leaves X uniform on {x : |x| = w1, |x xor c| = w2 (mod 4)}: count the
    # (c, w1, w2) that occur
    w = pop % 4
    seen = np.zeros((size, 16), dtype=bool)
    seen[vals[:, None], w[None, :] * 4 + w[vals[:, None] ^ vals[None, :]]] = True
    p_combined = int(np.count_nonzero(seen)) / size / size
    h_combined = -math.log2(p_combined)

    return CounterexampleReport(n=n,
                                referee_correct_fraction=correct,
                                triples_checked=size ** 3,
                                guessing_entropy_single=float(h_single),
                                guessing_entropy_combined=float(h_combined),
                                weight_classes=classes)
