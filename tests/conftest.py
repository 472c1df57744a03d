"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qx2src import qsim
from qx2src.extractors import FlatSource
from qx2src.rng import derive_rng


def _check_density_matrix(m):
    """Fail unless m is square of power-of-two size, Hermitian, PSD and of unit trace."""
    m = np.asarray(m, dtype=complex)
    assert m.ndim == 2 and m.shape[0] == m.shape[1], "density matrix must be square"
    d = m.shape[0]
    assert not d & (d - 1), "dimension must be a power of two"
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12, "density matrix not Hermitian"
    assert np.linalg.eigvalsh(m).min() >= -qsim.PSD_ATOL, "density matrix not PSD"
    assert abs(float(np.real(np.trace(m))) - 1.0) <= qsim.TRACE_ATOL, \
        "density matrix trace differs from 1"


@pytest.fixture
def check_density_matrix():
    """The validity check every stored state must pass."""
    return _check_density_matrix


def _unitary(dim, rng):
    """qsim.random_unitary's draw for one generator, from one 2-D QR."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_storage_oracle(b1, b2, flavor, seed):
    """random_storage's state for one pair of source values, built from
    single matrices with np.kron, np.linalg.norm and qsim.partial_trace."""
    if flavor == "entangled":
        wa, wb = b1 + 1, b2 + 1
        rng = derive_rng(seed, 0xE27)
        g = rng.normal(size=1 << (wa + wb)) + 1j * rng.normal(size=1 << (wa + wb))
        shared = g / np.linalg.norm(g)
        pure = np.outer(shared, shared.conj())

        def state(x, y):
            u = np.kron(_unitary(1 << wa, derive_rng(seed, 0xA11CE, x)),
                        _unitary(1 << wb, derive_rng(seed, 0xB0B, y)))
            rho = qsim.partial_trace(u @ pure @ u.conj().T, [2] * (wa + wb),
                                     list(range(b1)) + [wa + i for i in range(b2)])
            return 0.5 * (rho + rho.conj().T)
        return state

    def side(stream, b, v):
        rng = derive_rng(seed, stream, v)
        g = rng.normal(size=1 << (b + 1)) + 1j * rng.normal(size=1 << (b + 1))
        pure = g / np.linalg.norm(g)
        kept = qsim.partial_trace(np.outer(pure, pure.conj()), [1 << b, 2], [0])
        return 0.5 * (kept + kept.conj().T)
    return lambda x, y: np.kron(side(0xA11CE, b1, x), side(0xB0B, b2, y))


@pytest.fixture
def random_storage_oracle():
    """random_storage one pair at a time: oracle(b1, b2, flavor, seed)(x, y)."""
    return _random_storage_oracle


def _conditioned_state(xs, ys, state_map, exposed):
    """The instances whose weak states make up the state of (xs, ys) with a
    source exposed, one per value v of it, ({v}, ys) or (xs, {v}), and
    their states from one stacked call, every instance under the state
    map's first strategy.  The exposed source is a classical register, so
    the exposed state's distance from uniform is the mean of theirs."""
    x_list, y_list = [xs], [ys]
    if exposed == "X":
        x_list = [FlatSource.from_values(xs.n, [v]) for v in xs.support.tolist()]
        y_list = [ys] * len(x_list)
    elif exposed == "Y":
        y_list = [FlatSource.from_values(ys.n, [v]) for v in ys.support.tolist()]
        x_list = [xs] * len(y_list)
    return x_list, y_list, qsim.extractor_output_state(
        x_list, y_list, lambda xs, ys, at: state_map(xs, ys, np.zeros_like(at)))


@pytest.fixture
def conditioned_state():
    """conditioned_state(xs, ys, state_map, exposed) -> (x sources, y
    sources, stacked state) of the weak instances of an exposed state."""
    return _conditioned_state
