"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qx2src import qsim


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
