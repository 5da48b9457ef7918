"""The eigensolver behind HermitianOperator.eigensystem (numpy's eigh) and
the seeded unitary stream of random_unitary (numpy's qr)."""

import numpy as np
import pytest

from majorbit.hermitian import HermitianOperator, random_unitary
from majorbit.prng import SplitMix64


def random_complex(rng, n):
    return np.array(
        [[complex(rng.gauss(), rng.gauss()) for _ in range(n)] for _ in range(n)]
    )


def check_eigensystem(a, w, v):
    """Descending eigenvalues matching numpy's, small eigen-residual and
    orthonormal eigenvectors, all relative to the spectrum's size."""
    n = a.shape[0]
    w_ref = np.linalg.eigvalsh(a)[::-1]
    scale = 1.0 + np.max(np.abs(w_ref))
    assert np.all(np.diff(w) <= 0)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
    assert np.max(np.abs(a @ v - v @ np.diag(w))) <= 1e-12 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 10, 12])
def test_real_symmetric_against_numpy(n):
    rng = SplitMix64(100 + n)
    g = np.array([[rng.gauss() for _ in range(n)] for _ in range(n)])
    a = (g + g.T) / 2
    check_eigensystem(a, *HermitianOperator(a).eigensystem())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_hermitian_against_numpy(n):
    rng = SplitMix64(200 + n)
    g = random_complex(rng, n)
    a = (g + g.conj().T) / 2
    check_eigensystem(a, *HermitianOperator(a).eigensystem())


def test_degenerate_spectrum():
    u = random_unitary(SplitMix64(7), 5)
    values = np.array([2.0, 2.0, 2.0, -1.0, -1.0])
    a = u @ np.diag(values) @ u.conj().T
    w, v = HermitianOperator(a).eigensystem()
    assert np.max(np.abs(w - values)) <= 1e-12
    assert np.max(np.abs(a @ v - v @ np.diag(w))) <= 1e-11
    assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-11


def test_diagonal_matrix_is_exact():
    """Exact eigenvalues on diagonal input carry the exact eig_scale ==
    rearrange bridge in test_hermitian."""
    w, v = HermitianOperator(np.diag([3.0, 1.0, -2.0])).eigensystem()
    assert list(w) == [3.0, 1.0, -2.0]
    assert np.array_equal(np.abs(v), np.eye(3))


def test_random_unitary_properties():
    u = random_unitary(SplitMix64(9), 6)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-12
    # deterministic: same seed, same output
    assert np.array_equal(u, random_unitary(SplitMix64(9), 6))
    # the phase normalization: U* G has a positive real diagonal
    g = random_complex(SplitMix64(9), 6)
    d = np.diag(u.conj().T @ g)
    assert np.all(d.real > 0) and np.max(np.abs(d.imag)) <= 1e-12
