"""Small dense linear-algebra helpers shared across the package."""

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dag(m))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorisation: |A>>_(r,c) = A[r, c]."""
    return np.asarray(m).reshape(-1)


def matrix_unit(d: int, a: int, b: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=complex)
    e[a, b] = 1.0
    return e


def hermitian_basis(d: int) -> list:
    """Orthonormal basis of d x d Hermitian matrices under Tr(A B)."""
    out = []
    for a in range(d):
        out.append(matrix_unit(d, a, a))
    inv = 1.0 / np.sqrt(2.0)
    for a in range(d):
        for b in range(a + 1, d):
            out.append(inv * (matrix_unit(d, a, b) + matrix_unit(d, b, a)))
            out.append(1j * inv * (matrix_unit(d, a, b) - matrix_unit(d, b, a)))
    return out


def psd_root_inverse(m: np.ndarray, tol: float) -> np.ndarray:
    """Inverse square root of a Hermitian PSD matrix; None if near singular."""
    w, v = np.linalg.eigh(herm_part(m))
    if w.min() <= tol * max(w.max(), 1.0):
        return None
    return (v * (1.0 / np.sqrt(w))) @ dag(v)
