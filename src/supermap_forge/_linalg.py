"""Small dense linear-algebra helpers shared across the package."""

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dag(m))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def groups(keys) -> dict:
    """{key: [positions of key in keys]}, keys in order of first appearance:
    the stacks of equal-shape blocks that the batched paths run on."""
    out = {}
    for t, key in enumerate(keys):
        out.setdefault(key, []).append(t)
    return out


def stack(blocks) -> np.ndarray:
    """Equal-shape blocks as one array, a new axis first; one block is a
    view of itself, so a single-block shape copies nothing."""
    return blocks[0][None] if len(blocks) == 1 else np.array(blocks)


def frobs(x: np.ndarray) -> list:
    """frob of each matrix of a C-contiguous stack, summed as frob sums it:
    the real and the imaginary parts of the row-major entries each by one
    BLAS dot (a 1 x K by K x 1 matmul), then the square root."""
    if len(x) == 1:
        return [frob(x[0])]
    v = x.reshape(len(x), 1, -1)
    re, im = v.real, v.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel().tolist()


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
