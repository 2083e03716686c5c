"""Multimatrix algebras and their elements.

A finite-dimensional C*-algebra is a direct sum of full matrix blocks
``(+)_i B(H_i)``.  :class:`MultiMatrixAlgebra` records the ordered, labelled
list of block dimensions; :class:`BlockOperator` holds one complex matrix per
block.  States of such an algebra are hybrid classical/quantum objects: the
block traces form a probability distribution and each normalised block is a
density matrix.

Conventions used throughout the package:

* all matrices are complex128; tolerances are absolute Frobenius-norm
  thresholds with default ``DEFAULT_TOL = 1e-9``, overridable per call;
* one PSD rule serves every positivity check: entries are finite, the
  Hermiticity defect ``||x - x†||_F`` is at most tol, and after
  symmetrising ``(x + x†)/2`` the smallest eigenvalue is at least -tol;
* block labels are ordered, and all cross-algebra identifications are made
  by block order, never by label text.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple, Union

import numpy as np

from ._linalg import dag, frob, herm_part, matrix_unit
from .errors import AlgebraMismatchError, NotPositiveError, ShapeMismatchError

DEFAULT_TOL = 1e-9

Label = Union[str, int, Tuple]


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """An ordered list of labelled matrix blocks describing (+)_i B(H_i)."""

    blocks: Tuple[Tuple[Label, int], ...]

    def __post_init__(self):
        blocks = tuple((lbl, int(d)) for lbl, d in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ShapeMismatchError("an algebra needs at least one block")
        if any(d < 1 for _, d in blocks):
            raise ShapeMismatchError("block dimensions must be >= 1")
        labels = [lbl for lbl, _ in blocks]
        if len(set(labels)) != len(labels):
            raise ShapeMismatchError(f"duplicate block labels: {labels}")

    @classmethod
    def from_dims(cls, dims: Sequence[int], prefix: str = "b") -> "MultiMatrixAlgebra":
        return cls(tuple((f"{prefix}{k}", int(d)) for k, d in enumerate(dims)))

    @classmethod
    def single(cls, dim: int, label: Label = "q") -> "MultiMatrixAlgebra":
        return cls(((label, int(dim)),))

    @classmethod
    def classical(cls, n: int, prefix: str = "c") -> "MultiMatrixAlgebra":
        """n one-dimensional blocks: the algebra of an n-symbol classical system."""
        return cls(tuple((f"{prefix}{k}", 1) for k in range(n)))

    @property
    def dim(self) -> int:
        """Total dimension sum_i dim(H_i); equals trace of the identity."""
        return sum(d for _, d in self.blocks)

    @property
    def labels(self) -> Tuple[Label, ...]:
        return tuple(lbl for lbl, _ in self.blocks)

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(d for _, d in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def index(self, label: Label) -> int:
        for k, (lbl, _) in enumerate(self.blocks):
            if lbl == label:
                return k
        raise KeyError(f"no block labelled {label!r}")

    def identity(self) -> "BlockOperator":
        return BlockOperator(self, [np.eye(d, dtype=complex) for d in self.dims])

    def zeros(self) -> "BlockOperator":
        return BlockOperator(self, [np.zeros((d, d), dtype=complex) for d in self.dims])

    def unit(self, block: int, a: int, b: int) -> "BlockOperator":
        """Matrix unit E_ab supported on one block; zero elsewhere."""
        mats = [np.zeros((d, d), dtype=complex) for d in self.dims]
        mats[block] = matrix_unit(self.dims[block], a, b)
        return BlockOperator(self, mats)

    def matrix_units(self) -> Iterator[Tuple[int, int, int, "BlockOperator"]]:
        """Iterate (block, a, b, E) over the full matrix-unit basis."""
        for i, d in enumerate(self.dims):
            for a in range(d):
                for b in range(d):
                    yield i, a, b, self.unit(i, a, b)


class BlockOperator:
    """One complex matrix per block of a multimatrix algebra.

    Values are immutable after construction; all arithmetic returns new
    operators.  Binary operations require both operands to share the same
    algebra.
    """

    __slots__ = ("algebra", "_mats")

    def __init__(self, algebra: MultiMatrixAlgebra, mats: Iterable[np.ndarray]):
        mats = tuple(np.array(m, dtype=complex) for m in mats)
        if len(mats) != len(algebra.blocks):
            raise ShapeMismatchError(
                f"expected {len(algebra.blocks)} block matrices, got {len(mats)}"
            )
        for m, d in zip(mats, algebra.dims):
            if m.shape != (d, d):
                raise ShapeMismatchError(f"block of shape {m.shape} where ({d}, {d}) expected")
            m.flags.writeable = False
        self.algebra = algebra
        self._mats = mats

    def block(self, i: int) -> np.ndarray:
        return self._mats[i]

    @property
    def mats(self) -> Tuple[np.ndarray, ...]:
        return self._mats

    def _check_same(self, other: "BlockOperator") -> None:
        if not isinstance(other, BlockOperator):
            raise TypeError(f"expected BlockOperator, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise AlgebraMismatchError("operands live in different algebras")

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        self._check_same(other)
        return BlockOperator(self.algebra, [a + b for a, b in zip(self._mats, other._mats)])

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        self._check_same(other)
        return BlockOperator(self.algebra, [a - b for a, b in zip(self._mats, other._mats)])

    def __neg__(self) -> "BlockOperator":
        return BlockOperator(self.algebra, [-a for a in self._mats])

    def __mul__(self, scalar) -> "BlockOperator":
        if isinstance(scalar, BlockOperator):
            raise TypeError("use @ for the blockwise operator product")
        return BlockOperator(self.algebra, [scalar * a for a in self._mats])

    __rmul__ = __mul__

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        """Blockwise matrix product (the algebra multiplication)."""
        self._check_same(other)
        return BlockOperator(self.algebra, [a @ b for a, b in zip(self._mats, other._mats)])

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.algebra, [dag(a) for a in self._mats])

    def conj(self) -> "BlockOperator":
        return BlockOperator(self.algebra, [a.conj() for a in self._mats])

    def trace(self) -> complex:
        """Sum of block traces; trace(identity) equals the algebra dimension."""
        return complex(sum(np.trace(a) for a in self._mats))

    def norm(self) -> float:
        """Frobenius norm aggregated over blocks."""
        return float(np.sqrt(sum(frob(a) ** 2 for a in self._mats)))

    def allclose(self, other: "BlockOperator", tol: float = DEFAULT_TOL) -> bool:
        self._check_same(other)
        return (self - other).norm() <= tol

    def hermitian_defect(self) -> float:
        return float(np.sqrt(sum(frob(a - dag(a)) ** 2 for a in self._mats)))

    def __repr__(self) -> str:
        dims = "+".join(str(d) for d in self.algebra.dims)
        return f"BlockOperator(blocks={dims}, trace={self.trace():.4g})"


def trace(x: BlockOperator) -> complex:
    return x.trace()


def hs_inner(x: BlockOperator, y: BlockOperator) -> complex:
    """Hilbert-Schmidt pairing <x, y> = sum_blocks Tr(x† y)."""
    x._check_same(y)
    return complex(sum(np.trace(dag(a) @ b) for a, b in zip(x.mats, y.mats)))


@dataclass(frozen=True)
class PositivityWitness:
    """Outcome of a PSD check, with the offending block when it fails."""

    ok: bool
    block: Label = None
    min_eigenvalue: float = np.inf
    hermiticity_defect: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def _psd_block(m: np.ndarray, tol: float, vectors: bool = False):
    """The one PSD rule: finite entries, ||m - m†||_F <= tol, and smallest
    eigenvalue >= -tol; the block passes exactly when ``lo >= -tol``.

    Returns (lo, defect, eigenvalues, eigenvectors or None) of (m + m†)/2;
    lo is nan, and nothing is decomposed, when an earlier condition fails.
    """
    if not np.isfinite(m).all():
        return np.nan, np.nan, None, None
    defect = frob(m - dag(m))
    if defect > tol:
        return np.nan, defect, None, None
    h = herm_part(m)
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    return float(w.min()), defect, w, v


def _psd_blocks(labelled_blocks, tol: float) -> PositivityWitness:
    """The PSD rule on each (label, block): the first failure, or a pass
    carrying the smallest eigenvalue seen."""
    worst_eig = np.inf
    for lbl, m in labelled_blocks:
        lo, defect, _, _ = _psd_block(m, tol)
        if not lo >= -tol:
            return PositivityWitness(False, lbl, lo, defect)
        worst_eig = min(worst_eig, lo)
    return PositivityWitness(True, None, worst_eig, 0.0)


def is_positive(x: BlockOperator, tol: float = DEFAULT_TOL) -> PositivityWitness:
    """Check every block against the PSD rule (finite, Hermitian within tol,
    eigenvalues >= -tol); the witness names the first failing block."""
    return _psd_blocks(zip(x.algebra.labels, x.mats), tol)


def psd_factor(x: BlockOperator, tol: float = DEFAULT_TOL) -> BlockOperator:
    """Per-block g with g† g = block, via eigendecomposition clamped at zero."""
    witness = is_positive(x, tol)
    if not witness:
        raise NotPositiveError(
            f"block {witness.block!r} is not PSD "
            f"(min eigenvalue {witness.min_eigenvalue:.3g})"
        )
    factors = []
    for m in x.mats:
        w, v = np.linalg.eigh(herm_part(m))
        w = np.clip(w, 0.0, None)
        factors.append((np.sqrt(w)[:, None] * dag(v)))
    return BlockOperator(x.algebra, factors)


class HybridState:
    """A trace-one positive element: distribution over blocks plus a density
    matrix per block."""

    __slots__ = ("operator",)

    def __init__(self, operator: BlockOperator, tol: float = DEFAULT_TOL):
        witness = is_positive(operator, tol)
        if not witness:
            raise NotPositiveError(
                f"state block {witness.block!r} not PSD (min eig {witness.min_eigenvalue:.3g})"
            )
        tr = operator.trace()
        if abs(tr - 1.0) > tol:
            raise ShapeMismatchError(f"state trace {tr:.12g} != 1")
        self.operator = operator

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        return self.operator.algebra

    @property
    def distribution(self) -> np.ndarray:
        """Block traces: the classical outcome distribution."""
        return np.array([np.trace(m).real for m in self.operator.mats])

    def block(self, i: int) -> np.ndarray:
        return self.operator.block(i)

    def __repr__(self) -> str:
        probs = ", ".join(f"{p:.3f}" for p in self.distribution)
        return f"HybridState(p=[{probs}])"
