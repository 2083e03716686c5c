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
  symmetrising ``H = (x + x†)/2`` the smallest eigenvalue is at least -tol,
  which Cholesky completing on ``H + (tol - delta) Id``, delta a bound on its
  backward error (Higham, *Accuracy and Stability of Numerical Algorithms*,
  2nd ed., ch. 10), proves; otherwise the eigenvalues of H decide.  Blocks
  of one size are certified as one stack, and the rule runs block by block
  on every block that a stack does not pass whole;
* block labels are ordered, and all cross-algebra identifications are made
  by block order, never by label text.
"""

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ._linalg import dag, frob, groups, herm_part
from .errors import AlgebraMismatchError, NotPositiveError, ShapeMismatchError

DEFAULT_TOL = 1e-9
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny

Label = Union[str, int, Tuple]


class _Frozen:
    """A value whose slots __init__ sets once, through object.__setattr__,
    and nothing rebinds or deletes.  Copies and pickles rebuild it from the
    stored slots, validating nothing again, and mark its arrays read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"a {type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a {type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        names = [n for c in type(self).__mro__ for n in getattr(c, "__slots__", ())]
        return _rebuild, (type(self), {n: getattr(self, n) for n in names})


def _read_only(x):
    """x, with every array in it, through nested tuples, marked read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for y in x:
            _read_only(y)
    return x


def _rebuild(cls, slots):
    obj = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(obj, name, _read_only(value))
    return obj


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """An ordered list of labelled matrix blocks describing (+)_i B(H_i).

    ``labels``, ``dims`` and ``dim`` (sum_i dim(H_i), the trace of the
    identity) are read off ``blocks`` once, at construction; equality,
    hashing and repr depend on ``blocks`` alone.
    """

    blocks: Tuple[Tuple[Label, int], ...]
    labels: Tuple[Label, ...] = field(init=False, repr=False, compare=False)
    dims: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple((lbl, int(d)) for lbl, d in self.blocks)
        if not blocks:
            raise ShapeMismatchError("an algebra needs at least one block")
        labels, dims = zip(*blocks)
        if any(d < 1 for d in dims):
            raise ShapeMismatchError("block dimensions must be >= 1")
        if len(set(labels)) != len(labels):
            raise ShapeMismatchError(f"duplicate block labels: {list(labels)}")
        for name, value in (("blocks", blocks), ("labels", labels), ("dims", dims),
                            ("dim", sum(dims))):
            object.__setattr__(self, name, value)

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


class BlockOperator(_Frozen):
    """One complex matrix per block of a multimatrix algebra.

    Values are immutable after construction: the blocks are read-only
    copies and no attribute can be rebound.  All arithmetic returns new
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
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_mats", mats)

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


@dataclass(frozen=True)
class PositivityWitness:
    """Outcome of a PSD check.  On a failure, ``block`` names the offending block and
    ``reason`` the failed condition (non-finite entries, Hermiticity defect or min
    eigenvalue); it is None on a pass.  min_eigenvalue is exact on a failure; on a
    pass, a certified lower bound >= -tol, exact if eigvalsh decided."""

    ok: bool
    block: Label = None
    min_eigenvalue: float = np.inf
    hermiticity_defect: float = 0.0
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _psd_block(m: np.ndarray, tol: float):
    """The one PSD decider: finite entries, ||m - m†||_F <= tol, then
    lambda_min(H) >= -tol for H = (m + m†)/2.  Returns (lo, defect, reason);
    reason is None exactly when the block passes, and lo and defect are nan
    past the condition that failed.  Cholesky completing on H + (tol - delta)
    Id, delta = 2 (n + 2) eps (tr H + n tol) bounding its backward error
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 10; derivation in the README), certifies lo = -tol; otherwise
    eigvalsh gives the exact lo."""
    if not np.isfinite(m).all():
        return np.nan, np.nan, "non-finite entries"
    h = np.conjugate(m.T, order="C")  # m†, then H = (m + m†)/2 in place
    defect = frob(m - h)
    if defect > tol:
        return np.nan, defect, f"Hermiticity defect {defect:.3g}"
    h += m
    h *= 0.5
    n = len(h)
    diag = h.reshape(-1)[:: n + 1]  # a view: h is C-contiguous
    delta = 2 * (n + 2) * _EPS * (sum(diag.real.tolist()) + n * tol)
    if 0 <= delta < tol:
        diag += tol - delta
        try:
            np.linalg.cholesky(h)
            return -tol, defect, None
        except np.linalg.LinAlgError:
            h = herm_part(m)
    lo = float(np.linalg.eigvalsh(h).min())
    return lo, defect, None if lo >= -tol else f"min eigenvalue {lo:.3g}"


def _psd_stack(blocks, tol: float) -> bool:
    """True when _psd_block's Cholesky certificate passes every one of the
    equal-size blocks, each with the H, delta and shift it would get
    alone: one Hermiticity test, one shift and one Cholesky for the stack.

    The stack sums the 2 n^2 squares of each block's defect in another
    order than frob does.  Any order lands within a relative 2 n^2 eps of
    the exact sum, so a stack sum at most (1 - 8 n^2 eps) tol^2 means
    frob(m - m†) <= tol however _psd_block sums it, when tol^2 is a normal
    number.  The sum is finite only if every entry is, so it is the
    finiteness test too.  False leaves every verdict to _psd_block."""
    m = np.array(blocks)
    n = m.shape[-1]
    bound = tol * tol * (1 - 8 * n * n * _EPS)
    if not _TINY <= bound < np.inf:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.conjugate(m.transpose(0, 2, 1), order="C")
        d = (m - h).view(float).reshape(len(m), -1)
        if not np.einsum("zk,zk->z", d, d).max() <= bound:
            return False
        h += m
        h *= 0.5
        diag = h.reshape(len(h), -1)[:, :: n + 1]
        tr = np.array(list(map(sum, diag.real.tolist())))  # summed as _psd_block sums
        delta = 2 * (n + 2) * _EPS * (tr + n * tol)
        if not (0 <= delta.min() and delta.max() < tol):
            return False
        diag += (tol - delta)[:, None]
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _psd_blocks(labelled_blocks, tol: float) -> PositivityWitness:
    """The PSD rule on each (label, block): the first failure in the given
    order, or a pass carrying the smallest certified lower bound seen.

    Blocks of one size are stacked, and a stack that _psd_stack passes
    whole passes at -tol.  A lone block, and every block of a stack it does
    not pass, goes to _psd_block in the given order, up to the first
    failure, as with no stacks: _psd_block is the one authority on
    failures, so the witness and its figures are those of the
    block-by-block rule, and so are the warnings and errors it raises."""
    labelled_blocks = list(labelled_blocks)
    certified = set()
    for ts in groups(len(m) for _, m in labelled_blocks).values():
        if len(ts) > 1 and _psd_stack([labelled_blocks[t][1] for t in ts], tol):
            certified.update(ts)
    if len(certified) == len(labelled_blocks):
        return PositivityWitness(True, None, -tol, 0.0)
    worst_eig = np.inf
    for t, (lbl, m) in enumerate(labelled_blocks):
        lo, defect, reason = (-tol, 0.0, None) if t in certified else _psd_block(m, tol)
        if reason is not None:
            return PositivityWitness(False, lbl, lo, defect, reason)
        worst_eig = min(worst_eig, lo)
    return PositivityWitness(True, None, worst_eig, 0.0)


def is_positive(x: BlockOperator, tol: float = DEFAULT_TOL) -> PositivityWitness:
    """Check every block against the PSD rule (finite, Hermitian within tol,
    eigenvalues >= -tol); the witness names the first failing block."""
    return _psd_blocks(zip(x.algebra.labels, x.mats), tol)


class HybridState(_Frozen):
    """A trace-one positive element: distribution over blocks plus a density
    matrix per block.  Immutable, as its operator is."""

    __slots__ = ("operator",)

    def __init__(self, operator: BlockOperator, tol: float = DEFAULT_TOL):
        witness = is_positive(operator, tol)
        if not witness:
            raise NotPositiveError(f"state block {witness.block!r} not PSD ({witness.reason})")
        tr = operator.trace()
        if abs(tr - 1.0) > tol:
            raise ShapeMismatchError(f"state trace {tr:.12g} != 1")
        object.__setattr__(self, "operator", operator)

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
