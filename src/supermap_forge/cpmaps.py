"""Completely positive maps between multimatrix algebras.

A CP map ``m`` from ``A = (+)_i B(H_i)`` to ``B = (+)_j B(K_j)`` is stored as
its family of block Choi matrices

    C[j, i] = sum_ab  m(E_ab in block i)_j  (x)  E_ab,

one Hermitian PSD matrix of size ``dim(K_j) * dim(H_i)`` per block pair, with
the target factor first.  The Choi family is unnormalised, so trace
preservation reads, per source block i,

    sum_j Tr_target C[j, i] = Id_{H_i},

with no dimension factors.  The basis tying the two factors together is the
standard computational basis of every block; conjugations and transpositions
produced by basis bending are therefore concrete matrix operations.

Applying a map uses the componentwise rule

    m(x)_j = sum_i Tr_src[(Id (x) x_i^T) C[j, i]],

which for C[j, i] = |K>><<K| reduces to K x K†.  The Choi blocks are the
map's only representation: Kraus families are read off them by the
eigendecomposition of each block (the PSD rule at an absolute tol, then a
rank cutoff relative to the largest eigenvalue), one array of operators per
block pair.
"""

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ._linalg import dag, frob, groups, herm_part, stack, vec
from .algebra import (
    DEFAULT_TOL, BlockOperator, MultiMatrixAlgebra, PositivityWitness, _Frozen, _psd_blocks,
)
from .errors import (
    AlgebraMismatchError,
    NotCompletelyPositiveError,
    NotTracePreservingError,
    ShapeMismatchError,
)

KRAUS_RANK_REL_TOL = 1e-10


class CpMap(_Frozen):
    """A linear map stored by its block Choi matrices.

    Construction validates shapes only; complete positivity is a predicate
    (`is_cp`) so that intermediate linear algebra may pass through
    non-positive data (e.g. when probing a map on a non-PSD basis).  The
    blocks are read-only copies and no attribute can be rebound.
    """

    __slots__ = ("source", "target", "_blocks")

    def __init__(self, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra, blocks):
        rows = []
        if len(blocks) != len(target.blocks):
            raise ShapeMismatchError("one row of Choi blocks per target block expected")
        for j, row in enumerate(blocks):
            if len(row) != len(source.blocks):
                raise ShapeMismatchError("one Choi block per source block expected")
            out = []
            for i, m in enumerate(row):
                d = target.dims[j] * source.dims[i]
                m = np.array(m, dtype=complex)
                if m.shape != (d, d):
                    raise ShapeMismatchError(
                        f"Choi block ({j},{i}) has shape {m.shape}, expected ({d},{d})"
                    )
                m.flags.writeable = False
                out.append(m)
            rows.append(tuple(out))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_blocks", tuple(rows))

    # -- accessors ---------------------------------------------------------

    def choi(self, j: int, i: int) -> np.ndarray:
        """Choi block for target block j, source block i (target factor first)."""
        return self._blocks[j][i]

    def choi4(self, j: int, i: int) -> np.ndarray:
        """The same block as a (dK, dH, dK, dH) tensor."""
        dk, dh = self.target.dims[j], self.source.dims[i]
        return self._blocks[j][i].reshape(dk, dh, dk, dh)

    def superop(self, j: int, i: int) -> np.ndarray:
        """The block realigned to (dK^2, dH^2): x_i -> m(x)_j on row-major vec."""
        return self.choi4(j, i).transpose(0, 2, 1, 3).reshape(self.target.dims[j] ** 2, -1)

    @property
    def choi_blocks(self):
        return self._blocks

    def choi_distance(self, other: "CpMap") -> float:
        if other.source != self.source or other.target != self.target:
            raise AlgebraMismatchError("cannot compare maps of different types")
        total = 0.0
        for j in range(len(self.target)):
            for i in range(len(self.source)):
                total += frob(self.choi(j, i) - other.choi(j, i)) ** 2
        return float(np.sqrt(total))

    def scaled(self, factor: float) -> "CpMap":
        return CpMap(
            self.source,
            self.target,
            [[factor * self.choi(j, i) for i in range(len(self.source))]
             for j in range(len(self.target))],
        )

    def __repr__(self) -> str:
        s = "+".join(str(d) for d in self.source.dims)
        t = "+".join(str(d) for d in self.target.dims)
        return f"{type(self).__name__}({s} -> {t})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_kraus(
        cls,
        source: MultiMatrixAlgebra,
        target: MultiMatrixAlgebra,
        ops: Dict[Tuple[int, int], Sequence[np.ndarray]],
    ) -> "CpMap":
        """Choi family from per-(source i, target j) Kraus lists, stacked and
        shape-checked as KrausDecomposition does: one V V† per block, V's
        columns the operators' row-major vecs."""
        blocks = [
            [np.zeros((target.dims[j] * source.dims[i],) * 2, dtype=complex)
             for i in range(len(source))]
            for j in range(len(target))
        ]
        for (i, j), ks in KrausDecomposition(source, target, ops).ops.items():
            if len(ks):
                v = ks.reshape(len(ks), -1).T
                blocks[j][i] = v @ dag(v)
        return cls(source, target, blocks)


def identity_cpmap(a: MultiMatrixAlgebra) -> CpMap:
    blocks = []
    for j, dj in enumerate(a.dims):
        row = []
        for i, di in enumerate(a.dims):
            if i == j:
                v = vec(np.eye(di, dtype=complex))
                row.append(np.outer(v, v.conj()))
            else:
                row.append(np.zeros((dj * di, dj * di), dtype=complex))
        blocks.append(row)
    return CpMap(a, a, blocks)


# -- application and validation ---------------------------------------------


def apply(m: CpMap, x: BlockOperator) -> BlockOperator:
    """Apply the map to an algebra element (linear; no positivity assumed)."""
    if x.algebra != m.source:
        raise AlgebraMismatchError("operator is not in the map's source algebra")
    outs = []
    for j, dk in enumerate(m.target.dims):
        acc = np.zeros((dk, dk), dtype=complex)
        for i in range(len(m.source)):
            acc += np.einsum("rasb,ab->rs", m.choi4(j, i), x.block(i))
        outs.append(acc)
    return BlockOperator(m.target, outs)


@dataclass(frozen=True)
class TpReport:
    ok: bool
    residuals: Tuple[float, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_tp(m: CpMap, tol: float = DEFAULT_TOL) -> TpReport:
    """Per source block i: || sum_j Tr_target C[j,i] - Id ||_F <= tol."""
    residuals = []
    for i, dh in enumerate(m.source.dims):
        acc = np.zeros((dh, dh), dtype=complex)
        for j in range(len(m.target)):
            acc += np.einsum("rarb->ab", m.choi4(j, i))
        residuals.append(frob(acc - np.eye(dh)))
    residuals = tuple(residuals)
    return TpReport(all(r <= tol for r in residuals), residuals)


def is_cp(m: CpMap, tol: float = DEFAULT_TOL) -> PositivityWitness:
    """The PSD rule on every Choi block; the witness names the block pair."""
    pairs = [(j, i) for j in range(len(m.target)) for i in range(len(m.source))]
    return _psd_blocks(((p, m.choi(*p)) for p in pairs), tol)


def _not_cp(witness: PositivityWitness) -> NotCompletelyPositiveError:
    return NotCompletelyPositiveError(f"Choi block {witness.block!r} not PSD ({witness.reason})")


def require_cp_map(m: CpMap, tol: float = DEFAULT_TOL) -> CpMap:
    """Return m, or raise NotCompletelyPositiveError naming a non-PSD block."""
    witness = is_cp(m, tol)
    if not witness:
        raise _not_cp(witness)
    return m


class Channel(CpMap):
    """A CP map satisfying the block trace-preservation condition; with
    validate=False, one the caller vouches for."""

    __slots__ = ()

    def __init__(self, source, target, blocks, tol: float = DEFAULT_TOL, validate: bool = True):
        super().__init__(source, target, blocks)
        if validate:
            report = is_tp(self, tol)
            if not report:
                raise NotTracePreservingError(
                    f"TP residuals {tuple(f'{r:.3g}' for r in report.residuals)} exceed {tol}"
                )


# -- Kraus families -----------------------------------------------------------


@dataclass(frozen=True)
class KrausDecomposition:
    """Per (source block i, target block j): operators H_i -> K_j, stacked
    from any sequence into one read-only (r_ij, dim K_j, dim H_i) array.

    kraus_from_choi reads them off the Choi eigendecomposition, so within a
    pair they are orthogonal under the Hilbert-Schmidt pairing, hence
    linearly independent and minimal in number.
    """

    source: MultiMatrixAlgebra
    target: MultiMatrixAlgebra
    ops: Dict[Tuple[int, int], np.ndarray]

    def __post_init__(self):
        ops = {}
        for (i, j), ks in self.ops.items():
            shape = (self.target.dims[j], self.source.dims[i])
            try:
                ops[i, j] = np.array(ks if len(ks) else np.zeros((0, *shape)), dtype=complex)
            except ValueError:  # operators of unequal shapes
                ops[i, j] = np.zeros(0)
            if ops[i, j].shape[1:] != shape:
                raise ShapeMismatchError(f"Kraus operators for ({i},{j}) are not all {shape}")
            ops[i, j].flags.writeable = False
        object.__setattr__(self, "ops", ops)

    def rank(self, i: int, j: int) -> int:
        return len(self.ops.get((i, j), ()))

    def gram(self, i: int, j: int) -> np.ndarray:
        """G[a, b] = Tr(K_a† K_b) over the (i, j) operators."""
        v = np.reshape(self.ops.get((i, j), ()), (-1, self.target.dims[j] * self.source.dims[i]))
        return v.conj() @ v.T

    def min_gram_eig(self) -> float:
        """Smallest Gram eigenvalue across nonempty pairs (inf if all empty):
        one batched eigvalsh per stack of pairs with equal operator shapes."""
        nonempty = [ks for ks in self.ops.values() if len(ks)]
        lo = np.inf
        for ts in groups(ks.shape for ks in nonempty).values():
            v = stack([nonempty[t] for t in ts]).reshape(len(ts), len(nonempty[ts[0]]), -1)
            lo = min(lo, float(np.linalg.eigvalsh(v.conj() @ v.transpose(0, 2, 1)).min()))
        return lo

def kraus_from_choi(
    m: CpMap, rank_tol: float = KRAUS_RANK_REL_TOL, tol: float = DEFAULT_TOL
) -> KrausDecomposition:
    """Eigendecompose each Choi block and keep eigenvalues above the cutoff.

    Raises NotCompletelyPositiveError when is_cp fails a block at tol; only
    a map that passes is eigendecomposed.  The rank cutoff is rank_tol times
    the block's largest eigenvalue, and never below the eigensolver's
    roundoff (block size times machine epsilon, relative), so eigenvalues
    that are numerically zero never become Kraus operators of size
    sqrt(roundoff).  Operator beta is its eigenvector times sqrt(lambda_beta).
    """
    return _eigh_kraus(require_cp_map(m, tol), rank_tol)


def _eigh_kraus(m: CpMap, rank_tol: float = KRAUS_RANK_REL_TOL) -> KrausDecomposition:
    """kraus_from_choi's factorisation, with no PSD check: for a map whose
    Choi blocks already passed the PSD rule.  Blocks of one shape are
    stacked, one batched eigh per stack."""
    pairs = [(j, i) for j in range(len(m.target.dims)) for i in range(len(m.source.dims))]
    ops: Dict[Tuple[int, int], np.ndarray] = dict.fromkeys((i, j) for j, i in pairs)
    for (dk, dh), ts in groups((m.target.dims[j], m.source.dims[i]) for j, i in pairs).items():
        w, v = np.linalg.eigh(herm_part(stack([m.choi(*pairs[t]) for t in ts])))
        for t, w_t, v_t in zip(ts, w, v):
            j, i = pairs[t]
            ops[i, j] = _rows_above_cut(w_t, v_t, rank_tol).reshape(-1, dk, dh)
    return KrausDecomposition(m.source, m.target, ops)


def _eigh_rows(h: np.ndarray, rank_tol: float) -> np.ndarray:
    """One Hermitian block's Kraus vecs as rows (see _rows_above_cut)."""
    return _rows_above_cut(*np.linalg.eigh(h), rank_tol)


def _rows_above_cut(w: np.ndarray, v: np.ndarray, rank_tol: float) -> np.ndarray:
    """sqrt(lambda_beta) v_beta^T, as rows, for each eigenpair of one block
    above kraus_from_choi's cutoff."""
    keep = w > max(rank_tol, len(w) * np.finfo(float).eps) * max(float(w.max()), 0.0)
    return (v[:, keep] * np.sqrt(w[keep])).T


# -- duals --------------------------------------------------------------------


def hs_dual(m: CpMap) -> CpMap:
    """Hilbert-Schmidt adjoint: <m(x), y> = <x, hs_dual(m)(y)>.

    On Choi blocks this swaps the two tensor factors and conjugates
    entrywise, so the dual of a CP map is CP and dual of dual is the
    original map.  The dual of a channel is unital and vice versa.
    """
    blocks = []
    for i, dh in enumerate(m.source.dims):
        row = []
        for j, dk in enumerate(m.target.dims):
            c4 = m.choi4(j, i)
            row.append(c4.transpose(1, 0, 3, 2).conj().reshape(dh * dk, dh * dk))
        blocks.append(row)
    return CpMap(m.target, m.source, blocks)
