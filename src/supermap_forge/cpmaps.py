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

which for C[j, i] = |K>><<K| reduces to K x K†.  Kraus families come from the
eigendecomposition of each Choi block (the PSD rule at an absolute tol, then
a rank cutoff relative to the largest eigenvalue), Stinespring dilations from
stacking the Kraus operators against an orthonormal environment basis.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ._linalg import dag, frob, unvec, vec
from .algebra import (
    DEFAULT_TOL, BlockOperator, MultiMatrixAlgebra, PositivityWitness, _psd_block,
    _psd_blocks,
)
from .errors import (
    AlgebraMismatchError,
    NotCompletelyPositiveError,
    NotTracePreservingError,
    ShapeMismatchError,
    StructureMissingError,
)

KRAUS_RANK_REL_TOL = 1e-10


class CpMap:
    """A linear map stored by its block Choi matrices.

    Construction validates shapes only; complete positivity is a predicate
    (`is_cp`) so that intermediate linear algebra may pass through
    non-positive data (e.g. when probing a map on a non-PSD basis).
    """

    __slots__ = ("source", "target", "_blocks")

    def __init__(self, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra, blocks):
        self.source = source
        self.target = target
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
        self._blocks = tuple(rows)

    # -- accessors ---------------------------------------------------------

    def choi(self, j: int, i: int) -> np.ndarray:
        """Choi block for target block j, source block i (target factor first)."""
        return self._blocks[j][i]

    def choi4(self, j: int, i: int) -> np.ndarray:
        """The same block as a (dK, dH, dK, dH) tensor."""
        dk, dh = self.target.dims[j], self.source.dims[i]
        return self._blocks[j][i].reshape(dk, dh, dk, dh)

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
        """Choi family from per-(source i, target j) Kraus lists: one V V† per block."""
        blocks = [
            [np.zeros((target.dims[j] * source.dims[i],) * 2, dtype=complex)
             for i in range(len(source))]
            for j in range(len(target))
        ]
        for (i, j), kraus_list in ops.items():
            dk, dh = target.dims[j], source.dims[i]
            ks = [np.asarray(k, dtype=complex) for k in kraus_list]
            for k in ks:
                if k.shape != (dk, dh):
                    raise ShapeMismatchError(
                        f"Kraus operator for ({i},{j}) has shape {k.shape}, "
                        f"expected ({dk},{dh})"
                    )
            if ks:
                v = np.stack([vec(k) for k in ks], axis=1)
                blocks[j][i] = v @ dag(v)
        return cls(source, target, blocks)


def choi_from_action(
    action: Callable[[BlockOperator], BlockOperator],
    source: MultiMatrixAlgebra,
    target: MultiMatrixAlgebra,
    tol: float = DEFAULT_TOL,
    require_cp: bool = True,
) -> CpMap:
    """Choi family of a linear map given by its action on matrix units.

    Raises NotCompletelyPositiveError when a resulting block fails the PSD
    check (disable via require_cp for maps known or allowed to be non-CP).
    """
    blocks = [
        [np.zeros((target.dims[j], source.dims[i], target.dims[j], source.dims[i]),
                  dtype=complex) for i in range(len(source))]
        for j in range(len(target))
    ]
    for i, a, b, unit in source.matrix_units():
        image = action(unit)
        if image.algebra != target:
            raise AlgebraMismatchError("action image lives in the wrong algebra")
        for j in range(len(target)):
            blocks[j][i][:, a, :, b] = image.block(j)
    m = CpMap(
        source,
        target,
        [[blocks[j][i].reshape(target.dims[j] * source.dims[i], -1)
          for i in range(len(source))]
         for j in range(len(target))],
    )
    return require_cp_map(m, tol) if require_cp else m


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


def zero_cpmap(source: MultiMatrixAlgebra, target: MultiMatrixAlgebra) -> CpMap:
    return CpMap(
        source,
        target,
        [[np.zeros((target.dims[j] * source.dims[i],) * 2, dtype=complex)
          for i in range(len(source))]
         for j in range(len(target))],
    )


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


def _not_cp(witness: PositivityWitness, what: str = "Choi block") -> NotCompletelyPositiveError:
    return NotCompletelyPositiveError(
        f"{what} {witness.block!r} not PSD (min eigenvalue {witness.min_eigenvalue:.3g}, "
        f"Hermiticity defect {witness.hermiticity_defect:.3g})"
    )


def require_cp_map(m: CpMap, tol: float = DEFAULT_TOL, what: str = "Choi block") -> CpMap:
    """Return m, or raise NotCompletelyPositiveError naming a non-PSD block."""
    witness = is_cp(m, tol)
    if not witness:
        raise _not_cp(witness, what)
    return m


def is_unital(m: CpMap, tol: float = DEFAULT_TOL) -> bool:
    return apply(m, m.source.identity()).allclose(m.target.identity(), tol)


class Channel(CpMap):
    """A CP map satisfying the block trace-preservation condition."""

    def __init__(self, source, target, blocks, tol: float = DEFAULT_TOL, validate: bool = True):
        super().__init__(source, target, blocks)
        if validate:
            report = is_tp(self, tol)
            if not report:
                raise NotTracePreservingError(
                    f"TP residuals {tuple(f'{r:.3g}' for r in report.residuals)} exceed {tol}"
                )


def as_channel(m: CpMap, tol: float = DEFAULT_TOL, validate: bool = True) -> Channel:
    return Channel(m.source, m.target, m.choi_blocks, tol=tol, validate=validate)


def identity_channel(a: MultiMatrixAlgebra) -> Channel:
    m = identity_cpmap(a)
    return Channel(a, a, m.choi_blocks, validate=False)


# -- Kraus and Stinespring ---------------------------------------------------


@dataclass(frozen=True)
class KrausDecomposition:
    """Per (source block i, target block j): a list of operators H_i -> K_j.

    Produced from the Choi eigendecomposition, so the operators within each
    list are orthogonal under the Hilbert-Schmidt pairing, hence linearly
    independent and minimal in number.
    """

    source: MultiMatrixAlgebra
    target: MultiMatrixAlgebra
    ops: Dict[Tuple[int, int], Tuple[np.ndarray, ...]]

    def rank(self, i: int, j: int) -> int:
        return len(self.ops.get((i, j), ()))

    def gram(self, i: int, j: int) -> np.ndarray:
        """G[a, b] = Tr(K_a† K_b) over the (i, j) list."""
        v = np.array([vec(k) for k in self.ops.get((i, j), ())], dtype=complex)
        return v.conj() @ v.T if v.size else np.zeros((len(v), len(v)), dtype=complex)

    def min_gram_eig(self) -> float:
        """Smallest Gram eigenvalue across nonempty lists (inf if all empty)."""
        lo = np.inf
        for (i, j), ks in self.ops.items():
            if ks:
                lo = min(lo, float(np.linalg.eigvalsh(self.gram(i, j)).min()))
        return lo

    def reconstruct(self) -> CpMap:
        return CpMap.from_kraus(self.source, self.target, self.ops)


def kraus_from_choi(
    m: CpMap, rank_tol: float = KRAUS_RANK_REL_TOL, tol: float = DEFAULT_TOL
) -> KrausDecomposition:
    """Eigendecompose each Choi block and keep eigenvalues above the cutoff.

    Raises NotCompletelyPositiveError when a block fails the PSD rule at
    tol (the rule is_cp applies).  The rank cutoff is rank_tol times the
    block's largest eigenvalue, and never below the eigensolver's roundoff
    (block size times machine epsilon, relative), so eigenvalues that are
    numerically zero never become Kraus operators of size sqrt(roundoff).
    """
    ops: Dict[Tuple[int, int], Tuple[np.ndarray, ...]] = {}
    for j, dk in enumerate(m.target.dims):
        for i, dh in enumerate(m.source.dims):
            lo, defect, w, v = _psd_block(m.choi(j, i), tol, vectors=True)
            if not lo >= -tol:
                raise _not_cp(PositivityWitness(False, (j, i), lo, defect))
            cut = max(rank_tol, dk * dh * np.finfo(float).eps) * max(float(w.max()), 0.0)
            keep = [
                np.sqrt(lam) * unvec(v[:, k], dk, dh)
                for k, lam in enumerate(w)
                if lam > cut
            ]
            ops[(i, j)] = tuple(keep)
    return KrausDecomposition(m.source, m.target, ops)


@dataclass(frozen=True)
class StinespringDilation:
    """Environment dimensions and stacked isometry blocks for a CP map.

    For a map ``m: A -> B`` with Kraus family ``{K_alpha: H_i -> K_j}``, the
    block for source index i is

        V_i = (+)_j sum_alpha K_alpha (x) |alpha>  :  H_i -> (+)_j K_j (x) E_ij,

    so ``m(rho)_j = Tr_env[(component j of V_i) rho (...)†]`` and
    ``V_i† (y (x) Id) V_i`` computes the Hilbert-Schmidt dual of m.  For a
    channel every V_i is an isometry.
    """

    cpmap: CpMap
    kraus: KrausDecomposition
    env_dims: Dict[Tuple[int, int], int]
    isometries: Tuple[np.ndarray, ...]

    def component(self, i: int, j: int) -> np.ndarray:
        """Slice of V_i landing in K_j (x) E_ij; shape (dK_j * r_ij, dH_i)."""
        offset = 0
        for jj in range(j):
            offset += self.cpmap.target.dims[jj] * self.env_dims[(i, jj)]
        size = self.cpmap.target.dims[j] * self.env_dims[(i, j)]
        return self.isometries[i][offset : offset + size, :]

    def isometry_defect(self) -> float:
        """max_i || V_i† V_i - Id ||_F; ~0 exactly when the map is a channel."""
        worst = 0.0
        for v, dh in zip(self.isometries, self.cpmap.source.dims):
            worst = max(worst, frob(dag(v) @ v - np.eye(dh)))
        return worst

    def heisenberg_apply(self, y: BlockOperator) -> BlockOperator:
        """V† (y (x) Id_E) V blockwise; equals hs_dual(cpmap) applied to y."""
        if y.algebra != self.cpmap.target:
            raise AlgebraMismatchError("operator is not in the dilation's target algebra")
        outs = []
        for i in range(len(self.cpmap.source)):
            mid = [
                np.kron(y.block(j), np.eye(self.env_dims[(i, j)]))
                for j in range(len(self.cpmap.target))
            ]
            big = _block_diag(mid)
            v = self.isometries[i]
            outs.append(dag(v) @ big @ v)
        return BlockOperator(self.cpmap.source, outs)


def _block_diag(mats: List[np.ndarray]) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    k = 0
    for m in mats:
        out[k : k + m.shape[0], k : k + m.shape[1]] = m
        k += m.shape[0]
    return out


def dilation_from_kraus(m: CpMap, kd: KrausDecomposition) -> StinespringDilation:
    env_dims = {(i, j): kd.rank(i, j) for i in range(len(m.source)) for j in range(len(m.target))}
    isoms = []
    for i, dh in enumerate(m.source.dims):
        segments = []
        for j, dk in enumerate(m.target.dims):
            ks = kd.ops[(i, j)]
            if ks:
                # row (x, alpha) of the segment is row x of K_alpha
                seg = np.stack(ks, axis=1).reshape(dk * len(ks), dh)
                segments.append(seg.astype(complex, copy=False))
        isoms.append(np.vstack(segments) if segments else np.zeros((0, dh), dtype=complex))
    return StinespringDilation(m, kd, env_dims, tuple(isoms))


def minimal_stinespring(m: CpMap, tol: float = DEFAULT_TOL) -> StinespringDilation:
    """Minimal dilation via the Choi eigendecomposition (PSD rule at tol).

    Minimality holds by construction: each per-pair Kraus family is an
    orthogonal set, so its Gram matrix is diagonal with positive entries.
    """
    return dilation_from_kraus(m, kraus_from_choi(m, tol=tol))


def environment_intertwiner(
    d_from: StinespringDilation,
    d_to: StinespringDilation,
    rel_cut: float = 1e-10,
):
    """Least-squares solve of (Id (x) X) V_from = V_to per block pair.

    When ``d_from`` is minimal the solution is the unique partial isometry
    relating the two dilations.  Returns (blocks, residual, partial-isometry
    defect); blocks maps (i, j) to the solved environment matrix.
    """
    from .errors import NotMinimalError

    m = d_from.cpmap
    blocks: Dict[Tuple[int, int], np.ndarray] = {}
    res_sq = 0.0
    pi_sq = 0.0
    for i, dh in enumerate(m.source.dims):
        for j, dk in enumerate(m.target.dims):
            ra = d_from.env_dims[(i, j)]
            rb = d_to.env_dims[(i, j)]
            va = d_from.component(i, j).reshape(dk, ra, dh)
            vb = d_to.component(i, j).reshape(dk, rb, dh)
            ma = va.transpose(1, 0, 2).reshape(ra, dk * dh)
            mb = vb.transpose(1, 0, 2).reshape(rb, dk * dh)
            if ra == 0:
                x = np.zeros((rb, 0), dtype=complex)
                res_sq += frob(mb) ** 2
            else:
                u, s, vt = np.linalg.svd(ma, full_matrices=False)
                if len(s) < ra or s.min() <= rel_cut * s.max():
                    raise NotMinimalError(
                        f"dilation component ({i},{j}) is rank deficient; "
                        "the source dilation is not minimal"
                    )
                x = mb @ dag(vt) @ np.diag(1.0 / s) @ dag(u)
                res_sq += frob(x @ ma - mb) ** 2
            blocks[(i, j)] = x
            g = dag(x) @ x
            pi_sq += frob(g @ g - g) ** 2
    return blocks, float(np.sqrt(res_sq)), float(np.sqrt(pi_sq))


# -- duals, composition, tensor, copy ----------------------------------------


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


def compose(g: CpMap, f: CpMap) -> CpMap:
    """g after f, contracted at the Choi level (the link product):

        C_{g o f}[l, i] = sum_j  sum_{r,s} C_g[l, j][o, r, O, s] C_f[j, i][r, a, s, b].
    """
    if f.target != g.source:
        raise AlgebraMismatchError("compose: target of f must equal source of g")
    blocks = []
    for l, dl in enumerate(g.target.dims):
        row = []
        for i, dh in enumerate(f.source.dims):
            acc = np.zeros((dl, dh, dl, dh), dtype=complex)
            for j in range(len(f.target)):
                # no optimize=: the BLAS paths copy the (possibly huge) g block
                acc += np.einsum("orOs,rasb->oaOb", g.choi4(l, j), f.choi4(j, i))
            row.append(acc.reshape(dl * dh, dl * dh))
        blocks.append(row)
    return CpMap(f.source, g.target, blocks)


def _pair_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> MultiMatrixAlgebra:
    blocks = []
    for la, da in a.blocks:
        for lb, db in b.blocks:
            blocks.append(((la, lb), da * db))
    return MultiMatrixAlgebra(tuple(blocks))


def tensor(f: CpMap, g: CpMap) -> CpMap:
    """Tensor product map on the pairwise-block product algebras.

    Source/target blocks are ordered pairs (f-block, g-block) with dims
    multiplied; each Choi block is the Kronecker product of the factors with
    the tensor legs reordered from (K_f, H_f, K_g, H_g) to
    (K_f, K_g, H_f, H_g).
    """
    source = _pair_algebra(f.source, g.source)
    target = _pair_algebra(f.target, g.target)
    nfs, ngs = len(f.source), len(g.source)
    nft, ngt = len(f.target), len(g.target)
    blocks = []
    for jf in range(nft):
        for jg in range(ngt):
            row = []
            for i_f in range(nfs):
                for ig in range(ngs):
                    c = np.einsum(
                        "rasb,RASB->rRaAsSbB", f.choi4(jf, i_f), g.choi4(jg, ig)
                    )
                    d_t = f.target.dims[jf] * g.target.dims[jg]
                    d_s = f.source.dims[i_f] * g.source.dims[ig]
                    row.append(c.reshape(d_t * d_s, d_t * d_s))
            blocks.append(row)
    return CpMap(source, target, blocks)


def copy_channel(a: MultiMatrixAlgebra) -> Channel:
    """Classical copy: block-k content moves to block (k, k) unchanged.

    The target keeps only the diagonal pairs; off-diagonal pairs would be
    zero-dimensional and are omitted entirely.
    """
    target = MultiMatrixAlgebra(tuple(((lbl, lbl), d) for lbl, d in a.blocks))
    ops = {(k, k): [np.eye(d, dtype=complex)] for k, d in enumerate(a.dims)}
    m = CpMap.from_kraus(a, target, ops)
    return Channel(a, target, m.choi_blocks, validate=False)


def discard_copy_channel(a: MultiMatrixAlgebra) -> Channel:
    """Inverse relabelling of copy_channel: block (k, k) back to block k."""
    source = MultiMatrixAlgebra(tuple(((lbl, lbl), d) for lbl, d in a.blocks))
    ops = {(k, k): [np.eye(d, dtype=complex)] for k, d in enumerate(a.dims)}
    m = CpMap.from_kraus(source, a, ops)
    return Channel(source, a, m.choi_blocks, validate=False)


def trace_out_target_group(m: CpMap, structure=None, group: str = "out") -> CpMap:
    """Partial trace inside each target Choi factor of a map.

    ``group`` selects what to trace: "none" (identity operation), "all"
    (full trace of the target, leaving the trivial algebra), or "out"/"in",
    which require ``structure`` to be the pair structure (a HomAlgebra) of
    ``m.target`` and trace the named factor of every block, merging blocks
    that share the surviving index.
    """
    if group == "none":
        return CpMap(m.source, m.target, m.choi_blocks)
    if group == "all":
        trivial = MultiMatrixAlgebra((("tr", 1),))
        blocks = [[np.zeros((dh, dh), dtype=complex) for dh in m.source.dims]]
        for i, dh in enumerate(m.source.dims):
            for j in range(len(m.target)):
                blocks[0][i] += np.einsum("rarb->ab", m.choi4(j, i))
        return CpMap(m.source, trivial, blocks)
    if group not in ("out", "in"):
        raise StructureMissingError(f"unknown trace group {group!r}")
    if structure is None or getattr(structure, "base", None) != m.target:
        raise StructureMissingError(
            "the map's target algebra carries no matching pair structure"
        )
    out_alg = structure.out_algebra
    in_alg = structure.in_algebra
    reduced = in_alg if group == "out" else out_alg
    blocks = [
        [np.zeros((reduced.dims[r] * dh,) * 2, dtype=complex) for dh in m.source.dims]
        for r in range(len(reduced))
    ]
    for t, (j, i) in enumerate(structure.pairs):
        dj, di = out_alg.dims[j], in_alg.dims[i]
        for s, dh in enumerate(m.source.dims):
            c6 = m.choi(t, s).reshape(dj, di, dh, dj, di, dh)
            if group == "out":
                blocks[i][s] += np.einsum("xapxbq->apbq", c6).reshape(di * dh, di * dh)
            else:
                blocks[j][s] += np.einsum("axpbxq->apbq", c6).reshape(dj * dh, dj * dh)
    return CpMap(m.source, reduced, blocks)
