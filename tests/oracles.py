"""Reference implementations that the tests compare the package against.

Each oracle here builds its answer the slow, direct way: probing a linear
map one matrix unit at a time, forming Kronecker products, conjugating by a
dilation, or assembling a pairing matrix.  The package's fast paths
(link-product GEMMs, Choi-level contractions, the realisation circuit) are
checked against them, so this module imports nothing from
``supermap_forge.realize``, ``supermap_forge.gen`` or
``supermap_forge.serialize``; ``tests/test_dependencies.py`` enforces that.
The W path to G lives in ``tests/w_oracle.py``.

The channel calculus of the paper's circuit lives here too: the link
product ``compose``, the classical ``copy_channel``, ``identity_channel``,
``as_channel`` and ``is_unital``.  The package evaluates that circuit with
one contraction per block triple and treats the copy as a relabelling, so
only the tests compose channels.  So do the Hilbert-Schmidt pairing
``hs_inner``, ``extract_n`` (N alone, where the package reads N and Phi
together), ``NotMinimalError``, which only oracles raise, and
``encode_matrix``, one matrix as a document stores it.

``psd_blocks_per_block``, ``n_and_phi_per_pair``,
``kernel_residual_per_block``, ``eigh_kraus_per_block`` (with its
``eigh_rows_per_block``), ``min_gram_eig_per_pair`` and
``unital_residual_via_apply`` are the package's verify and realize layers as
they were written before blocks of one shape were stacked: one Python
iteration, and one numpy call of each kind, per Choi block or block pair.
The stacked layers must give the same bits.

``random_channel`` and ``_tp_renormalise`` are gen's channel sampler as it
was written before its draws were taken one per block pair and its
Id (x) R^{-1/2} written block by block: two Gaussian draws per block pair,
``np.kron`` for the conjugation, and the TP residual read from a throwaway
``Channel``.  The package's sampler must give the same bits and leave the
generator in the same state.

The package holds a CP map by its Choi blocks alone.  Stinespring dilations
(``StinespringDilation``, ``minimal_stinespring``, the least-squares
``environment_intertwiner`` between two of them, and the SVD pseudo-inverse
``_minimal_pinv`` it solves with) and ``psd_factor`` live here, for the
tests that check dilation uniqueness, the W path and realize's closed-form
pseudo-inverse of N's Kraus rows.
"""

import base64
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from supermap_forge._linalg import (
    dag, frob, herm_part, hermitian_basis, matrix_unit, psd_root_inverse,
)
from supermap_forge.algebra import (
    DEFAULT_TOL, BlockOperator, MultiMatrixAlgebra, PositivityWitness, _psd_block, is_positive,
)
from supermap_forge.cpmaps import (
    KRAUS_RANK_REL_TOL, Channel, CpMap, KrausDecomposition, apply, identity_cpmap, is_tp,
    kraus_from_choi, require_cp_map,
)
from supermap_forge.errors import (
    AlgebraMismatchError, NotPositiveError, ShapeMismatchError, SingularMarginalError,
    SupermapForgeError,
)
from supermap_forge.supermap import HomAlgebra, Supermap, _n_and_phi, embed_with_out_identity


class NotMinimalError(SupermapForgeError):
    """A dilation assumed minimal is rank deficient."""


def unit(alg: MultiMatrixAlgebra, block: int, a: int, b: int) -> BlockOperator:
    """Matrix unit E_ab supported on one block; zero elsewhere."""
    mats = [np.zeros((d, d), dtype=complex) for d in alg.dims]
    mats[block] = matrix_unit(alg.dims[block], a, b)
    return BlockOperator(alg, mats)


def matrix_units(alg: MultiMatrixAlgebra) -> Iterator[Tuple[int, int, int, BlockOperator]]:
    """Iterate (block, a, b, E) over the full matrix-unit basis."""
    for i, d in enumerate(alg.dims):
        for a in range(d):
            for b in range(d):
                yield i, a, b, unit(alg, i, a, b)


def hs_inner(x: BlockOperator, y: BlockOperator) -> complex:
    """Hilbert-Schmidt pairing <x, y> = sum_blocks Tr(x† y)."""
    x._check_same(y)
    return complex(sum(np.trace(dag(a) @ b) for a, b in zip(x.mats, y.mats)))


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
    for i, a, b, e in matrix_units(source):
        image = action(e)
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


def is_unital(m: CpMap, tol: float = DEFAULT_TOL) -> bool:
    return apply(m, m.source.identity()).allclose(m.target.identity(), tol)


def as_channel(m: CpMap, tol: float = DEFAULT_TOL) -> Channel:
    return Channel(m.source, m.target, m.choi_blocks, tol=tol)


def identity_channel(a: MultiMatrixAlgebra) -> Channel:
    m = identity_cpmap(a)
    return Channel(a, a, m.choi_blocks, validate=False)


def compose(g: CpMap, f: CpMap) -> CpMap:
    """g after f, contracted at the Choi level (the link product):

        C_{g o f}[l, i] = sum_j  sum_{r,s} C_g[l, j][o, r, O, s] C_f[j, i][r, a, s, b],

    one GEMM per block pair (l, i) of superops, with the sum over j inside it.
    """
    if f.target != g.source:
        raise AlgebraMismatchError("compose: target of f must equal source of g")
    mid = range(len(f.target))
    g_rows = [np.concatenate([g.superop(l, j) for j in mid], axis=1) for l in range(len(g.target))]
    f_cols = [np.concatenate([f.superop(j, i) for j in mid]) for i in range(len(f.source))]
    return CpMap(f.source, g.target, [
        [(g_row @ f_col).reshape(dl, dl, dh, dh).transpose(0, 2, 1, 3).reshape(dl * dh, -1)
         for f_col, dh in zip(f_cols, f.source.dims)]
        for g_row, dl in zip(g_rows, g.target.dims)])


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


def extract_n(s: Supermap) -> CpMap:
    """The induced map N on the source factors: N(x) = Tr_out S(section(x)).

    For a deterministic supermap N is unital and CP, and
    Tr_out[S(c)] = N(Tr_out[c]) for every Hom element c.  Read off S's Choi
    blocks with no positivity check; the first half of _n_and_phi.
    """
    return _n_and_phi(s)[0]


@dataclass(frozen=True)
class StinespringDilation:
    """Environment dimensions and stacked isometry blocks for a CP map A -> B.

    For a map with Kraus family ``{K_alpha: H_i -> K_j}``, the block for
    source index i is

        V_i = (+)_j sum_alpha K_alpha (x) |alpha>  :  H_i -> (+)_j K_j (x) E_ij,

    so ``m(rho)_j = Tr_env[(component j of V_i) rho (...)†]`` and
    ``V_i† (y (x) Id) V_i`` computes the Hilbert-Schmidt dual of m.  For a
    channel every V_i is an isometry.  The Kraus family is read off the
    blocks.
    """

    source: MultiMatrixAlgebra
    target: MultiMatrixAlgebra
    env_dims: Dict[Tuple[int, int], int]
    isometries: Tuple[np.ndarray, ...]

    @property
    def kraus(self) -> KrausDecomposition:
        """K_alpha of pair (i, j): slice alpha of component (i, j)'s environment."""
        ops = {}
        for (i, j), r in self.env_dims.items():
            c = self.component(i, j).reshape(self.target.dims[j], r, self.source.dims[i])
            ops[(i, j)] = tuple(c[:, alpha, :] for alpha in range(r))
        return KrausDecomposition(self.source, self.target, ops)

    def component(self, i: int, j: int) -> np.ndarray:
        """Slice of V_i landing in K_j (x) E_ij; shape (dK_j * r_ij, dH_i)."""
        offset = sum(self.target.dims[jj] * self.env_dims[(i, jj)] for jj in range(j))
        size = self.target.dims[j] * self.env_dims[(i, j)]
        return self.isometries[i][offset : offset + size, :]

    def isometry_defect(self) -> float:
        """max_i || V_i† V_i - Id ||_F; ~0 exactly when the map is a channel."""
        worst = 0.0
        for v, dh in zip(self.isometries, self.source.dims):
            worst = max(worst, frob(dag(v) @ v - np.eye(dh)))
        return worst

def _stack_dilation(source: MultiMatrixAlgebra, target: MultiMatrixAlgebra,
                    components) -> StinespringDilation:
    """The dilation whose component (i, j) is components[(i, j)], an array
    (dK_j, r_ij, dH_i) holding K_alpha[x, y] at [x, alpha, y]."""
    isoms = tuple(np.concatenate(
        [components[(i, j)].reshape(-1, dh) for j in range(len(target))], dtype=complex
    ) for i, dh in enumerate(source.dims))
    env_dims = {key: c.shape[1] for key, c in components.items()}
    return StinespringDilation(source, target, env_dims, isoms)


def dilation_from_kraus(m: CpMap, kd: KrausDecomposition) -> StinespringDilation:
    """Stack each Kraus list against an orthonormal environment basis."""
    return _stack_dilation(m.source, m.target, {
        (i, j): np.stack(kd.ops[(i, j)], axis=1) if len(kd.ops[(i, j)]) else np.zeros((dk, 0, dh))
        for i, dh in enumerate(m.source.dims) for j, dk in enumerate(m.target.dims)
    })


def minimal_stinespring(m: CpMap, tol: float = DEFAULT_TOL) -> StinespringDilation:
    """Minimal dilation via the Choi eigendecomposition (PSD rule at tol).

    Minimality holds by construction: each per-pair Kraus family is an
    orthogonal set, so its Gram matrix is diagonal with positive entries.
    """
    return dilation_from_kraus(m, kraus_from_choi(m, tol=tol))


def _kraus_rows(d: StinespringDilation, i: int, j: int) -> np.ndarray:
    """Component (i, j) as an (r_ij, dK_j * dH_i) matrix: row alpha is vec(K_alpha)."""
    dk, dh = d.target.dims[j], d.source.dims[i]
    r = d.env_dims[(i, j)]
    return d.component(i, j).reshape(dk, r, dh).transpose(1, 0, 2).reshape(r, dk * dh)


# _minimal_pinv rejects Kraus rows as not minimal when their smallest
# singular value falls below this fraction of their largest
INTERTWINER_REL_CUT = 1e-10


def _minimal_pinv(ma: np.ndarray, key) -> np.ndarray:
    """Pseudo-inverse of Kraus rows ma (row alpha vec(K_alpha)), by SVD.

    Raises NotMinimalError when ma is rank deficient: its smallest singular
    value is at most INTERTWINER_REL_CUT times its largest.
    """
    if ma.shape[0] == 0:
        return np.zeros((ma.shape[1], 0), dtype=complex)
    u, s, vt = np.linalg.svd(ma, full_matrices=False)
    if len(s) < ma.shape[0] or s.min() <= INTERTWINER_REL_CUT * s.max():
        raise NotMinimalError(
            f"Kraus rows {key} are rank deficient; the dilation they give is not minimal"
        )
    return dag(vt) @ (dag(u) / s[:, None])


def environment_intertwiner(
    d_from: StinespringDilation,
    d_to: StinespringDilation,
):
    """Least-squares solve of (Id (x) X) V_from = V_to per block pair.

    When ``d_from`` is minimal the solution is the unique partial isometry
    relating the two dilations.  Returns (blocks, residual, partial-isometry
    defect); blocks maps (i, j) to the solved environment matrix.
    """
    blocks: Dict[Tuple[int, int], np.ndarray] = {}
    res_sq = 0.0
    pi_sq = 0.0
    for i in range(len(d_from.source)):
        for j in range(len(d_from.target)):
            ma, mb = _kraus_rows(d_from, i, j), _kraus_rows(d_to, i, j)
            x = mb @ _minimal_pinv(ma, (i, j))
            res_sq += frob(x @ ma - mb) ** 2
            blocks[(i, j)] = x
            g = dag(x) @ x
            pi_sq += frob(g @ g - g) ** 2
    return blocks, float(np.sqrt(res_sq)), float(np.sqrt(pi_sq))


def psd_factor(x: BlockOperator, tol: float = DEFAULT_TOL) -> BlockOperator:
    """Per-block g with g† g = block, via eigendecomposition clamped at zero."""
    witness = is_positive(x, tol)
    if not witness:
        raise NotPositiveError(f"block {witness.block!r} is not PSD ({witness.reason})")
    factors = []
    for m in x.mats:
        w, v = np.linalg.eigh(herm_part(m))
        w = np.clip(w, 0.0, None)
        factors.append((np.sqrt(w)[:, None] * dag(v)))
    return BlockOperator(x.algebra, factors)


def heisenberg_apply(dil: StinespringDilation, y: BlockOperator) -> BlockOperator:
    """V† (y (x) Id_E) V blockwise; equals the Hilbert-Schmidt dual applied to y."""
    if y.algebra != dil.target:
        raise AlgebraMismatchError("operator is not in the dilation's target algebra")
    outs = []
    for i, dh in enumerate(dil.source.dims):
        acc = np.zeros((dh, dh), dtype=complex)
        for j in range(len(dil.target)):
            c = dil.component(i, j)
            acc += dag(c) @ np.kron(y.block(j), np.eye(dil.env_dims[(i, j)])) @ c
        outs.append(acc)
    return BlockOperator(dil.source, outs)


def lemma1_condition_factor(hom: HomAlgebra, probes: List[BlockOperator]) -> float:
    """Inverse smallest singular value of c -> (<c, probe_a>)_a restricted to
    the orthogonal complement of {Id (x) rho}.

    Quantifies how strongly the finite probe family pins down the
    decomposition of lemma1_decompose: a residual direction of unit norm
    produces pairing deviations of at least 1/kappa somewhere in the probe
    family.
    """
    basis = []
    for t in range(len(hom.base)):
        for h in hermitian_basis(hom.base.dims[t]):
            mats = [np.zeros((hom.base.dims[u],) * 2, dtype=complex) for u in range(len(hom.base))]
            mats[t] = h
            basis.append(BlockOperator(hom.base, mats))
    # orthonormal basis of the embedded subspace {Id (x) rho}
    sub = []
    for i in range(len(hom.in_algebra)):
        for h in hermitian_basis(hom.in_algebra.dims[i]):
            mats = [np.zeros((hom.in_algebra.dims[u],) * 2, dtype=complex)
                    for u in range(len(hom.in_algebra))]
            mats[i] = h
            elem = embed_with_out_identity(BlockOperator(hom.in_algebra, mats), hom)
            sub.append(elem * (1.0 / elem.norm()))
    pairing = np.zeros((len(probes), len(basis)))
    for r, p in enumerate(probes):
        for cidx, b in enumerate(basis):
            pairing[r, cidx] = np.real(hs_inner(b, p))
    proj = np.eye(len(basis))
    for e in sub:
        coords = np.array([np.real(hs_inner(b, e)) for b in basis])
        proj -= np.outer(coords, coords)
    restricted = pairing @ proj
    s = np.linalg.svd(restricted, compute_uv=False)
    n_complement = len(basis) - len(sub)
    if n_complement == 0:
        return 1.0
    sig = s[:n_complement]
    lo = float(sig.min()) if sig.size else 0.0
    return float(np.inf) if lo <= 0 else 1.0 / lo


def encode_matrix(m: np.ndarray) -> Dict[str, Any]:
    """Encode one matrix as a document stores it: its shape, and the base64
    of its C-contiguous <c16 bytes.  Refuses a non-finite entry, as
    save_document does."""
    m = np.ascontiguousarray(m, dtype="<c16")
    if not np.isfinite(m).all():
        raise ShapeMismatchError("cannot write a matrix with non-finite entries")
    return {"shape": list(m.shape), "c16": base64.b64encode(m.data).decode("ascii")}


# -- verify and realize's layers, block by block ------------------------------


def psd_blocks_per_block(labelled_blocks, tol: float) -> PositivityWitness:
    """The PSD rule on each (label, block): the first failure, or a pass
    carrying the smallest certified lower bound seen."""
    worst_eig = np.inf
    for lbl, m in labelled_blocks:
        lo, defect, reason = _psd_block(m, tol)
        if reason is not None:
            return PositivityWitness(False, lbl, lo, defect, reason)
        worst_eig = min(worst_eig, lo)
    return PositivityWitness(True, None, worst_eig, 0.0)


def is_cp_per_block(m: CpMap, tol: float = DEFAULT_TOL) -> PositivityWitness:
    """The PSD rule on every Choi block; the witness names the block pair."""
    pairs = [(j, i) for j in range(len(m.target)) for i in range(len(m.source))]
    return psd_blocks_per_block(((p, m.choi(*p)) for p in pairs), tol)


def n_and_phi_per_pair(s: Supermap) -> Tuple[CpMap, CpMap]:
    """N and the marginal map Phi = Tr_out o S, in one pass over S's Choi blocks.

    N's block (k, i) is (1/dim B) sum over (l, j) of S's block ((l, k), (j, i))
    traced over both out factors, D_l and B_j.  Phi's block (k, (j, i)) is
    the sum over l of that block traced over D_l alone.
    """
    src_hom, tgt_hom = s.source_hom, s.target_hom
    src, tgt = src_hom.in_algebra, tgt_hom.in_algebra
    n_blocks = [[np.zeros((dk, di, dk, di), dtype=complex) for di in src.dims]
                for dk in tgt.dims]
    phi_blocks = [[np.zeros((dk * dh,) * 2, dtype=complex) for dh in src_hom.base.dims]
                  for dk in tgt.dims]
    for t_cd, (l, k) in enumerate(tgt_hom.pairs):
        dl, dk = tgt_hom.out_algebra.dims[l], tgt.dims[k]
        for t_ab, (j, i) in enumerate(src_hom.pairs):
            dj, di = src_hom.out_algebra.dims[j], src.dims[i]
            c = s.inner.choi(t_cd, t_ab)
            s8 = c.reshape(dl, dk, dj, di, dl, dk, dj, di)
            n_blocks[k][i] += np.einsum("oqcaoQcb->qaQb", s8)
            c6 = c.reshape(dl, dk, dj * di, dl, dk, dj * di)
            phi_blocks[k][t_ab] += np.einsum("xapxbq->apbq", c6).reshape(dk * dj * di, -1)
    scale = 1.0 / src_hom.out_algebra.dim
    n = CpMap(src, tgt, [[scale * b.reshape(b.shape[0] * b.shape[1], -1) for b in row]
                         for row in n_blocks])
    return n, CpMap(src_hom.base, tgt, phi_blocks)


def kernel_residual_per_block(phi: CpMap, n: CpMap, source_hom: HomAlgebra) -> float:
    """||Phi - Id_B (x) N||_F over all Choi blocks of the marginal map
    Phi = Tr_out o S, for S's induced map N (both as _n_and_phi gives them):
    the Hilbert-Schmidt norm of Phi on ker Tr_out, zero exactly when kernel
    containment holds."""
    b_dims = source_hom.out_algebra.dims
    total = 0.0
    for k, dk in enumerate(n.target.dims):
        for t, (j, i) in enumerate(source_hom.pairs):
            dj, di = b_dims[j], n.source.dims[i]
            id_n = np.einsum("cC,qaQb->qcaQCb", np.eye(dj), n.choi4(k, i))
            total += frob(phi.choi(k, t) - id_n.reshape(dk * dj * di, -1)) ** 2
    return float(np.sqrt(total))


def unital_residual_via_apply(n: CpMap) -> float:
    """||N(Id) - Id||, with N applied to the identity as an algebra element."""
    return (apply(n, n.source.identity()) - n.target.identity()).norm()


def eigh_kraus_per_block(m: CpMap, rank_tol: float = KRAUS_RANK_REL_TOL) -> KrausDecomposition:
    """kraus_from_choi's factorisation, with no PSD check: for a map whose
    Choi blocks already passed the PSD rule."""
    ops: Dict[Tuple[int, int], np.ndarray] = {}
    for j, dk in enumerate(m.target.dims):
        for i, dh in enumerate(m.source.dims):
            rows = eigh_rows_per_block(herm_part(m.choi(j, i)), rank_tol)
            ops[(i, j)] = rows.reshape(-1, dk, dh)
    return KrausDecomposition(m.source, m.target, ops)


def eigh_rows_per_block(h: np.ndarray, rank_tol: float) -> np.ndarray:
    """One Hermitian block's Kraus vecs as rows, sqrt(lambda_beta) v_beta^T
    for each eigenvalue above kraus_from_choi's cutoff."""
    w, v = np.linalg.eigh(h)
    keep = w > max(rank_tol, len(h) * np.finfo(float).eps) * max(float(w.max()), 0.0)
    return (v[:, keep] * np.sqrt(w[keep])).T


def min_gram_eig_per_pair(kd: KrausDecomposition) -> float:
    """Smallest Gram eigenvalue across nonempty pairs (inf if all empty)."""
    lo = np.inf
    for (i, j), ks in kd.ops.items():
        if len(ks):
            lo = min(lo, float(np.linalg.eigvalsh(kd.gram(i, j)).min()))
    return lo


# -- the reference channel sampler ---------------------------------------------


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_channel(
    a: MultiMatrixAlgebra, b: MultiMatrixAlgebra, seed=None, max_attempts: int = 10
) -> Channel:
    """Random PSD Choi blocks renormalised to satisfy trace preservation.

    Per source block i the marginal R_i = sum_j Tr_target M_ji is inverted
    as R_i^{-1/2}; a singular marginal triggers a fresh draw, and after
    max_attempts failures SingularMarginalError is raised.  R_i^{-1/2} loses
    accuracy with R_i's condition number, so a source block whose TP
    residual then exceeds 1e-10 is renormalised once more, by its new
    marginal.
    """
    rng = _rng(seed)
    for _ in range(max_attempts):
        columns = []
        for dh in a.dims:
            raw = []
            for dk in b.dims:
                g = _gaussian_matrix(rng, dk * dh, dk * dh)
                raw.append(g @ dag(g) / (dk * dh))
            col = _tp_renormalise(raw, b.dims, dh)
            if col is None:
                break
            columns.append(col)
        else:
            ch = Channel(a, b, list(zip(*columns)), validate=False)
            report = is_tp(ch, 1e-10)
            if report:
                return ch
            columns = [_tp_renormalise(col, b.dims, dh) if res > 1e-10 else col
                       for col, dh, res in zip(columns, a.dims, report.residuals)]
            return Channel(a, b, list(zip(*columns)), tol=1e-10)
    raise SingularMarginalError(
        f"no invertible marginal after {max_attempts} attempts"
    )


def _tp_renormalise(col, dims, dh):
    """Conjugate one source block's Choi blocks by Id (x) R^{-1/2}, with R
    their marginal sum_j Tr_target; None when R is near singular."""
    marginal = np.zeros((dh, dh), dtype=complex)
    for m, dk in zip(col, dims):
        marginal += np.einsum("rarb->ab", m.reshape(dk, dh, dk, dh))
    root_inv = psd_root_inverse(marginal, 1e-12)
    if root_inv is None:
        return None
    fixes = [np.kron(np.eye(dk, dtype=complex), root_inv) for dk in dims]
    return [fix @ m @ dag(fix) for fix, m in zip(fixes, col)]
