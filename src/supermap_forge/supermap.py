"""Deterministic supermaps: CP maps between Hom-algebras.

The Choi correspondence identifies CP maps ``A -> B`` with positive elements
of the multimatrix algebra ``Hom(A, B)`` whose blocks are indexed by pairs
(target block j, source block i) with dimensions ``dim(K_j) * dim(H_i)``.
Channels correspond to positive elements whose partial trace over the target
factor is the identity.

A deterministic supermap is a CP map ``Hom(A, B) -> Hom(C, D)`` sending
elements with that partial-trace property to elements with the same property.
Verification is linear-algebraic rather than sampled: the trace-preserving
Choi operators affinely span the whole slice ``{c : Tr_out c = Id}``, so it
suffices to check

  1. complete positivity of the supermap,
  2. that elements with ``Tr_out c = 0`` are sent to elements with
     ``Tr_out S(c) = 0`` (kernel containment), and
  3. that the induced map N on the source factors is unital,

where ``N(x) = Tr_out S(section(x))`` with the uniform section
``section(x) = (Id (x) x) / dim(B)``.  These three conditions hold exactly
when the supermap sends trace-preserving Choi operators to trace-preserving
Choi operators.

Kernel containment is the factorisation ``Phi = N o Tr_out`` of the marginal
map ``Phi = Tr_out o S``, checked on Choi blocks: every block of Phi must
equal ``Id_B (x) N``.  The reported ``kernel_residual`` is the Frobenius
distance ``||Phi - Id_B (x) N||`` over all blocks, which is the
Hilbert-Schmidt norm of Phi restricted to ``ker Tr_out``; it is at least the
largest ``||Tr_out S(b)||`` over any orthonormal basis b of that kernel.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ._linalg import frob, hermitian_basis
from .algebra import DEFAULT_TOL, BlockOperator, MultiMatrixAlgebra, hs_inner
from .cpmaps import (
    CpMap, apply, identity_cpmap, is_cp, require_cp_map, trace_out_target_group,
)
from .errors import AlgebraMismatchError, ShapeMismatchError


@dataclass(frozen=True)
class HomAlgebra:
    """The block algebra housing Choi operators of maps in_algebra -> out_algebra.

    Blocks are ordered lexicographically by (out block, in block); each block
    carries the out factor first.  ``base`` is the plain multimatrix algebra;
    ``pairs`` lists the (out index, in index) behind each base block.
    """

    in_algebra: MultiMatrixAlgebra
    out_algebra: MultiMatrixAlgebra
    base: MultiMatrixAlgebra

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        n_in = len(self.in_algebra)
        return tuple((t // n_in, t % n_in) for t in range(len(self.base)))

    def block_index(self, j: int, i: int) -> int:
        return j * len(self.in_algebra) + i


def hom_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> HomAlgebra:
    """Hom(a, b): one block per (b block, a block) with dims multiplied."""
    blocks = []
    for lb, db in b.blocks:
        for la, da in a.blocks:
            blocks.append(((lb, la), db * da))
    return HomAlgebra(a, b, MultiMatrixAlgebra(tuple(blocks)))


def choi_element(m: CpMap, hom: HomAlgebra) -> BlockOperator:
    """The map's Choi family as a single element of the Hom-algebra."""
    if m.source != hom.in_algebra or m.target != hom.out_algebra:
        raise AlgebraMismatchError("map type does not match the Hom-algebra")
    return BlockOperator(hom.base, [m.choi(j, i) for (j, i) in hom.pairs])


def cpmap_from_element(c: BlockOperator, hom: HomAlgebra) -> CpMap:
    """Inverse of choi_element (no positivity requirement)."""
    if c.algebra != hom.base:
        raise AlgebraMismatchError("element does not live in the Hom-algebra")
    n_in = len(hom.in_algebra)
    blocks = [
        [c.block(hom.block_index(j, i)) for i in range(n_in)]
        for j in range(len(hom.out_algebra))
    ]
    return CpMap(hom.in_algebra, hom.out_algebra, blocks)


def partial_trace_out(c: BlockOperator, hom: HomAlgebra) -> BlockOperator:
    """Trace the out factor of every block, merging over the out index."""
    if c.algebra != hom.base:
        raise AlgebraMismatchError("element does not live in the Hom-algebra")
    mats = [np.zeros((d, d), dtype=complex) for d in hom.in_algebra.dims]
    for t, (j, i) in enumerate(hom.pairs):
        dj, di = hom.out_algebra.dims[j], hom.in_algebra.dims[i]
        mats[i] += np.einsum("xaxb->ab", c.block(t).reshape(dj, di, dj, di))
    return BlockOperator(hom.in_algebra, mats)


def tp_residual(c: BlockOperator, hom: HomAlgebra) -> float:
    """Distance of Tr_out(c) from the identity: zero exactly for channel Choi."""
    return (partial_trace_out(c, hom) - hom.in_algebra.identity()).norm()


def tp_section(x: BlockOperator, hom: HomAlgebra) -> BlockOperator:
    """The uniform right inverse of Tr_out: block (j, i) = Id_j (x) x_i / dim(B).

    Satisfies Tr_out(section(x)) = x exactly, and maps the identity to a
    strictly positive trace-preserving Choi operator.
    """
    if x.algebra != hom.in_algebra:
        raise AlgebraMismatchError("operator must live on the in-factor algebra")
    scale = 1.0 / hom.out_algebra.dim
    mats = []
    for (j, i) in hom.pairs:
        dj = hom.out_algebra.dims[j]
        mats.append(scale * np.kron(np.eye(dj, dtype=complex), x.block(i)))
    return BlockOperator(hom.base, mats)


def embed_with_out_identity(x: BlockOperator, hom: HomAlgebra) -> BlockOperator:
    """Id (x) x without normalisation (blocks Id_j (x) x_i)."""
    return tp_section(x, hom) * float(hom.out_algebra.dim)


def traceout_kernel_basis(hom: HomAlgebra) -> List[BlockOperator]:
    """Orthonormal Hermitian basis of {c : Tr_out(c) = 0}.

    Built per in-block: express Tr_out in orthonormal Hermitian coordinates
    and take the SVD null space.  The count is
    sum_i [ sum_j (d_j d_i)^2 - d_i^2 ].
    """
    out = []
    for i, di in enumerate(hom.in_algebra.dims):
        col_elems = []  # (j, matrix) in fixed order
        for j, dj in enumerate(hom.out_algebra.dims):
            for h in hermitian_basis(dj * di):
                col_elems.append((j, h))
        target_basis = hermitian_basis(di)
        mat = np.zeros((len(target_basis), len(col_elems)))
        for c, (j, h) in enumerate(col_elems):
            dj = hom.out_algebra.dims[j]
            red = np.einsum("xaxb->ab", h.reshape(dj, di, dj, di))
            for r, g in enumerate(target_basis):
                mat[r, c] = np.real(np.trace(g.conj().T @ red))
        u, s, vt = np.linalg.svd(mat)
        rank = int(np.sum(s > 1e-12 * max(s.max(initial=0.0), 1.0)))
        for row in vt[rank:]:
            mats = [np.zeros((hom.base.dims[t],) * 2, dtype=complex) for t in range(len(hom.base))]
            for c, coeff in enumerate(row):
                if abs(coeff) < 1e-15:
                    continue
                j, h = col_elems[c]
                mats[hom.block_index(j, i)] = mats[hom.block_index(j, i)] + coeff * h
            out.append(BlockOperator(hom.base, mats))
    return out


class Supermap:
    """A CP map between Hom-algebras.

    Holds no verification state: verify_deterministic returns a report, and
    realize checks the conditions it needs itself.
    """

    def __init__(
        self,
        inner: CpMap,
        source_hom: HomAlgebra,
        target_hom: HomAlgebra,
        tol: float = DEFAULT_TOL,
        validate: bool = True,
    ):
        if inner.source != source_hom.base or inner.target != target_hom.base:
            raise AlgebraMismatchError("inner map does not match the Hom-algebras")
        if validate:
            require_cp_map(inner, tol, what="supermap Choi block")
        self.inner = inner
        self.source_hom = source_hom
        self.target_hom = target_hom

    def __repr__(self) -> str:
        s = "+".join(str(d) for d in self.source_hom.base.dims)
        t = "+".join(str(d) for d in self.target_hom.base.dims)
        return f"Supermap(Hom[{s}] -> Hom[{t}])"


def identity_supermap(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> Supermap:
    hom = hom_algebra(a, b)
    return Supermap(identity_cpmap(hom.base), hom, hom, validate=False)


def apply_to_choi(s: Supermap, c: BlockOperator) -> BlockOperator:
    """Push a Choi element through the supermap."""
    if c.algebra != s.source_hom.base:
        raise AlgebraMismatchError("element does not live in the supermap's source Hom-algebra")
    return apply(s.inner, c)


def extract_n(s: Supermap, tol: float = DEFAULT_TOL, require_cp: bool = True) -> CpMap:
    """The induced map N on the source factors: N(x) = Tr_out S(section(x)).

    For a deterministic supermap N is unital and CP, and
    Tr_out[S(c)] = N(Tr_out[c]) for every Hom element c.

    Read off the Choi blocks of S directly: N's block (k, i) is
    (1/dim B) sum over (l, j) of S's block ((l, k), (j, i)) traced over both
    out factors, D_l and B_j.  Raises NotCompletelyPositiveError when
    require_cp is set and N fails the PSD check.
    """
    src_hom, tgt_hom = s.source_hom, s.target_hom
    src, tgt = src_hom.in_algebra, tgt_hom.in_algebra
    blocks = [[np.zeros((dk, di, dk, di), dtype=complex) for di in src.dims]
              for dk in tgt.dims]
    for t_cd, (l, k) in enumerate(tgt_hom.pairs):
        dl, dk = tgt_hom.out_algebra.dims[l], tgt.dims[k]
        for t_ab, (j, i) in enumerate(src_hom.pairs):
            dj, di = src_hom.out_algebra.dims[j], src.dims[i]
            s8 = s.inner.choi(t_cd, t_ab).reshape(dl, dk, dj, di, dl, dk, dj, di)
            blocks[k][i] += np.einsum("oqcaoQcb->qaQb", s8)
    scale = 1.0 / src_hom.out_algebra.dim
    n = CpMap(src, tgt, [[scale * b.reshape(b.shape[0] * b.shape[1], -1) for b in row]
                         for row in blocks])
    return require_cp_map(n, tol) if require_cp else n


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_deterministic.

    ``kernel_residual`` is ||Phi - Id_B (x) N||_F over all Choi blocks of the
    marginal map Phi = Tr_out o S: the Hilbert-Schmidt norm of Phi on
    ker Tr_out, zero exactly when kernel containment holds.
    """

    cp_ok: bool
    kernel_residual: float
    n_map: CpMap
    n_unital_residual: float
    n_cp_ok: bool
    verdict: bool
    tol: float

    def summary(self) -> str:
        flag = "deterministic" if self.verdict else "NOT deterministic"
        return (
            f"{flag}: cp_ok={self.cp_ok} kernel_residual={self.kernel_residual:.3e} "
            f"n_unital_residual={self.n_unital_residual:.3e} n_cp_ok={self.n_cp_ok} "
            f"(tol={self.tol:.1e})"
        )


def verify_deterministic(s: Supermap, tol: float = 1e-8) -> VerificationReport:
    """Decide whether the supermap sends trace-preserving Choi operators to
    trace-preserving Choi operators.

    Checks CP-ness, kernel containment as the Choi-level factorisation
    Phi = N o Tr_out of the marginal map Phi = Tr_out o S, and unitality of
    the induced map N.  The verdict also requires N to pass the PSD rule:
    exact CP-ness of S implies it, but N's Choi blocks are partial traces of
    S's and can sit up to dim D / dim B times further below zero.  These are
    the conditions realize checks.  Pure: the supermap is left unchanged.
    """
    if tol <= 0:
        raise ShapeMismatchError("tolerance must be positive")
    cp_ok = bool(is_cp(s.inner, tol))
    n_map = extract_n(s, require_cp=False)
    phi = trace_out_target_group(s.inner, s.target_hom, "out")
    b_dims = s.source_hom.out_algebra.dims
    kernel_sq = 0.0
    for k in range(len(n_map.target)):
        for t, (j, i) in enumerate(s.source_hom.pairs):
            dk, dj, di = n_map.target.dims[k], b_dims[j], n_map.source.dims[i]
            id_n = np.einsum("cC,qaQb->qcaQCb", np.eye(dj), n_map.choi4(k, i))
            kernel_sq += frob(phi.choi(k, t) - id_n.reshape(dk * dj * di, -1)) ** 2
    kernel_residual = float(np.sqrt(kernel_sq))
    n_unital_residual = (
        apply(n_map, n_map.source.identity()) - n_map.target.identity()
    ).norm()
    n_cp_ok = bool(is_cp(n_map, tol))
    verdict = cp_ok and n_cp_ok and kernel_residual <= tol and n_unital_residual <= tol
    return VerificationReport(
        cp_ok, kernel_residual, n_map, n_unital_residual, n_cp_ok, verdict, tol
    )


@dataclass(frozen=True)
class Lemma1Decomposition:
    rho: BlockOperator
    residual: float


def lemma1_decompose(c: BlockOperator, hom: HomAlgebra, tol: float = DEFAULT_TOL) -> Lemma1Decomposition:
    """Split c as Id (x) rho plus a residual.

    rho = Tr_out(c) / dim(out algebra); the residual is the Frobenius
    distance of c from Id (x) rho.  When c pairs to one with every
    trace-preserving Choi probe the residual vanishes up to a condition
    factor (see lemma1_condition_factor); positivity of c passes to rho.
    """
    rho = partial_trace_out(c, hom) * (1.0 / hom.out_algebra.dim)
    residual = (c - embed_with_out_identity(rho, hom)).norm()
    return Lemma1Decomposition(rho, residual)


def lemma1_condition_factor(hom: HomAlgebra, probes: List[BlockOperator]) -> float:
    """Inverse smallest singular value of c -> (<c, probe_a>)_a restricted to
    the orthogonal complement of {Id (x) rho}.

    Quantifies how strongly the finite probe family pins down the
    decomposition: a residual direction of unit norm produces pairing
    deviations of at least 1/kappa somewhere in the probe family.
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
