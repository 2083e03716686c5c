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

import weakref
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ._linalg import frob, frobs, groups, hermitian_basis, stack
from .algebra import BlockOperator, MultiMatrixAlgebra, PositivityWitness
from .cpmaps import CpMap, apply, identity_cpmap, is_cp
from .errors import AlgebraMismatchError, ShapeMismatchError

VERIFY_TOL = 1e-8  # default of verify, realize, the brute-force oracle and the CLI


@dataclass(frozen=True)
class HomAlgebra:
    """The block algebra housing Choi operators of maps in_algebra -> out_algebra.

    Blocks are ordered lexicographically by (out block, in block); each block
    carries the out factor first.  ``base`` is the plain multimatrix algebra;
    ``pairs`` lists the (out index, in index) behind each base block.  It is
    read off the algebras once, at construction; equality, hashing and repr
    depend on the three algebras alone.
    """

    in_algebra: MultiMatrixAlgebra
    out_algebra: MultiMatrixAlgebra
    base: MultiMatrixAlgebra
    pairs: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_in = len(self.in_algebra)
        object.__setattr__(self, "pairs", tuple((t // n_in, t % n_in)
                                                for t in range(len(self.base))))

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
    """The Choi blocks of a linear map between Hom-algebras.

    Construction checks the algebras only: verify_deterministic decides
    whether the map is CP, and deterministic, in a report it returns, and
    realize runs it as its gate.  ``inner``, ``source_hom`` and
    ``target_hom`` cannot be rebound, and inner's Choi blocks are read-only
    copies, so a supermap's report stays its own; verify_deterministic keeps
    the last one outside the object, and ``vars(s)`` never changes.
    """

    def __init__(self, inner: CpMap, source_hom: HomAlgebra, target_hom: HomAlgebra):
        if inner.source != source_hom.base or inner.target != target_hom.base:
            raise AlgebraMismatchError("inner map does not match the Hom-algebras")
        vars(self).update(inner=inner, source_hom=source_hom, target_hom=target_hom)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Supermap is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Supermap is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        s = "+".join(str(d) for d in self.source_hom.base.dims)
        t = "+".join(str(d) for d in self.target_hom.base.dims)
        return f"Supermap(Hom[{s}] -> Hom[{t}])"


def identity_supermap(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> Supermap:
    hom = hom_algebra(a, b)
    return Supermap(identity_cpmap(hom.base), hom, hom)


def apply_to_choi(s: Supermap, c: BlockOperator) -> BlockOperator:
    """Push a Choi element through the supermap."""
    if c.algebra != s.source_hom.base:
        raise AlgebraMismatchError("element does not live in the supermap's source Hom-algebra")
    return apply(s.inner, c)


def _n_and_phi(s: Supermap) -> Tuple[CpMap, CpMap]:
    """N and the marginal map Phi = Tr_out o S, in one pass over S's Choi blocks.

    N's block (k, i) is (1/dim B) sum over (l, j) of S's block ((l, k), (j, i))
    traced over both out factors, D_l and B_j.  Phi's block (k, (j, i)) is
    the sum over l of that block traced over D_l alone.

    S's blocks are stacked by (d_l, d_k, d_j, d_i), two batched einsums per
    stack; the traces are then summed block by block, from zero, in block
    pair order, as a loop over S's block pairs sums them.
    """
    src_hom, tgt_hom = s.source_hom, s.target_hom
    a, b, c = src_hom.in_algebra, src_hom.out_algebra, tgt_hom.in_algebra
    pairs = [(t_cd, l, k, t_ab, j, i) for t_cd, (l, k) in enumerate(tgt_hom.pairs)
             for t_ab, (j, i) in enumerate(src_hom.pairs)]
    d_dims = tgt_hom.out_algebra.dims
    shapes = ((d_dims[l], c.dims[k], b.dims[j], a.dims[i]) for _, l, k, _, j, i in pairs)
    n_terms, phi_terms = [None] * len(pairs), [None] * len(pairs)
    for (dl, dk, dj, di), us in groups(shapes).items():
        st = stack([s.inner.choi(pairs[u][0], pairs[u][3]) for u in us])
        n_st = np.einsum("zoqcaoQcb->zqaQb", st.reshape(-1, dl, dk, dj, di, dl, dk, dj, di))
        phi_st = np.einsum("zxapxbq->zapbq", st.reshape(-1, dl, dk, dj * di, dl, dk, dj * di))
        for u, n_term, phi_term in zip(us, n_st, phi_st.reshape(len(us), dk * dj * di, -1)):
            n_terms[u], phi_terms[u] = n_term, phi_term
    n_blocks = [[np.zeros((dk, di, dk, di), dtype=complex) for di in a.dims] for dk in c.dims]
    phi_blocks = [[np.zeros((dk * dh,) * 2, dtype=complex) for dh in src_hom.base.dims]
                  for dk in c.dims]
    for (_, _, k, t_ab, _, i), n_term, phi_term in zip(pairs, n_terms, phi_terms):
        n_blocks[k][i] += n_term
        phi_blocks[k][t_ab] += phi_term
    scale = 1.0 / b.dim
    n = CpMap(a, c, [[scale * x.reshape(x.shape[0] * x.shape[1], -1) for x in row]
                     for row in n_blocks])
    return n, CpMap(src_hom.base, c, phi_blocks)


def kernel_residual(phi: CpMap, n: CpMap, source_hom: HomAlgebra) -> float:
    """||Phi - Id_B (x) N||_F over all Choi blocks of the marginal map
    Phi = Tr_out o S, for S's induced map N (both as _n_and_phi gives them):
    the Hilbert-Schmidt norm of Phi on ker Tr_out, zero exactly when kernel
    containment holds.  Blocks (k, (j, i)) are stacked by (d_k, d_j, d_i);
    each block's squared norm, and their sum in block order, are those of
    frob block by block."""
    b_dims, a_dims = source_hom.out_algebra.dims, n.source.dims
    keys = [(k, t) for k in range(len(n.target.dims)) for t in range(len(source_hom.pairs))]
    sq = [0.0] * len(keys)
    shapes = ((n.target.dims[k], b_dims[source_hom.pairs[t][0]], a_dims[source_hom.pairs[t][1]])
              for k, t in keys)
    for (dk, dj, di), us in groups(shapes).items():
        n_st = stack([n.choi4(keys[u][0], source_hom.pairs[keys[u][1]][1]) for u in us])
        diff = np.array([phi.choi(*keys[u]) for u in us]).reshape(-1, dk, dj, di, dk, dj, di)
        for x in range(dj):  # less Id_B (x) N, on the diagonal of B_j
            diff[:, :, x, :, :, x] -= n_st
        for u, f in zip(us, frobs(diff.reshape(len(us), dk * dj * di, -1))):
            sq[u] = f ** 2
    total = 0.0
    for x in sq:
        total += x
    return float(np.sqrt(total))


def _unital_residual(n: CpMap) -> float:
    """||N(Id) - Id||_F, read off N's Choi blocks: the partial trace of each
    over its source factor, summed over source blocks in order."""
    total = 0.0
    for k, dk in enumerate(n.target.dims):
        acc = np.zeros((dk, dk), dtype=complex)
        for i in range(len(n.source.dims)):
            acc += np.einsum("rasa->rs", n.choi4(k, i))
        total += frob(acc - np.eye(dk)) ** 2
    return float(np.sqrt(total))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_deterministic.

    ``s_witness`` and ``n_witness`` are is_cp's verdicts on S and on N,
    naming a failing block and its reason.  ``phi`` is the marginal map
    Phi = Tr_out o S, and ``kernel_residual`` is
    kernel_residual(phi, n_map, source_hom): the Frobenius distance
    ``||Phi - Id_B (x) N||``, zero exactly when kernel containment holds.
    """

    s_witness: PositivityWitness
    kernel_residual: float
    phi: CpMap
    n_map: CpMap
    n_unital_residual: float
    n_witness: PositivityWitness
    verdict: bool
    tol: float

    cp_ok = property(lambda self: self.s_witness.ok)
    n_cp_ok = property(lambda self: self.n_witness.ok)

    def summary(self) -> str:
        flag = "deterministic" if self.verdict else "NOT deterministic"
        return (
            f"{flag}: cp_ok={self.cp_ok} kernel_residual={self.kernel_residual:.3e} "
            f"n_unital_residual={self.n_unital_residual:.3e} n_cp_ok={self.n_cp_ok} "
            f"(tol={self.tol:.1e})"
        )


def _require_tolerance(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ShapeMismatchError("tolerance must be positive and finite")


# the last report verify_deterministic computed for each live supermap
_REPORTS: "weakref.WeakKeyDictionary[Supermap, VerificationReport]" = weakref.WeakKeyDictionary()


def verify_deterministic(s: Supermap, tol: float = VERIFY_TOL) -> VerificationReport:
    """Decide whether the supermap sends trace-preserving Choi operators to
    trace-preserving Choi operators.

    The one place that decides S's complete positivity: Supermap and
    circuit_supermap check none.  Checks CP-ness, kernel containment as the
    Choi-level factorisation Phi = N o Tr_out of the marginal map
    Phi = Tr_out o S, and unitality of the induced map N.  The verdict also
    requires N to pass the PSD rule: exact CP-ness of S implies it, but N's
    Choi blocks are partial traces of S's and can sit up to dim D / dim B
    times further below zero.  Reads each of S's Choi blocks twice, once for
    the PSD rule and once for N and Phi.  The verdict is realize's gate.

    The last report computed for a supermap is kept, weakly keyed by the
    object, and returned as it is for a call at the same tol; so realize
    after a verify at its tol runs none of the checks again.  Pure: the
    supermap is left unchanged, and a report, like the supermap, is
    immutable, so threads that share either see the same values.
    """
    _require_tolerance(tol)
    report = _REPORTS.get(s)
    if report is not None and report.tol == tol:
        return report
    s_witness = is_cp(s.inner, tol)
    n_map, phi = _n_and_phi(s)
    residual = kernel_residual(phi, n_map, s.source_hom)
    unital = _unital_residual(n_map)
    n_witness = is_cp(n_map, tol)
    verdict = s_witness.ok and n_witness.ok and residual <= tol and unital <= tol
    _REPORTS[s] = report = VerificationReport(s_witness, residual, phi, n_map, unital,
                                              n_witness, verdict, tol)
    return report


@dataclass(frozen=True)
class Lemma1Decomposition:
    rho: BlockOperator
    residual: float


def lemma1_decompose(c: BlockOperator, hom: HomAlgebra) -> Lemma1Decomposition:
    """Split c as Id (x) rho plus a residual.

    rho = Tr_out(c) / dim(out algebra); the residual is the Frobenius
    distance of c from Id (x) rho.  When c pairs to one with every
    trace-preserving Choi probe the residual vanishes up to a condition
    factor of the probe family; positivity of c passes to rho.
    """
    rho = partial_trace_out(c, hom) * (1.0 / hom.out_algebra.dim)
    residual = (c - embed_with_out_identity(rho, hom)).norm()
    return Lemma1Decomposition(rho, residual)
