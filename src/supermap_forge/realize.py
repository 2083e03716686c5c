"""Constructive circuit realisation of deterministic supermaps.

Every deterministic supermap ``S`` from channels ``A -> B`` to channels
``C -> D`` factors through a fixed circuit: copy the classical input index,
feed one copy with the quantum content into a channel ``E: C -> A (x) B(P)``,
copy the intermediate index, plug the transformed channel ``F: A -> B`` into
the open slot, and finish with a channel ``G`` consuming all classical copies
together with ``B (x) B(P)``.  The memory ``P`` never needs more dimensions
than ``max_{i,k} dim(H_in_i) * dim(K_in_k)``.

The construction proceeds through the marginal map ``Phi = Tr_out o S``,
which by the factorisation lemma equals ``N o Tr_out`` for the induced unital
map N.  Its dilations put the environment on the source side
(``V: C-side -> Hom(A,B)-side (x) E``).  N's minimal Kraus family gives a
minimal one with components M_a = Id_B_j (x) X_ik, row beta of X_ik being
vec(N_beta†), so every other dilation is (Id (x) W) of it for a unique
environment isometry W = M_b R, R = M_a+ = Id_B_j (x) X_ik+.  No dilation,
W or Kraus family of S is ever formed: X_ik's rows are orthogonal, so X_ik+
is X_ik† over their squared norms; W's figures come from a factor F of each
of Phi's small Choi blocks M, F†F = M, and G's Choi blocks from S's, pulled
back through R.  The figures are the same for every such F, which is fixed
only up to a unitary on the Kraus index, so F is a Cholesky factor, and an
eigh factor only for a block whose pivots fall to roundoff.  P
has dimension max r_ik, the largest of N's Kraus ranks, and N's environment
for (i, k) is the span of P's first r_ik basis vectors.  E is assembled
from N's Kraus operators placed there, and G routes that span through W,
sending the rest of P to a fixed pure state so that G is trace preserving.

E is an isometry: its block (k -> i) is conjugation by one operator U_ik,
and a realisation holds E as these U_ik, not as Choi blocks.  The supermap
a circuit presents is one Choi-level contraction (link product) per pair of
Hom blocks: G's block contracted with conj(U_ik) over the memory index of
its columns, the half product h, then with U_ik over that of its rows; the
certificate diffs it.  The circuit run on a plugged channel f starts from
the same h, contracting f into it and the result with U_ik, so check's
trials reuse the certificate's h.  The Choi-form contraction of a general
E, which gen draws, is kept apart in circuit_supermap.

Index bookkeeping is fixed once and for all: Choi factors are ordered
(target, source), the memory factor P comes first in ``B(P (x) H)`` blocks,
and the wire-bending conjugations are explicit -- E stacks the *transposes*
of N's Kraus operators and G applies the entrywise *conjugate* of W.  With
these choices the assembled circuit reproduces ``S`` exactly rather than its
conjugate.
"""

import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

import numpy as np

from ._linalg import dag, frob, groups, herm_part, stack
from .algebra import MultiMatrixAlgebra
from .cpmaps import (
    Channel, CpMap, KrausDecomposition, _eigh_kraus, _eigh_rows, _not_cp,
)
from .errors import (
    AlgebraMismatchError, IsometryDefectError, NotTracePreservingError, NotUnitalError,
    ResidualTooLargeError, SupermapForgeError,
)
from .supermap import (
    VERIFY_TOL, HomAlgebra, Supermap, VerificationReport, hom_algebra,
    _require_tolerance, verify_deterministic,
)


# -- algebra shapes used by the circuit ---------------------------------------


def memory_bound(a: MultiMatrixAlgebra, c: MultiMatrixAlgebra) -> int:
    """The proven bound on the realised memory dimension for input algebras
    A and C: max_i dim(A_i) * max_k dim(C_k)."""
    return max(a.dims) * max(c.dims)


def memory_target_algebra(a: MultiMatrixAlgebra, p_dim: int) -> MultiMatrixAlgebra:
    """(+)_i B(P (x) H_in_i): one block per block of ``a``, memory factor first."""
    return MultiMatrixAlgebra(tuple((lbl, p_dim * d) for lbl, d in a.blocks))


def g_source_algebra(
    a: MultiMatrixAlgebra, b: MultiMatrixAlgebra, c: MultiMatrixAlgebra, p_dim: int
) -> MultiMatrixAlgebra:
    """(+)_{(i,j,k)} B(P (x) H_out_j), ordered lexicographically by (i, j, k)."""
    blocks = []
    for la, _ in a.blocks:
        for lb, db in b.blocks:
            for lc, _ in c.blocks:
                blocks.append(((la, lb, lc), p_dim * db))
    return MultiMatrixAlgebra(tuple(blocks))


def _g_source_index(i: int, j: int, k: int, nb: int, nc: int) -> int:
    return (i * nb + j) * nc + k


# -- the environment isometry W ----------------------------------------------


@dataclass(frozen=True)
class SolvedW:
    """The environment isometry W, held as the pseudo-inverse X_ik+ of N's
    Kraus rows: a left dilation's component M_b gives W = M_b (Id_B (x) X_ik+)."""

    pinv: Dict[Tuple[int, int], np.ndarray]  # (source i, target k) -> X_ik+
    residual: float
    isometry_defect: float


def _cholesky_rows(h: np.ndarray):
    """F = L^T for the Cholesky factor L L† = h of a Hermitian block, so that
    F's rows are Kraus vecs of h as _eigh_rows's are; None when Cholesky
    fails or a pivot L_ii^2 is at or below 2 (n + 2) eps tr(h).

    That cut is the bound _psd_block's certificate puts on Cholesky's
    backward error, less its tol term, and at least _eigh_rows's rank cut
    n eps lambda_max, as tr(h) >= lambda_max.  A block that is singular
    in exact arithmetic can pass Cholesky on a pivot of roundoff size; the
    row of size sqrt(eps) it leaves in F would raise W's residual towards
    its gate, so such a block is left to eigh, which drops that direction.
    """
    try:
        l = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None
    cut = 2 * (len(h) + 2) * np.finfo(float).eps * np.trace(h).real
    return None if (l.diagonal().real ** 2).min() <= cut else l.T


def solve_w(n_kraus: KrausDecomposition, phi: CpMap, source_hom: HomAlgebra,
            tol: float = VERIFY_TOL) -> SolvedW:
    """X_ik+ per pair (i, k) for N's Kraus rows x_beta = vec(N_beta†) ordered
    (A_i, C_k), and W's residual and isometry defect.

    n_kraus must be eigh's, as kraus_from_choi gives: rows that are scaled
    eigenvectors, every lambda_beta above the rank cut, are orthogonal, so
    X_ik+ = X_ik† diag(1 / ||x_beta||^2) with no SVD.  Rows that are not
    orthogonal defeat that closed form, and a gate below refuses.  W itself
    needs a left dilation of Phi; its diagnostics do not.  Each realigned
    (k, (j, i)) block M of the marginal map Phi factors as F†F, with F's rows
    Kraus operators of Phi's dual.  Every left dilation has M_b†M_b = M, so
    W_F = F R has W_F†W_F = W†W and ||W_F M_a - F|| = ||W M_a - M_b||; F
    meets X_ik+ over (A_i, C_k) alone.  Any two such F differ by a partial
    isometry on the Kraus index mu, F' = U F, which neither norm sees, so F
    comes from _cholesky_rows, and from _eigh_rows, the eigenvalues above
    roundoff, only for a block whose Cholesky pivots say it is singular.
    The dual's blocks are read off Phi's in place, with the transpose and
    conjugate that hs_dual applies.  Raises ResidualTooLargeError when the
    residual, and IsometryDefectError when the isometry defect, exceeds
    10 * tol: dilations of different maps can solve to a small residual,
    but not to an isometry.
    """
    if n_kraus.source != source_hom.in_algebra:
        raise AlgebraMismatchError("induced map must act on the in-factor algebra")
    rows, pinv = {}, {}
    for key, ops in n_kraus.ops.items():
        r, dk, di = ops.shape
        x = rows[key] = ops.conj().transpose(0, 2, 1).reshape(r, di * dk)
        pinv[key] = dag(x) / (x.real ** 2 + x.imag ** 2).sum(axis=1)
    res_sq = defect_sq = 0.0
    for t, (j, i) in enumerate(source_hom.pairs):
        dh = phi.source.dims[t]
        for k, dk in enumerate(phi.target.dims):
            x, xp = rows[(i, k)], pinv[(i, k)]
            dual = phi.choi4(k, t).transpose(1, 0, 3, 2).conj()  # hs_dual's block (t, k)
            h = herm_part(dual.reshape(dh * dk, dh * dk))
            f = _cholesky_rows(h)
            if f is None:
                f = _eigh_rows(h, rank_tol=0.0)
            n_ops = len(f)
            f = f.reshape(-1, x.shape[1])  # rows (mu, b), columns (A_i, C_k)
            w_f = f @ xp
            res_sq += frob(w_f @ x - f) ** 2
            w_f = w_f.reshape(n_ops, source_hom.out_algebra.dims[j] * x.shape[0])
            defect_sq += frob(dag(w_f) @ w_f - np.eye(w_f.shape[1])) ** 2
    residual, defect = float(np.sqrt(res_sq)), float(np.sqrt(defect_sq))
    if residual > 10 * tol:
        raise ResidualTooLargeError(
            f"intertwiner residual {residual:.3e} exceeds {10 * tol:.1e}"
        )
    if defect > 10 * tol:
        raise IsometryDefectError(f"W isometry defect {defect:.3e} exceeds {10 * tol:.1e}")
    return SolvedW(pinv, residual, defect)


# -- channel assembly ----------------------------------------------------------


def assemble_e(n_kraus: KrausDecomposition, p_dim: int,
               tol: float = VERIFY_TOL) -> Dict[Tuple[int, int], np.ndarray]:
    """The pre-processing channel E: C -> (+)_i B(P (x) H_in_i), as its
    Kraus operators: (source k, target i) -> U_ik, a (p d_i) x d_k matrix.

    Component (k -> i) is conjugation by the single operator
    ``U_ik = sum_beta |beta> (x) N_beta^T`` (transposes, not adjoints: the
    open channel slot attaches to the dual wire), so N's environment for
    (i, k) is the span of P's first r_ik basis vectors.  E is trace
    preserving, sum_i U_ik† U_ik = Id per k, exactly when N is unital, which
    realize checks first; NotTracePreservingError when a residual exceeds
    max(tol, 1e-8).
    """
    a_alg = n_kraus.source
    c_alg = n_kraus.target
    ops: Dict[Tuple[int, int], np.ndarray] = {}
    for k, dk in enumerate(c_alg.dims):
        for i, dhi in enumerate(a_alg.dims):
            n_ik = n_kraus.ops[(i, k)]
            u = np.zeros((p_dim, dhi, dk), dtype=complex)
            u[:len(n_ik)] = n_ik.transpose(0, 2, 1)
            ops[(k, i)] = u = u.reshape(p_dim * dhi, dk)
            u.flags.writeable = False
    residuals = [frob(sum(dag(ops[k, i]) @ ops[k, i] for i in range(len(a_alg))) - np.eye(dk))
                 for k, dk in enumerate(c_alg.dims)]
    tol = max(tol, 1e-8)
    if any(r > tol for r in residuals):
        raise NotTracePreservingError(
            f"TP residuals {tuple(f'{r:.3g}' for r in residuals)} exceed {tol}"
        )
    return ops


def assemble_g(s: Supermap, w: SolvedW, p_dim: int, tol: float = VERIFY_TOL) -> Channel:
    """The post-processing channel G: (+)_{(i,j,k)} B(P (x) H_out_j) -> D.

    On N's environment for (i, k), P's first r_ik basis vectors, G routes
    through the entrywise conjugate of W, tracing out the supermap's
    environment: its Choi block (l, (i, j, k)) there is S's block
    ((l, k), (j, i)), C[a, y, b, x, a', y', b', x'], pulled back through
    R = Id_B_j (x) X+, X+ = X_ik+,

        sum conj(X+[(x, y), beta]) C[a, y, b, x, a', y', b', x'] X+[(x', y'), beta'],

    two GEMMs, b passing through, reindexed (a, beta, b).  PSD as far as S's
    block is: ||R||^2 <= 1 / gram_min_eig scales any negative eigenvalue.
    On the rest of P, G prepares the first basis state of the first D block;
    E never reaches that part, so it never affects the circuit.
    """
    a_alg, b_alg = s.source_hom.in_algebra, s.source_hom.out_algebra
    c_alg, d_alg = s.target_hom.in_algebra, s.target_hom.out_algebra
    source = g_source_algebra(a_alg, b_alg, c_alg, p_dim)
    blocks = [[None] * len(source) for _ in d_alg.dims]
    for i, di in enumerate(a_alg.dims):
        for j, dj in enumerate(b_alg.dims):
            for k, dk in enumerate(c_alg.dims):
                src = _g_source_index(i, j, k, len(b_alg), len(c_alg))
                t = s.source_hom.block_index(j, i)
                xp = w.pinv[(i, k)]  # rows (x, y) of A_i (x) C_k, columns beta
                r_n = xp.shape[1]
                for l, dl in enumerate(d_alg.dims):
                    g6 = np.zeros((dl, p_dim, dj) * 2, dtype=complex)
                    if r_n:
                        c8 = s.inner.choi(s.target_hom.block_index(l, k), t).reshape(
                            dl, dk, dj, di, dl, dk, dj, di)
                        half = c8.transpose(3, 1, 0, 2, 4, 6, 7, 5).reshape(-1, di * dk) @ xp
                        pulled = (dag(xp) @ half.reshape(di * dk, -1)).reshape(
                            r_n, dl, dj, dl, dj, r_n)
                        g6[:, :r_n, :, :, :r_n, :] = pulled.transpose(1, 0, 2, 3, 5, 4)
                    g = g6.reshape(dl * p_dim * dj, -1)
                    if l == 0:
                        rest = np.arange(r_n * dj, p_dim * dj)
                        g[rest, rest] = 1.0
                    blocks[l][src] = g
    return Channel(source, d_alg, blocks, tol=max(tol, 1e-8))


# -- realisation ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CircuitRealisation:
    """The assembled circuit data for one deterministic supermap.

    E is held as its Kraus operators, as assemble_e returns them:
    ``e_kraus[k, i]`` is U_ik, a (p_dim d_i) x d_k matrix, for every block k
    of C and i of A.  ``e_channel`` is E's Choi family, U_ik U_ik† per block,
    built from them on first use; checking a realisation never builds it.
    ``e_kraus`` is a read-only view of a mapping to read-only copies of the
    arrays it was given, so E cannot change under that cache.
    Realisations compare by identity, as their channels do.
    """

    a: MultiMatrixAlgebra
    b: MultiMatrixAlgebra
    c: MultiMatrixAlgebra
    d: MultiMatrixAlgebra
    p_dim: int
    e_kraus: Mapping[Tuple[int, int], np.ndarray]
    g_channel: Channel
    w_residual: float
    w_isometry_defect: float
    gram_min_eig: float
    p_bound: int

    def __post_init__(self):
        e_kraus = {key: np.array(u, dtype=complex) for key, u in self.e_kraus.items()}
        for u in e_kraus.values():
            u.flags.writeable = False
        object.__setattr__(self, "e_kraus", MappingProxyType(e_kraus))

    def __reduce__(self):
        # a mappingproxy neither copies nor pickles: pass __init__ a dict
        return CircuitRealisation, tuple(
            dict(self.e_kraus) if f.name == "e_kraus" else getattr(self, f.name)
            for f in fields(self))

    @cached_property
    def e_channel(self) -> Channel:
        target = memory_target_algebra(self.a, self.p_dim)
        m = CpMap.from_kraus(self.c, target, {key: [u] for key, u in self.e_kraus.items()})
        return Channel(self.c, target, m.choi_blocks, validate=False)

    def summary(self) -> str:
        return (
            f"p_dim={self.p_dim} (bound {self.p_bound}), "
            f"w_residual={self.w_residual:.3e}, "
            f"w_isometry_defect={self.w_isometry_defect:.3e}, "
            f"gram_min_eig={self.gram_min_eig:.3e}"
        )


def _rejection(report: VerificationReport) -> SupermapForgeError:
    """The error for a failed verdict, carrying the report: the PSD rule on N,
    then on S, then kernel containment, then unitality."""
    failed = [w for w in (report.n_witness, report.s_witness) if not w]
    if failed:
        exc = _not_cp(failed[0])
    elif report.kernel_residual > report.tol:
        exc = ResidualTooLargeError(f"kernel containment fails: residual "
                                    f"{report.kernel_residual:.3e} > {report.tol:.1e}")
    else:
        exc = NotUnitalError("the induced map N is not unital")
    exc.report = report
    return exc


def realize(s: Supermap, tol: float = VERIFY_TOL) -> CircuitRealisation:
    """Build the circuit (E, G, P) realising a deterministic supermap.

    Orchestrates: induced map N -> N's minimal Kraus family -> X_ik+ in
    closed form, R = Id_B (x) X_ik+ -> channel assembly; no SVD runs.  The
    memory dimension is N's largest Kraus rank r_ik (at least 1), so it
    respects the bound max_{i,k} dim(H_in_i) * dim(K_in_k) by construction:
    r_ik counts eigenvalues of N's (k, i) Choi block, a matrix of that size.

    Its gate is verify_deterministic at tol, run before any
    eigendecomposition; after a verify of the same supermap at the same tol
    it is that call's report, so S is certified once per pipeline, with the
    same verdicts, errors and outputs.  A NOT deterministic verdict raises,
    with the report as the error's ``report``: NotCompletelyPositiveError
    naming N's, else S's, failing block and reason; else
    ResidualTooLargeError when kernel_residual exceeds tol; else
    NotUnitalError.

    After a pass, eigh runs on N's Choi blocks, never on S's; S's blocks
    enter G through two GEMMs each.  The report's marginal map Phi, whose
    blocks are dim(C_k) dim(B_j) dim(A_i) square, is factored by Cholesky:
    W's figures are the same for any factor, and a block with a pivot at or
    below 2 (n + 2) eps tr falls back to eigh (see solve_w and
    _cholesky_rows).  solve_w's two gates then apply at 10 * tol.
    """
    report = verify_deterministic(s, tol)
    if not report.verdict:
        raise _rejection(report)
    n_kd = _eigh_kraus(report.n_map)
    w = solve_w(n_kd, report.phi, s.source_hom, tol)
    a_alg = s.source_hom.in_algebra
    c_alg = s.target_hom.in_algebra
    p_dim = max(max(map(len, n_kd.ops.values())), 1)
    e = assemble_e(n_kd, p_dim, tol=tol)
    g = assemble_g(s, w, p_dim, tol)
    return CircuitRealisation(
        a=a_alg,
        b=s.source_hom.out_algebra,
        c=c_alg,
        d=s.target_hom.out_algebra,
        p_dim=p_dim,
        e_kraus=e,
        g_channel=g,
        w_residual=w.residual,
        w_isometry_defect=w.isometry_defect,
        gram_min_eig=n_kd.min_gram_eig(),
        p_bound=memory_bound(a_alg, c_alg),
    )


# -- circuit evaluation --------------------------------------------------------


def _circuit_choi(e: CpMap, g: CpMap, p_dim: int, hom_ab: HomAlgebra, hom_cd: HomAlgebra) -> CpMap:
    """Choi family Hom(A, B) -> Hom(C, D) of the circuit E -> slot -> G.

    The link product over the memory P: block ((l, k), (j, i)) contracts G's
    block (l, (i, j, k)), as an (o c O d) x (p P) matrix, with E's block
    (i, k), as a (p P) x (a q b Q) matrix, then transposes to
    (o q c a, O Q d b).  The block pairs of one (d_l, d_k, d_j, d_i) form a
    stack: one batched GEMM and one transpose per stack, with the bits each
    pair gets alone.  No positivity check.
    """
    a, b = hom_ab.in_algebra, hom_ab.out_algebra
    c, d = hom_cd.in_algebra, hom_cd.out_algebra
    nb, nc = len(b), len(c)
    p, pp = p_dim, p_dim * p_dim
    e_mats = {(i, k): e.choi(i, k).reshape(p, dhi * dk, p, dhi * dk)
              .transpose(0, 2, 1, 3).reshape(pp, -1)
              for i, dhi in enumerate(a.dims) for k, dk in enumerate(c.dims)}
    pairs = [(l, k, j, i) for l, k in hom_cd.pairs for j, i in hom_ab.pairs]
    blocks = [None] * len(pairs)
    for (dl, dk, dj, di), ids in groups(
        [(d.dims[l], c.dims[k], b.dims[j], a.dims[i]) for l, k, j, i in pairs]
    ).items():
        members = [pairs[t] for t in ids]
        g_mats = stack([g.choi(l, _g_source_index(i, j, k, nb, nc))
                        .reshape(dl, p, dj, dl, p, dj).transpose(0, 2, 3, 5, 1, 4)
                        for l, k, j, i in members]).reshape(len(ids), -1, pp)
        s9 = (g_mats @ stack([e_mats[i, k] for _, k, _, i in members])).reshape(
            -1, dl, dj, dl, dj, di, dk, di, dk)
        n = dl * dk * dj * di
        s = s9.transpose(0, 1, 6, 2, 5, 3, 8, 4, 7).reshape(-1, n, n)
        for t, m in zip(ids, s):
            blocks[t] = m
    row = len(hom_ab.pairs)
    return CpMap(hom_ab.base, hom_cd.base,
                 [blocks[r:r + row] for r in range(0, len(blocks), row)])


def circuit_supermap(
    e: CpMap,
    g: CpMap,
    p_dim: int,
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
) -> Supermap:
    """The supermap presented by a circuit with plugged channels E and G.

    No positivity check: verify_deterministic decides whether it is CP.
    """
    hom_ab, hom_cd = hom_algebra(a, b), hom_algebra(c, d)
    return Supermap(_circuit_choi(e, g, p_dim, hom_ab, hom_cd), hom_ab, hom_cd)


def _circuit_parts(r: CircuitRealisation):
    """Each of G's Choi blocks and E's Kraus operators, read once: G's block
    (l, (i, j, k)) keyed (l, i, j, k), and U_ik keyed (k, i)."""
    na, nb, nc = len(r.a), len(r.b), len(r.c)
    g = {(l, i, j, k): r.g_channel.choi(l, _g_source_index(i, j, k, nb, nc))
         for l in range(len(r.d)) for i in range(na) for j in range(nb) for k in range(nc)}
    return g, {(k, i): r.e_kraus[k, i] for k in range(nc) for i in range(na)}


def _half_link(g: np.ndarray, u: np.ndarray, dl: int, dj: int) -> np.ndarray:
    """h, the first half of the link product over the memory for the block
    triple (l, (i, j, k)): G's block (l, (i, j, k)), as an (o p b O B) x P
    matrix, contracted with conj(u), u = U_ik, over P in one thin GEMM.  h is
    indexed (o p b O B) x (A Q); the spanning certificate (_link) and the
    trials (_for_trials) both finish from it."""
    p = g.shape[0] // (dl * dj)
    return g.reshape(-1, p, dj).transpose(0, 2, 1).reshape(-1, p) @ u.reshape(p, -1).conj()


def _link(h: np.ndarray, u: np.ndarray, dl: int, dj: int) -> np.ndarray:
    """The circuit's Choi block ((l, k), (j, i)) from _half_link's h for G's
    block (l, (i, j, k)) and u = U_ik, E's Choi block never formed: h
    contracted with u over p, one thin GEMM, then one transpose to
    (o q b a, O Q B A).  No positivity check."""
    di_p, dk = u.shape
    p = h.shape[0] // (dl * dj) ** 2
    di = di_p // p
    s8 = (u.reshape(p, di * dk).T @ h.reshape(dl, p, -1)).reshape(dl, di, dk, dj, dl, dj, di, dk)
    n = dl * dk * dj * di
    return s8.transpose(0, 2, 3, 1, 4, 7, 5, 6).reshape(n, n)


def _for_trials(h: np.ndarray, u: np.ndarray, dl: int, dj: int) -> np.ndarray:
    """_half_link's h for u = U_ik realigned once to an (o O Q p) x (b B A)
    matrix, the layout _run_circuit multiplies f's blocks into."""
    di_p, dk = u.shape
    p = h.shape[0] // (dl * dj) ** 2
    h7 = h.reshape(dl, p, dj, dl, dj, di_p // p, dk)
    return h7.transpose(0, 3, 6, 1, 2, 4, 5).reshape(dl * dl * dk * p, -1)


def _run_circuit(r: CircuitRealisation, u, halves, f: CpMap):
    """The Choi blocks, (l, k) in row l, of the circuit E -> slot -> G of r
    on the plugged f, with no check.

    ``u`` maps (k, i) to U_ik, (p a) x q, and ``halves`` maps (l, i, j, k)
    to _for_trials of _half_link's h: G's block (l, (i, j, k)) already
    contracted with conj(U_ik) over P.  The classical copies of the input
    index are a relabelling: the copy (k, i) meets only U_ik, the slot
    (k, i, j) only f's block (j, i) and G's (l, (i, j, k)).  Each of f's
    Choi blocks is realigned once to (b B A) x a; output block (l, k) then
    sums over (i, j) two thin GEMMs: f's block contracted into h over
    (b, B, A), and the result with U_ik over (p, a).  The result is
    G o (f (x) Id_P) o E o copy by associativity.
    """
    pairs = [(i, j) for i in range(len(r.a)) for j in range(len(r.b))]
    f_r = {(i, j): f.choi4(j, i).transpose(0, 2, 3, 1).reshape(-1, r.a.dims[i])
           for i, j in pairs}
    blocks = []
    for l, dl in enumerate(r.d.dims):
        row = []
        for k, dk in enumerate(r.c.dims):
            out = 0
            for i, j in pairs:
                x = (halves[l, i, j, k] @ f_r[i, j]).reshape(dl * dl * dk, -1)
                out = out + x @ u[k, i]
            row.append(out.reshape(dl, dl, dk, dk).transpose(0, 3, 1, 2).reshape(dl * dk, -1))
        blocks.append(row)
    return blocks


def evaluate_circuit(r: CircuitRealisation, f: Channel, tol: float = VERIFY_TOL) -> Channel:
    """Run the realisation circuit on a plugged channel f: A -> B.

    The classical copy of the input index is a relabelling: it routes input
    block k to E's U_ik and, after f, to G's blocks (l, (i, j, k)).  Each of
    G's blocks is contracted with conj(U_ik) over the memory P (_half_link,
    as check_realisation does); f is contracted into that over its output B
    and the slot's input A, and the result with U_ik over P and A: three
    thin GEMMs per block triple (see _run_circuit), so neither f (x) Id_P
    nor E's Choi family is materialised.  Output is a channel C -> D,
    validated as trace preserving at tol.
    """
    if f.source != r.a or f.target != r.b:
        raise AlgebraMismatchError("plugged channel type must match the realisation")
    g, u = _circuit_parts(r)
    halves = {}
    for (l, i, j, k), block in g.items():
        args = u[k, i], r.d.dims[l], r.b.dims[j]
        halves[l, i, j, k] = _for_trials(_half_link(block, *args), *args)
    return Channel(r.c, r.d, _run_circuit(r, u, halves, f), tol=tol)


@dataclass(frozen=True)
class RealisationCheck:
    spanning_deviation: float
    trial_deviation: float
    trials: int
    tol: float
    passed: bool

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{flag}: spanning set max deviation {self.spanning_deviation:.3e}, "
            f"{self.trials} trial(s) max deviation {self.trial_deviation:.3e} "
            f"(tol {self.tol:.1e})"
        )


def _require_count(name: str, value) -> None:
    """ValueError unless value is an integer >= 0 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def check_realisation(
    r: CircuitRealisation,
    s: Supermap,
    trials: int = 10,
    tol: float = VERIFY_TOL,
    seed: int = 0,
) -> RealisationCheck:
    """Certify the realisation against the supermap.

    Compares the circuit's linear action with the supermap on the full
    matrix-unit spanning set of Hom(A, B) -- both sides are linear in the
    Choi operator, so agreement there certifies agreement everywhere -- and
    additionally runs the circuit on random plugged channels, trial t on
    gen.random_channel(A, B, seed=seed + t).  Each of G's Choi blocks and
    E's U_ik is read once per check.  The circuit's Choi blocks are link
    products of G with U_ik, one block triple at a time: _half_link's h, G
    contracted with conj(U_ik) over P, formed once per triple and check,
    then _link's contraction with U_ik over p.  Neither E's Choi family nor
    the circuit's is held whole.  The trials start from the same h (see
    _run_circuit), so a fault in h shows in the spanning deviation; what
    they test beyond it is what the evaluator does after h, against S
    applied to f from S's own blocks, all trials in one GEMM per block
    pair.
    The trials measure deviation only: an output that is not a channel
    counts against tol like any other deviation, it raises nothing.
    Before any contraction: ValueError unless trials and seed are integers
    >= 0 (not bools), ShapeMismatchError unless tol is positive and finite,
    AlgebraMismatchError unless r and s act on the same algebras.
    """
    _require_count("trials", trials)
    _require_count("seed", seed)
    _require_tolerance(tol)
    hom_ab = s.source_hom
    hom_cd = s.target_hom
    if (r.a, r.b, r.c, r.d) != (hom_ab.in_algebra, hom_ab.out_algebra,
                                hom_cd.in_algebra, hom_cd.out_algebra):
        raise AlgebraMismatchError("realisation and supermap act on different algebras")
    g, u = _circuit_parts(r)
    halves = {}
    # Choi column (t_ab, x) is the image of one matrix unit, spread over t_cd
    unit_sq = [0.0] * len(hom_ab.base)
    for t_cd, (l, k) in enumerate(hom_cd.pairs):
        n_cd = hom_cd.base.dims[t_cd]
        for t_ab, (j, i) in enumerate(hom_ab.pairs):
            n_ab = hom_ab.base.dims[t_ab]
            args = u[k, i], r.d.dims[l], r.b.dims[j]
            h = _half_link(g[l, i, j, k], *args)
            if trials:
                halves[l, i, j, k] = _for_trials(h, *args)
            diff = _link(h, *args)
            del h  # so that h and the deviation's temporaries are never held together
            diff -= s.inner.choi(t_cd, t_ab)
            unit_sq[t_ab] = unit_sq[t_ab] + (
                np.abs(diff.reshape(n_cd, n_ab, n_cd, n_ab)) ** 2).sum(axis=(0, 2))
    spanning = max(float(np.sqrt(x.max())) for x in unit_sq)
    trial_dev = 0.0
    if trials:
        from . import gen

        fs = [gen.random_channel(r.a, r.b, seed=seed + t) for t in range(trials)]
        outs = [_run_circuit(r, u, halves, f) for f in fs]
        # S o f for every f at once, from S's own blocks: each superop block
        # of S against the trials' vec(f) blocks, stacked as columns
        vecs = [np.stack([f.choi(j, i).ravel() for f in fs], axis=1) for j, i in hom_ab.pairs]
        dev_sq = 0.0
        for t_cd, (l, k) in enumerate(hom_cd.pairs):
            s_f = sum(s.inner.superop(t_cd, t_ab) @ v for t_ab, v in enumerate(vecs))
            lhs = np.stack([out[l][k].ravel() for out in outs], axis=1)
            dev_sq = dev_sq + (np.abs(lhs - s_f) ** 2).sum(axis=0)
        trial_dev = float(np.sqrt(dev_sq.max()))
    passed = spanning <= tol and trial_dev <= tol
    return RealisationCheck(spanning, trial_dev, trials, tol, passed)
