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
map N.  Both sides are dilated with the environment on the source side
(``V: C-side -> Hom(A,B)-side (x) E``); the right dilation, built from N's
minimal Kraus family, is minimal, so a least-squares solve recovers the
unique environment isometry W with ``(Id (x) W) V_right = V_left``.  E is
assembled from N's Kraus operators embedded into the padded memory P, and G
from W restricted to each embedded environment, sending the orthogonal
complement of each embedded environment to a fixed pure state so that G is
trace preserving.

The supermap a circuit presents is one Choi-level contraction (link product)
of E's and G's blocks per pair of Hom blocks; the certificate diffs it.

Index bookkeeping is fixed once and for all: Choi factors are ordered
(target, source), the memory factor P comes first in ``B(P (x) H)`` blocks,
and the wire-bending conjugations are explicit -- E stacks the *transposes*
of N's Kraus operators and G applies the entrywise *conjugate* of the solved
W.  With these choices the assembled circuit reproduces ``S`` exactly rather
than its conjugate.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ._linalg import basis_column, dag, frob, swap_matrix
from .algebra import DEFAULT_TOL, MultiMatrixAlgebra
from .cpmaps import (
    Channel,
    CpMap,
    KrausDecomposition,
    StinespringDilation,
    apply,
    as_channel,
    compose,
    copy_channel,
    dilation_from_kraus,
    environment_intertwiner,
    identity_cpmap,
    is_unital,
    kraus_from_choi,
    minimal_stinespring,
    require_cp_map,
    tensor,
)
from .errors import (
    AlgebraMismatchError,
    BoundViolatedError,
    IsometryDefectError,
    NotUnitalError,
    ResidualTooLargeError,
)
from .supermap import HomAlgebra, Supermap, choi_element, extract_n, hom_algebra

VERIFY_TOL = 1e-8


# -- algebra shapes used by the circuit ---------------------------------------


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


# -- dilations of the marginal map Phi ----------------------------------------


def left_dilation(s: Supermap, s_kraus: KrausDecomposition) -> StinespringDilation:
    """Dilation of Phi = Tr_out o S obtained by bending the traced factor of
    the supermap's dilation from s_kraus into the environment.

    The returned blocks satisfy ``V_k† (x (x) Id) V_k = Phi(x)_k``; the
    environment for (source k, target block (j,i)) is the direct sum over
    target-out blocks l of (K_out_l)-tagged copies of the supermap
    environment, ordered (l, a, mu).
    """
    src = s.target_hom.in_algebra  # C-shaped
    tgt = s.source_hom.base
    out_alg = s.target_hom.out_algebra  # D-shaped
    n_in = len(s.target_hom.in_algebra)
    ops: Dict[Tuple[int, int], list] = {}
    for k, dk in enumerate(src.dims):
        for t in range(len(tgt)):
            kraus = []
            for l, dl in enumerate(out_alg.dims):
                t_cd = l * n_in + k
                for a in range(dl):
                    embed = np.kron(basis_column(dl, a), np.eye(dk, dtype=complex))
                    for s_mu in s_kraus.ops[(t, t_cd)]:
                        kraus.append(dag(s_mu) @ embed)
            ops[(k, t)] = kraus
    kd = KrausDecomposition(src, tgt, {key: tuple(v) for key, v in ops.items()})
    return dilation_from_kraus(CpMap.from_kraus(src, tgt, ops), kd)


def right_dilation(
    n_dilation: StinespringDilation, source_hom: HomAlgebra
) -> StinespringDilation:
    """Dilation of Phi = N o Tr_out built from a dilation of N.

    Environment for (source k, target (j, i)) is H_out_j (x) E_N_ik with the
    tagged basis ordered (b, beta).  Minimal whenever N's dilation is, by
    Gram invertibility of the composite Kraus family.
    """
    n = n_dilation.cpmap
    if n.source != source_hom.in_algebra:
        raise AlgebraMismatchError("induced map must act on the in-factor algebra")
    src = n.target  # C-shaped (K_in blocks)
    tgt = source_hom.base  # Hom(A, B)
    b_alg = source_hom.out_algebra
    ops: Dict[Tuple[int, int], list] = {}
    for k, dk in enumerate(src.dims):
        for t, (j, i) in enumerate(source_hom.pairs):
            dj = b_alg.dims[j]
            dhi = source_hom.in_algebra.dims[i]
            kraus = []
            for bb in range(dj):
                embed = np.kron(basis_column(dj, bb), np.eye(dhi, dtype=complex))
                for n_beta in n_dilation.kraus.ops[(i, k)]:
                    kraus.append(embed @ dag(n_beta))
            ops[(k, t)] = kraus
    kd = KrausDecomposition(src, tgt, {key: tuple(v) for key, v in ops.items()})
    return dilation_from_kraus(CpMap.from_kraus(src, tgt, ops), kd)


@dataclass(frozen=True)
class SolvedW:
    """Blockwise environment isometry relating the two dilations of Phi."""

    blocks: Dict[Tuple[int, int], np.ndarray]  # (source k, target block) -> W
    residual: float
    isometry_defect: float


def solve_w(
    v_right: StinespringDilation, v_left: StinespringDilation, tol: float = VERIFY_TOL
) -> SolvedW:
    """Least-squares solve of (Id (x) W) V_right = V_left per block pair.

    Requires both dilations to present the same CP map (checked on the Choi
    families); the right dilation must be minimal, otherwise the solve is
    rank deficient.  Residual and isometry defect must stay below 10 * tol.
    """
    mismatch = v_right.cpmap.choi_distance(v_left.cpmap)
    if mismatch > tol:
        raise ResidualTooLargeError(
            f"dilations disagree: Choi distance {mismatch:.3e} > {tol:.1e}"
        )
    blocks, residual, _ = environment_intertwiner(v_right, v_left)
    defect_sq = 0.0
    for x in blocks.values():
        defect_sq += frob(dag(x) @ x - np.eye(x.shape[1])) ** 2
    defect = float(np.sqrt(defect_sq))
    if residual > 10 * tol:
        raise ResidualTooLargeError(
            f"intertwiner residual {residual:.3e} exceeds {10 * tol:.1e}"
        )
    return SolvedW(blocks, residual, defect)


# -- padding -------------------------------------------------------------------


@dataclass(frozen=True)
class PaddedEnvironment:
    """A single memory space P with basis inclusions of every E_N_ik."""

    p_dim: int
    injections: Dict[Tuple[int, int], np.ndarray]  # (i, k) -> p_dim x r_ik
    complement_dims: Dict[Tuple[int, int], int]

    def injection(self, i: int, k: int) -> np.ndarray:
        return self.injections[(i, k)]

    def complement(self, i: int, k: int) -> np.ndarray:
        """Orthonormal basis of the complement of the embedded environment."""
        r = self.injections[(i, k)].shape[1]
        return np.eye(self.p_dim, dtype=complex)[:, r:]


def pad_environment(env_dims: Dict[Tuple[int, int], int],
                    bound_dims: Dict[Tuple[int, int], int]) -> PaddedEnvironment:
    """P of dimension max r_ik (at least 1), with leading-basis inclusions.

    Raises BoundViolatedError when some r_ik exceeds its proven bound
    dim(H_in_i) * dim(K_in_k); that signals an upstream rank problem.
    """
    for key, r in env_dims.items():
        if r < 0:
            raise BoundViolatedError(f"negative environment dimension at {key}")
        if key in bound_dims and r > bound_dims[key]:
            raise BoundViolatedError(
                f"environment dimension {r} at {key} exceeds bound {bound_dims[key]}"
            )
    p_dim = max(max(env_dims.values(), default=0), 1)
    injections = {
        key: np.eye(p_dim, dtype=complex)[:, :r] for key, r in env_dims.items()
    }
    complements = {key: p_dim - r for key, r in env_dims.items()}
    return PaddedEnvironment(p_dim, injections, complements)


# -- channel assembly ----------------------------------------------------------


def assemble_e(n_dilation: StinespringDilation, pad: PaddedEnvironment,
               tol: float = DEFAULT_TOL) -> Channel:
    """The pre-processing channel E: C -> (+)_i B(P (x) H_in_i).

    Component (k -> i) is conjugation by the single operator
    ``U_ik = sum_beta iota|beta> (x) N_beta^T`` (transposes, not adjoints:
    the open channel slot attaches to the dual wire).  E is trace preserving
    exactly when N is unital.
    """
    n = n_dilation.cpmap
    if not is_unital(n, tol):
        raise NotUnitalError("assemble_e requires a unital induced map")
    a_alg = n.source
    c_alg = n.target
    target = memory_target_algebra(a_alg, pad.p_dim)
    ops: Dict[Tuple[int, int], list] = {}
    for k, dk in enumerate(c_alg.dims):
        for i, dhi in enumerate(a_alg.dims):
            iota = pad.injection(i, k)
            u = np.zeros((pad.p_dim * dhi, dk), dtype=complex)
            for beta, n_beta in enumerate(n_dilation.kraus.ops[(i, k)]):
                u += np.kron(iota[:, beta : beta + 1], n_beta.T)
            ops[(k, i)] = [u]
    m = CpMap.from_kraus(c_alg, target, ops)
    return Channel(c_alg, target, m.choi_blocks, tol=max(tol, 1e-8))


def assemble_g(
    w: SolvedW,
    pad: PaddedEnvironment,
    source_hom: HomAlgebra,
    target_hom: HomAlgebra,
    s_env_dims: Dict[Tuple[int, int], int],
    tol: float = VERIFY_TOL,
) -> Channel:
    """The post-processing channel G: (+)_{(i,j,k)} B(P (x) H_out_j) -> D.

    On the embedded environment of each (i, k), G routes through the
    entrywise conjugate of the solved W block (the dual-wire reshuffle),
    tracing out the auxiliary supermap environment.  On the orthogonal
    complement it prepares the first basis state of the first D block; the
    embedding annihilates that summand, so it never affects the circuit.
    """
    if w.isometry_defect > 10 * tol:
        raise IsometryDefectError(
            f"W isometry defect {w.isometry_defect:.3e} exceeds {10 * tol:.1e}"
        )
    a_alg = source_hom.in_algebra
    b_alg = source_hom.out_algebra
    c_alg = target_hom.in_algebra
    d_alg = target_hom.out_algebra
    n_in_cd = len(c_alg)
    source = g_source_algebra(a_alg, b_alg, c_alg, pad.p_dim)
    ops: Dict[Tuple[int, int], list] = {
        (src, l): [] for src in range(len(source)) for l in range(len(d_alg))
    }
    for i, _ in enumerate(a_alg.dims):
        for j, dj in enumerate(b_alg.dims):
            for k, _ in enumerate(c_alg.dims):
                src = _g_source_index(i, j, k, len(b_alg), len(c_alg))
                iota = pad.injection(i, k)
                r_n = iota.shape[1]
                if r_n > 0:
                    t_ab = source_hom.block_index(j, i)
                    wbar = w.blocks[(k, t_ab)].conj()
                    pre = swap_matrix(r_n, dj) @ np.kron(dag(iota), np.eye(dj, dtype=complex))
                    offset = 0
                    for l, dl in enumerate(d_alg.dims):
                        r_s = s_env_dims.get((t_ab, l * n_in_cd + k), 0)
                        if r_s > 0:
                            seg = wbar[offset : offset + dl * r_s, :].reshape(dl, r_s, -1)
                            for mu in range(r_s):
                                ops[(src, l)].append(seg[:, mu, :] @ pre)
                        offset += dl * r_s
                perp = pad.complement(i, k)
                if perp.shape[1] > 0:
                    phi = np.kron(perp, np.eye(dj, dtype=complex))
                    chi = basis_column(d_alg.dims[0], 0)
                    for col in range(phi.shape[1]):
                        ops[(src, 0)].append(chi @ phi[:, col : col + 1].conj().T)
    m = CpMap.from_kraus(source, d_alg, ops)
    return Channel(source, d_alg, m.choi_blocks, tol=max(tol, 1e-8))


# -- realisation ---------------------------------------------------------------


@dataclass(frozen=True)
class CircuitRealisation:
    """The assembled circuit data for one deterministic supermap."""

    a: MultiMatrixAlgebra
    b: MultiMatrixAlgebra
    c: MultiMatrixAlgebra
    d: MultiMatrixAlgebra
    p_dim: int
    e_channel: Channel
    g_channel: Channel
    w_residual: float
    w_isometry_defect: float
    gram_min_eig: float
    p_bound: int

    def summary(self) -> str:
        return (
            f"p_dim={self.p_dim} (bound {self.p_bound}), "
            f"w_residual={self.w_residual:.3e}, "
            f"w_isometry_defect={self.w_isometry_defect:.3e}, "
            f"gram_min_eig={self.gram_min_eig:.3e}"
        )


def realize(s: Supermap, tol: float = VERIFY_TOL) -> CircuitRealisation:
    """Build the circuit (E, G, P) realising a deterministic supermap.

    Orchestrates: induced map N -> minimal dilation -> the two dilations of
    the marginal map -> environment isometry W -> padding -> channel
    assembly.  The realised memory dimension always respects the bound
    max_{i,k} dim(H_in_i) * dim(K_in_k).

    Needs no prior verification: the steps check determinism at tol with
    verify's PSD rule, raising NotCompletelyPositiveError when S or the
    induced map N is not CP, ResidualTooLargeError when kernel containment
    fails (the two dilations of Phi differ by more than tol), and
    NotUnitalError when N is not unital.

    Only the right dilation (from N) must be minimal.  S's Kraus family, and
    so the left dilation, keeps every eigenvalue of S's Choi blocks above
    roundoff: a small true eigenvalue dropped by a relative cutoff would be
    divided by N's smallest Gram eigenvalue in the W solve.
    """
    n_dil = minimal_stinespring(extract_n(s, tol), tol)
    s_kd = kraus_from_choi(s.inner, rank_tol=0.0, tol=tol)
    v_left = left_dilation(s, s_kd)
    v_right = right_dilation(n_dil, s.source_hom)
    w = solve_w(v_right, v_left, tol)
    a_alg = s.source_hom.in_algebra
    c_alg = s.target_hom.in_algebra
    env_dims = {key: n_dil.env_dims[key] for key in n_dil.env_dims}
    bounds = {
        (i, k): a_alg.dims[i] * c_alg.dims[k]
        for i in range(len(a_alg))
        for k in range(len(c_alg))
    }
    pad = pad_environment(env_dims, bounds)
    e = assemble_e(n_dil, pad, tol=tol)
    s_env_dims = {key: len(ops) for key, ops in s_kd.ops.items()}
    g = assemble_g(w, pad, s.source_hom, s.target_hom, s_env_dims, tol)
    bound = max(bounds.values())
    if pad.p_dim > bound:
        raise BoundViolatedError(f"p_dim {pad.p_dim} exceeds bound {bound}")
    return CircuitRealisation(
        a=a_alg,
        b=s.source_hom.out_algebra,
        c=c_alg,
        d=s.target_hom.out_algebra,
        p_dim=pad.p_dim,
        e_channel=e,
        g_channel=g,
        w_residual=w.residual,
        w_isometry_defect=w.isometry_defect,
        gram_min_eig=n_dil.kraus.min_gram_eig(),
        p_bound=bound,
    )


# -- circuit evaluation --------------------------------------------------------


def _circuit_choi(
    e: CpMap,
    g: CpMap,
    p_dim: int,
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
) -> CpMap:
    """Choi family Hom(A, B) -> Hom(C, D) of the circuit E -> slot -> G.

    The link product over the memory P: block ((l, k), (j, i)) contracts E's
    block (i, k) with G's block (l, (i, j, k)).  No positivity check.
    """
    hom_ab = hom_algebra(a, b)
    hom_cd = hom_algebra(c, d)
    nb, nc = len(b), len(c)
    blocks = []
    for l, k in hom_cd.pairs:
        dl, dk = d.dims[l], c.dims[k]
        row = []
        for j, i in hom_ab.pairs:
            dhj, dhi = b.dims[j], a.dims[i]
            e6 = e.choi(i, k).reshape(p_dim, dhi, dk, p_dim, dhi, dk)
            g6 = g.choi(l, _g_source_index(i, j, k, nb, nc)).reshape(
                dl, p_dim, dhj, dl, p_dim, dhj
            )
            s8 = np.einsum("paqPbQ,opcOPd->oqcaOQdb", e6, g6, optimize=True)
            n = dl * dk * dhj * dhi
            row.append(s8.reshape(n, n))
        blocks.append(row)
    return CpMap(hom_ab.base, hom_cd.base, blocks)


def circuit_supermap(
    e: CpMap,
    g: CpMap,
    p_dim: int,
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
    tol: float = DEFAULT_TOL,
) -> Supermap:
    """The supermap presented by a circuit with plugged channels E and G.

    Raises NotCompletelyPositiveError when its Choi family is not PSD.
    """
    inner = require_cp_map(_circuit_choi(e, g, p_dim, a, b, c, d), max(tol, 1e-8))
    return Supermap(inner, hom_algebra(a, b), hom_algebra(c, d), validate=False)


def _lift(source: MultiMatrixAlgebra, target: MultiMatrixAlgebra, block) -> CpMap:
    """The CpMap whose Choi block (t, s) is block(t, s), or zero where that is None."""
    rows = []
    for t, dt in enumerate(target.dims):
        row = []
        for s, ds in enumerate(source.dims):
            c = block(t, s)
            row.append(np.zeros((dt * ds,) * 2, dtype=complex) if c is None else c)
        rows.append(row)
    return CpMap(source, target, rows)


def evaluate_circuit(r: CircuitRealisation, f: Channel, tol: float = 1e-7) -> Channel:
    """Run the realisation circuit on a plugged channel f: A -> B.

    Composes honest channels: classical copy of the input index, E extended
    to retain that copy, the controlled application of f (x) Id_P, and G
    consuming every classical copy.  Output is a channel C -> D.
    """
    if f.source != r.a or f.target != r.b:
        raise AlgebraMismatchError("plugged channel type must match the realisation")
    p = r.p_dim
    na, nb, nc = len(r.a), len(r.b), len(r.c)
    copies = [(k, i) for k in range(nc) for i in range(na)]  # blocks of m1
    slots = [(k, i, j) for k, i in copies for j in range(nb)]  # blocks of m2
    m1 = MultiMatrixAlgebra(tuple(
        ((r.c.labels[k], r.a.labels[i]), p * r.a.dims[i]) for k, i in copies
    ))
    m2 = MultiMatrixAlgebra(tuple(
        ((r.c.labels[k], r.a.labels[i], r.b.labels[j]), p * r.b.dims[j]) for k, i, j in slots
    ))
    stage1 = copy_channel(r.c)
    stage2 = _lift(stage1.target, m1, lambda t, k: (
        r.e_channel.choi(copies[t][1], k) if copies[t][0] == k else None
    ))
    # f (x) Id_P on every classical copy (k, i), memory factor first
    f_p = tensor(identity_cpmap(MultiMatrixAlgebra.single(p)), f)
    stage3 = _lift(m1, m2, lambda t, s: (
        f_p.choi(slots[t][2], copies[s][1]) if slots[t][:2] == copies[s] else None
    ))
    del f_p  # a large operand at q4 and above; stage3 holds its own copy
    stage4 = _lift(m2, r.d, lambda l, t: r.g_channel.choi(
        l, _g_source_index(slots[t][1], slots[t][2], slots[t][0], nb, nc)
    ))
    out = compose(stage4, compose(stage3, compose(stage2, stage1)))
    return as_channel(out, tol=tol)


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


def check_realisation(
    r: CircuitRealisation,
    s: Supermap,
    trials: int = 10,
    tol: float = 1e-6,
    seed: int = 0,
) -> RealisationCheck:
    """Certify the realisation against the supermap.

    Compares the circuit's linear action with the supermap on the full
    matrix-unit spanning set of Hom(A, B) -- both sides are linear in the
    Choi operator, so agreement there certifies agreement everywhere -- and
    additionally evaluates the honest channel composition on random plugged
    channels.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    hom_ab = s.source_hom
    hom_cd = s.target_hom
    circuit = _circuit_choi(r.e_channel, r.g_channel, r.p_dim, r.a, r.b, r.c, r.d)
    if circuit.source != s.inner.source or circuit.target != s.inner.target:
        raise AlgebraMismatchError("realisation and supermap act on different algebras")
    # Choi column (t_ab, u, v) is the image of one matrix unit, spread over t_cd
    spanning = 0.0
    for t_ab in range(len(hom_ab.base)):
        unit_sq = sum(
            (np.abs(circuit.choi4(t_cd, t_ab) - s.inner.choi4(t_cd, t_ab)) ** 2).sum(axis=(0, 2))
            for t_cd in range(len(hom_cd.base))
        )
        spanning = max(spanning, float(np.sqrt(unit_sq.max())))
    trial_dev = 0.0
    if trials > 0:
        from . import gen

        for t in range(trials):
            f = gen.random_channel(r.a, r.b, seed=seed + t)
            lhs = choi_element(evaluate_circuit(r, f), hom_cd)
            rhs = apply(s.inner, choi_element(f, hom_ab))
            trial_dev = max(trial_dev, (lhs - rhs).norm())
    passed = spanning <= tol and trial_dev <= tol
    return RealisationCheck(spanning, trial_dev, trials, tol, passed)
