"""The W path to G, kept as a test oracle for ``realize``.

``realize`` builds G and W's diagnostics from Choi blocks.  This module
builds them the way ``realize`` once did: eigendecompose S's whole Choi
family for its Kraus operators, bend them into a left dilation of the
marginal map Phi = Tr_out o S, solve (Id (x) W) V_right = V_left for the
environment isometry W by least squares, and read G's Kraus operators off
the entrywise conjugate of W.  Nothing here calls the code it checks: the
right dilation is built here from N's Kraus operators, G's source blocks
are ordered here, and the least-squares solve is written out instead of
calling ``environment_intertwiner``.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from supermap_forge._linalg import dag, frob
from supermap_forge.cpmaps import Channel, CpMap, KrausDecomposition, _eigh_kraus
from supermap_forge.algebra import MultiMatrixAlgebra
from supermap_forge.errors import AlgebraMismatchError, IsometryDefectError, ResidualTooLargeError
from supermap_forge.supermap import HomAlgebra, Supermap
from oracles import NotMinimalError, StinespringDilation, _stack_dilation, extract_n


def right_dilation(
    n_kraus: KrausDecomposition, source_hom: HomAlgebra
) -> StinespringDilation:
    """Dilation of Phi = N o Tr_out built from N's Kraus family.

    Environment for (source k, target (j, i)) is H_out_j (x) E_N_ik with the
    tagged basis ordered (b, beta).  Minimal whenever N's Kraus family is,
    by Gram invertibility of the composite Kraus family.
    """
    if n_kraus.source != source_hom.in_algebra:
        raise AlgebraMismatchError("induced map must act on the in-factor algebra")
    src = n_kraus.target  # C-shaped (K_in blocks)
    b_dims = source_hom.out_algebra.dims
    components = {}
    for k, dk in enumerate(src.dims):
        for t, (j, i) in enumerate(source_hom.pairs):
            di, ops = source_hom.in_algebra.dims[i], n_kraus.ops[(i, k)]
            n3 = np.stack(ops, axis=1) if len(ops) else np.zeros((dk, 0, di))
            # K_(b, beta) = |b> (x) N_beta†
            components[(k, t)] = np.einsum(
                "cb,xry->cybrx", np.eye(b_dims[j]), n3.conj()
            ).reshape(b_dims[j] * di, -1, dk)
    return _stack_dilation(src, source_hom.base, components)


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
    out_dims = s.target_hom.out_algebra.dims  # D-shaped
    components = {}
    for k, dk in enumerate(src.dims):
        for t, dt in enumerate(tgt.dims):
            # K_(l, a, mu)[x, y] = conj(S_mu[(a, y), x]), S_mu of pair (t, (l, k))
            components[(k, t)] = np.concatenate([
                np.reshape(s_kraus.ops[(t, l * len(src) + k)], (-1, dl, dk, dt))
                .conj().transpose(3, 1, 0, 2).reshape(dt, -1, dk)
                for l, dl in enumerate(out_dims)
            ], axis=1)
    return _stack_dilation(src, tgt, components)


@dataclass(frozen=True)
class SolvedW:
    """Blockwise environment isometry relating the two dilations of Phi."""

    blocks: Dict[Tuple[int, int], np.ndarray]  # (source k, target block) -> W
    residual: float
    isometry_defect: float


def solve_w(
    v_right: StinespringDilation, v_left: StinespringDilation, tol: float = 1e-8
) -> SolvedW:
    """Least-squares solve of (Id (x) W) V_right = V_left per block pair.

    Raises NotMinimalError when a right component is rank deficient,
    ResidualTooLargeError when the residual, and IsometryDefectError when
    W's isometry defect, exceeds 10 * tol.
    """
    blocks, res_sq = {}, 0.0
    for i, dh in enumerate(v_right.source.dims):
        for j, dk in enumerate(v_right.target.dims):
            ra, rb = v_right.env_dims[(i, j)], v_left.env_dims[(i, j)]
            ma = v_right.component(i, j).reshape(dk, ra, dh).transpose(1, 0, 2).reshape(ra, dk * dh)
            mb = v_left.component(i, j).reshape(dk, rb, dh).transpose(1, 0, 2).reshape(rb, dk * dh)
            if ra == 0:
                x = np.zeros((rb, 0), dtype=complex)
                res_sq += frob(mb) ** 2
            else:
                u, s, vt = np.linalg.svd(ma, full_matrices=False)
                if len(s) < ra or s.min() <= 1e-10 * s.max():
                    raise NotMinimalError(f"right dilation component ({i},{j}) is rank deficient")
                x = mb @ dag(vt) @ np.diag(1.0 / s) @ dag(u)
                res_sq += frob(x @ ma - mb) ** 2
            blocks[(i, j)] = x
    residual = float(np.sqrt(res_sq))
    if residual > 10 * tol:
        raise ResidualTooLargeError(f"intertwiner residual {residual:.3e} exceeds {10 * tol:.1e}")
    defect = float(np.sqrt(sum(
        frob(dag(x) @ x - np.eye(x.shape[1])) ** 2 for x in blocks.values()
    )))
    if defect > 10 * tol:
        raise IsometryDefectError(f"W isometry defect {defect:.3e} exceeds {10 * tol:.1e}")
    return SolvedW(blocks, residual, defect)


def assemble_g(
    w: SolvedW,
    p_dim: int,
    source_hom: HomAlgebra,
    target_hom: HomAlgebra,
    s_env_dims: Dict[Tuple[int, int], int],
    tol: float = 1e-8,
) -> Channel:
    """G from the Kraus operators conj(W) gives on N's environment, P's first
    r_ik basis vectors, and the first basis state of the first D block on
    the rest of P."""
    a_alg, b_alg = source_hom.in_algebra, source_hom.out_algebra
    c_alg, d_alg = target_hom.in_algebra, target_hom.out_algebra
    n_in_cd = len(c_alg)
    # one block B(P (x) H_out_j) per (i, j, k), ordered lexicographically
    source = MultiMatrixAlgebra(tuple(
        ((la, lb, lc), p_dim * db)
        for la, _ in a_alg.blocks for lb, db in b_alg.blocks for lc, _ in c_alg.blocks
    ))
    ops = {(src, l): [] for src in range(len(source)) for l in range(len(d_alg))}
    for i, (la, _) in enumerate(a_alg.blocks):
        for j, (lb, dj) in enumerate(b_alg.blocks):
            for k, (lc, _) in enumerate(c_alg.blocks):
                src = source.index((la, lb, lc))
                t_ab = source_hom.block_index(j, i)
                # W's columns are N's environment tagged by H_out_j, ordered (b, beta)
                wbar = w.blocks[(k, t_ab)].conj()
                r_n = wbar.shape[1] // dj
                offset = 0
                for l, dl in enumerate(d_alg.dims):
                    r_s = s_env_dims.get((t_ab, l * n_in_cd + k), 0)
                    if r_n > 0 and r_s > 0:
                        seg = wbar[offset : offset + dl * r_s, :].reshape(dl, r_s, dj, r_n)
                        kraus = np.zeros((r_s, dl, p_dim, dj), dtype=complex)
                        kraus[:, :, :r_n, :] = seg.transpose(1, 0, 3, 2)
                        ops[(src, l)].extend(kraus.reshape(r_s, dl, p_dim * dj))
                    offset += dl * r_s
                for col in range(r_n * dj, p_dim * dj):
                    op = np.zeros((d_alg.dims[0], p_dim * dj), dtype=complex)
                    op[0, col] = 1.0
                    ops[(src, 0)].append(op)
    m = CpMap.from_kraus(source, d_alg, ops)
    return Channel(source, d_alg, m.choi_blocks, tol=max(tol, 1e-8))


def w_path(s: Supermap, tol: float = 1e-8) -> Tuple[Channel, float, float]:
    """G, W's residual and W's isometry defect by the W path, for a supermap
    that verify_deterministic accepts at tol.  S's Kraus family keeps every
    eigenvalue above roundoff."""
    n_kd = _eigh_kraus(extract_n(s))
    s_kd = _eigh_kraus(s.inner, rank_tol=0.0)
    w = solve_w(right_dilation(n_kd, s.source_hom), left_dilation(s, s_kd), tol)
    p_dim = max(max(map(len, n_kd.ops.values())), 1)
    s_env_dims = {key: len(ops) for key, ops in s_kd.ops.items()}
    g = assemble_g(w, p_dim, s.source_hom, s.target_hom, s_env_dims, tol)
    return g, w.residual, w.isometry_defect
