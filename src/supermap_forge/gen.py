"""Seeded random generators and independent brute-force oracles.

All randomness flows through ``numpy.random.default_rng(seed)``, so identical
seeds give bit-identical outputs on one platform.  An integer seed is hashed
by numpy's ``SeedSequence``, so consecutive integers give independent
streams: ``check_realisation`` draws trial t's channel from seed + t.  A
``Generator`` passed as the seed is used and advanced in place, which is how
``random_circuit_pieces`` draws E and then G from one stream.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ._linalg import dag, frobs, groups, psd_root_inverse
from .algebra import BlockOperator, HybridState, MultiMatrixAlgebra
from .cpmaps import Channel, CpMap, apply
from .errors import ShapeMismatchError, SingularMarginalError
from .realize import circuit_supermap, g_source_algebra, memory_target_algebra
from .supermap import (
    VERIFY_TOL,
    HomAlgebra,
    Supermap,
    apply_to_choi,
    hom_algebra,
    partial_trace_out,
    tp_residual,
    tp_section,
    traceout_kernel_basis,
)

# Every draw's TP residual: 10x under DEFAULT_TOL, so a draw is a channel at any package tol.
DRAW_TP_TOL = 1e-10
# Cut on a marginal R: cond(R) <= 1e12 leaves roundoff that one more renormalisation removes.
MARGINAL_CUT = 1e-12


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian from one draw: the real parts, then the imaginary parts."""
    g = np.empty((rows, cols), dtype=complex)
    g.real, g.imag = rng.standard_normal((2, rows, cols))
    return g


def random_block_operator(a: MultiMatrixAlgebra, seed=None, hermitian: bool = False) -> BlockOperator:
    """A Gaussian element of the algebra, optionally symmetrised."""
    rng = _rng(seed)
    mats = []
    for d in a.dims:
        g = _gaussian_matrix(rng, d, d)
        mats.append(0.5 * (g + dag(g)) if hermitian else g)
    return BlockOperator(a, mats)


def random_state(a: MultiMatrixAlgebra, seed=None) -> HybridState:
    """Gram matrices per block, normalised to total trace one."""
    rng = _rng(seed)
    mats = []
    for d in a.dims:
        g = _gaussian_matrix(rng, d, d)
        mats.append(g @ dag(g))
    total = sum(np.trace(m).real for m in mats)
    return HybridState(BlockOperator(a, [m / total for m in mats]))


def random_channel(
    a: MultiMatrixAlgebra, b: MultiMatrixAlgebra, seed=None, max_attempts: int = 10
) -> Channel:
    """Random PSD Choi blocks renormalised to satisfy trace preservation.

    Per source block i the marginal R_i = sum_j Tr_target M_ji is inverted
    as R_i^{-1/2}.  R_i^{-1/2} loses accuracy with R_i's condition number,
    so a source block whose TP residual then exceeds DRAW_TP_TOL is
    renormalised once more, by its new marginal.  A source block whose
    marginal is singular, or whose residual still exceeds DRAW_TP_TOL after
    the second renormalisation, fails the attempt; after max_attempts
    failed attempts SingularMarginalError is raised.

    The seeded draw is part of the contract.  Block pairs are drawn source
    block major: for source block i, then target block j, one
    standard_normal((2, n, n)) with n = dim K_j * dim H_i gives the real
    parts of G and then its imaginary parts, and M_ji = G G† / n.  A failed
    attempt leaves the generator where the draws up to and including its
    first failed source block left it, and the next attempt starts there.
    The channel's bits and the generator's state afterwards are both part
    of the contract, so gen's supermaps and check's trials stay the same
    between releases.

    The source blocks of one dimension are drawn into one stack and
    renormalised together (one batched GEMM per target block, one batched
    eigh), each with the bits it would get alone.  So every pair of an
    attempt is drawn before any column is judged, and a failed attempt
    restores the generator and draws the pairs up to its first failed
    source block again.
    """
    rng = _rng(seed)
    if len(a.dims) == 1:  # one source block: a stack of one, of views, and no replay
        dh = a.dims[0]
        for _ in range(max_attempts):
            col, ok = _renormalised(
                [_gaussian_matrix(rng, dk * dh, dk * dh)[None] for dk in b.dims], b.dims, dh
            )
            if ok[0]:
                return Channel(a, b, col, validate=False)  # each stack of one is a row
    else:
        stacks = groups(a.dims)
        slot = {i: x for ids in stacks.values() for x, i in enumerate(ids)}
        for _ in range(max_attempts):
            start = rng.bit_generator.state
            draws = _draw(rng, a.dims, b.dims, stacks, slot)
            columns, failed = {}, len(a.dims)
            for dh, ids in stacks.items():
                columns[dh], ok = _renormalised(draws[dh], b.dims, dh)
                failed = min([failed] + [i for i, good in zip(ids, ok) if not good])
            if failed == len(a.dims):
                rows = [[columns[dh][j][slot[i]] for i, dh in enumerate(a.dims)]
                        for j in range(len(b.dims))]
                return Channel(a, b, rows, validate=False)
            if failed < len(a.dims) - 1:  # leave the generator where the failed block's draws did
                rng.bit_generator.state = start
                for dh in a.dims[:failed + 1]:
                    for dk in b.dims:
                        rng.standard_normal((2, dk * dh, dk * dh))
    raise SingularMarginalError(
        f"no invertible marginal after {max_attempts} attempts"
    )


def _draw(rng, source_dims, target_dims, stacks, slot):
    """The Gaussian G of each block pair, drawn as _gaussian_matrix draws
    one, source block major, into {dim H: one stack per target block}:
    source block i at slot[i] of the stack of its dimension."""
    draws = {dh: [np.empty((len(ids), dk * dh, dk * dh), dtype=complex) for dk in target_dims]
             for dh, ids in stacks.items()}
    for i, dh in enumerate(source_dims):
        for g, dk in zip(draws[dh], target_dims):
            pair = g[slot[i]]
            pair.real, pair.imag = rng.standard_normal((2, dk * dh, dk * dh))
    return draws


def _renormalised(gs, dims, dh):
    """From the draws G of a stack of source columns of dimension dh, one
    stack per target block, their Choi blocks G G† / n renormalised, and a
    list of which columns passed: an invertible marginal and a TP residual
    at most DRAW_TP_TOL, after a second renormalisation if the first left
    it above."""
    col = [g @ dag(g) / (dk * dh) for g, dk in zip(gs, dims)]
    col, ok = _tp_renormalise(col, dims, _marginal(col, dims, dh))
    marginal = _marginal(col, dims, dh)
    again = [x for x, r in enumerate(frobs(marginal - _identity(dh))) if r > DRAW_TP_TOL]
    if again:
        refined, ok_again = _tp_renormalise([m[again] for m in col], dims, marginal[again])
        residuals = frobs(_marginal(refined, dims, dh) - _identity(dh))
        for m, r in zip(col, refined):
            m[again] = r
        for x, good, r in zip(again, ok_again, residuals):
            ok[x] = ok[x] and good and r <= DRAW_TP_TOL
    return col, ok


@lru_cache(maxsize=None)
def _identity(d):
    """The d x d identity the residual tests subtract, made once per d and
    read-only."""
    eye = np.eye(d, dtype=complex)
    eye.flags.writeable = False
    return eye


def _marginal(col, dims, dh):
    """sum_j Tr_target of a stack of source columns' Choi blocks (one stack
    per target block), summed per column as is_tp sums one."""
    acc = np.zeros((len(col[0]), dh, dh), dtype=complex)
    for m, dk in zip(col, dims):
        acc += np.einsum("xrarb->xab", m.reshape(-1, dk, dh, dk, dh))
    return acc


def _tp_renormalise(col, dims, marginal):
    """Conjugate a stack of source columns' Choi blocks by Id (x) R^{-1/2},
    with R each column's marginal; also which R were invertible."""
    root_inv, ok = psd_root_inverse(marginal, MARGINAL_CUT)
    k, dh = marginal.shape[:2]
    out = []
    for m, dk in zip(col, dims):
        fix = np.zeros((k, dk * dh, dk * dh), dtype=complex)
        for r in range(0, dk * dh, dh):
            fix[:, r:r + dh, r:r + dh] = root_inv
        out.append(fix @ m @ dag(fix))
    return out, ok


def random_supermap_from_circuit(
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
    p_dim: int = 1,
    seed=None,
) -> Supermap:
    """Draw random circuit channels E and G and read off the supermap.

    The supermap's Choi blocks are the circuit's link product
    (circuit_supermap), so the result is CP and deterministic by
    construction and passes verification; nothing here checks positivity.
    """
    return random_circuit_pieces(a, b, c, d, p_dim, seed)[0]


def random_circuit_pieces(
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
    p_dim: int = 1,
    seed=None,
) -> Tuple[Supermap, Channel, Channel]:
    """Like random_supermap_from_circuit but also returns the E, G used."""
    if p_dim < 1:
        raise ShapeMismatchError("p_dim must be >= 1")
    rng = _rng(seed)
    e = random_channel(c, memory_target_algebra(a, p_dim), seed=rng)
    g = random_channel(g_source_algebra(a, b, c, p_dim), d, seed=rng)
    return circuit_supermap(e, g, p_dim, a, b, c, d), e, g


@dataclass(frozen=True)
class TpAffineBasis:
    """Base point plus directions affinely spanning the trace-preserving slice.

    base_point is the uniform section of the identity (strictly positive and
    trace preserving); directions are an orthonormal Hermitian basis of the
    kernel of Tr_out; epsilon is half the base point's smallest eigenvalue,
    so every probe base + eps * direction stays strictly positive.
    """

    hom: HomAlgebra
    base_point: BlockOperator
    directions: Tuple[BlockOperator, ...]
    epsilon: float

    def elements(self) -> List[BlockOperator]:
        return [self.base_point] + [
            self.base_point + self.epsilon * d for d in self.directions
        ]


def tp_affine_basis(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> TpAffineBasis:
    hom = hom_algebra(a, b)
    base = tp_section(a.identity(), hom)
    directions = tuple(traceout_kernel_basis(hom))
    min_eig = min(
        float(np.linalg.eigvalsh(base.block(t)).min()) for t in range(len(hom.base))
    )
    return TpAffineBasis(hom, base, directions, 0.5 * min_eig)


def brute_force_tp_preservation(s: Supermap, basis: TpAffineBasis, tol: float = VERIFY_TOL) -> bool:
    """Literal check: every probe Choi operator maps to a trace-preserving one.

    Since the probes affinely span the trace-preserving slice, this is an
    exact certificate (up to tolerance) and serves as the independent oracle
    for verify_deterministic.
    """
    if basis.hom.base != s.source_hom.base:
        raise ShapeMismatchError("basis was built for a different Hom-algebra")
    for e in basis.elements():
        if tp_residual(apply_to_choi(s, e), s.target_hom) > tol:
            return False
    return True


def perturb_supermap(s: Supermap, epsilon: float, mode: str, seed=None) -> Supermap:
    """Damage a supermap for negative tests.

    cp-breaking pushes the first nonzero Choi block below zero by exactly
    epsilon.  tp-breaking adds epsilon times a completely positive map,
    normalised so the induced map's unitality residual equals epsilon: the
    result stays CP but no longer preserves trace preservation, and both the
    verifier and the brute-force oracle reject it.
    """
    if epsilon < 0:
        raise ShapeMismatchError("epsilon must be >= 0")
    if epsilon == 0:
        return Supermap(s.inner, s.source_hom, s.target_hom)
    inner = s.inner
    n_src = len(inner.source)
    n_tgt = len(inner.target)
    if mode == "cp-breaking":
        blocks = [[inner.choi(j, i) for i in range(n_src)] for j in range(n_tgt)]
        for j in range(n_tgt):
            for i in range(n_src):
                blk = blocks[j][i]
                if np.linalg.norm(blk) > 1e-12:
                    w, v = np.linalg.eigh(0.5 * (blk + dag(blk)))
                    vec0 = v[:, 0]
                    shift = w[0] + epsilon
                    blocks[j][i] = blk - shift * np.outer(vec0, vec0.conj())
                    new = CpMap(inner.source, inner.target, blocks)
                    return Supermap(new, s.source_hom, s.target_hom)
        raise ShapeMismatchError("supermap has no nonzero Choi block to damage")
    if mode == "tp-breaking":
        rng = _rng(seed)
        noise_blocks = []
        for j in range(n_tgt):
            row = []
            for i in range(n_src):
                dim = inner.target.dims[j] * inner.source.dims[i]
                g = _gaussian_matrix(rng, dim, dim)
                row.append(g @ dag(g) / dim)
            noise_blocks.append(row)
        noise = CpMap(inner.source, inner.target, noise_blocks)
        base = tp_section(s.source_hom.in_algebra.identity(), s.source_hom)
        marginal = partial_trace_out(apply(noise, base), s.target_hom)
        scale = epsilon / marginal.norm()
        blocks = [
            [inner.choi(j, i) + scale * noise.choi(j, i) for i in range(n_src)]
            for j in range(n_tgt)
        ]
        new = CpMap(inner.source, inner.target, blocks)
        return Supermap(new, s.source_hom, s.target_hom)
    raise ShapeMismatchError(f"unknown perturbation mode {mode!r}")
