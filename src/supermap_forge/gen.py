"""Seeded random generators and independent brute-force oracles.

All randomness flows through ``numpy.random.default_rng(seed)``, so identical
seeds give bit-identical outputs on one platform.  Batches that want
independent streams should split seeds deterministically (seed XOR trial
index, hashed) rather than sharing a generator across workers.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ._linalg import dag, psd_root_inverse
from .algebra import BlockOperator, HybridState, MultiMatrixAlgebra
from .cpmaps import Channel, CpMap, apply
from .errors import ShapeMismatchError, SingularMarginalError
from .realize import circuit_supermap, g_source_algebra, memory_target_algebra
from .supermap import (
    HomAlgebra,
    Supermap,
    apply_to_choi,
    hom_algebra,
    partial_trace_out,
    tp_residual,
    tp_section,
    traceout_kernel_basis,
)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


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
    as R_i^{-1/2}; a singular marginal triggers a fresh draw, and after
    max_attempts failures SingularMarginalError is raised.
    """
    rng = _rng(seed)
    for _ in range(max_attempts):
        blocks = [
            [None for _ in range(len(a))] for _ in range(len(b))
        ]
        ok = True
        for i, dh in enumerate(a.dims):
            raw = []
            marginal = np.zeros((dh, dh), dtype=complex)
            for j, dk in enumerate(b.dims):
                g = _gaussian_matrix(rng, dk * dh, dk * dh)
                m = g @ dag(g) / (dk * dh)
                raw.append(m)
                marginal += np.einsum("rarb->ab", m.reshape(dk, dh, dk, dh))
            root_inv = psd_root_inverse(marginal, 1e-12)
            if root_inv is None:
                ok = False
                break
            for j, dk in enumerate(b.dims):
                fix = np.kron(np.eye(dk, dtype=complex), root_inv)
                blocks[j][i] = fix @ raw[j] @ dag(fix)
        if ok:
            return Channel(a, b, blocks, tol=1e-10)
    raise SingularMarginalError(
        f"no invertible marginal after {max_attempts} attempts"
    )


def random_supermap_from_circuit(
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
    p_dim: int = 1,
    seed=None,
) -> Supermap:
    """Draw random circuit channels E and G and read off the supermap.

    The supermap's action on the matrix-unit basis of Hom(A, B) is computed
    by evaluating the circuit, so the result is deterministic by
    construction and always passes verification.
    """
    if p_dim < 1:
        raise ShapeMismatchError("p_dim must be >= 1")
    rng = _rng(seed)
    e = random_channel(c, memory_target_algebra(a, p_dim), seed=rng)
    g = random_channel(g_source_algebra(a, b, c, p_dim), d, seed=rng)
    return circuit_supermap(e, g, p_dim, a, b, c, d)


def random_circuit_pieces(
    a: MultiMatrixAlgebra,
    b: MultiMatrixAlgebra,
    c: MultiMatrixAlgebra,
    d: MultiMatrixAlgebra,
    p_dim: int = 1,
    seed=None,
) -> Tuple[Supermap, Channel, Channel]:
    """Like random_supermap_from_circuit but also returns the E, G used."""
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


def brute_force_tp_preservation(s: Supermap, basis: TpAffineBasis, tol: float = 1e-8) -> bool:
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
        return Supermap(s.inner, s.source_hom, s.target_hom, validate=False)
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
                    return Supermap(new, s.source_hom, s.target_hom, validate=False)
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
        return Supermap(new, s.source_hom, s.target_hom, validate=False)
    raise ShapeMismatchError(f"unknown perturbation mode {mode!r}")
