"""Tests for Hom-algebras, supermap verification, and the induced map N."""

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge.algebra import BlockOperator, MultiMatrixAlgebra
from supermap_forge.supermap import embed_with_out_identity, partial_trace_out


def small_shape():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra((("j0", 2),))
    c = MultiMatrixAlgebra((("k0", 1), ("k1", 2)))
    d = MultiMatrixAlgebra((("l0", 2), ("l1", 1)))
    return a, b, c, d


def test_hom_algebra_shapes():
    m2 = MultiMatrixAlgebra.single(2, "q")
    cc = MultiMatrixAlgebra.classical(2)
    # measurements on M2: two blocks of dim 2
    hom = sf.hom_algebra(m2, cc)
    assert hom.base.dims == (2, 2)
    # channels from the trivial algebra into M2 are states of M2
    triv = MultiMatrixAlgebra.single(1, "t")
    hom = sf.hom_algebra(triv, m2)
    assert hom.base.dims == (2,)
    # one quantum block each side: a single block of dim 6
    m3 = MultiMatrixAlgebra.single(3, "r")
    hom = sf.hom_algebra(m2, m3)
    assert hom.base.dims == (6,)
    assert hom.pairs == ((0, 0),)


def test_hom_block_order_is_target_major():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra((("j0", 3), ("j1", 2)))
    hom = sf.hom_algebra(a, b)
    assert hom.base.labels == (("j0", "i0"), ("j0", "i1"), ("j1", "i0"), ("j1", "i1"))
    assert hom.base.dims == (6, 3, 4, 2)


def test_apply_to_choi_identity_and_scaling():
    a, b, c, d = small_shape()
    s_id = sf.identity_supermap(a, b)
    hom = s_id.source_hom
    f = gen.random_channel(a, b, seed=0)
    cf = sf.choi_element(f, hom)
    assert (sf.apply_to_choi(s_id, cf) - cf).norm() < 1e-14
    assert sf.tp_residual(sf.apply_to_choi(s_id, cf), hom) < 1e-10
    doubled = sf.Supermap(s_id.inner.scaled(2.0), hom, hom, validate=False)
    assert sf.tp_residual(sf.apply_to_choi(doubled, cf), hom) > 0.5


def test_circuit_supermap_preserves_tp_choi():
    a, b, c, d = small_shape()
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=1)
    for seed in range(5):
        f = gen.random_channel(a, b, seed=seed)
        out = sf.apply_to_choi(s, sf.choi_element(f, s.source_hom))
        assert sf.tp_residual(out, s.target_hom) < 1e-9
        assert sf.is_positive(out, 1e-9)


def test_tp_section_recovers_partial_trace():
    a, b, _, _ = small_shape()
    hom = sf.hom_algebra(a, b)
    section_id = sf.tp_section(a.identity(), hom)
    # with a single M2 out-block every section block is Id (x) x / 2
    assert np.allclose(section_id.block(0), np.eye(4) / 2.0)
    assert (partial_trace_out(section_id, hom) - a.identity()).norm() < 1e-14
    zero = sf.tp_section(a.zeros(), hom)
    assert zero.norm() == 0.0
    for seed in range(5):
        x = gen.random_block_operator(a, seed=seed, hermitian=True)
        assert (partial_trace_out(sf.tp_section(x, hom), hom) - x).norm() < 1e-12


def test_traceout_kernel_basis_count_and_orthonormality():
    a, b, _, _ = small_shape()
    hom = sf.hom_algebra(a, b)
    basis = sf.traceout_kernel_basis(hom)
    expected = sum((dj * di) ** 2 for dj in b.dims for di in a.dims) - sum(
        di**2 for di in a.dims
    )
    assert len(basis) == expected
    for e in basis:
        assert partial_trace_out(e, hom).norm() < 1e-12
        assert abs(e.norm() - 1.0) < 1e-10
        assert e.hermitian_defect() < 1e-12
    gram = np.array([[sf.hs_inner(x, y).real for y in basis] for x in basis])
    assert np.linalg.norm(gram - np.eye(len(basis))) < 1e-10


def test_extract_n_identity_supermap_trivial_classical():
    triv = MultiMatrixAlgebra.single(1, "t")
    s = sf.identity_supermap(triv, triv)
    n = sf.extract_n(s)
    assert n.choi_distance(sf.identity_cpmap(triv)) < 1e-14


def test_extract_n_is_unital_for_verified_supermaps():
    a, b, c, d = small_shape()
    for seed in range(3):
        s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=seed)
        assert sf.verify_deterministic(s).verdict
        n = sf.extract_n(s)
        assert sf.is_unital(n, 1e-10)
        assert sf.is_cp(n, 1e-10)


def test_extract_n_matches_circuit_marginal():
    # the dual of N is the entrywise conjugate of the P-marginal of the
    # generating pre-processing channel
    a, b, c, d = small_shape()
    s, e, _ = gen.random_circuit_pieces(a, b, c, d, p_dim=2, seed=5)
    sf.verify_deterministic(s)
    n_star = sf.hs_dual(sf.extract_n(s))
    p = 2
    for seed in range(5):
        rho = gen.random_state(c, seed=seed).operator
        out_e = sf.apply(e, rho.conj())
        marginal = BlockOperator(
            a,
            [
                np.einsum("xaxb->ab", out_e.block(i).reshape(p, di, p, di))
                for i, di in enumerate(a.dims)
            ],
        ).conj()
        assert (sf.apply(n_star, rho) - marginal).norm() < 1e-10


def three_block_shape():
    a = MultiMatrixAlgebra((("i0", 1), ("i1", 2), ("i2", 3)))
    b = MultiMatrixAlgebra((("j0", 2), ("j1", 1)))
    c = MultiMatrixAlgebra((("k0", 3),))
    d = MultiMatrixAlgebra((("l0", 1), ("l1", 2)))
    return a, b, c, d


def random_cp_supermap(a, b, c, d, seed):
    """A CP map between the Hom-algebras that is in general not deterministic."""
    hom_ab, hom_cd = sf.hom_algebra(a, b), sf.hom_algebra(c, d)
    rng = np.random.default_rng(seed)
    blocks = []
    for dt in hom_cd.base.dims:
        row = []
        for ds in hom_ab.base.dims:
            g = rng.standard_normal((dt * ds,) * 2) + 1j * rng.standard_normal((dt * ds,) * 2)
            row.append(g @ g.conj().T / (dt * ds))
        blocks.append(row)
    inner = sf.CpMap(hom_ab.base, hom_cd.base, blocks)
    return sf.Supermap(inner, hom_ab, hom_cd, validate=False)


def test_extract_n_matches_probe_oracle():
    # oracle: N(x) = Tr_out S(section(x)) on every matrix unit
    for shape in (small_shape(), three_block_shape()):
        a, b, c, d = shape
        for s in (
            gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=50),
            random_cp_supermap(a, b, c, d, seed=51),
        ):
            probed = sf.choi_from_action(
                lambda x: partial_trace_out(
                    sf.apply_to_choi(s, sf.tp_section(x, s.source_hom)), s.target_hom
                ),
                a,
                c,
                require_cp=False,
            )
            assert sf.extract_n(s, require_cp=False).choi_distance(probed) < 1e-12


def test_kernel_residual_bounded_by_kernel_basis_images():
    # the residual is the Hilbert-Schmidt norm of Phi = Tr_out o S on
    # ker Tr_out, so it lies between the largest image of an orthonormal
    # kernel basis element and sqrt(basis size) times that
    for shape in (small_shape(), three_block_shape()):
        a, b, c, d = shape
        s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=60)
        for bad in (
            gen.perturb_supermap(s, 1e-3, "tp-breaking", seed=61),
            random_cp_supermap(a, b, c, d, seed=62),
        ):
            basis = sf.traceout_kernel_basis(bad.source_hom)
            largest = max(
                partial_trace_out(sf.apply_to_choi(bad, e), bad.target_hom).norm()
                for e in basis
            )
            residual = sf.verify_deterministic(bad).kernel_residual
            assert largest > 1e-6
            assert largest * (1 - 1e-12) <= residual
            assert residual <= np.sqrt(len(basis)) * largest * (1 + 1e-12)


def test_verify_identity_and_random_circuit():
    a, b, c, d = small_shape()
    s_id = sf.identity_supermap(a, b)
    before = dict(vars(s_id))
    assert sf.verify_deterministic(s_id).verdict
    assert vars(s_id) == before  # verification is pure
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1, seed=3)
    report = sf.verify_deterministic(s)
    assert report.verdict and report.cp_ok and report.n_cp_ok
    basis = gen.tp_affine_basis(a, b)
    assert gen.brute_force_tp_preservation(s, basis)


def test_verify_rejects_kernel_violating_perturbation():
    a, b, c, d = small_shape()
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1, seed=4)
    sf.verify_deterministic(s)
    bad = gen.perturb_supermap(s, 1e-2, "tp-breaking", seed=5)
    before = dict(vars(bad))
    report = sf.verify_deterministic(bad)
    assert not report.verdict
    assert report.cp_ok  # the damage is TP-only
    assert vars(bad) == before
    basis = gen.tp_affine_basis(a, b)
    assert not gen.brute_force_tp_preservation(bad, basis)


def test_verify_rejects_single_block_hermitian_perturbation():
    # adding a small traceless Hermitian direction to one Choi block of the
    # supermap violates kernel containment without touching positivity
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=2, seed=3)
    rng = np.random.default_rng(0)
    dim = s.inner.choi(0, 0).shape[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    h -= np.trace(h) / dim * np.eye(dim)
    blocks = [[s.inner.choi(0, 0) + 0.01 * h / np.linalg.norm(h)]]
    bad = sf.Supermap(
        sf.CpMap(s.inner.source, s.inner.target, blocks),
        s.source_hom,
        s.target_hom,
        validate=False,
    )
    report = sf.verify_deterministic(bad)
    assert not report.verdict
    assert report.cp_ok


def test_factorisation_identity_random_elements():
    # Tr_out S(C) = N(Tr_out C) for arbitrary (non-TP, non-PSD) C
    a, b, c, d = small_shape()
    for seed in range(3):
        s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=seed + 20)
        sf.verify_deterministic(s)
        n = sf.extract_n(s)
        for t in range(20):
            x = gen.random_block_operator(s.source_hom.base, seed=100 * seed + t)
            lhs = partial_trace_out(sf.apply_to_choi(s, x), s.target_hom)
            rhs = sf.apply(n, partial_trace_out(x, s.source_hom))
            assert (lhs - rhs).norm() < 1e-8


def test_dual_identity_on_embedded_states():
    # S_*(Id (x) rho) = Id (x) N_*(rho)
    a, b, c, d = small_shape()
    for seed in range(3):
        s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=seed + 30)
        sf.verify_deterministic(s)
        s_star = sf.hs_dual(s.inner)
        n_star = sf.hs_dual(sf.extract_n(s))
        for t in range(5):
            rho = gen.random_state(c, seed=200 * seed + t).operator
            lhs = sf.apply(s_star, embed_with_out_identity(rho, s.target_hom))
            rhs = embed_with_out_identity(sf.apply(n_star, rho), s.source_hom)
            assert (lhs - rhs).norm() < 1e-8


def test_lemma1_decompose_exact_and_perturbed():
    a, b, _, _ = small_shape()
    hom = sf.hom_algebra(a, b)
    rho0 = gen.random_state(a, seed=0).operator
    c_exact = embed_with_out_identity(rho0, hom)
    dec = sf.lemma1_decompose(c_exact, hom)
    assert dec.residual < 1e-12
    assert (dec.rho - rho0).norm() < 1e-12
    # a unit-norm direction with vanishing out-partial-trace moves the
    # residual by exactly epsilon and leaves the extracted part alone
    direction = sf.traceout_kernel_basis(hom)[0]
    eps = 1e-3
    dec2 = sf.lemma1_decompose(c_exact + eps * direction, hom)
    assert abs(dec2.residual - eps) < 1e-12
    assert (dec2.rho - rho0).norm() < 1e-12


def test_lemma1_on_dualised_supermap():
    a, b, c, d = small_shape()
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=41)
    sf.verify_deterministic(s)
    s_star = sf.hs_dual(s.inner)
    for t in range(5):
        rho = gen.random_state(c, seed=t).operator
        cc = sf.apply(s_star, embed_with_out_identity(rho, s.target_hom))
        dec = sf.lemma1_decompose(cc, s.source_hom)
        assert dec.residual < 1e-8
        assert abs(dec.rho.trace() - 1.0) < 1e-9
        assert sf.is_positive(dec.rho, 1e-9)


def test_lemma1_condition_factor_finite():
    a, b, _, _ = small_shape()
    hom = sf.hom_algebra(a, b)
    probes = gen.tp_affine_basis(a, b).elements()
    kappa = sf.lemma1_condition_factor(hom, probes)
    assert np.isfinite(kappa) and kappa > 0


def test_supermap_constructor_validates():
    a, b, _, _ = small_shape()
    hom = sf.hom_algebra(a, b)
    wrong = sf.identity_cpmap(MultiMatrixAlgebra.single(5))
    with pytest.raises(sf.AlgebraMismatchError):
        sf.Supermap(wrong, hom, hom)
    with pytest.raises(sf.ShapeMismatchError):
        sf.verify_deterministic(sf.identity_supermap(a, b), tol=-1.0)
