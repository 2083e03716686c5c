"""Tests for multimatrix algebras and block operators."""

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge.algebra import BlockOperator, MultiMatrixAlgebra


def c_plus_m2():
    return MultiMatrixAlgebra((("c", 1), ("q", 2)))


def test_identity_times_identity():
    for alg in (c_plus_m2(), MultiMatrixAlgebra.single(3), MultiMatrixAlgebra.classical(4)):
        ident = alg.identity()
        assert (ident @ ident - ident).norm() == 0.0


def test_adjoint_is_involution():
    x = gen.random_block_operator(c_plus_m2(), seed=0)
    assert (x.adjoint().adjoint() - x).norm() == 0.0


def test_blockwise_addition_example():
    alg = c_plus_m2()
    x = BlockOperator(alg, [np.array([[2.0]]), np.array([[1.0, 0.0], [0.0, 3.0]])])
    y = x + alg.identity()
    assert np.allclose(y.block(0), [[3.0]])
    assert np.allclose(y.block(1), [[2.0, 0.0], [0.0, 4.0]])


def test_algebra_mismatch_raises():
    x = c_plus_m2().identity()
    y = MultiMatrixAlgebra.single(2).identity()
    with pytest.raises(sf.AlgebraMismatchError):
        _ = x + y
    with pytest.raises(sf.AlgebraMismatchError):
        sf.hs_inner(x, y)


def test_shape_validation():
    alg = c_plus_m2()
    with pytest.raises(sf.ShapeMismatchError):
        BlockOperator(alg, [np.zeros((1, 1)), np.zeros((3, 3))])
    with pytest.raises(sf.ShapeMismatchError):
        BlockOperator(alg, [np.zeros((1, 1))])
    with pytest.raises(sf.ShapeMismatchError):
        MultiMatrixAlgebra((("a", 1), ("a", 2)))
    with pytest.raises(sf.ShapeMismatchError):
        MultiMatrixAlgebra(())
    with pytest.raises(sf.ShapeMismatchError):
        MultiMatrixAlgebra((("a", 0),))


def test_trace_of_identity_is_algebra_dim():
    assert sf.trace(c_plus_m2().identity()) == 3
    m23 = MultiMatrixAlgebra((("a", 2), ("b", 3)))
    assert sf.trace(m23.identity()) == 5
    assert m23.dim == 5


def test_hybrid_state_trace_one():
    for seed in range(5):
        rho = gen.random_state(c_plus_m2(), seed=seed)
        assert abs(sf.trace(rho.operator) - 1.0) < 1e-12
        assert np.all(rho.distribution >= -1e-12)
        assert abs(rho.distribution.sum() - 1.0) < 1e-12


def test_hybrid_state_rejects_bad_input():
    alg = MultiMatrixAlgebra.single(2)
    with pytest.raises(sf.NotPositiveError):
        sf.HybridState(BlockOperator(alg, [np.diag([1.5, -0.5])]))
    with pytest.raises(sf.ShapeMismatchError):
        sf.HybridState(BlockOperator(alg, [np.diag([0.9, 0.9])]))


def test_is_positive_identity_and_witness():
    alg = MultiMatrixAlgebra.single(2)
    assert sf.is_positive(alg.identity())
    bad = BlockOperator(alg, [np.diag([1.0, -1.0])])
    witness = sf.is_positive(bad)
    assert not witness
    assert witness.block == "q"
    assert abs(witness.min_eigenvalue + 1.0) < 1e-12


def test_is_positive_gram_form():
    alg = c_plus_m2()
    for seed in range(5):
        g = gen.random_block_operator(alg, seed=seed)
        assert sf.is_positive(g.adjoint() @ g, 1e-10)


def test_is_positive_non_hermitian_witnessed():
    alg = MultiMatrixAlgebra.single(2)
    skew = BlockOperator(alg, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    witness = sf.is_positive(skew)
    assert not witness and witness.hermiticity_defect > 0.1


def test_is_positive_rejects_non_finite_blocks():
    alg = c_plus_m2()
    for value in (np.nan, np.inf):
        x = BlockOperator(alg, [np.eye(1), np.diag([1.0, value])])
        witness = sf.is_positive(x)
        assert not witness and witness.block == "q"


def test_psd_factor_identity_and_sqrt():
    alg = MultiMatrixAlgebra.single(2)
    ident = alg.identity()
    f = sf.psd_factor(ident)
    assert (f.adjoint() @ f - ident).norm() < 1e-12
    x = BlockOperator(alg, [np.diag([4.0, 0.0])])
    g = sf.psd_factor(x)
    assert (g.adjoint() @ g - x).norm() < 1e-12
    assert np.allclose(sorted(np.abs(np.linalg.svd(g.block(0), compute_uv=False))), [0.0, 2.0])


def test_psd_factor_reconstructs_random_gram():
    alg = MultiMatrixAlgebra((("a", 3), ("b", 2)))
    for seed in range(10):
        g = gen.random_block_operator(alg, seed=seed)
        x = g.adjoint() @ g
        f = sf.psd_factor(x, 1e-10)
        assert (f.adjoint() @ f - x).norm() < 1e-9


def test_psd_factor_rejects_non_psd():
    alg = MultiMatrixAlgebra.single(2)
    with pytest.raises(sf.NotPositiveError):
        sf.psd_factor(BlockOperator(alg, [np.diag([1.0, -1.0])]))


def test_hs_inner_examples():
    m2 = MultiMatrixAlgebra.single(2)
    assert abs(sf.hs_inner(m2.identity(), m2.identity()) - 2.0) < 1e-14
    for seed in range(5):
        x = gen.random_block_operator(c_plus_m2(), seed=seed)
        y = gen.random_block_operator(c_plus_m2(), seed=seed + 100)
        assert sf.hs_inner(x, x).real > 0
        assert abs(sf.hs_inner(x, y) - np.conj(sf.hs_inner(y, x))) < 1e-12


def test_trace_is_cyclic():
    alg = MultiMatrixAlgebra((("a", 4), ("b", 2)))
    for seed in range(10):
        x = gen.random_block_operator(alg, seed=seed)
        y = gen.random_block_operator(alg, seed=seed + 50)
        assert abs(sf.trace(x @ y) - sf.trace(y @ x)) < 1e-10


def test_hs_inner_nondegenerate():
    # pairing against the full matrix-unit basis recovers every entry, so a
    # vanishing pairing forces the zero operator
    alg = c_plus_m2()
    x = gen.random_block_operator(alg, seed=3)
    recovered = alg.zeros()
    for i, a, b, unit in alg.matrix_units():
        recovered = recovered + sf.hs_inner(unit, x) * alg.unit(i, a, b)
    assert (recovered - x).norm() < 1e-12
