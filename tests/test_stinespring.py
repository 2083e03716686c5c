"""Tests for Stinespring dilations: isometry, minimality, uniqueness."""

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge.algebra import MultiMatrixAlgebra
from supermap_forge.cpmaps import KrausDecomposition
from oracles import (
    NotMinimalError, choi_from_action, copy_channel, dilation_from_kraus,
    environment_intertwiner, heisenberg_apply, identity_channel, minimal_stinespring,
)


def test_unitary_conjugation_has_unit_environments():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _, vt = np.linalg.svd(g)
    unitary = u @ vt
    a = MultiMatrixAlgebra.single(2)
    ch = sf.CpMap.from_kraus(a, a, {(0, 0): [unitary]})
    dil = minimal_stinespring(ch)
    assert dil.env_dims == {(0, 0): 1}
    assert dil.isometry_defect() < 1e-12


def test_depolarizing_environment_dimension():
    a = MultiMatrixAlgebra.single(2)
    dep = choi_from_action(
        lambda x: sf.BlockOperator(a, [np.trace(x.block(0)) * np.eye(2) / 2]), a, a
    )
    dil = minimal_stinespring(dep)
    assert dil.env_dims == {(0, 0): 4}
    assert dil.isometry_defect() < 1e-12


def test_channel_dilation_is_isometry():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 2)))
    for seed in range(5):
        ch = gen.random_channel(a, b, seed=seed)
        assert minimal_stinespring(ch).isometry_defect() < 1e-9


def test_non_tp_map_fails_isometry():
    a = MultiMatrixAlgebra.single(2)
    scaled = identity_channel(a).scaled(1.5)
    assert minimal_stinespring(scaled).isometry_defect() > 0.4


def test_heisenberg_apply_equals_dual():
    a = MultiMatrixAlgebra((("x", 2), ("y", 2)))
    b = MultiMatrixAlgebra.single(3, "u")
    ch = gen.random_channel(a, b, seed=7)
    dil = minimal_stinespring(ch)
    dual = sf.hs_dual(ch)
    for seed in range(5):
        y = gen.random_block_operator(b, seed=seed)
        assert (heisenberg_apply(dil, y) - sf.apply(dual, y)).norm() < 1e-10


def test_minimality_gram_invertible():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2),))
    for seed in range(5):
        dil = minimal_stinespring(gen.random_channel(a, b, seed=seed))
        assert dil.kraus.min_gram_eig() > 1e-12


def test_isometry_built_channel_recovers_smaller_environment():
    # channel defined by an isometry into system (x) environment, with a
    # redundant doubled Kraus family: the minimal dilation shrinks it
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(g)
    v = q[:, :2]  # isometry H2 -> K2 (x) E3
    kraus = [v.reshape(2, 3, 2)[:, e, :] for e in range(3)]
    a = MultiMatrixAlgebra.single(2)
    redundant = [k / np.sqrt(2.0) for k in kraus for _ in range(2)]
    ch = sf.CpMap.from_kraus(a, a, {(0, 0): redundant})
    assert sf.is_tp(ch, 1e-10).ok
    dil = minimal_stinespring(ch)
    assert dil.env_dims[(0, 0)] <= 3 < len(redundant)


def test_dilation_reads_back_its_kraus_family_bit_for_bit():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 3)))
    # the copy channel has empty Kraus lists off the diagonal
    maps = [gen.random_channel(a, b, seed=seed) for seed in range(3)]
    maps.append(copy_channel(MultiMatrixAlgebra.classical(2)))
    for m in maps:
        kd = sf.kraus_from_choi(m)
        back = dilation_from_kraus(m, kd).kraus.ops
        assert back.keys() == kd.ops.keys()
        for key, ops in kd.ops.items():
            assert len(back[key]) == len(ops)
            for x, y in zip(back[key], ops):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_dilation_uniqueness_partial_isometry():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2),))
    rng = np.random.default_rng(11)
    for seed in range(5):
        ch = gen.random_channel(a, b, seed=seed)
        dmin = minimal_stinespring(ch)
        # pad with a zero Kraus operator and mix by a random environment unitary
        mixed = {}
        for key, ops in dmin.kraus.ops.items():
            padded = list(ops) + ([np.zeros_like(ops[0])] if len(ops) else [])
            r = len(padded)
            if r == 0:
                mixed[key] = ()
                continue
            g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            u, _, vt = np.linalg.svd(g)
            uni = u @ vt
            mixed[key] = tuple(
                sum(uni[gamma, beta] * padded[beta] for beta in range(r))
                for gamma in range(r)
            )
        kd = KrausDecomposition(ch.source, ch.target, mixed)
        other = dilation_from_kraus(
            sf.CpMap.from_kraus(ch.source, ch.target, mixed), kd
        )
        blocks, residual, pi_defect = environment_intertwiner(dmin, other)
        assert residual < 1e-8
        assert pi_defect < 1e-8
        # sigma sigma† sigma = sigma for every block (partial isometry)
        for x in blocks.values():
            assert np.linalg.norm(x @ x.conj().T @ x - x) < 1e-8


def test_intertwiner_requires_minimal_source():
    a = MultiMatrixAlgebra.single(2)
    ch = gen.random_channel(a, a, seed=2)
    dmin = minimal_stinespring(ch)
    padded_ops = {
        key: tuple(list(ops) + [np.zeros_like(ops[0])])
        for key, ops in dmin.kraus.ops.items()
    }
    kd = KrausDecomposition(a, a, padded_ops)
    padded = dilation_from_kraus(sf.CpMap.from_kraus(a, a, padded_ops), kd)
    with pytest.raises(NotMinimalError):
        environment_intertwiner(padded, dmin)
