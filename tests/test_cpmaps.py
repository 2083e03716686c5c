"""Tests for CP maps: Choi families, application, TP checks, composition."""

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge.algebra import BlockOperator, MultiMatrixAlgebra


M2 = MultiMatrixAlgebra.single(2)


def depolarizing_qubit():
    return sf.choi_from_action(
        lambda x: BlockOperator(M2, [np.trace(x.block(0)) * np.eye(2) / 2.0]), M2, M2
    )


def test_choi_of_identity_on_m2():
    ident = sf.identity_channel(M2)
    blk = ident.choi(0, 0)
    expected = sum(
        np.kron(np.eye(2)[:, [a]] @ np.eye(2)[[b], :], np.eye(2)[:, [a]] @ np.eye(2)[[b], :])
        for a in range(2)
        for b in range(2)
    )
    assert np.allclose(blk, expected)
    assert abs(np.trace(blk) - 2.0) < 1e-14
    assert np.linalg.matrix_rank(blk) == 1


def test_choi_of_depolarizing_is_half_identity():
    dep = depolarizing_qubit()
    assert np.allclose(dep.choi(0, 0), np.eye(4) / 2.0)


def test_transpose_map_is_not_cp():
    with pytest.raises(sf.NotCompletelyPositiveError):
        sf.choi_from_action(
            lambda x: BlockOperator(M2, [x.block(0).T]), M2, M2
        )
    # the offending eigenvalue is -1 (the swap operator)
    m = sf.choi_from_action(
        lambda x: BlockOperator(M2, [x.block(0).T]), M2, M2, require_cp=False
    )
    assert abs(np.linalg.eigvalsh(m.choi(0, 0)).min() + 1.0) < 1e-12


def test_apply_identity_and_depolarizing():
    ident = sf.identity_channel(M2)
    rho = gen.random_state(M2, seed=0).operator
    assert (sf.apply(ident, rho) - rho).norm() < 1e-14
    dep = depolarizing_qubit()
    ket0 = BlockOperator(M2, [np.diag([1.0, 0.0])])
    assert (sf.apply(dep, ket0).block(0) - np.eye(2) / 2).max() < 1e-14


def test_apply_channel_preserves_states():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 3)))
    for seed in range(5):
        ch = gen.random_channel(a, b, seed=seed)
        rho = gen.random_state(a, seed=seed + 10)
        out = sf.apply(ch, rho.operator)
        assert abs(out.trace() - 1.0) < 1e-9
        assert sf.is_positive(out, 1e-9)


def test_apply_algebra_mismatch():
    ch = sf.identity_channel(M2)
    with pytest.raises(sf.AlgebraMismatchError):
        sf.apply(ch, MultiMatrixAlgebra.single(3).identity())


def test_is_tp_identity_and_scaled():
    ident = sf.identity_channel(M2)
    assert sf.is_tp(ident).ok
    doubled = ident.scaled(2.0)
    report = sf.is_tp(doubled)
    assert not report.ok
    # residual per source block is ||Id||_F
    assert abs(report.residuals[0] - np.sqrt(2.0)) < 1e-12


def test_classical_channel_is_stochastic_matrix():
    # a map between classical algebras is TP exactly when each column of its
    # 1x1-block matrix sums to one
    x = MultiMatrixAlgebra.classical(3, "x")
    y = MultiMatrixAlgebra.classical(2, "y")
    p = np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 0.0]])
    m = sf.CpMap(x, y, [[np.array([[p[j, i]]]) for i in range(3)] for j in range(2)])
    assert sf.is_tp(m).ok
    broken = sf.CpMap(x, y, [[np.array([[p[j, i] * (1.1 if i == 0 else 1.0)]])
                              for i in range(3)] for j in range(2)])
    assert not sf.is_tp(broken).ok


def test_kraus_from_choi_identity_depolarizing_zero():
    kd = sf.kraus_from_choi(sf.identity_channel(M2))
    assert kd.rank(0, 0) == 1
    k = kd.ops[(0, 0)][0]
    # single Kraus operator equal to the identity up to a global phase
    assert np.allclose(k @ k.conj().T, np.eye(2))
    assert abs(abs(np.trace(k)) - 2.0) < 1e-12

    kd = sf.kraus_from_choi(depolarizing_qubit())
    assert kd.rank(0, 0) == 4

    kd = sf.kraus_from_choi(sf.zero_cpmap(M2, M2))
    assert kd.rank(0, 0) == 0


def test_kraus_reconstructs_choi():
    a = MultiMatrixAlgebra((("x", 2), ("y", 3)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 2)))
    for seed in range(5):
        ch = gen.random_channel(a, b, seed=seed)
        assert sf.kraus_from_choi(ch).reconstruct().choi_distance(ch) < 1e-10


def test_kraus_from_choi_rejects_non_cp():
    m = sf.choi_from_action(
        lambda x: BlockOperator(M2, [x.block(0).T]), M2, M2, require_cp=False
    )
    with pytest.raises(sf.NotCompletelyPositiveError):
        sf.kraus_from_choi(m)


def test_non_finite_choi_blocks_are_not_cp():
    for value in (np.nan, np.inf):
        blk = sf.identity_channel(M2).choi(0, 0).copy()
        blk[1, 2] = value
        m = sf.CpMap(M2, M2, [[blk]])
        witness = sf.is_cp(m)
        assert not witness and witness.block == (0, 0)
        with pytest.raises(sf.NotCompletelyPositiveError):
            sf.kraus_from_choi(m)


def test_hs_dual_identity_unitality_and_involution():
    ident = sf.identity_channel(M2)
    assert sf.hs_dual(ident).choi_distance(ident) < 1e-14
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 3), ("v", 2)))
    for seed in range(5):
        ch = gen.random_channel(a, b, seed=seed)
        dual = sf.hs_dual(ch)
        assert sf.is_unital(dual, 1e-10)
        assert sf.hs_dual(dual).choi_distance(ch) < 1e-10
        x = gen.random_block_operator(a, seed=seed + 1)
        y = gen.random_block_operator(b, seed=seed + 2)
        lhs = sf.hs_inner(sf.apply(ch, x), y)
        rhs = sf.hs_inner(x, sf.apply(dual, y))
        assert abs(lhs - rhs) < 1e-10


def test_compose_identity_and_channels():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra.single(2, "u")
    c = MultiMatrixAlgebra.classical(2)
    f = gen.random_channel(a, b, seed=1)
    assert sf.compose(sf.identity_channel(b), f).choi_distance(f) < 1e-12
    g = gen.random_channel(b, c, seed=2)
    gf = sf.compose(g, f)
    assert sf.is_tp(gf, 1e-9).ok
    with pytest.raises(sf.AlgebraMismatchError):
        sf.compose(f, g)


def test_compose_is_associative():
    a = MultiMatrixAlgebra((("x", 2), ("y", 2)))
    b = MultiMatrixAlgebra.single(3, "u")
    c = MultiMatrixAlgebra.single(2, "w")
    d = MultiMatrixAlgebra.classical(2)
    for seed in range(3):
        f = gen.random_channel(a, b, seed=seed)
        g = gen.random_channel(b, c, seed=seed + 10)
        h = gen.random_channel(c, d, seed=seed + 20)
        lhs = sf.compose(sf.compose(h, g), f)
        rhs = sf.compose(h, sf.compose(g, f))
        assert lhs.choi_distance(rhs) < 1e-9


def _random_linear_map(source, target, seed):
    """A CpMap with arbitrary complex Choi blocks (neither CP nor TP)."""
    rng = np.random.default_rng(seed)
    return sf.CpMap(
        source,
        target,
        [[rng.standard_normal((dk * dh,) * 2) + 1j * rng.standard_normal((dk * dh,) * 2)
          for dh in source.dims]
         for dk in target.dims],
    )


def test_compose_matches_probe_composition():
    # oracle: rebuild g o f from its action on every matrix unit
    a = MultiMatrixAlgebra((("x", 3), ("y", 1), ("z", 2)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 3)))
    c = MultiMatrixAlgebra((("p", 1), ("q", 2), ("r", 3)))
    pairs = [(gen.random_channel(a, b, seed=1), gen.random_channel(b, c, seed=2))]
    pairs.append((_random_linear_map(a, b, 3), _random_linear_map(b, c, 4)))
    for f, g in pairs:
        probed = sf.choi_from_action(
            lambda x: sf.apply(g, sf.apply(f, x)), a, c, require_cp=False
        )
        composed = sf.compose(g, f)
        assert composed.source == a and composed.target == c
        scale = probed.choi_distance(sf.zero_cpmap(a, c))
        assert composed.choi_distance(probed) <= 1e-12 * scale


def test_tensor_of_channels_is_channel_and_acts_as_product():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra.single(2, "u")
    c = MultiMatrixAlgebra.classical(2)
    d = MultiMatrixAlgebra.single(2, "w")
    f = gen.random_channel(a, b, seed=5)
    g = gen.random_channel(c, d, seed=6)
    t = sf.tensor(f, g)
    assert sf.is_tp(t, 1e-9).ok
    x = gen.random_block_operator(a, seed=7)
    y = gen.random_block_operator(c, seed=8)
    prod = BlockOperator(
        t.source,
        [np.kron(x.block(i), y.block(k)) for i in range(len(a)) for k in range(len(c))],
    )
    fx, gy = sf.apply(f, x), sf.apply(g, y)
    expected = BlockOperator(
        t.target,
        [np.kron(fx.block(j), gy.block(l)) for j in range(len(b)) for l in range(len(d))],
    )
    assert (sf.apply(t, prod) - expected).norm() < 1e-10


def test_copy_channel_diagonal_action():
    c2 = MultiMatrixAlgebra.classical(2)
    cp = sf.copy_channel(c2)
    assert cp.target.blocks == ((("c0", "c0"), 1), (("c1", "c1"), 1))
    rho = BlockOperator(c2, [np.array([[0.3]]), np.array([[0.7]])])
    out = sf.apply(cp, rho)
    assert abs(out.block(0)[0, 0] - 0.3) < 1e-14
    assert abs(out.block(1)[0, 0] - 0.7) < 1e-14


def test_copy_channel_preserves_states():
    a = MultiMatrixAlgebra((("k0", 2), ("k1", 3)))
    cp = sf.copy_channel(a)
    assert sf.is_tp(cp).ok
    rho = gen.random_state(a, seed=4)
    out = sf.apply(cp, rho.operator)
    assert abs(out.trace() - 1.0) < 1e-12
    assert sf.is_positive(out, 1e-10)


def test_discarding_copy_recovers_identity():
    a = MultiMatrixAlgebra((("k0", 2), ("k1", 1)))
    roundtrip = sf.compose(sf.discard_copy_channel(a), sf.copy_channel(a))
    assert roundtrip.choi_distance(sf.identity_cpmap(a)) < 1e-14


def test_trace_out_target_group_none_and_all():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 2)))
    ch = gen.random_channel(a, b, seed=9)
    assert sf.trace_out_target_group(ch, group="none").choi_distance(ch) == 0.0
    full = sf.trace_out_target_group(ch, group="all")
    # tracing the whole target of a channel leaves identity Choi blocks
    for i, d in enumerate(a.dims):
        assert np.linalg.norm(full.choi(0, i) - np.eye(d)) < 1e-10


def test_trace_out_target_group_matches_brute_force():
    a = MultiMatrixAlgebra((("x", 2), ("y", 1)))
    b = MultiMatrixAlgebra((("u", 2),))
    c = MultiMatrixAlgebra((("k", 2),))
    d = MultiMatrixAlgebra((("l0", 2), ("l1", 1)))
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=17)
    hom_cd = s.target_hom
    reduced = sf.trace_out_target_group(s.inner, hom_cd, "out")
    # brute force: apply to each matrix unit and partial trace entrywise
    from supermap_forge.supermap import partial_trace_out

    brute = sf.choi_from_action(
        lambda z: partial_trace_out(sf.apply(s.inner, z), hom_cd),
        s.inner.source,
        hom_cd.in_algebra,
        require_cp=False,
    )
    assert reduced.choi_distance(brute) < 1e-12
    reduced_in = sf.trace_out_target_group(s.inner, hom_cd, "in")
    assert reduced_in.target == hom_cd.out_algebra


def test_trace_out_target_group_requires_structure():
    a = MultiMatrixAlgebra((("x", 2),))
    ch = gen.random_channel(a, a, seed=3)
    with pytest.raises(sf.StructureMissingError):
        sf.trace_out_target_group(ch, None, "out")
    wrong = sf.hom_algebra(a, MultiMatrixAlgebra.single(3, "z"))
    with pytest.raises(sf.StructureMissingError):
        sf.trace_out_target_group(ch, wrong, "out")
    with pytest.raises(sf.StructureMissingError):
        sf.trace_out_target_group(ch, None, "bogus")


def test_choi_action_round_trip_random_maps():
    # random CP maps with <= 3 blocks of dim <= 3
    a = MultiMatrixAlgebra((("x", 3), ("y", 2), ("z", 1)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 3)))
    for seed in range(5):
        ch = gen.random_channel(a, b, seed=seed)
        rebuilt = sf.choi_from_action(lambda z: sf.apply(ch, z), a, b)
        assert rebuilt.choi_distance(ch) < 1e-9
