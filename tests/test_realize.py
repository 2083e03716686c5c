"""Tests for the circuit realisation engine."""

import dataclasses

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge.algebra import BlockOperator, MultiMatrixAlgebra
from supermap_forge.cpmaps import KrausDecomposition, dilation_from_kraus
from supermap_forge.realize import left_dilation, pad_environment, right_dilation, solve_w
from supermap_forge.supermap import partial_trace_out


def small_shape():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra((("j0", 2),))
    c = MultiMatrixAlgebra((("k0", 1), ("k1", 2)))
    d = MultiMatrixAlgebra((("l0", 2), ("l1", 1)))
    return a, b, c, d


def verified_supermap(seed=42, p_dim=2):
    a, b, c, d = small_shape()
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=p_dim, seed=seed)
    assert sf.verify_deterministic(s).verdict
    return s


def test_realize_gates_its_own_preconditions():
    # no prior verify_deterministic: realize accepts a deterministic input
    # and names the failed condition on damaged ones
    a, b, c, d = small_shape()
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1, seed=0)
    assert sf.check_realisation(sf.realize(s), s, trials=0).passed
    with pytest.raises(sf.ResidualTooLargeError):
        sf.realize(gen.perturb_supermap(s, 1e-3, "tp-breaking", seed=1))
    with pytest.raises(sf.NotCompletelyPositiveError):
        sf.realize(gen.perturb_supermap(s, 1e-3, "cp-breaking"))


def test_left_dilation_presents_the_marginal_map():
    s = verified_supermap()
    vl = left_dilation(s, sf.kraus_from_choi(s.inner))
    for t in range(5):
        x = gen.random_block_operator(s.source_hom.base, seed=t)
        lhs = vl.heisenberg_apply(x)
        rhs = partial_trace_out(sf.apply_to_choi(s, x), s.target_hom)
        assert (lhs - rhs).norm() < 1e-9


def test_left_dilation_scalar_supermap_presents_the_trace():
    # Hom(C -> C) is the scalars; the marginal of the identity supermap is
    # the (trivial) trace map, and the dilation reproduces it
    triv = MultiMatrixAlgebra.single(1, "t")
    s = sf.identity_supermap(triv, triv)
    vl = left_dilation(s, sf.kraus_from_choi(s.inner))
    x = BlockOperator(s.source_hom.base, [np.array([[2.5 + 0.5j]])])
    lhs = vl.heisenberg_apply(x)
    rhs = partial_trace_out(sf.apply_to_choi(s, x), s.target_hom)
    assert (lhs - rhs).norm() < 1e-14


def test_left_dilation_trivial_out_matches_plain_ranks():
    # dim K_out = 1 with a single out block: nothing to bend, so the
    # environment dimensions agree with the supermap's own Kraus ranks
    a = MultiMatrixAlgebra.single(2, "H")
    b = MultiMatrixAlgebra.single(2, "Ho")
    c = MultiMatrixAlgebra.single(2, "K")
    d = MultiMatrixAlgebra.single(1, "triv")
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=8)
    kd = sf.kraus_from_choi(s.inner)
    vl = left_dilation(s, kd)
    for t in range(len(s.source_hom.base)):
        assert vl.env_dims[(0, t)] == kd.rank(t, 0)


def test_right_dilation_presents_the_marginal_map():
    s = verified_supermap()
    n = sf.extract_n(s)
    vr = sf.right_dilation(sf.minimal_stinespring(n), s.source_hom)
    for t in range(5):
        x = gen.random_block_operator(s.source_hom.base, seed=50 + t)
        lhs = vr.heisenberg_apply(x)
        rhs = sf.apply(n, partial_trace_out(x, s.source_hom))
        assert (lhs - rhs).norm() < 1e-9
    assert vr.kraus.min_gram_eig() > 1e-12


def test_realize_rejects_non_unital():
    # c S is CP and satisfies kernel containment, but its induced map is c N;
    # unitality is checked at realize's own tol, also below 1e-8
    s = verified_supermap(seed=5)
    for factor, tol in ((1.5, 1e-8), (1 + 1e-9, 1e-10)):
        scaled = sf.Supermap(s.inner.scaled(factor), s.source_hom, s.target_hom)
        assert not sf.verify_deterministic(scaled, tol).verdict
        with pytest.raises(sf.NotUnitalError):
            sf.realize(scaled, tol)


def test_solve_w_identity_case():
    s = verified_supermap()
    n = sf.extract_n(s)
    vr = right_dilation(sf.minimal_stinespring(n), s.source_hom)
    w = solve_w(vr, vr, 1e-8)
    assert w.residual < 1e-10 and w.isometry_defect < 1e-10
    for key, x in w.blocks.items():
        assert np.linalg.norm(x - np.eye(x.shape[0])) < 1e-10


def test_solve_w_recovers_planted_unitary():
    s = verified_supermap(seed=7)
    n = sf.extract_n(s)
    vr = right_dilation(sf.minimal_stinespring(n), s.source_hom)
    rng = np.random.default_rng(1)
    mixed = {}
    planted = {}
    for key, ops in vr.kraus.ops.items():
        r = len(ops)
        if r == 0:
            mixed[key] = ()
            continue
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        u, _, vt = np.linalg.svd(g)
        uni = u @ vt
        planted[key] = uni
        mixed[key] = tuple(
            sum(uni[gamma, beta] * ops[beta] for beta in range(r)) for gamma in range(r)
        )
    kd = KrausDecomposition(vr.cpmap.source, vr.cpmap.target, mixed)
    vl = dilation_from_kraus(sf.CpMap.from_kraus(vr.cpmap.source, vr.cpmap.target, mixed), kd)
    w = solve_w(vr, vl, 1e-8)
    assert w.residual < 1e-9 and w.isometry_defect < 1e-9
    for key, uni in planted.items():
        assert np.linalg.norm(w.blocks[key] - uni) < 1e-9


def test_solve_w_padded_inclusion():
    s = verified_supermap(seed=9)
    n = sf.extract_n(s)
    vr = right_dilation(sf.minimal_stinespring(n), s.source_hom)
    padded_ops = {
        key: tuple(list(ops) + [np.zeros_like(ops[0])]) if ops else ops
        for key, ops in vr.kraus.ops.items()
    }
    kd = KrausDecomposition(vr.cpmap.source, vr.cpmap.target, padded_ops)
    vl = dilation_from_kraus(
        sf.CpMap.from_kraus(vr.cpmap.source, vr.cpmap.target, padded_ops), kd
    )
    w = solve_w(vr, vl, 1e-8)
    for key, ops in vr.kraus.ops.items():
        r = len(ops)
        if r:
            assert np.linalg.norm(w.blocks[key] - np.eye(r + 1, r)) < 1e-9


def test_solve_w_rejects_mismatched_dilations():
    s1 = verified_supermap(seed=11)
    s2 = verified_supermap(seed=12)
    n1 = sf.extract_n(s1)
    n2 = sf.extract_n(s2)
    vr = right_dilation(sf.minimal_stinespring(n1), s1.source_hom)
    vl = left_dilation(s2, sf.kraus_from_choi(s2.inner))
    with pytest.raises(sf.ResidualTooLargeError):
        solve_w(vr, vl, 1e-8)
    del n2


def test_pad_environment_examples():
    pad = pad_environment({(1, 1): 2, (2, 1): 3}, {(1, 1): 4, (2, 1): 4})
    assert pad.p_dim == 3
    assert np.allclose(pad.injection(1, 1), np.eye(3)[:, :2])
    assert pad.complement_dims == {(1, 1): 1, (2, 1): 0}
    pad1 = pad_environment({(0, 0): 1, (0, 1): 1}, {(0, 0): 2, (0, 1): 2})
    assert pad1.p_dim == 1
    assert np.allclose(pad1.injection(0, 0), [[1.0]])
    # degenerate all-zero case still yields a one-dimensional memory
    assert pad_environment({(0, 0): 0}, {(0, 0): 1}).p_dim == 1
    with pytest.raises(sf.BoundViolatedError):
        pad_environment({(0, 0): 5}, {(0, 0): 4})


def test_assemble_e_is_tp_and_has_the_right_marginal():
    s = verified_supermap(seed=21)
    r = sf.realize(s)
    assert sf.is_tp(r.e_channel, 1e-9).ok
    # Tr_P (E(rho)) equals the conjugated dual of the induced map
    n_star = sf.hs_dual(sf.extract_n(s))
    a, c = r.a, r.c
    for seed in range(5):
        rho = gen.random_state(c, seed=seed).operator
        out = sf.apply(r.e_channel, rho)
        marginal = BlockOperator(
            a,
            [
                np.einsum("xaxb->ab", out.block(i).reshape(r.p_dim, di, r.p_dim, di))
                for i, di in enumerate(a.dims)
            ],
        )
        expected = sf.apply(n_star, rho.conj()).conj()
        assert (marginal - expected).norm() < 1e-9


def test_assemble_e_identity_classical_case():
    # N = identity on two classical symbols: E is a trace-preserving relabelling
    triv = MultiMatrixAlgebra.classical(2)
    s = sf.identity_supermap(triv, triv)
    sf.verify_deterministic(s)
    r = sf.realize(s)
    assert sf.is_tp(r.e_channel, 1e-9).ok
    assert r.p_dim == 1


def test_assemble_g_is_tp_and_completion_policy():
    s = verified_supermap(seed=23)
    r = sf.realize(s)
    g = r.g_channel
    assert sf.is_tp(g, 1e-9).ok
    # find a source block whose environment has a complement inside P
    n_dil = sf.minimal_stinespring(sf.extract_n(s))
    a, b, c, d = r.a, r.b, r.c, r.d
    found = False
    for i in range(len(a)):
        for k in range(len(c)):
            gap = r.p_dim - n_dil.env_dims[(i, k)]
            if gap > 0:
                found = True
                for j in range(len(b)):
                    src = (i * len(b) + j) * len(c) + k
                    dj = b.dims[j]
                    # state supported on the complement of the embedded environment
                    vecp = np.zeros(r.p_dim)
                    vecp[-1] = 1.0
                    mat = np.kron(np.outer(vecp, vecp), np.eye(dj) / dj)
                    x = BlockOperator(
                        g.source,
                        [
                            mat if t == src else np.zeros((g.source.dims[t],) * 2)
                            for t in range(len(g.source))
                        ],
                    )
                    out = sf.apply(g, x)
                    assert abs(out.trace() - 1.0) < 1e-10
                    # default policy: a pure state in the first output block
                    expected = np.zeros((d.dims[0], d.dims[0]), dtype=complex)
                    expected[0, 0] = 1.0
                    assert np.linalg.norm(out.block(0) - expected) < 1e-10
    assert found, "shape should produce at least one padded complement"


def test_realize_round_trip_and_diagnostics():
    for seed in (1, 2, 3):
        s = verified_supermap(seed=seed)
        r = sf.realize(s)
        assert r.w_residual < 1e-8
        assert r.w_isometry_defect < 1e-8
        assert r.p_dim <= r.p_bound
        chk = sf.check_realisation(r, s, trials=2, tol=1e-6, seed=seed)
        assert chk.passed, chk.summary()


def test_realize_identity_supermap_reproduces_any_channel():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    s = sf.identity_supermap(a, b)
    sf.verify_deterministic(s)
    r = sf.realize(s)
    for seed in range(3):
        f = gen.random_channel(a, b, seed=seed)
        out = sf.evaluate_circuit(r, f)
        assert out.choi_distance(f) < 1e-7
    assert sf.check_realisation(r, s, trials=1, tol=1e-9).passed


def test_cdp08_shape_degenerates_to_pre_post_processing():
    # singleton classical sets: the copy channels are relabelling identities
    algs = [MultiMatrixAlgebra.single(2, lbl) for lbl in "ABCD"]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=6)
    sf.verify_deterministic(s)
    r = sf.realize(s)
    assert all(len(x) == 1 for x in (r.a, r.b, r.c, r.d))
    copy = sf.copy_channel(r.c)
    ident = sf.identity_cpmap(r.c)
    assert all(
        np.allclose(copy.choi(j, i), ident.choi(j, i))
        for j in range(1)
        for i in range(1)
    )
    assert sf.check_realisation(r, s, trials=1, tol=1e-6).passed


def test_evaluate_circuit_matches_supermap_action():
    s = verified_supermap(seed=31)
    r = sf.realize(s)
    for seed in range(3):
        f = gen.random_channel(r.a, r.b, seed=seed)
        lhs = sf.choi_element(sf.evaluate_circuit(r, f), s.target_hom)
        rhs = sf.apply_to_choi(s, sf.choi_element(f, s.source_hom))
        assert (lhs - rhs).norm() < 1e-6


def test_evaluate_circuit_agrees_with_linear_action():
    s = verified_supermap(seed=33)
    r = sf.realize(s)
    circuit = sf.circuit_supermap(r.e_channel, r.g_channel, r.p_dim, r.a, r.b, r.c, r.d)
    for seed in range(2):
        f = gen.random_channel(r.a, r.b, seed=seed)
        via_stages = sf.choi_element(sf.evaluate_circuit(r, f), s.target_hom)
        via_contraction = sf.apply_to_choi(circuit, sf.choi_element(f, s.source_hom))
        assert (via_stages - via_contraction).norm() < 1e-10


def test_evaluate_circuit_rejects_wrong_channel_type():
    s = verified_supermap(seed=35)
    r = sf.realize(s)
    wrong = gen.random_channel(r.c, r.b, seed=0)
    with pytest.raises(sf.AlgebraMismatchError):
        sf.evaluate_circuit(r, wrong)


def test_check_realisation_zero_trials_runs_spanning_set():
    s = verified_supermap(seed=39)
    r = sf.realize(s)
    chk = sf.check_realisation(r, s, trials=0, tol=1e-6)
    assert chk.passed and chk.trials == 0 and chk.spanning_deviation < 1e-6


def test_check_realisation_detects_wrong_supermap():
    s1 = verified_supermap(seed=43)
    s2 = verified_supermap(seed=44)
    r = sf.realize(s1)
    chk = sf.check_realisation(r, s2, trials=0, tol=1e-6)
    assert not chk.passed
    # the spanning deviation is the largest image difference of one matrix unit
    circuit = sf.circuit_supermap(r.e_channel, r.g_channel, r.p_dim, r.a, r.b, r.c, r.d)
    per_unit = max(
        (sf.apply_to_choi(circuit, unit) - sf.apply_to_choi(s2, unit)).norm()
        for _, _, _, unit in s2.source_hom.base.matrix_units()
    )
    assert abs(chk.spanning_deviation - per_unit) <= 1e-12 * per_unit


def test_check_realisation_fails_on_non_cp_circuit():
    s = verified_supermap(seed=45)
    r = sf.realize(s)
    broken = dataclasses.replace(r, e_channel=r.e_channel.scaled(-1.0))
    with pytest.raises(sf.NotCompletelyPositiveError):
        sf.circuit_supermap(broken.e_channel, r.g_channel, r.p_dim, r.a, r.b, r.c, r.d)
    chk = sf.check_realisation(broken, s, trials=0, tol=1e-6)
    assert not chk.passed and chk.spanning_deviation > 1e-3


def test_realize_keeps_small_supermap_eigenvalues():
    # M5 algebras, p_dim 1: S's Choi has a true eigenvalue of ~3.6e-11, below
    # a 1e-10 relative Kraus cutoff; dropping it from the left dilation
    # leaves a W isometry defect of ~1e-6 after division by N's smallest
    # Gram eigenvalue (~1.7e-5)
    algs = [MultiMatrixAlgebra.single(5, lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*algs, p_dim=1, seed=3125774064)
    assert sf.verify_deterministic(s, tol=1e-8).verdict
    r = sf.realize(s, tol=1e-8)
    assert r.w_isometry_defect < 1e-9
    assert sf.check_realisation(r, s, trials=0).passed


def test_realize_identity_supermaps_ignore_roundoff_eigenvalues():
    # the identity supermap's Choi block has rank one; its other eigenvalues
    # are roundoff (~1e-15), and kept as Kraus operators of size ~3e-8 they
    # would push the W residual past 10 * tol from M4 (x) M2 on
    for da, db in ((3, 3), (4, 2), (4, 4)):
        a, b = MultiMatrixAlgebra.single(da, "a"), MultiMatrixAlgebra.single(db, "b")
        s = sf.identity_supermap(a, b)
        r = sf.realize(s)
        assert r.w_residual < 1e-12 and r.p_dim == 1
        assert sf.check_realisation(r, s, trials=0, tol=1e-9).passed


def agreement_inputs():
    m2 = MultiMatrixAlgebra.single(2, "q")
    identity = sf.identity_supermap(m2, m2)
    for eps in (2e-9, 5e-9, 9e-9, 2e-8):
        # the rank-one Choi block pushed eps below zero along a null vector
        yield f"identity push {eps}", gen.perturb_supermap(identity, eps, "cp-breaking")
    # S(F) = F (x) sigma with B trivial and D = M2, pushed along Id_D (x) |u><u|
    # for u orthogonal to N's Choi vector: N's eigenvalue falls twice as far
    a, b = m2, MultiMatrixAlgebra.single(1, "t")
    hom_ab, hom_cd = sf.hom_algebra(a, b), sf.hom_algebra(a, m2)
    inner = sf.choi_from_action(
        lambda x: BlockOperator(hom_cd.base, [np.kron(np.diag([0.7, 0.3]), x.block(0))]),
        hom_ab.base, hom_cd.base,
    )
    u = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    for eps in (4e-9, 6e-9):
        pushed = inner.choi(0, 0) - eps * np.kron(np.eye(2), np.outer(u, u))
        yield f"doubled push {eps}", sf.Supermap(
            sf.CpMap(inner.source, inner.target, [[pushed]]), hom_ab, hom_cd, validate=False
        )
    m3 = MultiMatrixAlgebra.single(3, "r")
    shapes = (
        small_shape(),
        (m3, m2, m2, m3),
        (MultiMatrixAlgebra.classical(3), m2, m3, MultiMatrixAlgebra.from_dims((1, 2), "d")),
    )
    # tp-breaking below tol is left out: N's Gram conditioning amplifies it
    # in W, and G's TP check at tol can then reject what verify accepts
    for k, shape in enumerate(shapes):
        s = gen.random_supermap_from_circuit(*shape, p_dim=2, seed=70 + k)
        yield f"shape {k} clean", s
        for eps in (2e-8, 1e-6, 1e-3):
            yield f"shape {k} tp {eps}", gen.perturb_supermap(s, eps, "tp-breaking", seed=k)
        for eps in (5e-9, 2e-8, 1e-3):
            yield f"shape {k} cp {eps}", gen.perturb_supermap(s, eps, "cp-breaking")
        yield f"shape {k} x1.5", sf.Supermap(s.inner.scaled(1.5), s.source_hom, s.target_hom)


def test_verify_verdict_holds_exactly_when_realize_succeeds():
    tol = 1e-8
    for name, s in agreement_inputs():
        verdict = sf.verify_deterministic(s, tol).verdict
        try:
            r = sf.realize(s, tol)
        except (sf.NotCompletelyPositiveError, sf.ResidualTooLargeError,
                sf.NotUnitalError) as exc:
            assert not verdict, f"{name}: verified, but realize raised {exc!r}"
        else:
            assert verdict, f"{name}: rejected, but realize succeeded"
            assert sf.check_realisation(r, s, trials=0, tol=1e-6).passed, name


def test_realize_convex_mixture_of_supermaps():
    # mixtures of deterministic supermaps are deterministic but are not
    # themselves produced by the circuit generator
    a, b, c, d = small_shape()
    s1 = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=1)
    s2 = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1, seed=2)
    blocks = [
        [0.35 * s1.inner.choi(j, i) + 0.65 * s2.inner.choi(j, i)
         for i in range(len(s1.inner.source))]
        for j in range(len(s1.inner.target))
    ]
    mix = sf.Supermap(
        sf.CpMap(s1.inner.source, s1.inner.target, blocks),
        s1.source_hom,
        s1.target_hom,
    )
    assert sf.verify_deterministic(mix).verdict
    r = sf.realize(mix)
    assert sf.check_realisation(r, mix, trials=2, tol=1e-6, seed=0).passed


def test_realize_composition_of_supermaps():
    a, b, c, d = small_shape()
    e_alg = MultiMatrixAlgebra.classical(2, "e")
    f_alg = MultiMatrixAlgebra.single(2, "f")
    s1 = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=1)
    s2 = gen.random_supermap_from_circuit(c, d, e_alg, f_alg, p_dim=2, seed=3)
    comp = sf.Supermap(
        sf.compose(s2.inner, s1.inner), s1.source_hom, s2.target_hom
    )
    assert sf.verify_deterministic(comp).verdict
    r = sf.realize(comp)
    assert sf.check_realisation(r, comp, trials=2, tol=1e-6, seed=1).passed


def test_realize_constant_supermap():
    # discards the plugged channel entirely and emits a fixed channel: the
    # most degenerate deterministic supermap
    a, b, c, d = small_shape()
    hom_ab = sf.hom_algebra(a, b)
    hom_cd = sf.hom_algebra(c, d)
    g0 = sf.choi_element(gen.random_channel(c, d, seed=9), hom_cd)

    def action(u):
        w = partial_trace_out(u, hom_ab)
        weight = sum(np.trace(w.block(i)) for i in range(len(a))) / a.dim
        return weight * g0

    s = sf.Supermap(
        sf.choi_from_action(action, hom_ab.base, hom_cd.base), hom_ab, hom_cd
    )
    assert sf.verify_deterministic(s).verdict
    r = sf.realize(s)
    assert sf.check_realisation(r, s, trials=2, tol=1e-6, seed=3).passed
