"""Tests for the circuit realisation engine."""

import collections
import dataclasses
import json
import sys
import tracemalloc
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import algebra, gallery, gen, serialize
from supermap_forge.algebra import BlockOperator, MultiMatrixAlgebra
from supermap_forge.cpmaps import KrausDecomposition, _eigh_kraus, hs_dual
from supermap_forge.realize import g_source_algebra, memory_target_algebra
from supermap_forge.supermap import partial_trace_out
from oracles import (
    _minimal_pinv, as_channel, choi_from_action, compose, copy_channel, dilation_from_kraus,
    extract_n, heisenberg_apply, matrix_units, minimal_stinespring, tensor,
)
from w_oracle import left_dilation, right_dilation, solve_w, w_path

# see fixtures/v1/README.md
V1 = Path(__file__).parent / "fixtures" / "v1"


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
        lhs = heisenberg_apply(vl, x)
        rhs = partial_trace_out(sf.apply_to_choi(s, x), s.target_hom)
        assert (lhs - rhs).norm() < 1e-9


def test_left_dilation_scalar_supermap_presents_the_trace():
    # Hom(C -> C) is the scalars; the marginal of the identity supermap is
    # the (trivial) trace map, and the dilation reproduces it
    triv = MultiMatrixAlgebra.single(1, "t")
    s = sf.identity_supermap(triv, triv)
    vl = left_dilation(s, sf.kraus_from_choi(s.inner))
    x = BlockOperator(s.source_hom.base, [np.array([[2.5 + 0.5j]])])
    lhs = heisenberg_apply(vl, x)
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
    n = extract_n(s)
    vr = right_dilation(sf.kraus_from_choi(n), s.source_hom)
    for t in range(5):
        x = gen.random_block_operator(s.source_hom.base, seed=50 + t)
        lhs = heisenberg_apply(vr, x)
        rhs = sf.apply(n, partial_trace_out(x, s.source_hom))
        assert (lhs - rhs).norm() < 1e-9
    assert vr.kraus.min_gram_eig() > 1e-12


def _dilation_kraus_by_embedding(s, s_kd, n_kd):
    """Both dilations' Kraus families, one embedded operator at a time."""
    c_alg, hom_ab = s.target_hom.in_algebra, s.source_hom

    def embed(d, a, rest):
        return np.kron(np.eye(d, dtype=complex)[:, [a]], np.eye(rest, dtype=complex))

    left, right = {}, {}
    for k, dk in enumerate(c_alg.dims):
        for t, (j, i) in enumerate(hom_ab.pairs):
            left[(k, t)] = [
                s_mu.conj().T @ embed(dl, a, dk)
                for l, dl in enumerate(s.target_hom.out_algebra.dims) for a in range(dl)
                for s_mu in s_kd.ops[(t, l * len(c_alg) + k)]
            ]
            dj, di = hom_ab.out_algebra.dims[j], hom_ab.in_algebra.dims[i]
            right[(k, t)] = [
                embed(dj, b, di) @ n_beta.conj().T
                for b in range(dj) for n_beta in n_kd.ops[(i, k)]
            ]
    return left, right


def test_dilations_equal_their_embedding_definitions():
    for seed in (1, 2):
        s = verified_supermap(seed=seed)
        n = extract_n(s)
        s_kd, n_kd = sf.kraus_from_choi(s.inner, rank_tol=0.0), sf.kraus_from_choi(n)
        left, right = _dilation_kraus_by_embedding(s, s_kd, n_kd)
        v_left = left_dilation(s, s_kd)
        v_right = right_dilation(n_kd, s.source_hom)
        for dilation, expected in ((v_left, left), (v_right, right)):
            ops = dilation.kraus.ops
            assert ops.keys() == expected.keys()
            for key, want in expected.items():
                assert len(ops[key]) == len(want)
                assert all(np.array_equal(x, y) for x, y in zip(ops[key], want))


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
    n = extract_n(s)
    vr = right_dilation(sf.kraus_from_choi(n), s.source_hom)
    w = solve_w(vr, vr, 1e-8)
    assert w.residual < 1e-10 and w.isometry_defect < 1e-10
    for key, x in w.blocks.items():
        assert np.linalg.norm(x - np.eye(x.shape[0])) < 1e-10


def test_solve_w_recovers_planted_unitary():
    s = verified_supermap(seed=7)
    n = extract_n(s)
    vr = right_dilation(sf.kraus_from_choi(n), s.source_hom)
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
    kd = KrausDecomposition(vr.source, vr.target, mixed)
    vl = dilation_from_kraus(sf.CpMap.from_kraus(vr.source, vr.target, mixed), kd)
    w = solve_w(vr, vl, 1e-8)
    assert w.residual < 1e-9 and w.isometry_defect < 1e-9
    for key, uni in planted.items():
        assert np.linalg.norm(w.blocks[key] - uni) < 1e-9


def test_solve_w_padded_inclusion():
    s = verified_supermap(seed=9)
    n = extract_n(s)
    vr = right_dilation(sf.kraus_from_choi(n), s.source_hom)
    padded_ops = {
        key: tuple(list(ops) + [np.zeros_like(ops[0])]) if len(ops) else ops
        for key, ops in vr.kraus.ops.items()
    }
    kd = KrausDecomposition(vr.source, vr.target, padded_ops)
    vl = dilation_from_kraus(
        sf.CpMap.from_kraus(vr.source, vr.target, padded_ops), kd
    )
    w = solve_w(vr, vl, 1e-8)
    for key, ops in vr.kraus.ops.items():
        r = len(ops)
        if r:
            assert np.linalg.norm(w.blocks[key] - np.eye(r + 1, r)) < 1e-9


def test_solve_w_rejects_mismatched_dilations():
    s1 = verified_supermap(seed=11)
    s2 = verified_supermap(seed=12)
    n1 = extract_n(s1)
    n2 = extract_n(s2)
    vr = right_dilation(sf.kraus_from_choi(n1), s1.source_hom)
    vl = left_dilation(s2, sf.kraus_from_choi(s2.inner))
    # the least-squares solve fits (residual ~1e-15), but not by an isometry
    with pytest.raises(sf.IsometryDefectError):
        solve_w(vr, vl, 1e-8)
    del n2


def test_realize_memory_is_the_largest_kraus_rank_of_n():
    # P has dimension max r_ik over N's Kraus ranks, at least 1, within the
    # proven bound; E reaches only P's first r_ik basis vectors for (i, k)
    triv = MultiMatrixAlgebra.classical(2)
    m3 = MultiMatrixAlgebra.single(3, "r")
    cases = [
        verified_supermap(seed=23),
        gen.random_supermap_from_circuit(
            MultiMatrixAlgebra.classical(3), m3, MultiMatrixAlgebra.from_dims((1, 2), "c"),
            m3, p_dim=2, seed=5,
        ),
        sf.identity_supermap(triv, triv),
    ]
    below_p, p_dims = 0, []
    for s in cases:
        r = sf.realize(s)
        p_dims.append(r.p_dim)
        n_kd = sf.kraus_from_choi(extract_n(s))
        assert r.p_dim == max(max(n_kd.rank(i, k) for i, k in n_kd.ops), 1) <= r.p_bound
        for i, di in enumerate(r.a.dims):
            for k, dk in enumerate(r.c.dims):
                rank = n_kd.rank(i, k)
                below_p += 0 < rank < r.p_dim
                e6 = r.e_channel.choi(i, k).reshape(r.p_dim, di, dk, r.p_dim, di, dk)
                assert not e6[rank:].any() and not e6[:, :, :, rank:].any()
    assert below_p > 0, "some nonzero r_ik should fall short of p_dim"
    assert p_dims[-1] == 1  # the classical identity: every r_ik is 0 or 1


def _max_entry_distance(f, g):
    assert (f.source, f.target) == (g.source, g.target)
    return max(np.abs(x - y).max() for row, g_row in zip(f.choi_blocks, g.choi_blocks)
               for x, y in zip(row, g_row))


def test_realize_reproduces_the_v1_realisation_fixture():
    # E and the figures N alone decides are the fixture's bits.  The fixture's
    # G and W diagnostics came from the W path, which the oracle reproduces
    # bit for bit; realize reads them off Choi blocks and agrees within 1e-12.
    s = serialize.load_supermap(V1 / "supermap.json")
    want = serialize.load_realisation(V1 / "realisation.json")
    stored_e = serialize.cpmap_from_payload(
        json.loads((V1 / "realisation.json").read_text())["payload"]["e_channel"], "1")
    r = sf.realize(s)
    g, residual, defect = w_path(s)
    for got, ref in ((r.e_channel, stored_e), (g, want.g_channel)):
        assert (got.source, got.target) == (ref.source, ref.target)
        for row, ref_row in zip(got.choi_blocks, ref.choi_blocks):
            assert all(np.array_equal(x, y) for x, y in zip(row, ref_row))
    for field in ("p_dim", "p_bound", "gram_min_eig"):
        assert getattr(r, field) == getattr(want, field), field
    assert (residual, defect) == (want.w_residual, want.w_isometry_defect)
    assert _max_entry_distance(r.g_channel, want.g_channel) <= 1e-12
    assert abs(r.w_residual - residual) <= 1e-12
    assert abs(r.w_isometry_defect - defect) <= 1e-12


ORACLE_SHAPES = (
    ((2,), (2,), (2,), (2,)), ((3,), (3,), (3,), (3,)), ((4,), (4,), (4,), (4,)),
    ((1, 2), (2,), (2, 1), (1,)), ((2, 1), (1, 1), (1, 2), (2, 1)),
    ((1, 1, 1), (2,), (1, 2), (2,)), ((3, 1), (2,), (1, 3), (2, 1)),
)


@pytest.mark.parametrize("dims", ORACLE_SHAPES)
def test_realize_agrees_with_the_w_path_oracle(dims):
    algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
    for p_dim in (1, 2) if max(map(max, dims)) < 4 else (2,):
        for seed in range(2):
            s = gen.random_supermap_from_circuit(*algs, p_dim=p_dim, seed=seed)
            r = sf.realize(s)
            g, residual, defect = w_path(s)
            assert _max_entry_distance(r.g_channel, g) <= 1e-12
            assert abs(r.w_residual - residual) <= 1e-12
            assert abs(r.w_isometry_defect - defect) <= 1e-12


@pytest.mark.parametrize("dims", [((3,), (3,), (3,), (3,)), ((3, 1), (2,), (1, 3), (2, 1))])
def test_realize_eigendecomposes_no_block_larger_than_n_or_phi(dims, monkeypatch):
    # the cost floor: S's Choi blocks are factorised by verify's Cholesky
    # certificate, never by eigh
    algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=1)
    report = sf.verify_deterministic(s)
    largest = max(x.shape[0] for m in (report.n_map, report.phi)
                  for row in m.choi_blocks for x in row)
    assert largest < max(x.shape[0] for row in s.inner.choi_blocks for x in row)
    sizes = []
    eigh = np.linalg.eigh

    def recorded(m, *args, **kwargs):
        sizes.append(np.shape(m)[0])
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    sf.realize(s)
    assert sizes and max(sizes) <= largest


def test_realize_takes_no_svd(monkeypatch):
    # R = Id_B (x) X_ik+, with X_ik+ in closed form from N's orthogonal
    # Kraus rows: realize factorises nothing but N's blocks by eigh, and
    # Phi's by Cholesky
    shapes = [[MultiMatrixAlgebra.from_dims((3,), lbl) for lbl in "abcd"], small_shape()]
    supermaps = [gen.random_supermap_from_circuit(*algs, p_dim=2, seed=1) for algs in shapes]
    calls = []
    svd = np.linalg.svd

    def recorded(m, *args, **kwargs):
        calls.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for s in supermaps:
        sf.realize(s)
    assert calls == []


def _n_kraus_and_phi(s, tol=1e-8):
    """N's Kraus family as realize reads it, and the marginal map Phi."""
    report = sf.verify_deterministic(s, tol)
    assert report.verdict
    return sf.kraus_from_choi(report.n_map, tol=tol), report.phi


def _n_rows(ops):
    """X_ik: row beta is vec(N_beta†), ordered (A_i, C_k)."""
    r, dk, di = ops.shape
    return ops.conj().transpose(0, 2, 1).reshape(r, di * dk)


CLOSED_FORM_SHAPES = (
    ((2,),) * 4, ((3,),) * 4, ((4,),) * 4, ((5,),) * 4,
    ((2, 1), (2,), (1, 2), (2, 1)), ((1, 1, 1), (2,), (3,), (2,)),
    ((2, 2), (1,), (2,), (1,)), ((1, 2), (1, 1), (2, 1), (2,)),
    ((3,), (1,), (1, 1), (3,)), ((2, 1), (1, 2), (2, 2), (1, 1)),
)


def _closed_form_inputs():
    for n, dims in enumerate(CLOSED_FORM_SHAPES):
        algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
        p_dim = 1 if max(dims[0]) >= 4 else 2
        yield dims, gen.random_supermap_from_circuit(*algs, p_dim=p_dim, seed=10 + n)
    # verify accepts it, but N keeps eigenvalues near the 1e-9 push
    m2 = MultiMatrixAlgebra.single(2)
    yield "pushed identity", gen.perturb_supermap(
        sf.identity_supermap(m2, m2), 1e-9, "tp-breaking", seed=0)


def test_closed_form_pinv_agrees_with_the_svd_reference():
    # eigh's Kraus rows are orthogonal, so X+ = X† diag(1 / ||x_beta||^2) is
    # a right inverse of X, and the SVD pseudo-inverse agrees with it.  Both
    # are backward stable, so each is accurate to a few eps * kappa(X) in
    # relative terms; the pushed identity has kappa ~ 9e4, where the SVD
    # reference's own error reaches 2.5e-12 ||X+||
    bound = 100 * np.finfo(float).eps
    checked = 0
    for name, s in _closed_form_inputs():
        n_kd, phi = _n_kraus_and_phi(s)
        # gates at 10 * tol = 10 let the pushed identity's X+ through
        pinv = sf.solve_w(n_kd, phi, s.source_hom, tol=1.0).pinv
        assert pinv.keys() == n_kd.ops.keys()
        for key, ops in n_kd.ops.items():
            x, xp = _n_rows(ops), pinv[key]
            assert xp.shape == x.shape[::-1], (name, key)
            if not len(ops):
                continue
            xp_norm = np.linalg.norm(xp, 2)
            kappa = np.linalg.norm(x, 2) * xp_norm
            assert np.linalg.norm(x @ xp - np.eye(len(ops))) <= bound * kappa, (name, key)
            reference = _minimal_pinv(x, key)
            assert np.linalg.norm(xp - reference) <= bound * kappa * xp_norm, (name, key)
            checked += 1
    assert checked >= 20


def test_solve_w_refuses_a_kraus_family_mixed_by_a_non_unitary():
    # a family that is not eigh's, mixed by an invertible non-unitary matrix,
    # has rows that are not orthogonal: the closed form is no pseudo-inverse
    # of them, and one of solve_w's gates refuses what it gives
    rng = np.random.default_rng(3)
    for dims in CLOSED_FORM_SHAPES[:2] + CLOSED_FORM_SHAPES[4:6]:
        algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
        s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=4)
        n_kd, phi = _n_kraus_and_phi(s)
        mixed = {}
        for key, ops in n_kd.ops.items():
            r = len(ops)
            g = np.eye(r) + 0.5 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
            assert np.linalg.matrix_rank(g) == r
            mixed[key] = np.tensordot(g, ops, axes=1)
        with pytest.raises((sf.ResidualTooLargeError, sf.IsometryDefectError)):
            sf.solve_w(KrausDecomposition(n_kd.source, n_kd.target, mixed), phi, s.source_hom)


def _eigh_w_figures(n_kd, phi, source_hom):
    """W's residual and isometry defect from eigh's factor of each block of
    Phi's dual, eigenvalues above roundoff: the reference solve_w's
    Cholesky factor must agree with."""
    f_kd = _eigh_kraus(hs_dual(phi), rank_tol=0.0)
    res_sq = defect_sq = 0.0
    for (k, t), f_ops in f_kd.ops.items():
        j, i = source_hom.pairs[t]
        x = _n_rows(n_kd.ops[i, k])
        f = f_ops.reshape(-1, x.shape[1])
        w_f = f @ (x.conj().T / (x.real ** 2 + x.imag ** 2).sum(axis=1))
        res_sq += np.linalg.norm(w_f @ x - f) ** 2
        w_f = w_f.reshape(len(f_ops), source_hom.out_algebra.dims[j] * x.shape[0])
        defect_sq += np.linalg.norm(w_f.conj().T @ w_f - np.eye(w_f.shape[1])) ** 2
    return float(np.sqrt(res_sq)), float(np.sqrt(defect_sq))


def _solve_w_recording_fallbacks(s, monkeypatch):
    """solve_w on s, and the sizes of the Phi-dual blocks it left to eigh."""
    realize = sys.modules["supermap_forge.realize"]
    fallbacks = []

    def recorded(h, *args, _eigh_rows=realize._eigh_rows, **kwargs):
        fallbacks.append(len(h))
        return _eigh_rows(h, *args, **kwargs)

    monkeypatch.setattr(realize, "_eigh_rows", recorded)
    n_kd, phi = _n_kraus_and_phi(s)
    w = sf.solve_w(n_kd, phi, s.source_hom)
    return w, fallbacks, _eigh_w_figures(n_kd, phi, s.source_hom)


def _dual_block_ranks(s):
    """(size, rank) of each block of Phi's dual, rank as eigh's cut counts it."""
    dual = hs_dual(sf.verify_deterministic(s).phi)
    out = []
    for row in dual.choi_blocks:
        for m in row:
            w = np.linalg.eigvalsh((m + m.conj().T) / 2)
            out.append((len(m), int((w > len(m) * np.finfo(float).eps * max(w.max(), 0)).sum())))
    return out


def test_solve_w_leaves_singular_dual_blocks_to_eigh(monkeypatch):
    # Cholesky fails on each singular Phi-dual block of the identity
    # supermaps; the gallery's blocks are all nonsingular, and it factors them
    m3, m21 = MultiMatrixAlgebra.single(3, "q"), MultiMatrixAlgebra.from_dims((2, 1), "q")
    for name, s in [("identity M3", sf.identity_supermap(m3, m3)),
                    ("identity M2+M1", sf.identity_supermap(m21, m21)),
                    *((name, demo().supermap) for name, demo in gallery.DEMOS.items())]:
        w, fallbacks, (residual, defect) = _solve_w_recording_fallbacks(s, monkeypatch)
        singular = [n for n, rank in _dual_block_ranks(s) if rank < n]
        assert fallbacks == singular, name
        if name.startswith("identity"):
            assert singular, name
            assert (w.residual, w.isometry_defect) == (residual, defect), name
        else:
            assert not singular, name
            assert abs(w.residual - residual) <= 1e-12, name
            assert abs(w.isometry_defect - defect) <= 1e-12, name


def _rank_three_marginal_supermap(seed):
    """A deterministic supermap M2 -> M1 to M2 -> M2 whose only Phi-dual
    block, 4 x 4, has rank 3: E is an isometry C -> A (x) M3 traced over M3."""
    a, b, c, d = (MultiMatrixAlgebra.single(n, lbl) for n, lbl in zip((2, 1, 2, 2), "abcd"))
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    target = memory_target_algebra(a, 1)
    e = sf.CpMap.from_kraus(c, target, {(0, 0): list(v.reshape(2, 3, 2).transpose(1, 0, 2))})
    g = gen.random_channel(g_source_algebra(a, b, c, 1), d, seed=seed)
    return sf.circuit_supermap(as_channel(e, tol=1e-12), g, 1, a, b, c, d)


def test_solve_w_leaves_a_roundoff_cholesky_pivot_to_eigh(monkeypatch):
    # Cholesky can pass a block that is singular in exact arithmetic on a
    # last pivot of roundoff size.  Taken as F, L^T would carry a row of size
    # sqrt(eps); the pivot cut sends the block to eigh instead
    eps = np.finfo(float).eps
    passed = 0
    for seed in range(40):
        s = _rank_three_marginal_supermap(seed)
        assert _dual_block_ranks(s) == [(4, 3)]
        h = hs_dual(sf.verify_deterministic(s).phi).choi(0, 0)
        h = (h + h.conj().T) / 2
        try:
            l = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            continue
        passed += 1
        # a positive pivot at or below the cut, 2 (n + 2) eps tr(h)
        assert 0 < (np.diagonal(l).real ** 2).min() <= 12 * eps * np.trace(h).real
        w, fallbacks, (residual, defect) = _solve_w_recording_fallbacks(s, monkeypatch)
        assert fallbacks == [4]
        assert (w.residual, w.isometry_defect) == (residual, defect)
        assert residual < 1e-13
        n_kd, _ = _n_kraus_and_phi(s)
        x = _n_rows(n_kd.ops[0, 0])
        assert np.linalg.norm(l.T @ w.pinv[0, 0] @ x - l.T) > 1e3 * residual
    assert passed


def _benchmark_small_shapes():
    """The benchmark's 64 small-blocks shapes: 1-3 blocks of dims 1-2 per
    algebra and p_dim 1-2, drawn once from a fixed generator."""
    rng = np.random.default_rng(2024)
    for _ in range(64):
        dims = tuple(tuple(int(x) for x in rng.integers(1, 3, size=rng.integers(1, 4)))
                     for _ in range(4))
        yield dims, int(rng.integers(1, 3))


def test_cholesky_factor_leaves_realize_unchanged_but_for_w_figures(monkeypatch):
    # E, G, p_dim and gram_min_eig never see Phi's factor: they are bit for
    # bit those of the eigh factor, and W's figures agree within 1e-12
    realize = sys.modules["supermap_forge.realize"]
    shapes = [*_benchmark_small_shapes(), ((((3,),) * 4), 2), ((((4,),) * 4), 2),
              (((3, 1), (2,), (2, 2), (2, 1)), 2), (((2, 2), (1, 2), (3,), (1,)), 1)]
    for n, (dims, p_dim) in enumerate(shapes):
        algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
        s = gen.random_supermap_from_circuit(*algs, p_dim=p_dim, seed=n)
        r = sf.realize(s)
        with monkeypatch.context() as m:
            m.setattr(realize, "_cholesky_rows", lambda h: None)
            ref = sf.realize(_unverified(s))
        n_kd, phi = _n_kraus_and_phi(s)
        assert (ref.w_residual, ref.w_isometry_defect) == _eigh_w_figures(
            n_kd, phi, s.source_hom), dims
        assert (r.p_dim, r.p_bound, r.gram_min_eig) == (ref.p_dim, ref.p_bound, ref.gram_min_eig)
        assert all(np.array_equal(u, ref.e_kraus[key]) for key, u in r.e_kraus.items()), dims
        for row, ref_row in zip(r.g_channel.choi_blocks, ref.g_channel.choi_blocks):
            assert all(np.array_equal(g, h) for g, h in zip(row, ref_row)), dims
        assert abs(r.w_residual - ref.w_residual) <= 1e-12, dims
        assert abs(r.w_isometry_defect - ref.w_isometry_defect) <= 1e-12, dims


def test_assemble_e_is_tp_and_has_the_right_marginal():
    s = verified_supermap(seed=21)
    r = sf.realize(s)
    assert sf.is_tp(r.e_channel, 1e-9).ok
    # Tr_P (E(rho)) equals the conjugated dual of the induced map
    n_star = sf.hs_dual(extract_n(s))
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


def test_assemble_e_gates_trace_preservation_on_its_kraus_operators():
    # sum_i U_ik† U_ik = Id per k exactly when N is unital; realize checks
    # unitality first, so only a direct call reaches the gate
    s = verified_supermap(seed=21)
    n_kd = sf.kraus_from_choi(extract_n(s))
    p_dim = sf.realize(s).p_dim
    u = sf.assemble_e(n_kd, p_dim)
    for k, dk in enumerate(n_kd.target.dims):
        gram = sum(u[k, i].conj().T @ u[k, i] for i in range(len(n_kd.source)))
        assert np.linalg.norm(gram - np.eye(dk)) < 1e-12
    pushed = KrausDecomposition(n_kd.source, n_kd.target, {
        key: tuple((1 + 1e-6) * op for op in ops) for key, ops in n_kd.ops.items()})
    with pytest.raises(sf.NotTracePreservingError):
        sf.assemble_e(pushed, p_dim)


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
    n_dil = minimal_stinespring(extract_n(s))
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
    copy = copy_channel(r.c)
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


def _dense_evaluate_circuit(r, f):
    """The circuit's four stages with f (x) Id_P built as a dense Choi family."""
    p = r.p_dim
    na, nb, nc = len(r.a), len(r.b), len(r.c)
    copies = [(k, i) for k in range(nc) for i in range(na)]
    slots = [(k, i, j) for k, i in copies for j in range(nb)]
    m1 = MultiMatrixAlgebra(tuple(
        ((r.c.labels[k], r.a.labels[i]), p * r.a.dims[i]) for k, i in copies
    ))
    m2 = MultiMatrixAlgebra(tuple(
        ((r.c.labels[k], r.a.labels[i], r.b.labels[j]), p * r.b.dims[j])
        for k, i, j in slots
    ))

    def lift(source, target, block):
        rows = []
        for t, dt in enumerate(target.dims):
            row = []
            for s, ds in enumerate(source.dims):
                c = block(t, s)
                row.append(np.zeros((dt * ds,) * 2, dtype=complex) if c is None else c)
            rows.append(row)
        return sf.CpMap(source, target, rows)

    stage1 = copy_channel(r.c)
    stage2 = lift(stage1.target, m1, lambda t, k: (
        r.e_channel.choi(copies[t][1], k) if copies[t][0] == k else None
    ))
    f_p = tensor(sf.identity_cpmap(MultiMatrixAlgebra.single(p)), f)
    stage3 = lift(m1, m2, lambda t, s: (
        f_p.choi(slots[t][2], copies[s][1]) if slots[t][:2] == copies[s] else None
    ))
    stage4 = lift(m2, r.d, lambda l, t: r.g_channel.choi(
        l, (slots[t][1] * nb + slots[t][2]) * nc + slots[t][0]
    ))
    return compose(stage4, compose(stage3, compose(stage2, stage1)))


@pytest.mark.parametrize("shape", [
    ((("i0", 2), ("i1", 1), ("i2", 3)), (("j0", 3), ("j1", 1)),
     (("k0", 1), ("k1", 2)), (("l0", 2), ("l1", 1), ("l2", 3))),
    ((("i0", 3),), (("j0", 1), ("j1", 2), ("j2", 3)),
     (("k0", 2), ("k1", 1), ("k2", 1)), (("l0", 3),)),
])
def test_evaluate_circuit_matches_dense_oracle(shape):
    a, b, c, d = (MultiMatrixAlgebra(x) for x in shape)
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=47)
    r = sf.realize(s)
    for seed in range(2):
        f = gen.random_channel(a, b, seed=seed)
        fast = sf.evaluate_circuit(r, f)
        dense = _dense_evaluate_circuit(r, f)
        assert (fast.source, fast.target) == (dense.source, dense.target)
        dev = max(
            np.abs(fast.choi(l, k) - dense.choi(l, k)).max()
            for l in range(len(d)) for k in range(len(c))
        )
        assert dev <= 1e-13


def test_evaluate_circuit_memory_stays_small_at_q4():
    # realised p_dim 16: a dense f (x) Id_P Choi block alone would be 268 MB
    algs = [MultiMatrixAlgebra.single(4, lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=4)
    r = sf.realize(s)
    assert r.p_dim == 16
    f = gen.random_channel(r.a, r.b, seed=0)
    tracemalloc.start()
    try:
        sf.evaluate_circuit(r, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _g_scaled(r, factor):
    g = r.g_channel
    return dataclasses.replace(r, g_channel=sf.Channel(
        g.source, g.target, g.scaled(factor).choi_blocks, validate=False
    ))


@pytest.mark.parametrize("dims, p_dim", [
    (((3,), (3,), (3,), (3,)), 2),
    (((1, 3), (2, 1), (1, 1), (2,)), 3),
    (((1, 1), (2,), (1, 1), (2, 1)), 1),
])
def test_check_trials_match_the_dense_oracle(dims, p_dim):
    algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
    s = gen.random_supermap_from_circuit(*algs, p_dim=p_dim, seed=51)
    exact = sf.realize(s)
    assert (exact.p_dim == 1) == (p_dim == 1)
    # G scaled by 1 + 1e-6 puts the deviations far above roundoff
    for r in (exact, _g_scaled(exact, 1 + 1e-6)):
        chk = sf.check_realisation(r, s, trials=3, tol=1e-6, seed=5)
        oracle = max(
            (sf.choi_element(_dense_evaluate_circuit(r, f), s.target_hom)
             - sf.apply_to_choi(s, sf.choi_element(f, s.source_hom))).norm()
            for f in (gen.random_channel(r.a, r.b, seed=5 + t) for t in range(3))
        )
        assert abs(chk.trial_deviation - oracle) <= 1e-13


class _CountedReads(dict):
    """A Kraus family that counts each read of an operator into ``reads``."""

    def __init__(self, ops, reads):
        super().__init__(ops)
        self.reads = reads

    def __getitem__(self, key):
        self.reads["U", *key] += 1
        return super().__getitem__(key)


def test_check_realigns_e_and_g_once_for_all_trials(monkeypatch):
    algs = [MultiMatrixAlgebra.single(3, lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=3)
    reads = collections.Counter()
    r = sf.realize(s)
    # set on the built value: its constructor copies the mapping it is given
    object.__setattr__(r, "e_kraus", MappingProxyType(_CountedReads(r.e_kraus, reads)))
    choi = sf.CpMap.choi

    def counted(m, j, i):
        if m is r.g_channel:
            reads["G", j, i] += 1
        return choi(m, j, i)

    monkeypatch.setattr(sf.CpMap, "choi", counted)
    blocks = len(r.e_kraus) + len(r.g_channel.source) * len(r.g_channel.target)
    for trials in (0, 1, 10):
        reads.clear()
        assert sf.check_realisation(r, s, trials=trials, tol=1e-6).passed
        # one read of every U_ik and every G block per check
        assert len(reads) == blocks and set(reads.values()) == {1}, (trials, reads)


def test_check_forms_one_half_product_per_block_triple(monkeypatch):
    # the trials start from the certificate's h = G . conj(U_ik) over P, so
    # each block triple's h is formed once per check, whatever the trials
    algs = [MultiMatrixAlgebra.from_dims(x, lbl)
            for x, lbl in zip(((1, 2), (2, 1), (2, 1), (1, 2)), "abcd")]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=3)
    r = sf.realize(s)
    realize = sys.modules["supermap_forge.realize"]
    halves, realigned = collections.Counter(), collections.Counter()

    def counted(calls, fn):
        def wrapper(block, *args):
            calls[id(block)] += 1
            return fn(block, *args)
        return wrapper

    monkeypatch.setattr(realize, "_half_link", counted(halves, realize._half_link))
    monkeypatch.setattr(realize, "_for_trials", counted(realigned, realize._for_trials))
    triples = len(r.a) * len(r.b) * len(r.c) * len(r.d)
    for trials in (0, 1, 10):
        halves.clear()
        realigned.clear()
        assert sf.check_realisation(r, s, trials=trials, tol=1e-6).passed
        assert len(halves) == triples and set(halves.values()) == {1}, (trials, halves)
        assert sum(realigned.values()) == (triples if trials else 0), (trials, realigned)


def test_a_realisation_copies_the_mapping_it_is_given():
    # E must not change under a realisation when its caller's dict does
    algs = [MultiMatrixAlgebra.single(2, lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=3)
    r = sf.realize(s)
    d = dict(r.e_kraus)
    r2 = dataclasses.replace(r, e_kraus=d)
    d[0, 0] = np.zeros_like(d[0, 0])
    assert np.array_equal(r2.e_kraus[0, 0], r.e_kraus[0, 0])
    assert sf.check_realisation(r2, s).passed


def test_a_realisation_copies_the_arrays_it_is_given():
    # nor when its caller writes to a U_ik it passed in: the realisation
    # holds read-only copies, so E and its cached Choi family stay in step
    m2 = MultiMatrixAlgebra.single(2)
    s = gen.random_supermap_from_circuit(m2, m2, m2, m2, p_dim=1, seed=0)
    r = sf.realize(s)
    given = {key: u.copy() for key, u in r.e_kraus.items()}
    r2 = dataclasses.replace(r, e_kraus=given)
    e_channel = r2.e_channel
    u = given[0, 0]
    u.flags.writeable = True
    u *= 0
    for key, kept in r2.e_kraus.items():
        assert np.array_equal(kept, r.e_kraus[key]) and not kept.flags.writeable
    assert r2.e_channel is e_channel and e_channel.choi_distance(r.e_channel) == 0.0
    assert sf.check_realisation(r2, s).passed


FAST_PATH_SHAPES = (
    (((2,), (2,), (2,), (2,)), 2), (((3,), (3,), (3,), (3,)), 2),
    (((4,), (4,), (4,), (4,)), 2),
    (((1, 2), (2,), (2, 1), (1,)), 2), (((2, 1), (1, 1), (1, 2), (2, 1)), 2),
    (((1, 1, 1), (2,), (1, 2), (2,)), 1), (((3, 1), (2,), (1, 3), (2, 1)), 2),
    (((2, 2), (2, 2), (2, 2), (2, 2)), 1), (((1, 3), (2, 1), (1, 1), (2,)), 2),
    (((2, 1, 2), (1, 2), (2,), (1, 1)), 2), (((3,), (1, 2, 1), (2, 1, 1), (3,)), 1),
    (((1, 2), (3,), (2, 2), (1, 3)), 2), (((2, 3), (1,), (3, 1), (2, 2)), 1),
)


@pytest.mark.parametrize("dims, p_dim", FAST_PATH_SHAPES)
def test_check_contracts_through_u_and_agrees_with_the_choi_form_oracle(dims, p_dim,
                                                                        monkeypatch):
    # check never builds E's Choi family; its deviations are those of the
    # circuit's Choi form, contracted from E's Choi blocks
    algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
    s = gen.random_supermap_from_circuit(*algs, p_dim=p_dim, seed=17)
    exact = sf.realize(s)

    def refuse(*args, **kwargs):
        raise AssertionError("check built a Choi form of E")

    # G scaled by 1 + 1e-6 puts the deviations far above roundoff
    for r in (exact, _g_scaled(exact, 1 + 1e-6)):
        with monkeypatch.context() as patched:
            patched.setattr(sf.CpMap, "from_kraus", refuse)
            patched.setattr(sys.modules["supermap_forge.realize"], "_circuit_choi", refuse)
            chk = sf.check_realisation(r, s, trials=2, tol=1e-6, seed=3)
        circuit = sf.circuit_supermap(r.e_channel, r.g_channel, r.p_dim, r.a, r.b, r.c, r.d)
        spanning = max(
            np.sqrt(sum((np.abs(circuit.inner.choi4(t_cd, t_ab) - s.inner.choi4(t_cd, t_ab)) ** 2)
                        .sum(axis=(0, 2)) for t_cd in range(len(s.target_hom.base))).max())
            for t_ab in range(len(s.source_hom.base)))
        trial = max(
            (sf.apply_to_choi(circuit, x) - sf.apply_to_choi(s, x)).norm()
            for x in (sf.choi_element(gen.random_channel(r.a, r.b, seed=3 + t), s.source_hom)
                      for t in range(2)))
        assert abs(chk.spanning_deviation - spanning) <= 1e-14
        assert abs(chk.trial_deviation - trial) <= 1e-14


def test_check_realisation_memory_stays_small_at_q4():
    algs = [MultiMatrixAlgebra.single(4, lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=4)
    r = sf.realize(s)
    assert r.p_dim == 16
    tracemalloc.start()
    try:
        assert sf.check_realisation(r, s, trials=10, tol=1e-6).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_check_trials_measure_deviation_not_channel_validity():
    # G scaled by 1 + 3e-7: its TP residual (4.2e-7) fails evaluate_circuit's
    # validation at its default VERIFY_TOL, but the trials still report a
    # deviation (~3.1e-7)
    m2 = [MultiMatrixAlgebra.from_dims([2], lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*m2, p_dim=2, seed=3)
    r = _g_scaled(sf.realize(s), 1 + 3e-7)
    f = gen.random_channel(r.a, r.b, seed=0)
    with pytest.raises(sf.NotTracePreservingError):
        sf.evaluate_circuit(r, f)
    for trials in (0, 1, 10):
        chk = sf.check_realisation(r, s, trials=trials, tol=1e-6)
        assert chk.passed, chk.summary()
        assert not sf.check_realisation(r, s, trials=trials, tol=1e-8).passed
    assert 1e-7 < chk.trial_deviation < 1e-6


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
        for _, _, _, unit in matrix_units(s2.source_hom.base)
    )
    assert abs(chk.spanning_deviation - per_unit) <= 1e-12 * per_unit


# every function of realize that contracts G, E or a plugged channel
CONTRACTIONS = ("_circuit_choi", "_half_link", "_link", "_run_circuit")


def test_check_realisation_refuses_mismatched_algebras_before_contracting(monkeypatch):
    r = sf.realize(verified_supermap(seed=43))
    m2 = [MultiMatrixAlgebra.single(2, lbl) for lbl in "abcd"]
    other = gen.random_supermap_from_circuit(*m2, p_dim=1, seed=1)

    def no_contraction(*args, **kwargs):
        raise AssertionError("the link product ran before the algebras were compared")

    for name in CONTRACTIONS:
        monkeypatch.setattr(sys.modules["supermap_forge.realize"], name, no_contraction)
    with pytest.raises(sf.AlgebraMismatchError):
        sf.check_realisation(r, other, trials=1)


def test_check_realisation_refuses_a_bad_tolerance_before_contracting(monkeypatch):
    # an infinite tol used to print PASS on a realisation of another supermap,
    # and nan read as an ordinary FAIL
    m2 = [MultiMatrixAlgebra.single(2, lbl) for lbl in "abcd"]
    s1, s2 = (gen.random_supermap_from_circuit(*m2, p_dim=1, seed=seed) for seed in (1, 2))
    r = sf.realize(s2)
    assert not sf.check_realisation(r, s1, trials=2).passed

    def no_contraction(*args, **kwargs):
        raise AssertionError("the link product ran before the tolerance was checked")

    for name in CONTRACTIONS:
        monkeypatch.setattr(sys.modules["supermap_forge.realize"], name, no_contraction)
    for tol in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(sf.ShapeMismatchError, match="tolerance must be positive and finite"):
            sf.check_realisation(r, s1, trials=2, tol=tol)


def test_check_realisation_refuses_bad_trials_or_seed_before_contracting(monkeypatch):
    # seed=None and trials=1.5 used to raise TypeError, seed=2.5 a numpy
    # error, and trials=True to pass as "True trial(s)"
    m2 = [MultiMatrixAlgebra.single(2, lbl) for lbl in "abcd"]
    s = gen.random_supermap_from_circuit(*m2, p_dim=1, seed=1)
    r = sf.realize(s)
    assert sf.check_realisation(r, s, trials=np.int64(2), seed=np.int64(3)).passed

    def no_contraction(*args, **kwargs):
        raise AssertionError("the link product ran before trials and seed were checked")

    for name in CONTRACTIONS:
        monkeypatch.setattr(sys.modules["supermap_forge.realize"], name, no_contraction)
    for bad in (-1, 1.5, 2.0, True, False, None, "1"):
        with pytest.raises(ValueError, match="trials must be an integer >= 0"):
            sf.check_realisation(r, s, trials=bad)
    for bad in (-1, 2.5, True, None, "0"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            sf.check_realisation(r, s, trials=1, seed=bad)


def test_check_realisation_fails_on_non_cp_circuit():
    s = verified_supermap(seed=45)
    r = sf.realize(s)
    # circuit_supermap builds a non-CP circuit's supermap; verify refuses it
    negated = sf.circuit_supermap(r.e_channel.scaled(-1.0), r.g_channel, r.p_dim,
                                  r.a, r.b, r.c, r.d)
    report = sf.verify_deterministic(negated)
    assert not report.cp_ok and report.s_witness.block == (0, 0)
    assert report.s_witness.min_eigenvalue < -0.1
    with pytest.raises(sf.NotCompletelyPositiveError):
        sf.realize(negated)
    # an E held as Kraus operators is CP by construction: break it through U
    broken = dataclasses.replace(r, e_kraus={key: 2 * u for key, u in r.e_kraus.items()})
    chk = sf.check_realisation(broken, s, trials=0, tol=1e-6)
    assert not chk.passed and chk.spanning_deviation > 1e-3
    # the trials report the deviation too, not the channel check's error
    chk = sf.check_realisation(broken, s, trials=1, tol=1e-6)
    assert not chk.passed and chk.trial_deviation > 1e-3


def test_realize_keeps_small_supermap_eigenvalues():
    # M5 algebras, p_dim 1: S's Choi has a true eigenvalue of ~3.6e-11, below
    # a 1e-10 relative Kraus cutoff.  A W solved against a Kraus family of S
    # that drops it has an isometry defect of ~1e-6 after division by N's
    # smallest Gram eigenvalue (~1.7e-5); realize pulls S's whole Choi
    # block back through R and drops nothing of it.
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


def test_g_is_psd_as_far_as_s_is():
    # G's blocks on N's environment are S's blocks pulled back through R, and
    # ||R||^2 is at most 1 / gram_min_eig: an S block that verify accepts
    # eps below zero leaves G at most eps / gram_min_eig below zero
    m2 = MultiMatrixAlgebra.single(2, "q")
    for eps in (2e-9, 9e-9):
        s = gen.perturb_supermap(sf.identity_supermap(m2, m2), eps, "cp-breaking")
        r = sf.realize(s)
        g_min = min(np.linalg.eigvalsh(x).min() for row in r.g_channel.choi_blocks for x in row)
        assert g_min >= -eps / r.gram_min_eig


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
    inner = choi_from_action(
        lambda x: BlockOperator(hom_cd.base, [np.kron(np.diag([0.7, 0.3]), x.block(0))]),
        hom_ab.base, hom_cd.base,
    )
    u = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    for eps in (4e-9, 6e-9):
        pushed = inner.choi(0, 0) - eps * np.kron(np.eye(2), np.outer(u, u))
        yield f"doubled push {eps}", sf.Supermap(
            sf.CpMap(inner.source, inner.target, [[pushed]]), hom_ab, hom_cd
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


SWEEP_SHAPES = (
    ((1,), (2,), (2,), (1,)), ((2,), (2,), (2,), (2,)), ((3,), (2,), (2,), (3,)),
    ((1, 1), (2,), (2,), (1, 2)), ((2, 1), (2,), (1, 2), (2, 1)),
    ((1, 1, 1), (2,), (3,), (2,)), ((2,), (1, 1), (2,), (2,)), ((1, 2), (1,), (2, 1), (1,)),
    ((3,), (1,), (1,), (3,)), ((2,), (3,), (1,), (2,)), ((1, 1), (1, 1), (1, 1), (1, 1)),
    ((2, 2), (1,), (2,), (1,)), ((1,), (1,), (3,), (2, 1)), ((2,), (1, 2), (1, 1), (2,)),
)


def test_is_cp_and_kraus_from_choi_share_one_psd_verdict():
    # pushes of exactly tol put a Choi block's smallest eigenvalue at -tol,
    # where two eigensolvers' roundoff once gave opposite verdicts
    tol = 1e-8
    for n, dims in enumerate(SWEEP_SHAPES):
        algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
        for seed in range(3):
            s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=100 * n + seed)
            bad = gen.perturb_supermap(s, tol, "cp-breaking")
            try:
                sf.kraus_from_choi(bad.inner, rank_tol=0.0, tol=tol)
                kraus_ok = True
            except sf.NotCompletelyPositiveError:
                kraus_ok = False
            assert bool(sf.is_cp(bad.inner, tol)) == kraus_ok, (dims, seed)


def test_realize_rejects_kernel_containment_exactly_when_verify_does():
    # realize gates on verify's kernel_residual: among inputs whose S and N
    # pass the PSD rule, it raises ResidualTooLargeError iff that residual
    # exceeds tol.  Pushes of exactly tol are left out: there the PSD rule's
    # verdict rests on roundoff in the eigensolver.
    tol = 1e-8
    for n, dims in enumerate(SWEEP_SHAPES):
        algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
        s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=100 * n)
        for eps in (1e-9, 5e-9, 2e-8, 1e-7, 1e-6):
            for mode in ("tp-breaking", "cp-breaking"):
                bad = gen.perturb_supermap(s, eps, mode, seed=0)
                rep = sf.verify_deterministic(bad, tol)
                expected = rep.cp_ok and rep.n_cp_ok and rep.kernel_residual > tol
                try:
                    sf.realize(bad, tol)
                    raised = False
                except sf.SupermapForgeError as exc:
                    raised = isinstance(exc, sf.ResidualTooLargeError)
                assert raised == expected, (dims, eps, mode, rep.summary())


def _unverified(s):
    """A new supermap on s's Choi blocks: no report is kept for it yet."""
    return sf.Supermap(s.inner, s.source_hom, s.target_hom)


def _matrices(x):
    """How many matrices a counted call works on: a stack's length, a
    list's length, else one (a single matrix, or a whole map)."""
    if isinstance(x, np.ndarray) and x.ndim > 2:
        return int(np.prod(x.shape[:-2]))
    return len(x) if isinstance(x, list) else 1


def _count_calls(monkeypatch, names):
    """Count the matrices that calls of (owner, name) pairs work on (see
    _matrices), keyed by name; the PSD certificate's two entry points,
    _psd_block for a lone block and _psd_stack for a stack of equal-size
    ones, are counted together as "psd"."""
    calls = collections.Counter()
    for owner, name in names:
        inner = getattr(owner, name)
        key = "psd" if name in ("_psd_block", "_psd_stack") else name

        def counted(*args, _inner=inner, _key=key, **kwargs):
            calls[_key] += _matrices(args[0]) if args else 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


PSD = [(algebra, "_psd_block"), (algebra, "_psd_stack")]


def test_realize_decomposes_each_choi_block_once(monkeypatch):
    s = _unverified(verified_supermap(seed=13))
    realize = sys.modules["supermap_forge.realize"]
    calls = _count_calls(monkeypatch, [
        (realize, "_eigh_kraus"), (realize, "_cholesky_rows"), (realize, "_eigh_rows"),
        (np.linalg, "eigh"), (np.linalg, "cholesky"), *PSD,
        (sf.CpMap, "from_kraus"), (sf.CpMap, "choi_distance"),
    ])
    sf.realize(s)
    a, b, c = s.source_hom.in_algebra, s.source_hom.out_algebra, s.target_hom.in_algebra
    gate = len(s.inner.source) * len(s.inner.target) + len(a) * len(c)
    dual = len(c) * len(a) * len(b)
    # N's eigh is the only eigendecomposition, one matrix per block of N;
    # Phi's dual blocks take one Cholesky each, with no eigh fallback, and
    # the gate's certificate judges each block of S and N once, by one
    # Cholesky, alone or in its stack.  E is assembled as its Kraus
    # operators: no Choi family of E is built
    assert calls == {"_eigh_kraus": 1, "eigh": len(a) * len(c), "_cholesky_rows": dual,
                     "cholesky": gate + dual, "psd": gate}


def test_realize_after_a_verify_at_its_tol_runs_no_gate_pass(monkeypatch):
    s = verified_supermap(seed=13)
    fresh = sf.realize(_unverified(s))
    supermap = sys.modules["supermap_forge.supermap"]
    calls = _count_calls(monkeypatch, [
        *PSD, (supermap, "_n_and_phi"), (supermap, "kernel_residual"),
    ])
    r = sf.realize(s)
    assert calls == {}
    # the outputs are those of a realize with no prior verify, bit for bit
    for key, u in fresh.e_kraus.items():
        assert np.array_equal(r.e_kraus[key], u), key
    for row, fresh_row in zip(r.g_channel.choi_blocks, fresh.g_channel.choi_blocks):
        assert all(np.array_equal(g, h) for g, h in zip(row, fresh_row))
    fields = ("p_dim", "p_bound", "gram_min_eig", "w_residual", "w_isometry_defect")
    assert [getattr(r, f) for f in fields] == [getattr(fresh, f) for f in fields]
    # at another tol the whole gate runs, and its report is the one kept
    sf.realize(s, 1e-7)
    a, c = s.source_hom.in_algebra, s.target_hom.in_algebra
    s_blocks = len(s.inner.source) * len(s.inner.target)
    gate = {"psd": s_blocks + len(a) * len(c), "_n_and_phi": 1, "kernel_residual": 1}
    assert calls == gate
    assert sf.verify_deterministic(s, 1e-7).tol == 1e-7 and calls == gate


def test_realize_rejects_before_any_eigendecomposition(monkeypatch):
    a, b, c, d = small_shape()
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1, seed=0)
    bad = gen.perturb_supermap(s, 1e-3, "tp-breaking", seed=1)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran before the gate passed")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(sf.ResidualTooLargeError) as info:
        sf.realize(bad)
    report = info.value.report
    assert not report.verdict and report.kernel_residual > report.tol


def test_realize_names_the_failing_psd_block_without_a_second_pass(monkeypatch):
    s = gen.perturb_supermap(verified_supermap(seed=5), 1e-3, "cp-breaking")
    calls = _count_calls(monkeypatch, PSD)
    report = sf.verify_deterministic(s)
    verify_calls = calls["psd"]
    calls.clear()
    with pytest.raises(sf.NotCompletelyPositiveError) as info:
        sf.realize(_unverified(s))
    assert calls["psd"] == verify_calls  # no second PSD pass
    assert info.value.report.s_witness == report.s_witness
    calls.clear()
    with pytest.raises(sf.NotCompletelyPositiveError) as again:
        sf.realize(s)
    assert calls["psd"] == 0 and again.value.report is report
    witness = next(w for w in (report.n_witness, report.s_witness) if not w)
    assert witness.reason.startswith("min eigenvalue")
    assert str(info.value) == f"Choi block {witness.block!r} not PSD ({witness.reason})"


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
        compose(s2.inner, s1.inner), s1.source_hom, s2.target_hom
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
        choi_from_action(action, hom_ab.base, hom_cd.base), hom_ab, hom_cd
    )
    assert sf.verify_deterministic(s).verdict
    r = sf.realize(s)
    assert sf.check_realisation(r, s, trials=2, tol=1e-6, seed=3).passed
