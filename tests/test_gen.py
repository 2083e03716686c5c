"""Tests for the seeded generators and brute-force oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import supermap_forge as sf
from supermap_forge import algebra, gen, serialize
from supermap_forge.algebra import DEFAULT_TOL, MultiMatrixAlgebra
from supermap_forge.cpmaps import Channel
from supermap_forge.realize import g_source_algebra, memory_target_algebra


def test_random_state_trivial_block():
    triv = MultiMatrixAlgebra.single(1, "t")
    rho = gen.random_state(triv, seed=0)
    assert abs(rho.operator.block(0)[0, 0] - 1.0) < 1e-14


def test_random_state_invariants_and_determinism():
    a = MultiMatrixAlgebra((("x", 2), ("y", 3)))
    r1 = gen.random_state(a, seed=123)
    r2 = gen.random_state(a, seed=123)
    for i in range(len(a)):
        assert np.array_equal(r1.operator.block(i), r2.operator.block(i))
    r3 = gen.random_state(a, seed=124)
    assert (r1.operator - r3.operator).norm() > 1e-3


def test_random_channel_trivial_algebras():
    triv = MultiMatrixAlgebra.single(1, "t")
    ch = gen.random_channel(triv, triv, seed=0)
    assert np.allclose(ch.choi(0, 0), [[1.0]])


def test_random_classical_channel_is_stochastic():
    c2 = MultiMatrixAlgebra.classical(2)
    ch = gen.random_channel(c2, c2, seed=5)
    p = np.array([[ch.choi(j, i)[0, 0].real for i in range(2)] for j in range(2)])
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=0), [1.0, 1.0])


def test_generator_soundness_hundred_seeds():
    a = MultiMatrixAlgebra((("x", 3), ("y", 2), ("z", 1)))
    b = MultiMatrixAlgebra((("u", 2), ("v", 3)))
    for seed in range(100):
        ch = gen.random_channel(a, b, seed=seed)
        assert sf.is_tp(ch, 1e-10).ok
        assert sf.is_cp(ch, 1e-10)


def test_random_supermap_verifies():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    c = MultiMatrixAlgebra.classical(2)
    d = MultiMatrixAlgebra.single(2, "l")
    for seed in range(10):
        s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1 + seed % 2, seed=seed)
        assert sf.verify_deterministic(s).verdict
    for draw in (gen.random_supermap_from_circuit, gen.random_circuit_pieces):
        with pytest.raises(sf.ShapeMismatchError):
            draw(a, b, c, d, p_dim=0, seed=0)


def test_identity_circuit_pieces_give_identity_supermap():
    # with p = 1, C = A and D = B, identity-relabelling E and G produce the
    # identity supermap
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra((("j0", 2), ("j1", 1)))
    e_tgt = memory_target_algebra(a, 1)
    e = Channel(a, e_tgt, sf.identity_cpmap(a).choi_blocks)
    g_src = g_source_algebra(a, b, a, 1)
    nb, nc = len(b), len(a)
    ident_b = sf.identity_cpmap(b)
    blocks = []
    for l in range(nb):
        row = []
        for i in range(len(a)):
            for j in range(nb):
                for k in range(nc):
                    dl, dsrc = b.dims[l], g_src.dims[(i * nb + j) * nc + k]
                    if j == l:
                        row.append(ident_b.choi(l, l))
                    else:
                        row.append(np.zeros((dl * dsrc,) * 2, dtype=complex))
        blocks.append(row)
    g = Channel(g_src, b, blocks)
    s = sf.circuit_supermap(e, g, 1, a, b, a, b)
    assert s.inner.choi_distance(sf.identity_supermap(a, b).inner) < 1e-12


def test_random_supermap_from_circuit_runs_no_psd_certificate(monkeypatch):
    # whether a supermap is CP is verify's to decide, not the generator's
    # at either of its entry points, one block alone or a stack of them
    calls = []
    for name in ("_psd_block", "_psd_stack"):
        inner = getattr(algebra, name)
        monkeypatch.setattr(algebra, name,
                            lambda *args, _inner=inner: calls.append(args) or _inner(*args))
    a, b = MultiMatrixAlgebra.from_dims((2, 1), "a"), MultiMatrixAlgebra.single(2, "b")
    s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=5)
    assert calls == []
    assert sf.verify_deterministic(s).verdict and calls


def test_tp_affine_basis_scalars():
    triv = MultiMatrixAlgebra.single(1, "t")
    basis = gen.tp_affine_basis(triv, triv)
    assert len(basis.directions) == 0
    assert abs(basis.base_point.block(0)[0, 0] - 1.0) < 1e-14


def test_tp_affine_basis_elements_are_valid():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra((("j0", 2),))
    basis = gen.tp_affine_basis(a, b)
    expected = sum((dj * di) ** 2 for dj in b.dims for di in a.dims) - sum(
        d * d for d in a.dims
    )
    assert len(basis.directions) == expected
    for e in basis.elements():
        assert sf.is_positive(e, 1e-12)
        assert sf.tp_residual(e, basis.hom) < 1e-12


def test_brute_force_oracle_accepts_and_rejects():
    a = MultiMatrixAlgebra.single(2, "H")
    b = MultiMatrixAlgebra.single(2, "K")
    basis = gen.tp_affine_basis(a, b)
    s_id = sf.identity_supermap(a, b)
    assert gen.brute_force_tp_preservation(s_id, basis)
    scaled = sf.Supermap(s_id.inner.scaled(1.5), s_id.source_hom, s_id.target_hom)
    assert not gen.brute_force_tp_preservation(scaled, basis)
    for seed in range(10):
        s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=seed)
        assert gen.brute_force_tp_preservation(s, basis)


def test_perturb_zero_epsilon_is_identity():
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=1, seed=1)
    same = gen.perturb_supermap(s, 0.0, "tp-breaking", seed=2)
    assert same.inner.choi_distance(s.inner) == 0.0


def test_perturb_tp_breaking_detected():
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=1, seed=3)
    bad = gen.perturb_supermap(s, 1e-2, "tp-breaking", seed=4)
    report = sf.verify_deterministic(bad)
    assert not report.verdict
    assert abs(report.n_unital_residual - 1e-2) < 1e-10


def test_perturb_cp_breaking_detected():
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=1, seed=5)
    bad = gen.perturb_supermap(s, 1e-2, "cp-breaking", seed=6)
    witness = sf.is_cp(bad.inner, 1e-9)
    assert not witness
    assert abs(witness.min_eigenvalue + 1e-2) < 1e-9


def test_perturb_rejects_bad_arguments():
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=1, seed=7)
    with pytest.raises(sf.ShapeMismatchError):
        gen.perturb_supermap(s, -1.0, "tp-breaking")
    with pytest.raises(sf.ShapeMismatchError):
        gen.perturb_supermap(s, 0.1, "bogus")


def test_verifier_oracle_agreement_sample():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    basis = gen.tp_affine_basis(a, b)
    for seed in range(10):
        s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=1, seed=seed)
        assert sf.verify_deterministic(s).verdict == gen.brute_force_tp_preservation(
            s, basis
        )
        bad = gen.perturb_supermap(s, 1e-3 * (1 + seed), "tp-breaking", seed=seed)
        assert sf.verify_deterministic(bad).verdict == gen.brute_force_tp_preservation(
            bad, basis
        )


def test_seeded_supermap_documents_are_bit_identical(tmp_path):
    # SHA-256 of the documents written by the release before the Cholesky
    # PSD certificate: gen's CP gate may change how it decides, not what
    # gen draws
    a = MultiMatrixAlgebra((("i0", 2),))
    b = MultiMatrixAlgebra.classical(2)
    q3 = [MultiMatrixAlgebra.single(3, lbl) for lbl in "abcd"]
    pinned = [
        (gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=77),
         "b8cdebd1b2889775daab814717a67031bbafe80b99b2fee1e1b88745033f5b23"),
        (gen.random_supermap_from_circuit(*q3, p_dim=2, seed=3),
         "dfb4c17b3ffde3143e4a0562b06c1218ed6f6dd03b8d9b3a96c6f0fd8df41649"),
    ]
    path = tmp_path / "s.json"
    for s, digest in pinned:
        serialize.save_document(path, serialize.supermap_document(s))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_singular_marginal_raise_path():
    # marginals of Gram-random Choi blocks are almost surely invertible, so
    # the retry loop succeeds on the first draw; the error path is reachable
    # only through the attempt budget
    a = MultiMatrixAlgebra.single(2, "H")
    with pytest.raises(sf.SingularMarginalError):
        gen.random_channel(a, a, seed=0, max_attempts=0)


def test_random_channel_refines_an_ill_conditioned_marginal():
    # one source block's marginal has condition number ~2e6; a single
    # R^{-1/2} pass left a TP residual of 2.53e-10, past the 1e-10 check
    a = MultiMatrixAlgebra.from_dims((1, 2), "a")
    b = MultiMatrixAlgebra.from_dims((2, 1), "b")
    c = MultiMatrixAlgebra.from_dims((1, 1), "c")
    d = MultiMatrixAlgebra.from_dims((1,), "d")
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=4168864924)
    assert sf.verify_deterministic(s).verdict
    r = sf.realize(s)
    assert sf.check_realisation(r, s, trials=1).passed


def _assert_same_draw(ch, ref):
    assert type(ch) is type(ref) is Channel
    assert (ch.source, ch.target) == (ref.source, ref.target)
    for row, ref_row in zip(ch.choi_blocks, ref.choi_blocks):
        for m, ref_m in zip(row, ref_row):
            assert m.tobytes() == ref_m.tobytes()


def _count_calls(monkeypatch, module, name):
    calls = []
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or f(*args))
    return calls


_DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def _generator(kind, seed):
    """The seed as random_channel takes it: the integer itself, or a
    Generator on numpy's default bit generator or on Philox."""
    if kind == "pcg":
        return np.random.default_rng(seed)
    if kind == "philox":
        return np.random.Generator(np.random.Philox(seed))
    return seed


def _state(rng):
    """A generator's bit_generator.state with its arrays (Philox's) as lists,
    so that two states compare with ==."""
    return {k: _state_value(v) for k, v in rng.bit_generator.state.items()}


def _state_value(v):
    if isinstance(v, dict):
        return {k: _state_value(x) for k, x in v.items()}
    return v.tolist() if isinstance(v, np.ndarray) else v


@settings(derandomize=True, deadline=None, max_examples=100)
@given(source=st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple), target=_DIMS,
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["int", "pcg", "philox"]))
def test_random_channel_draws_what_the_reference_sampler_draws(source, target, seed, kind):
    # the sampler's bits and the generator's state afterwards are its
    # contract: gen's supermaps and check's trials are drawn through it.
    # Up to 6 source blocks, so that stacks of equal-size blocks form
    a = MultiMatrixAlgebra.from_dims(source, "a")
    b = MultiMatrixAlgebra.from_dims(target, "b")
    seeds = [_generator(kind, seed) for _ in range(2)]
    ch = gen.random_channel(a, b, seed=seeds[0])
    _assert_same_draw(ch, oracles.random_channel(a, b, seed=seeds[1]))
    if kind != "int":
        assert _state(seeds[0]) == _state(seeds[1])
    assert sf.is_cp(ch, DEFAULT_TOL)
    assert sf.is_tp(ch, gen.DRAW_TP_TOL)


def _renormalised_columns(monkeypatch, module):
    """How many source columns module's _tp_renormalise conjugates: gen's
    takes a stack of them, the reference's one."""
    counts = []
    f = module._tp_renormalise

    def counted(col, dims, marginal):
        counts.append(len(col[0]) if module is gen else 1)
        return f(col, dims, marginal)

    monkeypatch.setattr(module, "_tp_renormalise", counted)
    return counts


def test_random_channel_renormalises_twice_as_the_reference_does(monkeypatch):
    # the input of test_random_channel_refines_an_ill_conditioned_marginal:
    # G's draw renormalises one source block a second time
    a = MultiMatrixAlgebra.from_dims((1, 2), "a")
    b = MultiMatrixAlgebra.from_dims((2, 1), "b")
    c = MultiMatrixAlgebra.from_dims((1, 1), "c")
    d = MultiMatrixAlgebra.from_dims((1,), "d")
    e_target, g_source = memory_target_algebra(a, 2), g_source_algebra(a, b, c, 2)
    seed = 4168864924
    counts = [_renormalised_columns(monkeypatch, m) for m in (gen, oracles)]
    draws = []
    for sampler in (gen.random_channel, oracles.random_channel):
        rng = np.random.default_rng(seed)
        draws.append((sampler(c, e_target, seed=rng), sampler(g_source, d, seed=rng),
                      rng.bit_generator.state))
    assert sum(counts[0]) == sum(counts[1]) == len(c) + len(g_source) + 1
    (e, g, state), (ref_e, ref_g, ref_state) = draws
    _assert_same_draw(e, ref_e)
    _assert_same_draw(g, ref_g)
    assert state == ref_state
    _, pieces_e, pieces_g = gen.random_circuit_pieces(a, b, c, d, p_dim=2, seed=seed)
    _assert_same_draw(pieces_e, e)
    _assert_same_draw(pieces_g, g)


def test_random_channel_redraws_a_column_that_renormalisation_cannot_fix():
    # the failing column's marginal has condition number 3.6e7: its residual
    # is 4.40e-9 after one renormalisation and 3.50e-10 after each further
    # one, so the attempt fails and a fresh draw starts
    algebras = [MultiMatrixAlgebra.from_dims(dims, name) for dims, name in
                (((1, 2), "a"), ((2, 1), "b"), ((1, 1), "c"), ((1,), "d"))]
    s = gen.random_supermap_from_circuit(*algebras, p_dim=2, seed=325696996)
    assert sf.verify_deterministic(s).verdict
    a, b, c, d = algebras
    g_source = g_source_algebra(a, b, c, 2)
    rngs = [np.random.default_rng(325696996) for _ in range(2)]
    for sampler, rng in zip((gen.random_channel, oracles.random_channel), rngs):
        sampler(c, memory_target_algebra(a, 2), seed=rng)
    g = gen.random_channel(g_source, d, seed=rngs[0])
    _assert_same_draw(g, oracles.random_channel(g_source, d, seed=rngs[1]))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def _singular(monkeypatch, module, singular):
    """Make module's psd_root_inverse report the k-th marginal it judges
    (from 1) singular when singular(k); returns the cut it judged each at.
    gen's judges a stack of marginals at a time, the reference's one."""
    cuts = []
    root_inverse = module.psd_root_inverse

    def stacked(m, cut):
        root_inv, ok = root_inverse(m, cut)
        first = len(cuts) + 1
        cuts.extend([cut] * len(m))
        return root_inv, [good and not singular(k) for k, good in enumerate(ok, first)]

    def one(m, cut):
        cuts.append(cut)
        return None if singular(len(cuts)) else root_inverse(m, cut)

    monkeypatch.setattr(module, "psd_root_inverse", stacked if module is gen else one)
    return cuts


def test_random_channel_redraws_after_a_singular_marginal_as_the_reference_does(monkeypatch):
    # both samplers judge the source blocks in order here: the stack of the
    # 2 x 2 block, then that of the two 1 x 1 blocks
    a = MultiMatrixAlgebra.from_dims((2, 1, 1), "a")
    b = MultiMatrixAlgebra.from_dims((1, 3), "b")
    # the second source block's marginal fails; the fresh draw starts where
    # the draws of the first two source blocks left the generator, so gen
    # restores it and draws those again
    cuts = [_singular(monkeypatch, m, lambda k: k == 2) for m in (gen, oracles)]
    rngs = [np.random.default_rng(7) for _ in range(2)]
    ch = gen.random_channel(a, b, seed=rngs[0])
    _assert_same_draw(ch, oracles.random_channel(a, b, seed=rngs[1]))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    # gen judged the third block of the failed attempt too; the reference stopped
    assert cuts[0] == [gen.MARGINAL_CUT] * 6
    assert cuts[1] == [oracles.MARGINAL_CUT] * 5
    assert sf.is_tp(ch, gen.DRAW_TP_TOL)

    cuts = [_singular(monkeypatch, m, lambda k: True) for m in (gen, oracles)]
    rngs = [np.random.default_rng(7) for _ in range(2)]
    errors = []
    for sampler, rng in zip((gen.random_channel, oracles.random_channel), rngs):
        with pytest.raises(sf.SingularMarginalError) as info:
            sampler(a, b, seed=rng, max_attempts=3)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "no invertible marginal after 3 attempts"
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert len(cuts[0]) == 3 * len(a) and len(cuts[1]) == 3


@pytest.mark.parametrize("cut", [0.05, 0.2, 0.4])
def test_random_channel_redraws_as_the_reference_does_at_a_high_cut(monkeypatch, cut):
    # a cut this high fails many marginals, at every position of a stack:
    # each draw either returns the reference's bits or raises as it does,
    # and leaves the generator where the reference leaves it
    monkeypatch.setattr(gen, "MARGINAL_CUT", cut)
    monkeypatch.setattr(oracles, "MARGINAL_CUT", cut)
    rng = np.random.default_rng(int(cut * 100))
    outcomes = set()
    for _ in range(300):
        a, b = (MultiMatrixAlgebra.from_dims(tuple(int(x) for x in rng.integers(1, 4, size=n)),
                                             name)
                for n, name in ((rng.integers(1, 7), "a"), (rng.integers(1, 4), "b")))
        seed = int(rng.integers(0, 2**32))
        rngs = [_generator("philox" if seed % 2 else "pcg", seed) for _ in range(2)]
        draws = []
        for sampler, g in zip((gen.random_channel, oracles.random_channel), rngs):
            try:
                draws.append(sampler(a, b, seed=g, max_attempts=4))
            except sf.SingularMarginalError as e:
                draws.append(str(e))
        if isinstance(draws[0], str):
            assert draws[0] == draws[1]
        else:
            _assert_same_draw(*draws)
        assert _state(rngs[0]) == _state(rngs[1])
        outcomes.add(isinstance(draws[0], str))
    assert outcomes == {False, True}


def test_a_g_draw_of_equal_size_source_blocks_runs_one_eigh(monkeypatch):
    # G's source blocks all have dimension p_dim * 2 when B's blocks are all
    # M2: their marginals are inverted by one eigh, on a stack of all of them
    a = MultiMatrixAlgebra.from_dims((1, 2), "a")
    b = MultiMatrixAlgebra.from_dims((2, 2), "b")
    c = MultiMatrixAlgebra.from_dims((1, 1, 2), "c")
    d = MultiMatrixAlgebra.from_dims((2, 1), "d")
    g_source = g_source_algebra(a, b, c, 2)
    assert set(g_source.dims) == {4} and len(g_source) == 12
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    gen.random_channel(g_source, d, seed=11)
    assert [m.shape for m, in eigh] == [(12, 4, 4)]
