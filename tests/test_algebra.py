"""Tests for multimatrix algebras and block operators."""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge.algebra import BlockOperator, MultiMatrixAlgebra, PositivityWitness
from oracles import hs_inner, matrix_units, psd_factor, unit


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
        hs_inner(x, y)


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
    assert c_plus_m2().identity().trace() == 3
    m23 = MultiMatrixAlgebra((("a", 2), ("b", 3)))
    assert m23.identity().trace() == 5
    assert m23.dim == 5


def test_hybrid_state_trace_one():
    for seed in range(5):
        rho = gen.random_state(c_plus_m2(), seed=seed)
        assert abs(rho.operator.trace() - 1.0) < 1e-12
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


def test_witness_names_the_failed_condition():
    alg = MultiMatrixAlgebra.single(2)
    assert sf.is_positive(alg.identity()).reason is None
    for m, reason in ((np.diag([1.0, np.nan]), "non-finite entries"),
                      (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermiticity defect 1.41"),
                      (np.diag([1.5, -0.5]), "min eigenvalue -0.5")):
        x = BlockOperator(alg, [m])
        assert sf.is_positive(x).reason == reason
        with pytest.raises(sf.NotPositiveError, match=re.escape(f"'q' is not PSD ({reason})")):
            psd_factor(x)
        with pytest.raises(sf.NotPositiveError, match=re.escape(f"'q' not PSD ({reason})")):
            sf.HybridState(x)


def test_algebra_reads_labels_dims_and_dim_off_its_blocks():
    alg = MultiMatrixAlgebra((("c", 1), (("q", 0), 2), ("r", np.int64(3))))
    assert alg.labels == tuple(lbl for lbl, _ in alg.blocks) == ("c", ("q", 0), "r")
    assert alg.dims == tuple(d for _, d in alg.blocks) == (1, 2, 3)
    assert alg.dim == sum(d for _, d in alg.blocks) == 6
    assert all(type(d) is int for d in alg.dims)
    # equality, hash and repr depend on blocks alone
    twin = MultiMatrixAlgebra(alg.blocks)
    for name in ("labels", "dims", "dim"):
        object.__setattr__(twin, name, None)
    assert twin == alg and hash(twin) == hash(alg) and repr(twin) == repr(alg)
    assert repr(alg) == "MultiMatrixAlgebra(blocks=(('c', 1), (('q', 0), 2), ('r', 3)))"
    assert MultiMatrixAlgebra(alg.blocks[:2]) != alg
    # replace builds a new algebra from its blocks and recomputes the rest
    grown = dataclasses.replace(alg, blocks=alg.blocks + (("s", 4),))
    assert (grown.labels, grown.dims, grown.dim) == (("c", ("q", 0), "r", "s"), (1, 2, 3, 4), 10)
    assert grown != alg and dataclasses.replace(alg) == alg


def test_psd_factor_identity_and_sqrt():
    alg = MultiMatrixAlgebra.single(2)
    ident = alg.identity()
    f = psd_factor(ident)
    assert (f.adjoint() @ f - ident).norm() < 1e-12
    x = BlockOperator(alg, [np.diag([4.0, 0.0])])
    g = psd_factor(x)
    assert (g.adjoint() @ g - x).norm() < 1e-12
    assert np.allclose(sorted(np.abs(np.linalg.svd(g.block(0), compute_uv=False))), [0.0, 2.0])


def test_psd_factor_reconstructs_random_gram():
    alg = MultiMatrixAlgebra((("a", 3), ("b", 2)))
    for seed in range(10):
        g = gen.random_block_operator(alg, seed=seed)
        x = g.adjoint() @ g
        f = psd_factor(x, 1e-10)
        assert (f.adjoint() @ f - x).norm() < 1e-9


def test_psd_factor_rejects_non_psd():
    alg = MultiMatrixAlgebra.single(2)
    with pytest.raises(sf.NotPositiveError):
        psd_factor(BlockOperator(alg, [np.diag([1.0, -1.0])]))


def test_hs_inner_examples():
    m2 = MultiMatrixAlgebra.single(2)
    assert abs(hs_inner(m2.identity(), m2.identity()) - 2.0) < 1e-14
    for seed in range(5):
        x = gen.random_block_operator(c_plus_m2(), seed=seed)
        y = gen.random_block_operator(c_plus_m2(), seed=seed + 100)
        assert hs_inner(x, x).real > 0
        assert abs(hs_inner(x, y) - np.conj(hs_inner(y, x))) < 1e-12


def test_trace_is_cyclic():
    alg = MultiMatrixAlgebra((("a", 4), ("b", 2)))
    for seed in range(10):
        x = gen.random_block_operator(alg, seed=seed)
        y = gen.random_block_operator(alg, seed=seed + 50)
        assert abs((x @ y).trace() - (y @ x).trace()) < 1e-10


def test_hs_inner_nondegenerate():
    # pairing against the full matrix-unit basis recovers every entry, so a
    # vanishing pairing forces the zero operator
    alg = c_plus_m2()
    x = gen.random_block_operator(alg, seed=3)
    recovered = alg.zeros()
    for i, a, b, e in matrix_units(alg):
        recovered = recovered + hs_inner(e, x) * unit(alg, i, a, b)
    assert (recovered - x).norm() < 1e-12


def _eigvalsh_rule(m, tol):
    """The PSD rule decided by the whole spectrum: the decider's reference."""
    if not np.isfinite(m).all() or np.linalg.norm(m - m.conj().T) > tol:
        return False
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -tol


def _with_spectrum(w, rng):
    n = len(w)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * w) @ q.conj().T


def _boundary_blocks(n, tol, rng):
    """(name, block) at each edge of the PSD rule for n x n blocks."""
    rest = list(rng.uniform(0.1, 1.0, n - 1))
    # the decider's rounding margin for these blocks, whose trace is sum(rest) - tol
    delta = 2 * (n + 2) * np.finfo(float).eps * (sum(rest) - tol + n * tol)
    assert 0 <= delta < tol
    for f in (1 - 1e-3, 1 + 1e-3):
        yield f"lambda_min -tol*{f}", _with_spectrum([-tol * f] + rest, rng)
    for sign in (1, -1):
        yield f"lambda_min shift{sign:+d}delta", _with_spectrum([-(tol - delta) + sign * delta] + rest, rng)
    psd = _with_spectrum([0.05] + rest, rng)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = x - x.conj().T
    for f in (1 - 1e-3, 1 + 1e-3):
        # (m - m†) = tol * f * skew / ||skew||
        yield f"defect tol*{f}", psd + 0.5 * tol * f * skew / np.linalg.norm(skew)
    for bad in (np.nan, np.inf):
        m = psd.copy()
        m[0, n - 1] = bad
        yield f"entry {bad}", m


@pytest.mark.parametrize("n", [1, 2, 16, 256])
def test_psd_decider_matches_the_eigenvalue_rule_at_its_edges(n):
    rng = np.random.default_rng(n)
    alg = MultiMatrixAlgebra.single(n)
    for tol in (1e-9, 1e-8):
        verdicts = {}
        for name, m in _boundary_blocks(n, tol, rng):
            witness = sf.is_positive(BlockOperator(alg, [m]), tol)
            expected = _eigvalsh_rule(m, tol)
            assert bool(witness) == expected, (n, tol, name)
            if witness:
                assert witness.min_eigenvalue >= -tol
            elif "lambda_min" in name:
                # a failure reports the exact smallest eigenvalue
                h = 0.5 * (m + m.conj().T)
                assert witness.min_eigenvalue == np.linalg.eigvalsh(h).min()
            verdicts[name] = expected
        assert verdicts[f"lambda_min -tol*{1 - 1e-3}"]
        # at n = 1 the trace is -tol, so delta is 0 and both shift points sit at -tol
        assert verdicts["lambda_min shift+1delta"] or n == 1
        assert verdicts[f"defect tol*{1 - 1e-3}"]
        assert not verdicts[f"lambda_min -tol*{1 + 1e-3}"]
        assert not verdicts[f"defect tol*{1 + 1e-3}"]


def test_cholesky_certificate_decides_the_benchmark_shapes(monkeypatch):
    # q4 at p_dim 2 and q5 at p_dim 1, whose S blocks are 256 and 625 wide:
    # with eigvalsh gone, is_cp still accepts, so no block needs the fallback
    q4 = [MultiMatrixAlgebra.single(4, lbl) for lbl in "abcd"]
    q5 = [MultiMatrixAlgebra.single(5, lbl) for lbl in "abcd"]
    supermaps = [gen.random_supermap_from_circuit(*q4, p_dim=2, seed=4),
                 gen.random_supermap_from_circuit(*q5, p_dim=1, seed=5)]

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for s in supermaps:
        witness = sf.is_cp(s.inner, 1e-8)
        assert witness and witness.min_eigenvalue == -1e-8


def _psd_block_reference(m, tol):
    """The PSD rule as written with herm_part's H, kept to compare the
    in-place H against."""
    from supermap_forge._linalg import dag, frob, herm_part
    if not np.isfinite(m).all():
        return np.nan, np.nan, "non-finite entries"
    defect = frob(m - dag(m))
    if defect > tol:
        return np.nan, defect, f"Hermiticity defect {defect:.3g}"
    h = herm_part(m)
    n = len(h)
    diag = h.reshape(-1)[:: n + 1]
    delta = 2 * (n + 2) * np.finfo(float).eps * (sum(diag.real.tolist()) + n * tol)
    if 0 <= delta < tol:
        diag += tol - delta
        try:
            np.linalg.cholesky(h)
            return -tol, defect, None
        except np.linalg.LinAlgError:
            h = herm_part(m)
    lo = float(np.linalg.eigvalsh(h).min())
    return lo, defect, None if lo >= -tol else f"min eigenvalue {lo:.3g}"


def test_psd_block_in_place_h_gives_the_reference_verdicts():
    from supermap_forge.algebra import _psd_block
    rng = np.random.default_rng(8)
    tol = 1e-9
    blocks = {}
    for n in (1, 2, 5, 16, 40):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psd = g @ g.conj().T
        noise = 1e-11 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        blocks[f"psd {n}"] = psd
        blocks[f"psd+noise {n}"] = psd + noise  # Hermitian only within tol
        blocks[f"indefinite {n}"] = psd - 2 * np.trace(psd).real * np.eye(n) / n
        blocks[f"non-hermitian {n}"] = g
        blocks[f"fortran {n}"] = np.asfortranarray(psd + noise)
        blocks[f"transposed {n}"] = (psd + noise).T
        blocks[f"strided {n}"] = np.kron(psd + noise, np.ones((2, 2)))[::2, ::2]
        blocks[f"non-finite {n}"] = np.where(np.eye(n, dtype=bool), np.nan, psd)
    vals = np.array((-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3))
    edge = vals[np.arange(36) % 5] + 1j * vals[(np.arange(36) + 3) % 5]
    edge = edge.reshape(6, 6)
    blocks["edge hermitian"] = edge + edge.conj().T + np.eye(6)
    blocks["edge hermitian, shifted below zero"] = edge + edge.conj().T - np.eye(6)
    # Cholesky fails on H + (tol - delta) Id, and eigvalsh passes the block
    blocks["cholesky fails"] = np.diag([1.0, -(tol - 1e-15)]).astype(complex)
    blocks["delta >= tol"] = np.diag([1e6, -0.99 * tol]).astype(complex)
    huge = np.full((3, 3), 1.7976931348623157e308) * np.array([[1, -1, 1]])
    blocks["edge overflowing"] = huge + 1j * huge.T
    checked = 0
    for name, m in blocks.items():
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _psd_block(m, tol), _psd_block_reference(m, tol)
        assert repr(got) == repr(want), name
        checked += got[2] is None
    # passes through Cholesky, eigvalsh and each failure are all covered
    assert 0 < checked < len(blocks)


def _psd_blocks_reference(labelled_blocks, tol):
    """_psd_block_reference on each (label, block) in order: the first
    failure, or a pass carrying the smallest lower bound seen."""
    worst = np.inf
    for lbl, m in labelled_blocks:
        lo, defect, reason = _psd_block_reference(m, tol)
        if reason is not None:
            return PositivityWitness(False, lbl, lo, defect, reason)
        worst = min(worst, lo)
    return PositivityWitness(True, None, worst, 0.0)


def test_psd_rule_on_one_mixed_stack_judges_each_block_as_alone():
    # the edge blocks of the test above, brought to one size, 3 x 3, and
    # stacked with blocks that the stack's certificate passes: wherever a
    # block sits in the stack, the rule gives the witness the reference gives
    # block by block, so each is judged as it is alone
    from supermap_forge.algebra import _psd_blocks, _psd_stack
    rng = np.random.default_rng(9)
    tol = 1e-9
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    psd = g @ g.conj().T
    noisy = psd + 1e-11 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    # i c Id has ||X - X†||_F = 2 c sqrt(3): defects of 0.9 tol and 1.1 tol
    skew = 1j * tol / (2 * np.sqrt(3)) * np.eye(3)
    passing = [("psd", psd), ("fortran", np.asfortranarray(noisy)), ("transposed", noisy.T),
               ("strided", np.kron(noisy, np.ones((2, 2)))[::2, ::2]),
               ("defect 0.9 tol", psd + 0.9 * skew)]
    huge = np.full((3, 3), 1.7976931348623157e308) * np.array([[1, -1, 1]])
    edge = [
        ("cholesky fails", np.diag([1.0, -(tol - 1e-15), 1.0]).astype(complex)),
        ("delta >= tol", np.diag([1e6, -0.99 * tol, 1.0]).astype(complex)),
        ("overflowing", huge + 1j * huge.T),
        ("non-finite", np.where(np.eye(3, dtype=bool), np.nan, psd)),
        ("non-hermitian", g),
        ("indefinite", psd - 2 * np.trace(psd).real * np.eye(3) / 3),
        ("defect 1.1 tol", psd + 1.1 * skew),
        # passes the certificate only with a shift of more than tol
        ("min eigenvalue -1.5 tol", np.diag([1.0, 1.0, -1.5 * tol]).astype(complex)),
    ]
    assert _psd_stack([m for _, m in passing], tol)
    # the two blocks eigvalsh passes are not the certificate's
    for name, m in edge[:2]:
        lo, _, reason = _psd_block_reference(m, tol)
        assert reason is None and -tol < lo < 0, name
    stacks = [passing + edge]
    for named in edge:
        stacks += [passing[:at] + [named] + passing[at:] for at in range(len(passing) + 1)]
    # PSD blocks whose delta is at or past tol: eigvalsh decides each, and a
    # pass reports their exact smallest eigenvalue
    stacks.append([(f"trace {x:g}", x * psd / np.trace(psd).real) for x in (4e6, 8e6)])
    for blocks in stacks:
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _psd_blocks(blocks, tol), _psd_blocks_reference(blocks, tol)
        assert repr(got) == repr(want), [name for name, _ in blocks]
    assert want.ok and want.min_eigenvalue > 0


# -- values are immutable, and copy and pickle -------------------------------


def _values():
    """(name, value) for one value of each type a caller holds."""
    a, b = c_plus_m2(), MultiMatrixAlgebra.single(2, "j")
    s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=4)
    ch = gen.random_channel(a, b, seed=1)
    yield "algebra", a
    yield "block operator", gen.random_block_operator(a, seed=0)
    yield "hybrid state", gen.random_state(a, seed=0)
    yield "cp map", ch.scaled(0.5)
    yield "channel", ch
    yield "non-TP channel", sf.Channel(a, b, ch.scaled(2.0).choi_blocks, validate=False)
    yield "supermap", s
    yield "realisation", sf.realize(s)


def _bits(x):
    """x's type and contents, each array as its shape and bytes, for
    bit-exact comparison; every array must be read-only."""
    if isinstance(x, np.ndarray):
        assert not x.flags.writeable
        return x.shape, x.dtype.str, x.tobytes()
    if isinstance(x, tuple):
        return tuple(_bits(y) for y in x)
    if isinstance(x, BlockOperator):
        return type(x), x.algebra, _bits(x.mats)
    if isinstance(x, sf.HybridState):
        return type(x), _bits(x.operator)
    if isinstance(x, sf.CpMap):
        return type(x), x.source, x.target, _bits(x.choi_blocks)
    if isinstance(x, sf.Supermap):
        return type(x), x.source_hom, x.target_hom, _bits(x.inner)
    if isinstance(x, sf.CircuitRealisation):
        e = tuple((key, _bits(x.e_kraus[key])) for key in sorted(x.e_kraus))
        return type(x), e, *(_bits(getattr(x, f.name)) for f in dataclasses.fields(x)
                              if f.name != "e_kraus")
    return x


@pytest.mark.parametrize("kind", ["block operator", "hybrid state", "cp map", "channel",
                                  "non-TP channel"])
def test_value_attributes_cannot_be_rebound(kind):
    x = dict(_values())[kind]
    names = {"block operator": ("algebra", "_mats"), "hybrid state": ("operator",)}.get(
        kind, ("source", "target", "_blocks"))
    for name in names:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
    with pytest.raises(AttributeError, match="immutable"):
        x.note = None
    assert not hasattr(x, "__dict__")


def test_a_realisation_holds_e_read_only():
    r = dict(_values())["realisation"]
    key = next(iter(r.e_kraus))
    with pytest.raises(TypeError, match="does not support item assignment"):
        r.e_kraus[key] = np.zeros_like(r.e_kraus[key])
    with pytest.raises(ValueError, match="read-only"):
        r.e_kraus[key][0, 0] = 1


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_values_copy_and_pickle_bit_exact(how):
    twin = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how]
    for name, x in _values():
        y = twin(x)
        assert _bits(y) == _bits(x), name
        if not isinstance(y, (MultiMatrixAlgebra, sf.Supermap, sf.CircuitRealisation)):
            with pytest.raises(AttributeError, match="immutable"):
                y.note = None
    # rebuilt from its blocks: the TP check the caller waived is not run
    channel = dict(_values())["non-TP channel"]
    assert not sf.is_tp(twin(channel))
