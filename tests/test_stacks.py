"""Verify, realize and gen's link product on stacks of equal-shape blocks
give the bits of the block-by-block layers kept in tests/oracles.py.

The PSD rule, N and Phi, the kernel residual, N's Kraus family and the
Gram eigenvalues run on stacks of equal-shape Choi blocks; the unitality
residual and W's figures read N's and Phi's blocks in place.  Over shapes
with block dims 1-4, 1-3 blocks per algebra and p_dim 1-3, on exact,
pushed, non-finite and non-Hermitian supermaps, the verdicts, witnesses, N,
Phi, E, G, p_dim, gram_min_eig and W's figures must be bit for bit those of
the per-block references, and the two residuals within the bounds the
README states.  gen's supermap, the link product of its E and G formed on
stacks of the block pairs of one (d_l, d_k, d_j, d_i), must be bit for bit
the one-GEMM-per-pair reference's.
"""

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import gen
from supermap_forge._linalg import dag, frob, herm_part, stack
from supermap_forge.algebra import MultiMatrixAlgebra
from supermap_forge.cpmaps import _eigh_kraus, _eigh_rows, hs_dual
from supermap_forge.realize import _cholesky_rows, assemble_e, assemble_g
from supermap_forge.supermap import VERIFY_TOL
from oracles import (
    circuit_choi_per_pair, eigh_kraus_per_block, is_cp_per_block, kernel_residual_per_block,
    min_gram_eig_per_pair, n_and_phi_per_pair, unital_residual_via_apply,
)

EPS = np.finfo(float).eps
TOL = VERIFY_TOL


def _shapes():
    """Block dims 1-4, 1-3 blocks per algebra and p_dim 1-3, drawn once from
    a fixed generator; a shape whose S holds more than 40,000 entries is
    skipped, to keep the suite fast."""
    rng = np.random.default_rng(27)
    shapes = []
    while len(shapes) < 14:
        dims = tuple(tuple(int(x) for x in rng.integers(1, 5, size=rng.integers(1, 4)))
                     for _ in range(4))
        a, b, c, d = dims
        hom_ab = [dj * di for dj in b for di in a]
        hom_cd = [dl * dk for dl in d for dk in c]
        if sum(x * x for x in hom_ab) * sum(x * x for x in hom_cd) <= 40_000:
            shapes.append((dims, int(rng.integers(1, 4))))
    return shapes


# and two shapes of many equal blocks, as classical channels and
# multimeters have
SHAPES = _shapes() + [(((1, 1, 1),) * 4, 1), (((2, 2, 1),) * 4, 2)]


def _with_block(s, t_cd, t_ab, change):
    """s with Choi block (t_cd, t_ab) replaced by change(block)."""
    rows = [list(row) for row in s.inner.choi_blocks]
    rows[t_cd][t_ab] = change(np.array(rows[t_cd][t_ab]))
    inner = sf.CpMap(s.inner.source, s.inner.target, rows)
    return sf.Supermap(inner, s.source_hom, s.target_hom)


def _last_of_largest_stack(s):
    """The (t_cd, t_ab) of the last block of S's largest stack of equal-size
    blocks, so that a change there sits behind blocks the stack passes."""
    sizes = [(len(m), (t_cd, t_ab)) for t_cd, row in enumerate(s.inner.choi_blocks)
             for t_ab, m in enumerate(row)]
    by_size = {}
    for n, key in sizes:
        by_size.setdefault(n, []).append(key)
    return max(by_size.values(), key=len)[-1]


def _inputs(s, seed):
    rng = np.random.default_rng(seed)
    t_cd, t_ab = _last_of_largest_stack(s)

    def nan_entry(m):
        m[-1, 0] = np.nan
        return m

    def non_hermitian(m):
        return m + 1e-3 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))

    yield "exact", s
    yield "tp-breaking 1e-6", gen.perturb_supermap(s, 1e-6, "tp-breaking", seed=seed)
    yield "cp-breaking 1e-3", gen.perturb_supermap(s, 1e-3, "cp-breaking", seed=seed)
    yield "one NaN entry", _with_block(s, t_cd, t_ab, nan_entry)
    yield "one non-Hermitian block", _with_block(s, t_cd, t_ab, non_hermitian)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_cp_map(m, ref):
    return all(_same_bits(x, y) for row, ref_row in zip(m.choi_blocks, ref.choi_blocks)
               for x, y in zip(row, ref_row))


def _w_figures_per_block(n_kraus, phi, source_hom):
    """solve_w's residual and isometry defect with Phi's dual built whole by
    hs_dual, as solve_w built it before it read the dual's blocks in place."""
    rows, pinv = {}, {}
    for key, ops in n_kraus.ops.items():
        r, dk, di = ops.shape
        x = rows[key] = ops.conj().transpose(0, 2, 1).reshape(r, di * dk)
        pinv[key] = dag(x) / (x.real ** 2 + x.imag ** 2).sum(axis=1)
    dual = hs_dual(phi)
    res_sq = defect_sq = 0.0
    for t, (j, i) in enumerate(source_hom.pairs):
        for k in range(len(dual.source)):
            x, xp = rows[(i, k)], pinv[(i, k)]
            h = herm_part(dual.choi(t, k))
            f = _cholesky_rows(h)
            if f is None:
                f = _eigh_rows(h, rank_tol=0.0)
            n_ops = len(f)
            f = f.reshape(-1, x.shape[1])
            w_f = f @ xp
            res_sq += frob(w_f @ x - f) ** 2
            w_f = w_f.reshape(n_ops, source_hom.out_algebra.dims[j] * x.shape[0])
            defect_sq += frob(dag(w_f) @ w_f - np.eye(w_f.shape[1])) ** 2
    return float(np.sqrt(res_sq)), float(np.sqrt(defect_sq))


def _within(x, ref, bound):
    return (np.isnan(x) and np.isnan(ref)) or abs(x - ref) <= bound


@pytest.mark.parametrize("seed", range(len(SHAPES)), ids=[str(d) for d, _ in SHAPES])
def test_stacked_layers_give_the_per_block_bits(seed):
    dims, p_dim = SHAPES[seed]
    algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
    for name, s in _inputs(gen.random_supermap_from_circuit(*algs, p_dim=p_dim, seed=seed), seed):
        report = sf.verify_deterministic(s)
        n_ref, phi_ref = n_and_phi_per_pair(s)
        kernel_ref = kernel_residual_per_block(phi_ref, n_ref, s.source_hom)
        unital_ref = unital_residual_via_apply(n_ref)
        s_ref, n_wit_ref = is_cp_per_block(s.inner, TOL), is_cp_per_block(n_ref, TOL)
        # the witnesses, each field as repr writes it: block, reason, the
        # exact min_eigenvalue and the defect
        assert repr(report.s_witness) == repr(s_ref), name
        assert repr(report.n_witness) == repr(n_wit_ref), name
        assert _same_cp_map(report.n_map, n_ref) and _same_cp_map(report.phi, phi_ref), name
        n_max = max(len(m) for row in phi_ref.choi_blocks for m in row)
        assert _within(report.kernel_residual, kernel_ref, 2 * n_max ** 2 * EPS * kernel_ref)
        n_id = unital_ref + np.sqrt(n_ref.target.dim)  # at least ||N(Id)||_F
        assert _within(report.n_unital_residual, unital_ref, 2 * n_ref.source.dim * EPS * n_id)
        assert report.verdict == (s_ref.ok and n_wit_ref.ok and kernel_ref <= TOL
                                  and unital_ref <= TOL), name
        assert report.verdict == (name == "exact"), name
        if not report.verdict:
            continue
        r = sf.realize(s)
        kd_ref = eigh_kraus_per_block(n_ref)
        kd = _eigh_kraus(report.n_map)
        assert all(_same_bits(kd.ops[key], ops) for key, ops in kd_ref.ops.items()), name
        assert r.gram_min_eig == min_gram_eig_per_pair(kd_ref), name
        assert (r.w_residual, r.w_isometry_defect) == _w_figures_per_block(
            kd_ref, phi_ref, s.source_hom), name
        p_ref = max(max(map(len, kd_ref.ops.values())), 1)
        assert r.p_dim == p_ref, name
        e_ref = assemble_e(kd_ref, p_ref)
        assert all(_same_bits(r.e_kraus[key], u) for key, u in e_ref.items()), name
        w = sf.solve_w(kd_ref, phi_ref, s.source_hom)
        assert _same_cp_map(r.g_channel, assemble_g(s, w, p_ref)), name


@pytest.mark.parametrize("seed", range(len(SHAPES)), ids=[str(d) for d, _ in SHAPES])
def test_link_product_gives_the_per_pair_bits(seed):
    # gen's supermap is the link product of its E and G, formed on stacks of
    # the block pairs of one (d_l, d_k, d_j, d_i)
    dims, p_dim = SHAPES[seed]
    algs = [MultiMatrixAlgebra.from_dims(x, lbl) for x, lbl in zip(dims, "abcd")]
    s, e, g = gen.random_circuit_pieces(*algs, p_dim=p_dim, seed=seed)
    ref = circuit_choi_per_pair(e, g, p_dim, *algs)
    assert (s.inner.source, s.inner.target) == (ref.source, ref.target)
    assert _same_cp_map(s.inner, ref)


def test_the_shapes_reach_four_dim_blocks_three_blocks_and_stacks():
    # the suite covers what it claims: dims up to 4, 3 blocks per algebra,
    # p_dim 1-3, and S's with stacks of more than one block
    assert max(max(max(x) for x in dims) for dims, _ in SHAPES) == 4
    assert max(max(len(x) for x in dims) for dims, _ in SHAPES) == 3
    assert {p for _, p in SHAPES} == {1, 2, 3}
    stacked = 0
    for dims, _ in SHAPES:
        a, b, c, d = dims
        sizes = [dl * dk * dj * di for dl in d for dk in c for dj in b for di in a]
        stacked += len(set(sizes)) < len(sizes)
    assert stacked >= len(SHAPES) // 2


def _two_failing_blocks():
    """A supermap Hom(A, B) -> Hom(C, D), A = (2, 1, 2, 1) and B, C, D
    classical one-symbol algebras, whose S blocks (0, 1) and (0, 2) are
    pushed below zero: S's blocks, and N's, are 2 x 2 at i = 0, 2 and
    1 x 1 at i = 1, 3, so the earlier failure, i = 1, sits in the stack
    that appears second."""
    a = MultiMatrixAlgebra.from_dims((2, 1, 2, 1), "a")
    b, c, d = (MultiMatrixAlgebra.from_dims((1,), lbl) for lbl in "bcd")
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=1, seed=11)
    for t_ab in (1, 2):
        s = _with_block(s, 0, t_ab, lambda m: m - 2 * np.eye(len(m)))
    return s


def test_witness_names_the_earlier_block_when_a_later_stack_holds_it():
    s = _two_failing_blocks()
    report = sf.verify_deterministic(s)
    n_ref, _ = n_and_phi_per_pair(s)
    for witness, ref in ((report.s_witness, is_cp_per_block(s.inner, TOL)),
                         (report.n_witness, is_cp_per_block(n_ref, TOL))):
        assert witness.block == (0, 1)
        assert witness.reason.startswith("min eigenvalue")
        assert repr(witness) == repr(ref)
    with pytest.raises(sf.NotCompletelyPositiveError, match=r"\(0, 1\)"):
        sf.realize(s)


def test_a_stack_of_one_block_copies_nothing():
    # single-block shapes run the block-by-block arithmetic on S's own block
    m = np.arange(16.0).reshape(4, 4) + 0j
    assert np.shares_memory(stack([m]), m)
    assert not np.shares_memory(stack([m, m]), m)

