"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import cli, gen
from supermap_forge.algebra import MultiMatrixAlgebra
from supermap_forge.cpmaps import KrausDecomposition
from supermap_forge.supermap import embed_with_out_identity, partial_trace_out
from oracles import (
    choi_from_action, dilation_from_kraus, environment_intertwiner, extract_n,
    minimal_stinespring,
)


def _random_algebra(rng, prefix):
    n_blocks = int(rng.integers(1, 3))
    return MultiMatrixAlgebra(
        tuple((f"{prefix}{k}", int(rng.integers(1, 3))) for k in range(n_blocks))
    )


def _random_shape(rng):
    return tuple(_random_algebra(rng, p) for p in ("a", "b", "c", "d"))


@dataclass
class PipelineRun:
    supermap: object
    realisation: object
    check: object
    elapsed: float


@pytest.fixture(scope="session")
def fifty_pipelines():
    """50 seeded supermaps with |I|,|J|,|K|,|L| <= 2 and dims <= 2, realised
    and certified on the full spanning set."""
    rng = np.random.default_rng(20260808)
    runs = []
    start = time.time()
    for trial in range(50):
        a, b, c, d = _random_shape(rng)
        p = int(rng.integers(1, 3))
        s = gen.random_supermap_from_circuit(
            a, b, c, d, p_dim=p, seed=int(rng.integers(0, 2**63))
        )
        assert sf.verify_deterministic(s).verdict
        r = sf.realize(s)
        chk = sf.check_realisation(r, s, trials=1, tol=1e-6, seed=trial)
        runs.append(PipelineRun(s, r, chk, time.time() - start))
    return runs


def _line(num, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {flag} -- {detail}")


def test_criterion_1_realisation_round_trip(fifty_pipelines):
    worst = max(
        max(run.check.spanning_deviation, run.check.trial_deviation)
        for run in fifty_pipelines
    )
    elapsed = fifty_pipelines[-1].elapsed
    ok = all(run.check.passed for run in fifty_pipelines) and worst <= 1e-6
    _line(1, "realisation round trip", ok,
          f"50 supermaps, max Choi deviation {worst:.3e}, total {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_criterion_2_dimension_bound(fifty_pipelines, tmp_path, capsys):
    ok = True
    for run in fifty_pipelines:
        r = run.realisation
        bound = max(
            di * dk for di in r.a.dims for dk in r.c.dims
        )
        ok = ok and r.p_dim <= bound
    # the (2,3) x (2,2) fixture prints bound 6
    sm = tmp_path / "bound6.json"
    assert cli.main(["gen", "supermap", "--a-dims", "2,3", "--b-dims", "2",
                     "--c-dims", "2,2", "--d-dims", "2", "--p-dim", "2",
                     "--seed", "4", "--out", str(sm)]) == 0
    capsys.readouterr()
    assert cli.main(["realize", str(sm), "--out", str(tmp_path / "r.json")]) == 0
    printed = capsys.readouterr().out
    ok = ok and "bound 6" in printed
    with capsys.disabled():
        _line(2, "dimension bound", ok,
              "p_dim <= max_ik dim(H_in_i)dim(K_in_k) on all 50; fixture bound printed as 6")
    assert ok


def test_criterion_3_verifier_oracle_agreement():
    rng = np.random.default_rng(3033)
    disagreements = 0
    total = 0
    for trial in range(100):
        a, b, c, d = _random_shape(rng)
        s = gen.random_supermap_from_circuit(
            a, b, c, d, p_dim=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**63))
        )
        basis = gen.tp_affine_basis(a, b)
        verdict = sf.verify_deterministic(s).verdict
        oracle = gen.brute_force_tp_preservation(s, basis)
        disagreements += int(verdict != oracle)
        assert verdict and oracle  # positives really are positive
        eps = float(10 ** rng.uniform(-3, -1))
        bad = gen.perturb_supermap(s, eps, "tp-breaking", seed=int(rng.integers(0, 2**63)))
        verdict_bad = sf.verify_deterministic(bad).verdict
        oracle_bad = gen.brute_force_tp_preservation(bad, basis)
        disagreements += int(verdict_bad != oracle_bad)
        assert not verdict_bad and not oracle_bad
        total += 2
    ok = disagreements == 0
    _line(3, "verifier-oracle agreement", ok,
          f"{total} instances (100 positive, 100 tp-broken), {disagreements} disagreements")
    assert ok


@pytest.fixture(scope="session")
def ten_verified_supermaps():
    rng = np.random.default_rng(4044)
    out = []
    for _ in range(10):
        a, b, c, d = _random_shape(rng)
        s = gen.random_supermap_from_circuit(
            a, b, c, d, p_dim=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**63))
        )
        assert sf.verify_deterministic(s).verdict
        out.append(s)
    return out


def test_criterion_4_marginal_factorisation(ten_verified_supermaps):
    worst = 0.0
    for m, s in enumerate(ten_verified_supermaps):
        n = extract_n(s)
        rng = np.random.default_rng(3000 + m)
        for _ in range(100):
            x = gen.random_block_operator(s.source_hom.base, seed=rng)
            lhs = partial_trace_out(sf.apply_to_choi(s, x), s.target_hom)
            rhs = sf.apply(n, partial_trace_out(x, s.source_hom))
            worst = max(worst, (lhs - rhs).norm())
    ok = worst <= 1e-8
    _line(4, "marginal factorisation identity", ok,
          f"10 supermaps x 100 random elements, max residual {worst:.3e}")
    assert ok


def test_criterion_5_dual_factorisation(ten_verified_supermaps):
    worst = 0.0
    for s in ten_verified_supermaps:
        s_star = sf.hs_dual(s.inner)
        n_star = sf.hs_dual(extract_n(s))
        c_alg = s.target_hom.in_algebra
        for t in range(20):
            rho = gen.random_state(c_alg, seed=1000 + t).operator
            lhs = sf.apply(s_star, embed_with_out_identity(rho, s.target_hom))
            rhs = embed_with_out_identity(sf.apply(n_star, rho), s.source_hom)
            worst = max(worst, (lhs - rhs).norm())
    ok = worst <= 1e-8
    _line(5, "dual factorisation identity", ok,
          f"10 supermaps x 20 states, max residual {worst:.3e}")
    assert ok


def test_criterion_6_identity_block_decomposition(ten_verified_supermaps):
    worst_res = 0.0
    worst_tr = 0.0
    worst_eig = 0.0
    for s in ten_verified_supermaps:
        s_star = sf.hs_dual(s.inner)
        c_alg = s.target_hom.in_algebra
        for t in range(20):
            rho = gen.random_state(c_alg, seed=2000 + t).operator
            cc = sf.apply(s_star, embed_with_out_identity(rho, s.target_hom))
            dec = sf.lemma1_decompose(cc, s.source_hom)
            worst_res = max(worst_res, dec.residual)
            worst_tr = max(worst_tr, abs(dec.rho.trace() - 1.0))
            witness = sf.is_positive(dec.rho, 1e-9)
            if not witness:
                worst_eig = max(worst_eig, -witness.min_eigenvalue)
    ok = worst_res <= 1e-8 and worst_tr <= 1e-9 and worst_eig == 0.0
    _line(6, "identity-block decomposition", ok,
          f"max residual {worst_res:.3e}, max trace error {worst_tr:.3e}")
    assert ok


def test_criterion_7_stinespring_choi_suite():
    rng = np.random.default_rng(7077)
    worst_round = 0.0
    worst_isom = 0.0
    worst_dualdual = 0.0
    worst_pi = 0.0
    min_gram = np.inf
    for trial in range(20):
        a = _random_algebra(rng, "x")
        b = _random_algebra(rng, "y")
        ch = gen.random_channel(a, b, seed=int(rng.integers(0, 2**63)))
        rebuilt = choi_from_action(lambda z: sf.apply(ch, z), a, b)
        worst_round = max(worst_round, rebuilt.choi_distance(ch))
        dil = minimal_stinespring(ch)
        worst_isom = max(worst_isom, dil.isometry_defect())
        min_gram = min(min_gram, dil.kraus.min_gram_eig())
        worst_dualdual = max(
            worst_dualdual, sf.hs_dual(sf.hs_dual(ch)).choi_distance(ch)
        )
        # dilation uniqueness: environment padded and mixed by a unitary
        mixed = {}
        for key, ops in dil.kraus.ops.items():
            padded = list(ops) + ([np.zeros_like(ops[0])] if len(ops) else [])
            r = len(padded)
            if r == 0:
                mixed[key] = ()
                continue
            g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            u, _, vt = np.linalg.svd(g)
            uni = u @ vt
            mixed[key] = tuple(
                sum(uni[x, y] * padded[y] for y in range(r)) for x in range(r)
            )
        kd = KrausDecomposition(ch.source, ch.target, mixed)
        other = dilation_from_kraus(sf.CpMap.from_kraus(ch.source, ch.target, mixed), kd)
        _, _, pi_defect = environment_intertwiner(dil, other)
        worst_pi = max(worst_pi, pi_defect)
    ok = (
        worst_round <= 1e-9
        and worst_isom <= 1e-9
        and min_gram > 1e-12
        and worst_dualdual <= 1e-10
        and worst_pi <= 1e-8
    )
    _line(7, "Stinespring/Choi suite", ok,
          f"round trip {worst_round:.2e}, isometry {worst_isom:.2e}, "
          f"gram min {min_gram:.2e}, dual-dual {worst_dualdual:.2e}, "
          f"partial isometry {worst_pi:.2e}")
    assert ok


def test_criterion_8_example_reductions():
    from supermap_forge.gallery import run_demo

    cdp = run_demo("cdp08")
    cdp_ok = cdp.ok and all(len(x) == 1 for x in (cdp.realisation.a, cdp.realisation.b,
                                                  cdp.realisation.c, cdp.realisation.d))
    multi = run_demo("multimeter")
    multi_ok = multi.ok and all(d == 1 for d in multi.realisation.g_channel.target.dims)
    povm = run_demo("povm-to-state")
    prep = sf.apply(povm.realisation.e_channel, povm.realisation.c.identity())
    povm_ok = povm.ok and abs(prep.trace() - 1.0) < 1e-9 and bool(
        sf.is_positive(prep, 1e-9)
    )
    ok = cdp_ok and multi_ok and povm_ok
    _line(8, "example reductions", ok,
          f"cdp08={cdp_ok}, multimeter={multi_ok}, povm-to-state={povm_ok}")
    assert ok


def test_criterion_9_isometry_diagnostics(fifty_pipelines):
    worst_defect = max(run.realisation.w_isometry_defect for run in fifty_pipelines)
    worst_res = max(run.realisation.w_residual for run in fifty_pipelines)
    ok = worst_defect <= 1e-8 and worst_res <= 1e-8
    _line(9, "isometry diagnostics", ok,
          f"max W isometry defect {worst_defect:.3e}, max W residual {worst_res:.3e}")
    assert ok


def test_cli_pipeline_property(tmp_path):
    """gen -> verify -> realize -> check exits 0 for 20 seeded supermaps in
    under 60 seconds total."""
    start = time.time()
    rng = np.random.default_rng(5055)
    for trial in range(20):
        dims = lambda: ",".join(
            str(int(rng.integers(1, 3))) for _ in range(int(rng.integers(1, 3)))
        )
        sm = tmp_path / f"sm{trial}.json"
        real = tmp_path / f"real{trial}.json"
        assert cli.main([
            "gen", "supermap", "--a-dims", dims(), "--b-dims", dims(),
            "--c-dims", dims(), "--d-dims", dims(),
            "--p-dim", str(int(rng.integers(1, 3))),
            "--seed", str(trial), "--out", str(sm),
        ]) == 0
        assert cli.main(["verify", str(sm)]) == 0
        assert cli.main(["realize", str(sm), "--out", str(real)]) == 0
        assert cli.main(["check", str(sm), str(real), "--trials", "2",
                         "--seed", str(trial)]) == 0
    elapsed = time.time() - start
    print(f"cli pipeline property: PASS -- 20 seeded pipelines in {elapsed:.1f}s")
    assert elapsed < 60.0
