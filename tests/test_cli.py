"""Tests for the CLI commands, exit codes, and document round trips."""

import json

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import cli, gen, serialize
from supermap_forge.algebra import MultiMatrixAlgebra


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def identity_fixture(tmp_path):
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    s = sf.identity_supermap(a, b)
    path = tmp_path / "identity.json"
    serialize.save_document(path, serialize.supermap_document(s))
    return path


@pytest.fixture()
def broken_fixture(tmp_path):
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=1, seed=0)
    bad = gen.perturb_supermap(s, 1e-2, "tp-breaking", seed=1)
    path = tmp_path / "broken.json"
    serialize.save_document(path, serialize.supermap_document(bad))
    return path


def test_verify_exit_codes(identity_fixture, broken_fixture, tmp_path, capsys):
    assert run(["verify", str(identity_fixture)]) == 0
    assert "deterministic" in capsys.readouterr().out
    assert run(["verify", str(broken_fixture)]) == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"format_version": "1", "kind": "sup')
    assert run(["verify", str(garbage)]) == 2
    assert run(["verify", str(tmp_path / "missing.json")]) == 2


def test_verify_writes_report(identity_fixture, tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", str(identity_fixture), "--out", str(out)]) == 0
    doc = serialize.load_document(out, "report")
    assert doc["payload"]["verdict"] is True
    assert doc["payload"]["report_type"] == "verify"


def test_realize_and_check_pipeline(tmp_path, capsys):
    sm = tmp_path / "sm.json"
    real = tmp_path / "real.json"
    assert run(["gen", "supermap", "--a-dims", "2", "--b-dims", "2", "--c-dims", "2",
                "--d-dims", "2", "--p-dim", "2", "--seed", "9", "--out", str(sm)]) == 0
    assert run(["realize", str(sm), "--out", str(real)]) == 0
    capsys.readouterr()
    assert run(["check", str(sm), str(real), "--trials", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_realize_rejects_non_deterministic(broken_fixture, tmp_path):
    assert run(["realize", str(broken_fixture), "--out", str(tmp_path / "r.json")]) == 1


def test_realize_accepts_a_null_push_within_tol(tmp_path):
    # the identity supermap on M2 with its Choi block pushed 5e-9 below zero
    # along a null vector: verify accepts it at 1e-8, and so must realize
    m2 = MultiMatrixAlgebra.single(2, "q")
    s = gen.perturb_supermap(sf.identity_supermap(m2, m2), 5e-9, "cp-breaking")
    sm, real = tmp_path / "push.json", tmp_path / "real.json"
    serialize.save_document(sm, serialize.supermap_document(s))
    assert run(["realize", str(sm), "--out", str(real)]) == 0
    assert run(["check", str(sm), str(real), "--tol", "1e-6"]) == 0


def _set_first_entry(value):
    def damage(doc):
        doc["payload"]["choi"][0]["matrix"][0][0][0] = value
    return damage


MALFORMED = {
    "non-numeric entry": _set_first_entry("abc"),
    "nan entry": _set_first_entry("nan"),
    "inf entry": _set_first_entry("inf"),
    "ragged row": lambda doc: doc["payload"]["choi"][0]["matrix"][0].pop(),
    "non-integer dim": lambda doc: doc["payload"]["a"]["blocks"][0].update(dim="2.5"),
    "list payload": lambda doc: doc.update(payload=[doc["payload"]]),
    "empty choi list": lambda doc: doc["payload"].update(choi=[]),
    "repeated choi entry": lambda doc: doc["payload"]["choi"].append(doc["payload"]["choi"][0]),
}


@pytest.mark.parametrize("variant", sorted(MALFORMED))
def test_malformed_supermap_document_is_input_error(variant, identity_fixture, capsys):
    doc = json.loads(identity_fixture.read_text())
    MALFORMED[variant](doc)
    identity_fixture.write_text(json.dumps(doc))
    assert run(["verify", str(identity_fixture)]) == 2
    assert run(["realize", str(identity_fixture)]) == 2
    assert "error: " in capsys.readouterr().err


def test_realize_prints_bound_six(tmp_path, capsys):
    # H_in dims (2, 3) with K_in dims (2, 2): the memory bound is 6
    sm = tmp_path / "fixture.json"
    assert run(["gen", "supermap", "--a-dims", "2,3", "--b-dims", "2", "--c-dims",
                "2,2", "--d-dims", "2", "--p-dim", "2", "--seed", "4",
                "--out", str(sm)]) == 0
    capsys.readouterr()
    assert run(["realize", str(sm), "--out", str(tmp_path / "r.json")]) == 0
    out = capsys.readouterr().out
    assert "bound 6" in out


def test_check_wrong_supermap_fails(tmp_path):
    sm1 = tmp_path / "sm1.json"
    sm2 = tmp_path / "sm2.json"
    real = tmp_path / "real.json"
    base = ["--a-dims", "2", "--b-dims", "2", "--c-dims", "2", "--d-dims", "2",
            "--p-dim", "1"]
    assert run(["gen", "supermap", *base, "--seed", "1", "--out", str(sm1)]) == 0
    assert run(["gen", "supermap", *base, "--seed", "2", "--out", str(sm2)]) == 0
    assert run(["realize", str(sm1), "--out", str(real)]) == 0
    assert run(["check", str(sm2), str(real), "--trials", "0"]) == 1


def test_check_mismatched_algebras_is_input_error(tmp_path):
    sm1 = tmp_path / "sm1.json"
    sm2 = tmp_path / "sm2.json"
    real = tmp_path / "real.json"
    assert run(["gen", "supermap", "--a-dims", "2", "--b-dims", "2", "--c-dims", "2",
                "--d-dims", "2", "--seed", "1", "--out", str(sm1)]) == 0
    assert run(["gen", "supermap", "--a-dims", "3", "--b-dims", "2", "--c-dims", "2",
                "--d-dims", "2", "--seed", "1", "--out", str(sm2)]) == 0
    assert run(["realize", str(sm1), "--out", str(real)]) == 0
    assert run(["check", str(sm2), str(real)]) == 2


@pytest.fixture()
def p4_realisation(tmp_path):
    # M2 algebras, generation p_dim 2: the realisation has p_dim 4
    sm, real = tmp_path / "sm.json", tmp_path / "real.json"
    assert run(["gen", "supermap", "--seed", "3", "--p-dim", "2", "--out", str(sm)]) == 0
    assert run(["realize", str(sm), "--out", str(real)]) == 0
    return sm, real


def test_check_verdict_on_a_non_tp_circuit_depends_on_tol_only(p4_realisation, capsys):
    # every G Choi entry scaled by 1 + 3e-7: G's TP residual is 4.2e-7, the
    # spanning deviation 1.8e-7 and the trial deviation about 3.1e-7
    sm, real = p4_realisation
    doc = json.loads(real.read_text())
    for entry in doc["payload"]["g_channel"]["choi"]:
        m = serialize.decode_matrix(entry["matrix"]) * (1 + 3e-7)
        entry["matrix"] = serialize.encode_matrix(m)
    real.write_text(json.dumps(doc))
    for trials in ([], ["--trials", "0"]):
        check = ["check", str(sm), str(real), *trials]
        assert run([*check, "--tol", "1e-6"]) == 0, trials
        assert "PASS" in capsys.readouterr().out
        assert run([*check, "--tol", "1e-8"]) == 1, trials
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("p_dim", [3, 5])
def test_check_realisation_with_wrong_p_dim_is_input_error(p_dim, p4_realisation, capsys):
    sm, real = p4_realisation
    doc = json.loads(real.read_text())
    assert doc["payload"]["p_dim"] == 4
    doc["payload"]["p_dim"] = p_dim
    real.write_text(json.dumps(doc))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_realisation(real)
    capsys.readouterr()
    assert run(["check", str(sm), str(real)]) == 2
    assert "p_dim" in capsys.readouterr().err


def test_demo_names(capsys):
    for name in ("cdp08", "multimeter", "povm-to-state", "state-to-povm",
                 "classical-to-quantum", "quantum-to-classical"):
        assert run(["demo", name]) == 0, name
    capsys.readouterr()
    assert run(["demo", "nonsense"]) == 2
    assert "cdp08" in capsys.readouterr().out


def test_gen_channel_document(tmp_path):
    out = tmp_path / "ch.json"
    assert run(["gen", "channel", "--source-dims", "1,1", "--target-dims", "1,1",
                "--seed", "3", "--out", str(out)]) == 0
    ch = serialize.load_channel(out)
    # classical-to-classical channels are stochastic matrices
    p = np.array([[ch.choi(j, i)[0, 0].real for i in range(2)] for j in range(2)])
    assert np.allclose(p.sum(axis=0), 1.0)
    assert run(["gen", "channel", "--source-dims", "0,2", "--out",
                str(tmp_path / "bad.json")]) == 2


def test_gen_is_deterministic(tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    args = ["gen", "supermap", "--a-dims", "2", "--b-dims", "1,1", "--c-dims", "2",
            "--d-dims", "2", "--p-dim", "2", "--seed", "21"]
    assert run([*args, "--out", str(f1)]) == 0
    assert run([*args, "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_serialization_round_trip_is_bit_exact(tmp_path):
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=13)
    path = tmp_path / "sm.json"
    serialize.save_document(path, serialize.supermap_document(s))
    loaded = serialize.load_supermap(path)
    for j in range(len(s.inner.target)):
        for i in range(len(s.inner.source)):
            assert np.array_equal(loaded.inner.choi(j, i), s.inner.choi(j, i))
    # a second save of the loaded object is byte-identical
    path2 = tmp_path / "sm2.json"
    serialize.save_document(path2, serialize.supermap_document(loaded))
    assert path.read_bytes() == path2.read_bytes()


def test_realisation_round_trip_is_bit_exact(tmp_path):
    a = MultiMatrixAlgebra.single(2, "H")
    s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=2, seed=2)
    sf.verify_deterministic(s)
    r = sf.realize(s)
    path = tmp_path / "real.json"
    serialize.save_document(path, serialize.realisation_document(r))
    loaded = serialize.load_realisation(path)
    assert loaded.p_dim == r.p_dim and loaded.p_bound == r.p_bound
    for j in range(len(r.e_channel.target)):
        for i in range(len(r.e_channel.source)):
            assert np.array_equal(loaded.e_channel.choi(j, i), r.e_channel.choi(j, i))
    path2 = tmp_path / "real2.json"
    serialize.save_document(path2, serialize.realisation_document(loaded))
    assert path.read_bytes() == path2.read_bytes()


def test_document_version_and_kind_checks(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": "99", "kind": "supermap", "payload": {}}))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_document(path)
    path.write_text(json.dumps({"format_version": "1", "kind": "channel", "payload": {}}))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_document(path, "supermap")


def test_env_var_overrides_default_tolerance(broken_fixture, monkeypatch, capsys):
    # with an absurdly large tolerance the broken fixture passes verification
    monkeypatch.setenv("SUPERMAP_FORGE_TOL", "10.0")
    assert run(["verify", str(broken_fixture)]) == 0
    monkeypatch.setenv("SUPERMAP_FORGE_TOL", "1e-8")
    assert run(["verify", str(broken_fixture)]) == 1
    # unparseable, non-finite and non-positive values are ignored with a warning
    for bad in ("abc", "nan", "inf", "-inf", "0", "-1e-8"):
        monkeypatch.setenv("SUPERMAP_FORGE_TOL", bad)
        capsys.readouterr()
        assert run(["verify", str(broken_fixture)]) == 1, bad
        assert f"ignoring bad SUPERMAP_FORGE_TOL={bad!r}" in capsys.readouterr().err


def test_bad_tol_is_input_error(identity_fixture, broken_fixture, tmp_path):
    real = tmp_path / "real.json"
    assert run(["realize", str(identity_fixture), "--out", str(real)]) == 0
    for tol in ("nan", "inf", "-inf", "0", "-1e-8", "abc"):
        for path in (identity_fixture, broken_fixture):
            assert run(["verify", str(path), "--tol", tol]) == 2, (tol, path)
            assert run(["realize", str(path), "--tol", tol]) == 2, (tol, path)
        assert run(["check", str(identity_fixture), str(real), "--tol", tol]) == 2, tol


def test_negative_trials_or_seed_is_input_error(identity_fixture, tmp_path):
    real = tmp_path / "real.json"
    assert run(["realize", str(identity_fixture), "--out", str(real)]) == 0
    check = ["check", str(identity_fixture), str(real)]
    assert run([*check, "--trials", "0"]) == 0
    for flag in ("--trials", "--seed"):
        assert run([*check, flag, "-1"]) == 2, flag
        assert run([*check, flag, "two"]) == 2, flag
    assert run(["gen", "supermap", "--seed", "-1", "--out", str(tmp_path / "g.json")]) == 2


def test_non_utf8_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"format_version": "1"}'.encode("utf-16-le"))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_document(path)
    assert run(["verify", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


# Signed zero, the smallest subnormal, the smallest normal, the largest
# finite magnitudes, and two values with no short decimal form.
EDGE_VALUES = (
    -0.0, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
)


def _bits(m):
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def _assert_same_blocks(loaded, s):
    for j in range(len(s.inner.target)):
        for i in range(len(s.inner.source)):
            assert np.array_equal(_bits(loaded.inner.choi(j, i)), _bits(s.inner.choi(j, i)))


def test_codec_edge_values_and_old_layout_are_bit_exact(tmp_path):
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=13)
    blocks = [[s.inner.choi(j, i) for i in range(len(s.inner.source))]
              for j in range(len(s.inner.target))]
    n = blocks[0][0].size
    vals = np.array(EDGE_VALUES)
    edge = vals[np.arange(n) % len(vals)] + 1j * vals[(np.arange(n) + 3) % len(vals)]
    blocks[0][0] = edge.reshape(blocks[0][0].shape)
    s = sf.Supermap(sf.CpMap(s.inner.source, s.inner.target, blocks),
                    s.source_hom, s.target_hom, validate=False)
    path = tmp_path / "sm.json"
    serialize.save_document(path, serialize.supermap_document(s))
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    _assert_same_blocks(serialize.load_supermap(path), s)
    # every entry is stored as the [re, im] strings encode_matrix gives
    doc = json.loads(text)
    assert doc["format_version"] == "1"
    assert doc["payload"]["choi"][0]["matrix"] == serialize.encode_matrix(blocks[0][0])
    # the indented layout written by earlier versions loads to the same blocks
    old = tmp_path / "old.json"
    with open(old, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    _assert_same_blocks(serialize.load_supermap(old), s)


def test_cli_rejects_unknown_arguments():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
