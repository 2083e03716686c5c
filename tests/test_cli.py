"""Tests for the CLI commands, exit codes, and document round trips."""

import base64
import collections
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supermap_forge as sf
from supermap_forge import cli, gen, serialize
from supermap_forge.algebra import MultiMatrixAlgebra
from supermap_forge.supermap import VERIFY_TOL
from oracles import encode_matrix


# format "1" documents written by the last release that wrote that version;
# see fixtures/v1/README.md
V1 = Path(__file__).parent / "fixtures" / "v1"
V1_MANIFEST = json.loads((V1 / "MANIFEST.json").read_text())


def run(argv):
    return cli.main(argv)


def run_in_fresh_process(argv, module="supermap_forge.cli"):
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _v1_copy(tmp_path, name):
    return Path(shutil.copy(V1 / name, tmp_path / name))


def _v1_layout(m):
    """A matrix in format 1's nested [re, im] decimal strings."""
    return [[[f"{v.real:.17g}", f"{v.imag:.17g}"] for v in row] for row in m]


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


def test_python_dash_m_supermap_forge_runs_the_cli(identity_fixture, broken_fixture, tmp_path,
                                                   capsys):
    # `python -m supermap_forge` from a checkout is cli.main: the same exit
    # codes and the same report
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"format_version": "1", "kind": "sup')
    for path, code in ((identity_fixture, 0), (broken_fixture, 1), (garbage, 2)):
        done = run_in_fresh_process(["verify", str(path)], module="supermap_forge")
        assert done.returncode == run(["verify", str(path)]) == code
        captured = capsys.readouterr()
        assert (done.stdout, done.stderr) == (captured.out, captured.err)


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


# These damage format 1's [re, im] layout, so they run on a format 1 document;
# MALFORMED_V2 holds their format 2 counterparts.
ON_V1_DOCUMENT = {"non-numeric entry", "nan entry", "inf entry", "ragged row"}
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
def test_malformed_supermap_document_is_input_error(variant, identity_fixture, tmp_path,
                                                    capsys):
    path = _v1_copy(tmp_path, "supermap.json") if variant in ON_V1_DOCUMENT else identity_fixture
    doc = json.loads(path.read_text())
    MALFORMED[variant](doc)
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    assert run(["realize", str(path)]) == 2
    assert "error: " in capsys.readouterr().err


def _raw(m):
    return base64.b64decode(m["c16"])


def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


def _set_first_value(value):
    # packs the bytes itself: encode_matrix refuses non-finite entries
    def damage(m):
        a = serialize.decode_matrix(m).copy()
        a[0, 0] = value
        return {"shape": m["shape"], "c16": _b64(a.astype("<c16").tobytes())}
    return damage


def _update(**fields):
    def damage(m):
        return {**m, **{k: f(m) for k, f in fields.items()}}
    return damage


# Each case maps the first stored matrix of a document of the given format
# version to its damaged form.
MALFORMED_V2 = {
    "non-alphabet base64": ("2", _update(c16=lambda m: "*" + m["c16"][1:])),
    "bad padding": ("2", _update(c16=lambda m: m["c16"] + "=")),
    "one byte short": ("2", _update(c16=lambda m: _b64(_raw(m)[:-1]))),
    "one byte long": ("2", _update(c16=lambda m: _b64(_raw(m) + b"\0"))),
    "shape disagrees with algebra": (
        "2", _update(shape=lambda m: [m["shape"][0] * m["shape"][1], 1])),
    "negative shape": ("2", _update(shape=lambda m: [-x for x in m["shape"]])),
    "non-integer shape": ("2", _update(shape=lambda m: [2.5, m["shape"][1]])),
    "missing shape": ("2", lambda m: {"c16": m["c16"]}),
    "nan packed": ("2", _set_first_value(complex(np.nan, 0))),
    "inf packed": ("2", _set_first_value(complex(0, np.inf))),
    "c16 is a list": ("2", _update(c16=lambda m: [m["c16"]])),
    "format 1 matrix in a format 2 document": (
        "2", lambda m: _v1_layout(serialize.decode_matrix(m))),
    "format 2 matrix in a format 1 document": (
        "1", lambda m: encode_matrix(serialize.decode_matrix(m, "1"))),
}


def _c16(shape, raw):
    return {"shape": shape, "c16": _b64(raw)}


def _long_c16(damage):
    """A 1 x 2048 matrix whose 43,692-character text, past the cut at which
    the pair table decodes it, is damaged by ``damage``."""
    text = _b64(np.arange(2048, dtype="<c16").tobytes())
    assert len(text) >= serialize._B64_CUT
    return {"shape": [1, 2048], "c16": damage(text)}


def _middle(char):
    return lambda text: text[:len(text) // 2] + char + text[len(text) // 2 + 1:]


# (format version, stored matrix, what the error names); each case fails
# exactly one of the decoder's checks
DECODE_ERRORS = {
    "format 2 matrix read as format 1": ("1", _c16([1, 1], bytes(16)), "format 1 matrix"),
    "format 1 matrix read as format 2": ("2", [[["0", "0"]]], "format 2 matrix"),
    "shape of three": ("2", _c16([1, 1, 2], bytes(32)), r"\[rows, cols\]"),
    "negative shape": ("2", _c16([-1, -2], bytes(32)), "non-negative"),
    "boolean shape": ("2", _c16([True, 1], bytes(16)), "must be an integer"),
    # 48 bytes need no padding, so the text is one character too long
    "excess padding": ("2", {"shape": [1, 3], "c16": _b64(bytes(48)) + "="}, "of 48 bytes"),
    # a lenient decoder would skip the four stars and find 45 bytes
    "non-alphabet": ("2", {"shape": [1, 3], "c16": "****" + _b64(bytes(48))[4:]},
                     "not strict base64"),
    # 31 and 32 bytes both encode to 44 characters
    "one byte short, same text length": ("2", _c16([1, 2], bytes(31)), "holds 31 bytes"),
    "nan": ("2", _c16([1, 1], np.array([np.nan], "<c16").tobytes()), "finite"),
    "long, non-alphabet in the middle": (
        "2", _long_c16(_middle("*")), "not strict base64: Only base64 data is allowed"),
    "long, = in the middle": (
        "2", _long_c16(_middle("=")), "not strict base64: Discontinuous padding"),
    "long, non-ASCII": (
        "2", _long_c16(_middle("é")), "not strict base64: string argument should contain only"),
    # strict base64 reads "====" as a group of no bytes, where "AAA=" held 2
    "long, excess padding": (
        "2", _long_c16(lambda text: text[:-4] + "===="), "holds 32766 bytes"),
    "true entry": ("1", [[True]], "two strings, got True"),
    "boolean pair entry": ("1", [[[True, "0"]]], r"two strings, got \[True, '0'\]"),
    "bare number entry": ("1", [[0.5]], "two strings, got 0.5"),
    "null entry": ("1", [[None]], "two strings, got None"),
    "number pair entry": ("1", [[[0, 0]]], r"two strings, got \[0, 0\]"),
    "one-element entry": ("1", [[["0"]]], r"two strings, got \['0'\]"),
    "three-element entry": ("1", [[["0", "0", "0"]]], r"two strings, got \['0', '0', '0'\]"),
}


@pytest.mark.parametrize("case", sorted(DECODE_ERRORS))
def test_decode_matrix_names_what_is_malformed(case):
    version, m, message = DECODE_ERRORS[case]
    with pytest.raises(sf.ShapeMismatchError, match=message):
        serialize.decode_matrix(m, version)


def test_format_1_entry_of_two_booleans_is_input_error(tmp_path, capsys):
    # format 1's writer stored every entry as two decimal strings; [true,
    # false] once read as 1 + 0j, and verify printed NOT deterministic, exit 1
    path = _v1_copy(tmp_path, "supermap.json")
    assert run(["verify", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["payload"]["choi"][0]["matrix"][0][0] = [True, False]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entry is [re, im] as two strings, got [True, False]" in captured.err


def _v2_realisation_document(r):
    """r's realisation document as format "2" stored it: E as its Choi blocks."""
    doc = serialize.realisation_document(r)
    payload = {}
    for k, v in doc["payload"].items():
        if k == "e_kraus":
            k, v = "e_channel", serialize.cpmap_payload(r.e_channel)
        payload[k] = v
    return {**doc, "format_version": "2", "payload": payload}


@pytest.fixture()
def documents(tmp_path):
    """A deterministic supermap and its realisation, in each format version."""
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    s = sf.identity_supermap(a, MultiMatrixAlgebra.single(2, "j"))
    r = sf.realize(s)
    sm, real = tmp_path / "sm.json", tmp_path / "real.json"
    real3 = tmp_path / "real3.json"
    serialize.save_document(sm, serialize.supermap_document(s))
    serialize.save_document(real, _v2_realisation_document(r))
    serialize.save_document(real3, serialize.realisation_document(r))
    return {"3": (sm, real3), "2": (sm, real),
            "1": (_v1_copy(tmp_path, "supermap.json"), _v1_copy(tmp_path, "realisation.json"))}


@pytest.mark.parametrize("command", ["verify", "realize", "check"])
@pytest.mark.parametrize("variant", sorted(MALFORMED_V2))
def test_malformed_v2_payload_is_input_error(variant, command, documents, capsys):
    version, damage = MALFORMED_V2[variant]
    sm, real = documents[version]
    # check loads a good supermap and the damaged realisation
    path = real if command == "check" else sm
    doc = json.loads(path.read_text())
    assert doc["format_version"] == version
    payload = doc["payload"]
    entries = payload["g_channel"]["choi"] if command == "check" else payload["choi"]
    entries[0]["matrix"] = damage(entries[0]["matrix"])
    path.write_text(json.dumps(doc))
    argv = ["check", str(sm), str(real)] if command == "check" else [command, str(sm)]
    assert run(argv) == 2
    assert "error: " in capsys.readouterr().err


def test_q4_supermap_with_a_damaged_middle_character_is_input_error(tmp_path, capsys):
    # S's one 256 x 256 block is 1,398,104 characters: the pair table reads it
    q4 = MultiMatrixAlgebra.single(4)
    s = gen.random_supermap_from_circuit(q4, q4, q4, q4, p_dim=2, seed=1)
    path = tmp_path / "sm.json"
    serialize.save_document(path, serialize.supermap_document(s))
    assert run(["verify", str(path)]) == 0
    text = path.read_bytes()
    middle = text.index(b'"c16":"') + len(text) // 2
    path.write_bytes(text[:middle] + b"*" + text[middle + 1:])
    capsys.readouterr()
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c16 is not strict base64: Only base64 data is allowed" in captured.err


def _set_bool(doc, field):
    p = doc["payload"]
    if field == "dim":
        assert p["a"]["blocks"][1]["dim"] == 1
        p["a"]["blocks"][1]["dim"] = True
    elif field == "shape":
        p["g_channel"]["choi"][0]["matrix"]["shape"][0] = True
    else:
        p[field] = True


@pytest.mark.parametrize("field", ["dim", "p_dim", "p_bound", "shape"])
def test_json_booleans_are_not_integers(field, documents, capsys):
    # before booleans were refused, "dim": true loaded as a dim-1 block and a
    # realisation with "p_bound": true passed check
    sm, real = documents["2"]
    path = sm if field == "dim" else real
    doc = json.loads(path.read_text())
    _set_bool(doc, field)
    path.write_text(json.dumps(doc))
    argv = ["verify", str(sm)] if field == "dim" else ["check", str(sm), str(real)]
    assert run(argv) == 2
    assert "must be an integer" in capsys.readouterr().err


# (field, stored value): realisation scalars the reader refuses
MALFORMED_SCALARS = {
    "boolean residual": ("w_residual", True),
    "nan residual": ("w_residual", "nan"),
    "negative residual": ("w_residual", "-1e-15"),
    "-inf defect": ("w_isometry_defect", "-inf"),
    "negative defect": ("w_isometry_defect", "-3.5e-15"),
    "inf number defect": ("w_isometry_defect", float("inf")),
    "boolean gram_min_eig": ("gram_min_eig", False),
    "nan gram_min_eig": ("gram_min_eig", "NaN"),
}


@pytest.mark.parametrize("version", ["1", "2", "3"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SCALARS))
def test_realisation_with_a_malformed_scalar_is_input_error(case, version, documents,
                                                            capsys):
    field, value = MALFORMED_SCALARS[case]
    sm, real = documents[version]
    doc = json.loads(real.read_text())
    doc["payload"][field] = value
    real.write_text(json.dumps(doc))
    with pytest.raises(sf.ShapeMismatchError, match=field):
        serialize.load_realisation(real)
    assert run(["check", str(sm), str(real)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field", ["w_residual", "w_isometry_defect", "gram_min_eig"])
def test_writer_refuses_a_non_finite_scalar(field, p4_realisation):
    _, real = p4_realisation
    r = serialize.load_realisation(real)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(sf.ShapeMismatchError, match="non-finite scalar"):
            serialize.realisation_document(dataclasses.replace(r, **{field: bad}))


@pytest.mark.parametrize("p_bound", [3, 5, 100])
def test_realisation_with_a_hand_edited_p_bound_is_input_error(p_bound, p4_realisation,
                                                               capsys):
    sm, real = p4_realisation
    doc = json.loads(real.read_text())
    assert doc["payload"]["p_bound"] == 4
    doc["payload"]["p_bound"] = p_bound
    real.write_text(json.dumps(doc))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_realisation(real)
    capsys.readouterr()
    assert run(["check", str(sm), str(real)]) == 2
    assert "p_bound" in capsys.readouterr().err


def test_deeply_nested_document_is_input_error(identity_fixture, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(sf.ShapeMismatchError, match="nests too deeply"):
        serialize.load_document(deep)
    real = tmp_path / "real.json"
    assert run(["realize", str(identity_fixture), "--out", str(real)]) == 0
    capsys.readouterr()
    assert run(["verify", str(deep)]) == 2
    assert run(["realize", str(deep)]) == 2
    assert run(["check", str(deep), str(real)]) == 2
    assert run(["check", str(identity_fixture), str(deep)]) == 2
    assert "nests too deeply" in capsys.readouterr().err
    # a label that json can still parse but that is too deep to decode
    label = "i1"
    for _ in range(600):
        label = [label]
    doc = json.loads(identity_fixture.read_text())
    doc["payload"]["a"]["blocks"][1]["label"] = label
    identity_fixture.write_text(json.dumps(doc))
    with pytest.raises(sf.ShapeMismatchError, match="RecursionError"):
        serialize.load_supermap(identity_fixture)
    assert run(["verify", str(identity_fixture)]) == 2


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


def test_check_mismatched_algebras_is_input_error(tmp_path, capsys):
    sm1 = tmp_path / "sm1.json"
    sm2 = tmp_path / "sm2.json"
    real = tmp_path / "real.json"
    assert run(["gen", "supermap", "--a-dims", "2", "--b-dims", "2", "--c-dims", "2",
                "--d-dims", "2", "--seed", "1", "--out", str(sm1)]) == 0
    assert run(["gen", "supermap", "--a-dims", "3", "--b-dims", "2", "--c-dims", "2",
                "--d-dims", "2", "--seed", "1", "--out", str(sm2)]) == 0
    assert run(["realize", str(sm1), "--out", str(real)]) == 0
    capsys.readouterr()
    assert run(["check", str(sm2), str(real)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: realisation and supermap act on different algebras\n"


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
        entry["matrix"] = encode_matrix(m)
    real.write_text(json.dumps(doc))
    for trials in ([], ["--trials", "0"]):
        check = ["check", str(sm), str(real), *trials]
        assert run([*check, "--tol", "1e-6"]) == 0, trials
        assert "PASS" in capsys.readouterr().out
        assert run([*check, "--tol", "1e-8"]) == 1, trials
        assert "FAIL" in capsys.readouterr().out


def test_check_verdict_on_a_non_tp_format_1_circuit_depends_on_tol_only(tmp_path, capsys):
    # the format 1 fixtures, every G Choi entry scaled by 1 + 3e-7: the
    # spanning deviation is 1.2e-7 and the trial deviation about 3.0e-7
    sm, real = _v1_copy(tmp_path, "supermap.json"), _v1_copy(tmp_path, "realisation.json")
    doc = json.loads(real.read_text())
    assert doc["format_version"] == "1"
    for entry in doc["payload"]["g_channel"]["choi"]:
        m = serialize.decode_matrix(entry["matrix"], "1") * (1 + 3e-7)
        entry["matrix"] = _v1_layout(m)
    real.write_text(json.dumps(doc))
    for trials in ([], ["--trials", "0"]):
        check = ["check", str(sm), str(real), *trials]
        assert run([*check, "--tol", "1e-6"]) == 0, trials
        assert "PASS" in capsys.readouterr().out
        assert run([*check, "--tol", "1e-8"]) == 1, trials
        assert "FAIL" in capsys.readouterr().out


def test_library_and_cli_check_at_the_same_default_tolerance(p4_realisation, monkeypatch,
                                                             capsys):
    # G scaled by 1 + 3e-7 passes at 1e-6; check_realisation and the CLI's
    # check both default to VERIFY_TOL, and both fail it there
    monkeypatch.delenv("SUPERMAP_FORGE_TOL", raising=False)
    sm, real = p4_realisation
    doc = json.loads(real.read_text())
    for entry in doc["payload"]["g_channel"]["choi"]:
        m = serialize.decode_matrix(entry["matrix"]) * (1 + 3e-7)
        entry["matrix"] = encode_matrix(m)
    real.write_text(json.dumps(doc))
    s, r = serialize.load_supermap(sm), serialize.load_realisation(real)
    for trials in (0, 1):
        chk = sf.check_realisation(r, s, trials=trials)
        assert chk.tol == VERIFY_TOL and not chk.passed, chk.summary()
        assert sf.check_realisation(r, s, trials=trials, tol=1e-6).passed
    assert run(["check", str(sm), str(real)]) == 1
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
    assert "cdp08" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [["supermap", "--p-dim", str(10**12)],
                                  ["channel", "--source-dims", str(10**12)]])
def test_gen_too_large_to_draw_is_input_error(argv, tmp_path, capsys):
    # numpy refuses an array of 10**12 rows before allocating any of it
    out = tmp_path / "big.json"
    assert run(["gen", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too big" in err
    assert not out.exists()


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


def test_channel_round_trip_is_bit_exact(tmp_path):
    a = MultiMatrixAlgebra(((("x", 0), 2), ("y", 1)))
    ch = gen.random_channel(a, MultiMatrixAlgebra.single(3, "z"), seed=8)
    path, path2 = tmp_path / "ch.json", tmp_path / "ch2.json"
    serialize.save_document(path, serialize.channel_document(ch))
    loaded = serialize.load_channel(path)
    assert loaded.source == ch.source and loaded.target == ch.target
    assert _digests(loaded) == _digests(ch)
    serialize.save_document(path2, serialize.channel_document(loaded))
    assert path.read_bytes() == path2.read_bytes()


def test_document_version_and_kind_checks(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": "99", "kind": "supermap", "payload": {}}))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_document(path)
    path.write_text(json.dumps({"format_version": "1", "kind": "channel", "payload": {}}))
    with pytest.raises(sf.ShapeMismatchError):
        serialize.load_document(path, "supermap")
    # format 3 changed only how a realisation stores E
    path.write_text(json.dumps({"format_version": "3", "kind": "supermap", "payload": {}}))
    with pytest.raises(sf.ShapeMismatchError, match="format 3 document is a realisation"):
        serialize.load_document(path)


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


def test_env_tolerance_is_read_only_by_a_command_that_defaults_to_it(
    broken_fixture, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SUPERMAP_FORGE_TOL", "abc")
    capsys.readouterr()
    assert run(["gen", "channel", "--out", str(tmp_path / "ch.json")]) == 0
    assert run(["demo", "cdp08"]) == 0
    assert run(["verify", str(broken_fixture), "--tol", "1e-8"]) == 1
    assert "SUPERMAP_FORGE_TOL" not in capsys.readouterr().err
    assert run(["verify", str(broken_fixture)]) == 1
    assert "ignoring bad SUPERMAP_FORGE_TOL='abc'" in capsys.readouterr().err
    # an explicit --tol wins over a valid value
    monkeypatch.setenv("SUPERMAP_FORGE_TOL", "10.0")
    assert run(["verify", str(broken_fixture), "--tol", "1e-8"]) == 1
    assert run(["verify", str(broken_fixture)]) == 0


def test_parse_errors_and_help_leave_the_next_call_as_in_a_fresh_process(
    identity_fixture, broken_fixture, capsys
):
    for valid in (["verify", str(identity_fixture)], ["realize", str(broken_fixture)]):
        fresh = run_in_fresh_process(valid)
        for interruption, code in ((["verify"], 2), (["realize", "x", "--tol"], 2),
                                   (["--help"], 0), (["check", "--help"], 0)):
            assert run(interruption) == code, interruption
            capsys.readouterr()
            assert run(valid) == fresh.returncode, (interruption, valid)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), interruption


def _count_calls(monkeypatch, names):
    """Count the matrices that calls of the named functions work on, through
    every package namespace holding one: a stack's length, else one.  The
    PSD certificate's two entry points, _psd_block for a lone block and
    _psd_stack for a stack of equal-size ones, are counted together as
    "psd"."""
    calls = collections.Counter()
    for module in [m for k, m in sys.modules.items() if k.startswith("supermap_forge")]:
        for name in names:
            inner = getattr(module, name, None)
            if callable(inner):
                key = "psd" if name in ("_psd_block", "_psd_stack") else name

                def counted(*args, _inner=inner, _key=key, **kwargs):
                    x = args[0]
                    calls[_key] += (len(x) if isinstance(x, list) or getattr(x, "ndim", 0) > 2
                                    else 1)
                    return _inner(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


def test_cli_realize_runs_one_gate_pass(tmp_path, monkeypatch):
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b, c = MultiMatrixAlgebra.single(2, "j"), MultiMatrixAlgebra.from_dims((1, 2), "k")
    d = MultiMatrixAlgebra.from_dims((2, 1), "l")
    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=3)
    ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
    serialize.save_document(ok, serialize.supermap_document(s))
    broken = gen.perturb_supermap(s, 1e-3, "tp-breaking", seed=1)
    serialize.save_document(bad, serialize.supermap_document(broken))
    s_blocks = len(s.inner.source) * len(s.inner.target)
    gate = {"psd": s_blocks + len(a) * len(c), "_n_and_phi": 1, "kernel_residual": 1}
    calls = _count_calls(monkeypatch, ["_psd_block", "_psd_stack", "_n_and_phi",
                                       "kernel_residual", "_eigh_kraus", "_eigh_rows",
                                       "_cholesky_rows"])
    eigh = np.linalg.eigh

    def counted_eigh(h):  # the matrices of a stack, one each
        calls["eigh"] += int(np.prod(h.shape[:-2]))
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    assert run(["realize", str(ok), "--out", str(tmp_path / "r.json")]) == 0
    # one gate pass judges each block of S and N once; one eigh per block of
    # N, inside _eigh_kraus, and one Cholesky per block of Phi's dual, none
    # of which falls back to eigh
    assert calls == {**gate, "_eigh_kraus": 1, "eigh": len(a) * len(c),
                     "_cholesky_rows": len(c) * len(a) * len(b)}
    calls.clear()
    assert run(["realize", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    assert calls == gate


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


def _digests(m):
    return [hashlib.sha256(_bits(m.choi(j, i)).tobytes()).hexdigest()
            for j in range(len(m.target)) for i in range(len(m.source))]


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
                    s.source_hom, s.target_hom)
    path = tmp_path / "sm.json"
    serialize.save_document(path, serialize.supermap_document(s))
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    _assert_same_blocks(serialize.load_supermap(path), s)
    # every block is stored as the shape and base64 bytes encode_matrix gives
    doc = json.loads(text)
    assert doc["format_version"] == "2"
    stored = doc["payload"]["choi"][0]["matrix"]
    assert stored == encode_matrix(blocks[0][0])
    assert _raw(stored) == _bits(blocks[0][0]).tobytes()
    # an indented layout loads to the same blocks
    indented = tmp_path / "indented.json"
    with open(indented, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    _assert_same_blocks(serialize.load_supermap(indented), s)

    # the same edge block in a format 1 document, written by the release
    # that wrote format 1, as [re, im] strings with 17 significant digits
    v1 = V1 / "edge_values.json"
    v1_doc = json.loads(v1.read_text())
    assert v1_doc["format_version"] == "1"
    assert v1_doc["payload"]["choi"][0]["matrix"] == _v1_layout(blocks[0][0])
    old = serialize.load_supermap(v1)
    assert np.array_equal(_bits(old.inner.choi(0, 0)), _bits(blocks[0][0]))
    assert _digests(old.inner) == V1_MANIFEST["edge_values.json"]["choi"]
    # the indented layout written by earlier versions loads to the same blocks
    with open(indented, "w", encoding="utf-8") as f:
        json.dump(v1_doc, f, indent=1)
        f.write("\n")
    _assert_same_blocks(serialize.load_supermap(indented), old)
    # and a format 1 document saved again is format 2 with the same bits
    serialize.save_document(path, serialize.supermap_document(old))
    assert json.loads(path.read_text())["format_version"] == "2"
    _assert_same_blocks(serialize.load_supermap(path), old)


def test_writer_refuses_what_the_reader_refuses(tmp_path):
    out = tmp_path / "rep.json"
    m2, m1 = MultiMatrixAlgebra.single(2), MultiMatrixAlgebra.single(1)
    for bad in (np.inf, np.nan, complex(1.0, -np.inf)):
        channel = sf.CpMap(m2, m1, [[np.array([[0.5, bad], [0.0, 0.5]])]])
        with pytest.raises(sf.ShapeMismatchError, match="non-finite"):
            serialize.save_document(out, serialize.channel_document(channel))
    report = serialize.report_document("verify", {
        "kernel_residual": 0.0, "extracted_n": np.array([[np.nan]]),
    })
    with pytest.raises(sf.ShapeMismatchError, match="non-finite"):
        serialize.save_document(out, report)
    report = serialize.report_document("verify", {"kernel_residual": np.inf})
    with pytest.raises(sf.ShapeMismatchError, match="not JSON compliant"):
        serialize.save_document(out, report)
    assert not out.exists()


@pytest.mark.parametrize("command, write", [("verify", False), ("verify", True),
                                            ("realize", True)])
def test_overflowing_entries_are_an_input_error(tmp_path, command, write):
    # the edge values load (they are finite), but the PSD rule's m - m†
    # overflows on them; run in a subprocess, since numpy's overflow
    # RuntimeWarning is an error under this suite's warning filter
    out = tmp_path / "out.json"
    args = [command, str(V1 / "edge_values.json")] + (["--out", str(out)] if write else [])
    proc = run_in_fresh_process(args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "overflow" in proc.stderr and "Warning" not in proc.stderr
    assert not out.exists()


def _e_blocks_within_rank_one_tol(r, stored):
    """Every Choi block of r's E within serialize.RANK_ONE_TOL * max(1, ||C||_F)
    of the stored block C."""
    return all(
        np.linalg.norm(r.e_channel.choi(j, i) - c)
        <= serialize.RANK_ONE_TOL * max(1.0, np.linalg.norm(c))
        for j, row in enumerate(stored.choi_blocks) for i, c in enumerate(row))


def _report_scalars(p):
    return {k: float(p[k]).hex() for k in ("kernel_residual", "n_unital_residual", "tol")}


def _load_v1_fixture(name):
    """The loaded object of one format 1 fixture and its manifest fields."""
    path = V1 / name
    if name == "realisation.json":
        r = serialize.load_realisation(path)
        # E loads as its Kraus operators, which reproduce the stored blocks
        # within the reader's rank-one tolerance; the manifest digests those
        stored = serialize.cpmap_from_payload(
            json.loads(path.read_text())["payload"]["e_channel"], "1")
        assert _e_blocks_within_rank_one_tol(r, stored)
        return {
            "e_channel": _digests(stored),
            "g_channel": _digests(r.g_channel),
            "p_dim": r.p_dim,
            "p_bound": r.p_bound,
            **{k: float(getattr(r, k)).hex()
               for k in ("w_residual", "w_isometry_defect", "gram_min_eig")},
        }
    if name == "channel.json":
        return {"choi": _digests(serialize.load_channel(path))}
    if name == "verify_report.json":
        doc = serialize.load_document(path, "report")
        p = doc["payload"]
        assert p["report_type"] == "verify" and p["verdict"] is True
        n = serialize.cpmap_from_payload(p["extracted_n"], doc["format_version"])
        return {"extracted_n": _digests(n), **_report_scalars(p)}
    return {"choi": _digests(serialize.load_supermap(path).inner)}


@pytest.mark.parametrize("name", sorted(V1_MANIFEST))
def test_v1_fixture_loads_bit_identically(name):
    assert json.loads((V1 / name).read_text())["format_version"] == "1"
    assert _load_v1_fixture(name) == V1_MANIFEST[name]


def test_v1_fixtures_keep_their_tuple_labels():
    s = serialize.load_supermap(V1 / "supermap.json")
    assert s.source_hom.in_algebra.labels == (("x", 0), "y")
    assert s.target_hom.in_algebra.labels == ("z", ("w", ("v", 1)))
    r = serialize.load_realisation(V1 / "realisation.json")
    assert (r.a, r.c) == (s.source_hom.in_algebra, s.target_hom.in_algebra)


def test_cli_rejects_unknown_arguments():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def _plus_rank_one(m):
    """A stored format 2 matrix plus a rank-one term off its own direction."""
    c = serialize.decode_matrix(m)
    v = np.exp(1j * np.arange(c.shape[0])) * np.arange(1, c.shape[0] + 1)
    return encode_matrix(c + np.outer(v, v.conj()))


def _set_e_entry(index, **fields):
    def damage(payload):
        entry = payload["e_kraus"][index]
        entry.update({k: f(entry["matrix"]) for k, f in fields.items()})
    return damage


# (realisation format, damage to its payload, what the error says); the
# documents fixture has A = C = M2 (+) C, so E has four blocks
MALFORMED_E = {
    "format 2 block of rank two": (
        "2", lambda p: p["e_channel"]["choi"][0].update(
            matrix=_plus_rank_one(p["e_channel"]["choi"][0]["matrix"])),
        "E block for C block 0 -> A block 0 is not rank one"),
    "missing entry": ("3", lambda p: p["e_kraus"].pop(),
                      "E entry for C block 1 -> A block 1 is missing"),
    "repeated entry": ("3", lambda p: p["e_kraus"].append(p["e_kraus"][0]),
                       "repeated E entry for C block 0 -> A block 0"),
    "wrong shape": ("3", _set_e_entry(0, matrix=lambda m: encode_matrix(
        serialize.decode_matrix(m).reshape(1, -1))),
        "E entry for C block 0 -> A block 0 has shape (1, 4), expected (2, 2)"),
    "non-finite entry": ("3", _set_e_entry(1, matrix=_set_first_value(complex(0, np.inf))),
                         "E entry for C block 1 -> A block 0: matrix entries must be finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_E))
def test_malformed_e_is_input_error_naming_the_block(case, documents, capsys):
    version, damage, message = MALFORMED_E[case]
    sm, real = documents[version]
    doc = json.loads(real.read_text())
    assert doc["format_version"] == version
    damage(doc["payload"])
    real.write_text(json.dumps(doc))
    with pytest.raises(sf.ShapeMismatchError) as info:
        serialize.load_realisation(real)
    assert message in str(info.value)
    assert run(["check", str(sm), str(real)]) == 2
    assert message in capsys.readouterr().err


def test_format_3_round_trip_is_bit_exact_on_u_and_g(tmp_path):
    algs = [MultiMatrixAlgebra.from_dims(x, lbl)
            for x, lbl in zip(((2, 1), (2,), (1, 2), (2, 1)), "abcd")]
    r = sf.realize(gen.random_supermap_from_circuit(*algs, p_dim=2, seed=5))
    path = tmp_path / "real.json"
    serialize.save_document(path, serialize.realisation_document(r))
    assert json.loads(path.read_text())["format_version"] == "3"
    loaded = serialize.load_realisation(path)
    assert loaded.e_kraus.keys() == r.e_kraus.keys()
    for key, u in r.e_kraus.items():
        assert np.array_equal(_bits(loaded.e_kraus[key]), _bits(u)), key
    assert _digests(loaded.g_channel) == _digests(r.g_channel)


def test_a_zero_format_2_e_block_loads_as_a_zero_kraus_operator(tmp_path):
    # the identity on two classical symbols: N has Kraus rank 0 off the
    # diagonal, so two of E's four Choi blocks are exactly zero
    triv = MultiMatrixAlgebra.classical(2)
    s = sf.identity_supermap(triv, triv)
    r = sf.realize(s)
    path = tmp_path / "real.json"
    serialize.save_document(path, _v2_realisation_document(r))
    loaded = serialize.load_realisation(path)
    assert sum(not u.any() for u in loaded.e_kraus.values()) == 2
    for key, u in r.e_kraus.items():
        assert np.array_equal(_bits(loaded.e_kraus[key]), _bits(u)), key
    assert sf.check_realisation(loaded, s, trials=1).passed


def test_v1_realisation_kraus_operators_reproduce_its_e_blocks():
    path = V1 / "realisation.json"
    r = serialize.load_realisation(path)
    stored = serialize.cpmap_from_payload(
        json.loads(path.read_text())["payload"]["e_channel"], "1")
    assert len(r.e_kraus) == 4
    for (k, i), u in r.e_kraus.items():
        c = stored.choi(i, k)
        v = u.reshape(-1)
        assert np.linalg.norm(np.outer(v, v.conj()) - c) \
            <= serialize.RANK_ONE_TOL * max(1.0, np.linalg.norm(c)), (k, i)


def test_q4_realisation_document_is_small_and_loads_back_bit_exactly(tmp_path):
    # p_dim 16: E's U_ik is 64 x 4, where its Choi block was 256 x 256; the
    # document was 2.80 MB with E's Choi blocks and is 1.40 MB
    q4 = MultiMatrixAlgebra.single(4)
    r = sf.realize(gen.random_supermap_from_circuit(q4, q4, q4, q4, p_dim=2, seed=1))
    assert r.p_dim == 16
    path = tmp_path / "real.json"
    serialize.save_document(path, serialize.realisation_document(r))
    assert path.stat().st_size <= 1.5e6
    loaded = serialize.load_realisation(path)
    assert all(np.array_equal(_bits(loaded.e_kraus[key]), _bits(u))
               for key, u in r.e_kraus.items())
    assert _digests(loaded.g_channel) == _digests(r.g_channel)
