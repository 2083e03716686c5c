"""Tests for how save_document writes a document: the bytes, and the path
the base64 takes; and for the decoder that reads long base64 back."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import supermap_forge as sf
from supermap_forge import gen, serialize
from supermap_forge.algebra import MultiMatrixAlgebra


def _oracle_text(doc):
    """The bytes save_document wrote while the whole document, base64
    included, went through json.dumps."""
    def encode_array(obj):
        if isinstance(obj, np.ndarray):
            return serialize.encode_matrix(obj)
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    text = json.dumps(doc, default=encode_array, separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("utf-8")


def _documents():
    a = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    s = gen.random_supermap_from_circuit(a, b, a, b, p_dim=2, seed=13)
    r = sf.realize(s)
    report = sf.verify_deterministic(s)
    check = sf.check_realisation(r, s, trials=2, seed=5)
    odd = MultiMatrixAlgebra((
        ('say "hi"', 1), ("back\\slash", 2), ("qé⊗\U0001d504", 1),
        (("nest", ("ed", 3), 7), 1), ('"c16":""', 2),
    ))
    one = MultiMatrixAlgebra.single(1)
    yield "supermap", serialize.supermap_document(s)
    yield "realisation", serialize.realisation_document(r)
    yield "channel", serialize.channel_document(gen.random_channel(a, b, seed=3))
    yield "odd labels", serialize.supermap_document(
        gen.random_supermap_from_circuit(odd, one, one, odd, seed=2))
    yield "verify report", serialize.report_document("verify", {
        "verdict": report.verdict, "cp_ok": report.cp_ok,
        "kernel_residual": report.kernel_residual,
        "n_unital_residual": report.n_unital_residual, "n_cp_ok": report.n_cp_ok,
        "tol": report.tol, "extracted_n": serialize.cpmap_payload(report.n_map),
        "raw": np.arange(6.0).reshape(3, 2) - 1j, "note": 'c16 "" \\ é',
    })
    yield "check report", serialize.report_document("check", {
        "passed": check.passed, "spanning_deviation": check.spanning_deviation,
        "trial_deviation": check.trial_deviation, "trials": check.trials,
        "tol": check.tol,
    })


def test_save_document_writes_the_bytes_json_dumps_gave(tmp_path):
    path = tmp_path / "doc.json"
    for name, doc in _documents():
        serialize.save_document(path, doc)
        assert path.read_bytes() == _oracle_text(doc), name


def test_base64_payloads_bypass_the_json_encoder(tmp_path, monkeypatch):
    # the encoder writes only the skeleton; a writer that sends the base64
    # back through json.dumps makes its result as large as the file
    q4 = MultiMatrixAlgebra.single(4)
    r = sf.realize(gen.random_supermap_from_circuit(q4, q4, q4, q4, p_dim=2, seed=1))
    dumped = []
    dumps = serialize.json.dumps

    def recording(*args, **kwargs):
        dumped.append(dumps(*args, **kwargs))
        return dumped[-1]

    monkeypatch.setattr(serialize.json, "dumps", recording)
    path = tmp_path / "real.json"
    serialize.save_document(path, serialize.realisation_document(r))
    assert len(dumped) == 1
    assert len(dumped[0]) < 2048 and path.stat().st_size > 1 << 20
    assert dumped[0].count('"c16":""') == len(r.e_kraus) \
        + len(r.g_channel.source) * len(r.g_channel.target)


def test_a_field_that_looks_like_a_hole_is_refused(tmp_path):
    out = tmp_path / "rep.json"
    for fields in ({"c16": ""}, {"c16": "", "n": np.eye(2)}):
        with pytest.raises(sf.ShapeMismatchError, match='"c16":""'):
            serialize.save_document(out, serialize.report_document("verify", fields))
    assert not out.exists()
    # the same text as a value is only text
    serialize.save_document(out, serialize.report_document("verify", {"x": '"c16":""'}))
    assert out.read_bytes() == _oracle_text(
        serialize.report_document("verify", {"x": '"c16":""'}))


# -- the pair-table base64 decoder ---------------------------------------------

_CUT, _CHUNK = serialize._B64_CUT, serialize._B64_CHUNK
# text lengths: either side of the cut, and bodies of 8-character groups
# ending one group before, at and after the first chunk edge, with a 4- or
# 8-character tail
_LENGTHS = (_CUT - 8, _CUT - 4, _CUT, _CUT + 4,
            *(8 * (_CHUNK + d) + t for d in (-1, 0, 1) for t in (4, 8)))
_DAMAGE = ("*", "=", "\n", " ", "é")


def _decoded(decode, text):
    """decode's bytes, or the type and message of the ValueError it raised."""
    try:
        return bytes(decode(text))
    except ValueError as exc:
        return type(exc), str(exc)


def _agrees(text):
    """_b64decode gives strict base64's bytes or error on text."""
    got = _decoded(serialize._b64decode, text)
    assert got == _decoded(lambda t: base64.b64decode(t, validate=True), text)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(length=st.sampled_from(_LENGTHS), padding=st.sampled_from((0, 1, 2)),
       seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 7))
def test_pair_table_decoder_agrees_with_strict_base64(length, padding, seed, offset):
    # 3 * length / 4 bytes need no "=", one byte fewer one, two fewer two:
    # the three cases 16 r c mod 3 gives a c16 text
    raw = np.random.default_rng(seed).bytes(3 * length // 4 - padding)
    text = base64.b64encode(raw).decode("ascii")
    assert len(text) == length
    _agrees(text)
    # the bytes came through the table, not through binascii as a whole
    assert isinstance(serialize._b64decode(text), np.ndarray) == (length >= _CUT)
    body = 8 * ((length - 4) // 8)
    # first, middle, a chunk edge, the last body group, the tail
    for pos in (0, length // 2, min(8 * _CHUNK - 4 + offset, length - 1), body - 8 + offset,
                body + offset % (length - body)):
        for damage in _DAMAGE:
            _agrees(text[:pos] + damage + text[pos + 1:])
