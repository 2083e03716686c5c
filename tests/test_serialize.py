"""Tests for how save_document writes a document: the bytes, and the path
the base64 takes; for the decoder that reads long base64 back; and for the
skeleton reader, against the text reader."""

import base64
import dataclasses
import json
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import supermap_forge as sf
from supermap_forge import cli, gen, serialize
from supermap_forge.algebra import MultiMatrixAlgebra
from oracles import encode_matrix


def _oracle_text(doc):
    """The bytes save_document wrote while the whole document, base64
    included, went through json.dumps."""
    def encode_array(obj):
        if isinstance(obj, np.ndarray):
            return encode_matrix(obj)
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


# -- the skeleton reader against the text reader ------------------------------

_KINDS = ("supermap", "realisation", "channel")
_ODD_LABEL = '"c16":""'  # json writes it escaped


@pytest.fixture(scope="module")
def compact(tmp_path_factory):
    """{label: {kind: a compact document's bytes, "sm": the supermap's path}}
    for M4 algebras, p_dim 2, and an M8-to-M8 channel: every document holds
    a c16 text of at least _B64_CUT characters."""
    out = {}
    for label in ("a", _ODD_LABEL):
        folder = tmp_path_factory.mktemp("compact")
        algs = [MultiMatrixAlgebra.single(4, lbl) for lbl in (label, "b", "c", "d")]
        s = gen.random_supermap_from_circuit(*algs, p_dim=2, seed=1)
        m8 = [MultiMatrixAlgebra.single(8, lbl) for lbl in (label, "y")]
        docs = {"supermap": serialize.supermap_document(s),
                "realisation": serialize.realisation_document(sf.realize(s)),
                "channel": serialize.channel_document(gen.random_channel(*m8, seed=2))}
        out[label] = {"sm": folder / "supermap.json"}
        for kind, doc in docs.items():
            serialize.save_document(folder / f"{kind}.json", doc)
            out[label][kind] = (folder / f"{kind}.json").read_bytes()
    return out


def _first_long(data):
    """(begin, end) of the first c16 text of at least _B64_CUT characters."""
    end = 0
    while True:
        begin = data.index(serialize._KEY, end) + len(serialize._KEY)
        end = data.index(b'"', begin)
        if end - begin >= _CUT:
            return begin, end


def _at_middle(new):
    """Write new in place of the middle character of the first long text."""
    def mutate(data):
        begin, end = _first_long(data)
        mid = (begin + end) // 2
        return data[:mid] + (new(data[mid]) if callable(new) else new) + data[mid + 1:]
    return mutate


def _damaged(text):
    return text[:len(text) // 2] + b"*" + text[len(text) // 2 + 1:]


def _repeated(first, last):
    """The first long matrix with its "c16" key twice: first(text), then
    last(text)."""
    def mutate(data):
        begin, end = _first_long(data)
        text = data[begin:end]
        return data[:begin] + first(text) + b'","c16":"' + last(text) + data[end:]
    return mutate


def _unknown_field(text):
    return lambda data: b'{"note":{"c16":"' + text + b'"},' + data[1:]


def _long_matrix(chars):
    """The first long matrix replaced by a [32, 48] one, whose c16 text is
    _B64_CUT characters long, cut to its first ``chars``."""
    entries = np.random.default_rng(4).standard_normal((32, 48, 2)).view(complex)[..., 0]
    text = encode_matrix(entries)["c16"]
    assert len(text) == _CUT

    def mutate(data):
        begin, end = _first_long(data)
        start = data.rindex(b'{"shape":', 0, begin)
        return data[:start] + b'{"shape":[32,48],"c16":"%s"}' % text[:chars].encode() \
            + data[end + 2:]
    return mutate


def _no_closing_quote(data):
    end = _first_long(data)[1]
    return data[:end] + data[end + 1:]


def _version_1(data):
    for version in (b'"2"', b'"3"'):
        data = data.replace(b'"format_version":' + version, b'"format_version":"1"', 1)
    return data


# case: (the label of the documents, how each is changed)
_CASES = {
    "compact": ("a", lambda data: data),
    "escaped label": (_ODD_LABEL, lambda data: data),
    "escaped base64 character": ("a", _at_middle(lambda ch: b"\\u%04x" % ch)),
    "repeated c16, first damaged": ("a", _repeated(_damaged, lambda text: text)),
    "repeated c16, last damaged": ("a", _repeated(lambda text: text, _damaged)),
    # what a placeholder parses to, written as a document's own text
    "repeated c16, last a placeholder": ("a", _repeated(lambda text: text,
                                                        lambda text: b"\\u00000")),
    "unknown c16 field": ("a", _unknown_field(b"not base64! " * 3000)),
    "unknown c16 field, control character": ("a", _unknown_field(b"\x01" * _CUT)),
    **{f"{name} in a long text": ("a", _at_middle(new)) for name, new in (
        ("*", b"*"), ("=", b"="), ("control character", b"\x1f"), ("é", "é".encode()))},
    "no closing quote": ("a", _no_closing_quote),
    "text of _B64_CUT - 1": ("a", _long_matrix(_CUT - 1)),
    "text of _B64_CUT": ("a", _long_matrix(_CUT)),
    "UTF-8 BOM": ("a", lambda data: b"\xef\xbb\xbf" + data),
    "UTF-16": ("a", lambda data: data.decode("utf-8").encode("utf-16")),
    "indented": ("a", lambda data: json.dumps(json.loads(data), indent=2).encode()),
    # read with universal newlines, the error's line and offset are the text's
    "CRLF, then a tab in a label": ("a", lambda data: data.replace(b"{", b"{\r\n", 1)
                                    .replace(b'"label":"', b'"label":"\t', 1)),
    "format 1": ("a", _version_1),
}


def _parts(x):
    """x's algebras and scalars, and the dtype, shape and bytes of each matrix."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, sf.Supermap):
        return x.source_hom, x.target_hom, _parts(x.inner)
    if isinstance(x, sf.CpMap):
        return type(x), x.source, x.target, tuple(
            _parts(x.choi(j, i)) for j in range(len(x.target)) for i in range(len(x.source)))
    if isinstance(x, sf.CircuitRealisation):
        return tuple(_parts(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, Mapping):
        return tuple((key, _parts(x[key])) for key in sorted(x))
    return x


def _text_reader(path, kind, build):
    """The loaders' reader before the skeleton path: load_document reads
    the file as text, and build runs on what json made of it."""
    doc = serialize.load_document(path, kind)
    with serialize._decoding(kind):
        return build(doc)


def _outcome(fn):
    """("ok", fn()), or the type and message of what fn raised."""
    try:
        return "ok", fn()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("case", _CASES)
def test_the_skeleton_reader_agrees_with_the_text_reader(case, kind, compact, tmp_path,
                                                         monkeypatch, capsys):
    label, mutate = _CASES[case]
    path = tmp_path / "doc.json"
    path.write_bytes(mutate(compact[label][kind]))
    load = getattr(serialize, f"load_{kind}")
    argv = {"supermap": ["verify", str(path)],
            "realisation": ["check", str(compact[label]["sm"]), str(path), "--trials", "0"]}

    def outcomes():
        got = [_outcome(lambda: _parts(load(path)))]
        if kind in argv:
            got += [_outcome(lambda: cli.main(argv[kind])), capsys.readouterr()]
        return got

    new = outcomes()
    monkeypatch.setattr(serialize, "_load", _text_reader)
    assert new == outcomes()
    if case in ("compact", "escaped label", "indented"):
        assert new[0][0] == "ok" and new[1:2] in ([], [("ok", 0)]), new[1:]


@pytest.mark.parametrize("kind", _KINDS)
def test_compact_documents_load_without_the_text_reader(kind, compact, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_bytes(compact["a"][kind])
    load = getattr(serialize, f"load_{kind}")
    expected = _parts(load(path))
    monkeypatch.setattr(serialize, "_document", None)
    assert _parts(load(path)) == expected
