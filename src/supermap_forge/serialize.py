"""Versioned JSON interchange documents.

One self-describing format for algebras, channels, supermaps, realisations
and reports: a JSON envelope {"format_version", "kind", "payload"}.  Block
labels are strings or (recursively) lists of labels; lists deserialize to
tuples.  Scalars in realisations are decimal strings with 17 significant
digits: finite, and for w_residual and w_isometry_defect non-negative.

Realisations are written as format "3", every other kind as format "2".
Both store each complex matrix as {"shape": [r, c], "c16": base64 of its
entries as little-endian complex128 in C order}, the dtype, shape and raw
bytes of NumPy's .npy files, so a save/load round trip is bit exact.
Format "3" differs only in how a realisation stores E: as its Kraus
operators, one entry {"source_block", "target_block", "matrix": U_ik} per
block pair, instead of E's Choi blocks; G is stored as before.  Format "1"
documents, whose matrices are nested arrays of [re, im] decimal strings,
and format "2" documents still load.  Their E blocks must be rank one: each
block C gives u = C[:, x] / sqrt(C[x, x]) at its largest diagonal entry x,
0 for a zero block, and C is refused unless ||C - u u†||_F is at most
RANK_ONE_TOL * max(1, ||C||_F).

Loading raises ShapeMismatchError on any malformed payload: a matrix whose
layout is not its document's version, base64 that is not strict, a byte
length other than 16*r*c, a boolean where an integer belongs, a format "1"
entry other than two strings, a non-finite entry, a missing or repeated
Choi or E entry, a document nested too deeply to parse, a format "3"
document of another kind than a realisation, and a realisation whose E
and G do not have the types its algebras and p_dim give, whose stored E
block is not rank one, whose p_bound is not the bound its algebras give,
or whose scalar is a boolean, non-finite, or (w_residual,
w_isometry_defect) negative.  Saving raises it, and writes
nothing, for a non-finite number, scalar or matrix entry: every written
document is RFC 8259 JSON that loading accepts.

A document built here holds each Choi block as its ndarray.  save_document
has json's C encoder write only the compact single-line skeleton (an indent
would make CPython fall back to its pure-Python encoder), each matrix a hole
{"shape": [r, c], "c16": ""}; it splices each matrix's base64 in as bytes
and writes the file once, the bytes json.dumps gives when each matrix is
{"shape": [r, c], "c16": the base64 of its <c16 bytes}.  Indented documents
load the same.

Reading accepts what base64.b64decode(text, validate=True) accepts, and
nothing else.  A c16 text of _B64_CUT characters or more decodes through a
65,536-entry table from each two characters to their 12 bits; binascii
decodes shorter texts and the last 4-11 characters, and any text the table
or the tail rejects is handed to it whole, so the bytes and every error
message are binascii's.

load_supermap, load_realisation and load_channel read the file once, as
bytes, and json parses only the skeleton, the mirror of save_document: in a
compact document with no backslash, each c16 text of _B64_CUT characters or
more is cut out for a placeholder and decode_matrix decodes it straight from
the file buffer, with no str made of it.  The text reader (the same bytes
read as UTF-8 text with universal newlines, as load_document's open reads
the file, then json.load and decode_matrix on each str) is the authority: it
reads every file that holds a backslash (so no escape can forge a
placeholder), indented files, files with no text at the cut, and every file
on which the skeleton path raises anything or leaves a long text unread.
Accepted documents, decoded bits and every error message are therefore its
own, and no file is read twice.
"""

import base64
import io
import json
from contextlib import contextmanager
from typing import Any, Dict

import numpy as np

from ._linalg import frob
from .algebra import MultiMatrixAlgebra
from .cpmaps import Channel, CpMap
from .errors import ShapeMismatchError, SupermapForgeError
from .realize import (
    CircuitRealisation, g_source_algebra, memory_bound, memory_target_algebra,
)
from .supermap import Supermap, hom_algebra

FORMAT_VERSION = "2"
REALISATION_VERSION = "3"
READABLE_VERSIONS = ("1", FORMAT_VERSION, REALISATION_VERSION)
# a format 1 or 2 realisation's E block C loads only if ||C - u u†||_F is at
# most this times max(1, ||C||_F): rank one up to roundoff
RANK_ONE_TOL = 1e-12
_C16 = np.dtype("<c16")
_HOLE = b'"c16":""'  # under ensure_ascii, only a key/value pair the encoder wrote
# a c16 text this long or longer decodes through the pair table; below it,
# binascii is as fast (the two meet near 2**14 characters)
_B64_CUT = 1 << 15
_B64_CHUNK = 1 << 15  # 8-character groups per step: 1 MB of table indices
_KEY = b'"c16":"'  # in a compact document, the start of each c16 text


def _pair_table() -> np.ndarray:
    """The 12 bits of each two base64 characters, indexed by the pair read
    as one little-endian uint16; 0xFFFF where either is outside the alphabet.

    Built with no temporary as large as the table: freeing one would raise
    glibc's mmap threshold at import, and move the heap of the whole process.
    """
    sextet = np.full(256, 0xFFFF, np.uint16)
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    sextet[np.frombuffer(alphabet, np.uint8)] = np.arange(64)
    # row: the second character (the high byte), column: the first
    table = (sextet << 6)[None, :] | sextet[:, None]
    table[table > 0xFFF] = 0xFFFF
    return table.reshape(-1)


_B64_PAIRS = _pair_table()


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise ShapeMismatchError(f"cannot write a non-finite scalar {x!r}")
    return f"{float(x):.17g}"


def _integer(x, what: str) -> int:
    """An integer field of a document; JSON true and false are not integers."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ShapeMismatchError(f"{what} must be an integer, got {x!r}")
    return x


def _scalar(x, what: str, nonneg: bool = False) -> float:
    """A finite real field of a document, not a boolean; nonneg: not negative."""
    v = np.nan if isinstance(x, bool) else float(x)
    if not np.isfinite(v) or (nonneg and v < 0):
        sign = " non-negative" if nonneg else ""
        raise ShapeMismatchError(f"{what} must be a finite{sign} number, got {x!r}")
    return v


def _c16(m: np.ndarray) -> np.ndarray:
    """m as C-contiguous <c16; the writer refuses what decode_matrix refuses."""
    m = np.ascontiguousarray(m, dtype=_C16)
    if not np.isfinite(m).all():
        raise ShapeMismatchError("cannot write a matrix with non-finite entries")
    return m


def _b64decode(text):
    """base64.b64decode(text, validate=True) of a str or a bytes-like text:
    the same bytes, or the same ValueError, as a read-only buffer.

    Below _B64_CUT characters, and for any text the fast path rejects, it is
    that call.  Otherwise each 8 characters before the last 4-11 are four
    table lookups, written as three big-endian 16-bit words, and base64
    decodes the tail: base64 groups decode independently, so the body and
    the tail together are accepted exactly when the whole text is.
    """
    if len(text) < _B64_CUT:
        return base64.b64decode(text, validate=True)
    groups = (len(text) - 4) // 8
    try:
        raw = text.encode("ascii") if isinstance(text, str) else text
        tail = base64.b64decode(raw[8 * groups:], validate=True)
    except ValueError:  # a non-ASCII character, or a tail binascii rejects
        return base64.b64decode(text, validate=True)
    out = np.empty(6 * groups + len(tail), np.uint8)
    out[6 * groups:] = np.frombuffer(tail, np.uint8)
    pairs = np.frombuffer(raw, "<u2", 4 * groups).reshape(groups, 4)
    words = out[:6 * groups].view(">u2").reshape(groups, 3)
    n = min(groups, _B64_CHUNK)
    # a group's four lookups as four contiguous rows: the shifts run on
    # contiguous uint16s, and only their results are written strided
    bits, hi, lo = np.empty((4, n), np.uint16), np.empty(n, np.uint16), np.empty(n, np.uint16)
    for g in range(0, groups, n):
        k = min(n, groups - g)
        v, x, y, w = bits[:, :k], hi[:k], lo[:k], words[g:g + k]
        np.take(_B64_PAIRS, pairs[g:g + k].T, out=v)
        if v.max() > 0xFFF:
            return base64.b64decode(text, validate=True)
        # the 48 bits a|b|c|d of a group; uint16 shifts drop what overflows
        a, b, c, d = v
        np.bitwise_or(np.left_shift(a, 4, out=x), np.right_shift(b, 8, out=y), out=w[:, 0])
        np.bitwise_or(np.left_shift(b, 8, out=x), np.right_shift(c, 4, out=y), out=w[:, 1])
        np.bitwise_or(np.left_shift(c, 12, out=x), d, out=w[:, 2])
    out.flags.writeable = False
    return out


def _v1_entry(x) -> complex:
    """One format 1 matrix entry: [re, im] as two decimal strings."""
    if not (isinstance(x, list) and len(x) == 2 and all(isinstance(v, str) for v in x)):
        raise ShapeMismatchError(f"a format 1 matrix entry is [re, im] as two strings, got {x!r}")
    return complex(float(x[0]), float(x[1]))


def decode_matrix(m, version: str = FORMAT_VERSION) -> np.ndarray:
    """Decode one matrix stored in a document of the given format version."""
    if version == "1":
        if not isinstance(m, list):
            raise ShapeMismatchError("a format 1 matrix is a list of [re, im] rows")
        out = np.array([[_v1_entry(x) for x in row] for row in m], dtype=complex)
    else:
        if not isinstance(m, dict):
            raise ShapeMismatchError(
                f'a format {version} matrix is {{"shape": [r, c], "c16": ...}}')
        shape, text = m["shape"], m["c16"]
        if isinstance(text, _Payload):
            text.read, text = True, text.view
        if not isinstance(shape, list) or len(shape) != 2:
            raise ShapeMismatchError(f"matrix shape must be [rows, cols], got {shape!r}")
        r, c = (_integer(x, "matrix shape") for x in shape)
        if r < 0 or c < 0:
            raise ShapeMismatchError(f"matrix shape must be non-negative, got {shape!r}")
        nbytes = _C16.itemsize * r * c
        if not isinstance(text, (str, memoryview)) or len(text) != 4 * -(-nbytes // 3):
            raise ShapeMismatchError(
                f"c16 must be the base64 text of {nbytes} bytes for shape {shape!r}"
            )
        try:
            raw = _b64decode(text)
        except ValueError as exc:
            raise ShapeMismatchError(f"c16 is not strict base64: {exc}") from exc
        if len(raw) != nbytes:
            raise ShapeMismatchError(
                f"c16 holds {len(raw)} bytes, shape {shape!r} needs {nbytes}"
            )
        out = np.frombuffer(raw, dtype=_C16).reshape(r, c)
    if not np.isfinite(out).all():
        raise ShapeMismatchError("matrix entries must be finite")
    return out


def _encode_label(lbl):
    if isinstance(lbl, tuple):
        return [_encode_label(x) for x in lbl]
    return lbl


def _decode_label(lbl):
    if isinstance(lbl, list):
        return tuple(_decode_label(x) for x in lbl)
    return lbl


def algebra_payload(a: MultiMatrixAlgebra) -> Dict[str, Any]:
    return {"blocks": [{"label": _encode_label(lbl), "dim": d} for lbl, d in a.blocks]}


def algebra_from_payload(p: Dict[str, Any]) -> MultiMatrixAlgebra:
    return MultiMatrixAlgebra(
        tuple((_decode_label(b["label"]), _integer(b["dim"], "block dim")) for b in p["blocks"])
    )


def cpmap_payload(m: CpMap) -> Dict[str, Any]:
    entries = []
    for j, (lj, _) in enumerate(m.target.blocks):
        for i, (li, _) in enumerate(m.source.blocks):
            entries.append(
                {
                    "target_block": _encode_label(lj),
                    "source_block": _encode_label(li),
                    "matrix": m.choi(j, i),
                }
            )
    return {
        "source": algebra_payload(m.source),
        "target": algebra_payload(m.target),
        "choi": entries,
    }


def _choi_blocks(entries, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra,
                 version: str):
    blocks = [[None] * len(source) for _ in range(len(target))]
    for entry in entries:
        j = target.index(_decode_label(entry["target_block"]))
        i = source.index(_decode_label(entry["source_block"]))
        if blocks[j][i] is not None:
            raise ShapeMismatchError(f"repeated Choi entry for block pair ({j},{i})")
        blocks[j][i] = decode_matrix(entry["matrix"], version)
    if any(b is None for row in blocks for b in row):
        raise ShapeMismatchError("one Choi entry per block pair expected")
    return blocks


def cpmap_from_payload(p: Dict[str, Any], version: str = FORMAT_VERSION,
                       channel: bool = False) -> CpMap:
    source = algebra_from_payload(p["source"])
    target = algebra_from_payload(p["target"])
    blocks = _choi_blocks(p["choi"], source, target, version)
    if channel:
        return Channel(source, target, blocks, validate=False)
    return CpMap(source, target, blocks)


def document(kind: str, payload: Dict[str, Any],
             version: str = FORMAT_VERSION) -> Dict[str, Any]:
    return {"format_version": version, "kind": kind, "payload": payload}


def save_document(path, doc: Dict[str, Any]) -> None:
    """Write doc as RFC 8259 JSON; ShapeMismatchError, and no file, when it
    holds a non-finite number or matrix entry or a field "c16": ""."""
    arrays = []

    def hole(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        arrays.append(_c16(obj))
        return {"shape": list(arrays[-1].shape), "c16": ""}

    try:
        skeleton = json.dumps(doc, default=hole, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:  # ShapeMismatchError from _c16 is one too
        raise ShapeMismatchError(f"cannot write the document: {exc}") from exc
    pieces = skeleton.encode("ascii").split(_HOLE)
    if len(pieces) != len(arrays) + 1:
        raise ShapeMismatchError(f"cannot write the document: a field is {_HOLE.decode()}")
    out = [pieces[0]]
    for m, rest in zip(arrays, pieces[1:]):
        out += (b'"c16":"', base64.b64encode(m), b'"', rest)
    with open(path, "wb") as f:
        f.write(b"".join([*out, b"\n"]))


@contextmanager
def _decoding(kind: str):
    """Report any failure to decode a payload as ShapeMismatchError."""
    try:
        yield
    except SupermapForgeError:
        raise
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise ShapeMismatchError(f"malformed {kind} document: {exc!r}") from exc


def _envelope(doc, expect_kind: str = None) -> Dict[str, Any]:
    """doc, once its envelope is one this module reads, of the expected kind."""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ShapeMismatchError("not an interchange document")
    if doc["format_version"] not in READABLE_VERSIONS:
        raise ShapeMismatchError(f"unsupported format version {doc['format_version']!r}")
    if doc["format_version"] == REALISATION_VERSION and doc.get("kind") != "realisation":
        raise ShapeMismatchError(f"a format 3 document is a realisation, not {doc.get('kind')!r}")
    if expect_kind is not None and doc.get("kind") != expect_kind:
        raise ShapeMismatchError(
            f"expected a {expect_kind!r} document, found {doc.get('kind')!r}"
        )
    return doc


def _document(text, expect_kind: str = None) -> Dict[str, Any]:
    """The document json reads from the text stream, once its envelope is
    one this module reads, of the expected kind."""
    try:
        doc = json.load(text)
    except UnicodeDecodeError as exc:
        raise ShapeMismatchError(f"not a UTF-8 document: {exc}") from exc
    except RecursionError as exc:
        raise ShapeMismatchError("document nests too deeply to parse") from exc
    return _envelope(doc, expect_kind)


def load_document(path, expect_kind: str = None) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return _document(f, expect_kind)


class _Payload:
    """A c16 text _skeleton kept out of json, as a view of the file buffer;
    decode_matrix marks it read."""

    __slots__ = ("view", "read")

    def __init__(self, view: memoryview):
        self.view, self.read = view, False


def _skeleton(data: bytes):
    """(doc, payloads) for a file that holds data, or None when it holds a
    backslash or no c16 text of _B64_CUT characters or more.

    Each text from a "c16":" to the next quote that long is cut out of the
    buffer, and json parses "\\u0000k" in its place; an object hook swaps
    that string for payloads[k].  In a file with no backslash no escape can
    forge a placeholder, and no other string json returns starts with NUL.
    """
    if len(data) < _B64_CUT or b"\\" in data:
        return None
    view, pieces, payloads, start = memoryview(data), [], [], 0
    at = data.find(_KEY)
    while at >= 0:
        begin = at + len(_KEY)
        end = data.index(b'"', begin)
        if end - begin >= _B64_CUT:
            pieces += (view[start:begin], b"\\u0000%d" % len(payloads))
            payloads.append(_Payload(view[begin:end]))
            start = end
        at = data.find(_KEY, end + 1)
    if not payloads:
        return None

    def swap(obj):
        text = obj.get("c16")
        if isinstance(text, str) and text[:1] == "\0":
            obj["c16"] = payloads[int(text[1:])]
        return obj

    skeleton = b"".join([*pieces, view[start:]]).decode("utf-8")
    return json.loads(skeleton, object_hook=swap), payloads


def _load(path, kind: str, build):
    """build(doc) for the document of the given kind at path.

    The file is read once, as bytes, json parses only its skeleton, and
    decode_matrix decodes each long payload straight from the file buffer.
    The text reader is the authority: the same bytes, read as UTF-8 text
    with universal newlines as load_document's open reads them, go through
    json.load and decode_matrix on each str when _skeleton declines them,
    when this path raises anything, or when a payload goes unread (a
    repeated "c16" key, or one in a field no loader reads), whose text no
    decoder checked.  Otherwise each placeholder parsed as a string, as its
    backslash is JSON nowhere else, so the text it replaced sat in that
    string, and that text was strict base64: the file parses the same both
    ways, and the result is the text reader's.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        parsed = _skeleton(data)
        if parsed is not None:
            doc, payloads = parsed
            obj = build(_envelope(doc, kind))
            if all(p.read for p in payloads):
                return obj
    except Exception:  # the text reader gives the verdict and the message
        pass
    doc = _document(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), kind)
    with _decoding(kind):
        return build(doc)


# -- object-level helpers -----------------------------------------------------


def channel_document(ch: CpMap) -> Dict[str, Any]:
    return document("channel", cpmap_payload(ch))


def load_channel(path) -> Channel:
    return _load(path, "channel", lambda doc: cpmap_from_payload(
        doc["payload"], doc["format_version"], channel=True))


def supermap_document(s: Supermap) -> Dict[str, Any]:
    payload = {
        "a": algebra_payload(s.source_hom.in_algebra),
        "b": algebra_payload(s.source_hom.out_algebra),
        "c": algebra_payload(s.target_hom.in_algebra),
        "d": algebra_payload(s.target_hom.out_algebra),
        "choi": cpmap_payload(s.inner)["choi"],
    }
    return document("supermap", payload)


def _supermap(doc) -> Supermap:
    p = doc["payload"]
    hom_ab = hom_algebra(algebra_from_payload(p["a"]), algebra_from_payload(p["b"]))
    hom_cd = hom_algebra(algebra_from_payload(p["c"]), algebra_from_payload(p["d"]))
    blocks = _choi_blocks(p["choi"], hom_ab.base, hom_cd.base, doc["format_version"])
    inner = CpMap(hom_ab.base, hom_cd.base, blocks)
    return Supermap(inner, hom_ab, hom_cd)


def load_supermap(path) -> Supermap:
    return _load(path, "supermap", _supermap)


def realisation_document(r: CircuitRealisation) -> Dict[str, Any]:
    payload = {
        "a": algebra_payload(r.a),
        "b": algebra_payload(r.b),
        "c": algebra_payload(r.c),
        "d": algebra_payload(r.d),
        "p_dim": r.p_dim,
        "p_bound": r.p_bound,
        "w_residual": _fmt(r.w_residual),
        "w_isometry_defect": _fmt(r.w_isometry_defect),
        "gram_min_eig": _fmt(r.gram_min_eig),
        "e_kraus": [
            {"source_block": _encode_label(lk), "target_block": _encode_label(li),
             "matrix": r.e_kraus[k, i]}
            for i, li in enumerate(r.a.labels) for k, lk in enumerate(r.c.labels)
        ],
        "g_channel": cpmap_payload(r.g_channel),
    }
    return document("realisation", payload, REALISATION_VERSION)


def _e_kraus(entries, c: MultiMatrixAlgebra, target: MultiMatrixAlgebra, p_dim: int):
    """E's U_ik keyed (k, i) from a format 3 realisation's entries."""
    ops = {}
    for entry in entries:
        k = c.index(_decode_label(entry["source_block"]))
        i = target.index(_decode_label(entry["target_block"]))
        what = f"E entry for C block {k} -> A block {i}"
        if (k, i) in ops:
            raise ShapeMismatchError(f"repeated {what}")
        try:
            u = decode_matrix(entry["matrix"], REALISATION_VERSION)
        except ShapeMismatchError as exc:
            raise ShapeMismatchError(f"{what}: {exc}") from exc
        if u.shape != (target.dims[i], c.dims[k]):
            raise ShapeMismatchError(f"{what} has shape {u.shape}, expected "
                                     f"{(target.dims[i], c.dims[k])} for p_dim {p_dim}")
        ops[k, i] = u
    missing = [(k, i) for k in range(len(c)) for i in range(len(target)) if (k, i) not in ops]
    if missing:
        k, i = missing[0]
        raise ShapeMismatchError(f"E entry for C block {k} -> A block {i} is missing")
    return ops


def _rank_one_root(block: np.ndarray, what: str) -> np.ndarray:
    """u with block = u u†, from a format 1 or 2 E block: the column of its
    largest diagonal entry over that entry's square root, 0 for a zero block;
    ShapeMismatchError naming ``what`` when the block is not rank one."""
    x = int(np.argmax(block.diagonal().real))
    u = np.zeros(block.shape[0], dtype=complex)
    if block[x, x].real > 0:
        u = block[:, x] / np.sqrt(block[x, x].real)
    residual = frob(block - np.outer(u, u.conj()))
    if residual > RANK_ONE_TOL * max(1.0, frob(block)):
        raise ShapeMismatchError(f"{what} is not rank one: ||C - u u†||_F = {residual:.3e}")
    return u


def _realisation(doc) -> CircuitRealisation:
    p, version = doc["payload"], doc["format_version"]
    a, c = algebra_from_payload(p["a"]), algebra_from_payload(p["c"])
    p_dim = _integer(p["p_dim"], "p_dim")
    e_target = memory_target_algebra(a, p_dim)
    if version == REALISATION_VERSION:
        e_kraus = _e_kraus(p["e_kraus"], c, e_target, p_dim)
    else:
        e = cpmap_from_payload(p["e_channel"], version)
        if (e.source, e.target) != (c, e_target):
            raise ShapeMismatchError(
                f"realisation channel E does not match its algebras and p_dim "
                f"(p_dim {p_dim}; E: {e!r})")
        e_kraus = {}
        for k, dk in enumerate(c.dims):
            for i, d in enumerate(e_target.dims):
                u = _rank_one_root(e.choi(i, k), f"E block for C block {k} -> A block {i}")
                e_kraus[k, i] = u.reshape(d, dk)
    r = CircuitRealisation(
        a=a,
        b=algebra_from_payload(p["b"]),
        c=c,
        d=algebra_from_payload(p["d"]),
        p_dim=p_dim,
        e_kraus=e_kraus,
        g_channel=cpmap_from_payload(p["g_channel"], version, channel=True),
        w_residual=_scalar(p["w_residual"], "w_residual", nonneg=True),
        w_isometry_defect=_scalar(p["w_isometry_defect"], "w_isometry_defect", nonneg=True),
        gram_min_eig=_scalar(p["gram_min_eig"], "gram_min_eig"),
        p_bound=_integer(p["p_bound"], "p_bound"),
    )
    bound = memory_bound(r.a, r.c)
    if r.p_bound != bound:
        raise ShapeMismatchError(
            f"p_bound {r.p_bound} is not the memory bound {bound} its algebras give"
        )
    g = r.g_channel
    if (g.source, g.target) != (g_source_algebra(r.a, r.b, r.c, r.p_dim), r.d):
        raise ShapeMismatchError(
            "realisation channel G does not match its algebras and p_dim "
            f"(p_dim {r.p_dim}; G: {g!r})"
        )
    return r


def load_realisation(path) -> CircuitRealisation:
    return _load(path, "realisation", _realisation)


def report_document(report_type: str, fields: Dict[str, Any]) -> Dict[str, Any]:
    payload = {"report_type": report_type}
    payload.update(fields)
    return document("report", payload)
