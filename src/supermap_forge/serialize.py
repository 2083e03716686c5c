"""Versioned JSON interchange documents.

One self-describing format for algebras, channels, supermaps, realisations
and reports.  Complex matrices are nested arrays of [re, im] decimal strings
with 17 significant digits, so a save/load round trip is bit exact.  Block
labels are strings or (recursively) lists of labels; lists deserialize to
tuples.  Loading raises ShapeMismatchError on any malformed payload,
non-finite entry or missing or repeated Choi entry.
"""

import json
import operator
from contextlib import contextmanager
from typing import Any, Dict

import numpy as np

from .algebra import MultiMatrixAlgebra
from .cpmaps import Channel, CpMap
from .errors import ShapeMismatchError, SupermapForgeError
from .realize import CircuitRealisation
from .supermap import Supermap, hom_algebra

FORMAT_VERSION = "1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def encode_matrix(m: np.ndarray):
    return [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(rows) -> np.ndarray:
    m = np.array(
        [[complex(float(re), float(im)) for re, im in row] for row in rows],
        dtype=complex,
    )
    if not np.isfinite(m).all():
        raise ShapeMismatchError("matrix entries must be finite")
    return m


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
        tuple((_decode_label(b["label"]), operator.index(b["dim"])) for b in p["blocks"])
    )


def cpmap_payload(m: CpMap) -> Dict[str, Any]:
    entries = []
    for j, (lj, _) in enumerate(m.target.blocks):
        for i, (li, _) in enumerate(m.source.blocks):
            entries.append(
                {
                    "target_block": _encode_label(lj),
                    "source_block": _encode_label(li),
                    "matrix": encode_matrix(m.choi(j, i)),
                }
            )
    return {
        "source": algebra_payload(m.source),
        "target": algebra_payload(m.target),
        "choi": entries,
    }


def cpmap_from_payload(p: Dict[str, Any], channel: bool = False) -> CpMap:
    source = algebra_from_payload(p["source"])
    target = algebra_from_payload(p["target"])
    blocks = [[None] * len(source) for _ in range(len(target))]
    for entry in p["choi"]:
        j = target.index(_decode_label(entry["target_block"]))
        i = source.index(_decode_label(entry["source_block"]))
        if blocks[j][i] is not None:
            raise ShapeMismatchError(f"repeated Choi entry for block pair ({j},{i})")
        blocks[j][i] = decode_matrix(entry["matrix"])
    if any(b is None for row in blocks for b in row):
        raise ShapeMismatchError("one Choi entry per block pair expected")
    if channel:
        return Channel(source, target, blocks, validate=False)
    return CpMap(source, target, blocks)


def document(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}


def save_document(path, doc: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


@contextmanager
def _decoding(kind: str):
    """Report any failure to decode a payload as ShapeMismatchError."""
    try:
        yield
    except SupermapForgeError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ShapeMismatchError(f"malformed {kind} document: {exc!r}") from exc


def load_document(path, expect_kind: str = None) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ShapeMismatchError("not an interchange document")
    if doc["format_version"] != FORMAT_VERSION:
        raise ShapeMismatchError(f"unsupported format version {doc['format_version']!r}")
    if expect_kind is not None and doc.get("kind") != expect_kind:
        raise ShapeMismatchError(
            f"expected a {expect_kind!r} document, found {doc.get('kind')!r}"
        )
    return doc


# -- object-level helpers -----------------------------------------------------


def channel_document(ch: CpMap) -> Dict[str, Any]:
    return document("channel", cpmap_payload(ch))


def load_channel(path) -> Channel:
    doc = load_document(path, "channel")
    with _decoding("channel"):
        return cpmap_from_payload(doc["payload"], channel=True)


def supermap_document(s: Supermap) -> Dict[str, Any]:
    payload = {
        "a": algebra_payload(s.source_hom.in_algebra),
        "b": algebra_payload(s.source_hom.out_algebra),
        "c": algebra_payload(s.target_hom.in_algebra),
        "d": algebra_payload(s.target_hom.out_algebra),
        "choi": cpmap_payload(s.inner)["choi"],
    }
    return document("supermap", payload)


def load_supermap(path) -> Supermap:
    doc = load_document(path, "supermap")
    with _decoding("supermap"):
        p = doc["payload"]
        hom_ab = hom_algebra(algebra_from_payload(p["a"]), algebra_from_payload(p["b"]))
        hom_cd = hom_algebra(algebra_from_payload(p["c"]), algebra_from_payload(p["d"]))
        inner = cpmap_from_payload(
            {
                "source": algebra_payload(hom_ab.base),
                "target": algebra_payload(hom_cd.base),
                "choi": p["choi"],
            }
        )
        return Supermap(inner, hom_ab, hom_cd, validate=False)


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
        "e_channel": cpmap_payload(r.e_channel),
        "g_channel": cpmap_payload(r.g_channel),
    }
    return document("realisation", payload)


def load_realisation(path) -> CircuitRealisation:
    doc = load_document(path, "realisation")
    with _decoding("realisation"):
        p = doc["payload"]
        return CircuitRealisation(
            a=algebra_from_payload(p["a"]),
            b=algebra_from_payload(p["b"]),
            c=algebra_from_payload(p["c"]),
            d=algebra_from_payload(p["d"]),
            p_dim=operator.index(p["p_dim"]),
            e_channel=cpmap_from_payload(p["e_channel"], channel=True),
            g_channel=cpmap_from_payload(p["g_channel"], channel=True),
            w_residual=float(p["w_residual"]),
            w_isometry_defect=float(p["w_isometry_defect"]),
            gram_min_eig=float(p["gram_min_eig"]),
            p_bound=operator.index(p["p_bound"]),
        )


def report_document(report_type: str, fields: Dict[str, Any]) -> Dict[str, Any]:
    payload = {"report_type": report_type}
    payload.update(fields)
    return document("report", payload)
