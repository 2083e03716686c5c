"""Write the format_version "1" fixture documents in this directory.

Only the last release that wrote version "1" can run this: commit b63531f of
supermap-forge.  From the root of a checkout of that commit,

    PYTHONPATH=src python path/to/tests/fixtures/v1/make_v1_fixtures.py

writes supermap.json, realisation.json, channel.json, verify_report.json,
edge_values.json and MANIFEST.json beside this script.  The manifest keeps,
for each document, the SHA-256 of every Choi block of the object it was
written from (little-endian complex128, C order, in document order) and the
exact scalar fields, so a test can check that a later reader loads the same
bits without regenerating anything.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import supermap_forge as sf
from supermap_forge import cli, gen, serialize
from supermap_forge.algebra import MultiMatrixAlgebra

HERE = Path(__file__).resolve().parent

# Signed zero, the smallest subnormal, the smallest normal, the largest finite
# magnitudes, and two values with no short decimal form.
EDGE_VALUES = (
    -0.0, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
)


def block_digests(m):
    return [
        hashlib.sha256(np.ascontiguousarray(m.choi(j, i), dtype="<c16").tobytes()).hexdigest()
        for j in range(len(m.target))
        for i in range(len(m.source))
    ]


def main():
    if serialize.FORMAT_VERSION != "1":
        raise SystemExit("run this with the sources of a release that writes version 1")
    a = MultiMatrixAlgebra(((("x", 0), 2), ("y", 1)))
    b = MultiMatrixAlgebra.single(2, "j")
    c = MultiMatrixAlgebra((("z", 1), (("w", ("v", 1)), 1)))
    d = MultiMatrixAlgebra.single(2, "k")
    manifest = {}

    s = gen.random_supermap_from_circuit(a, b, c, d, p_dim=2, seed=5)
    serialize.save_document(HERE / "supermap.json", serialize.supermap_document(s))
    manifest["supermap.json"] = {"choi": block_digests(s.inner)}

    r = sf.realize(s)
    serialize.save_document(HERE / "realisation.json", serialize.realisation_document(r))
    manifest["realisation.json"] = {
        "e_channel": block_digests(r.e_channel),
        "g_channel": block_digests(r.g_channel),
        "p_dim": r.p_dim,
        "p_bound": r.p_bound,
        "w_residual": float(r.w_residual).hex(),
        "w_isometry_defect": float(r.w_isometry_defect).hex(),
        "gram_min_eig": float(r.gram_min_eig).hex(),
    }

    ch = gen.random_channel(a, c, seed=7)
    serialize.save_document(HERE / "channel.json", serialize.channel_document(ch))
    manifest["channel.json"] = {"choi": block_digests(ch)}

    report = sf.verify_deterministic(s)
    if cli.main(["verify", str(HERE / "supermap.json"),
                 "--out", str(HERE / "verify_report.json")]) != 0:
        raise SystemExit("the fixture supermap must verify")
    manifest["verify_report.json"] = {
        "extracted_n": block_digests(report.n_map),
        "kernel_residual": float(report.kernel_residual).hex(),
        "n_unital_residual": float(report.n_unital_residual).hex(),
        "tol": float(report.tol).hex(),
    }

    # the edge-value supermap the codec test builds: M(2)+M(1) -> M(2) on
    # both sides, seed 13, with its first Choi block made of EDGE_VALUES
    e = MultiMatrixAlgebra((("i0", 2), ("i1", 1)))
    f = MultiMatrixAlgebra.single(2, "j")
    s13 = gen.random_supermap_from_circuit(e, f, e, f, p_dim=2, seed=13)
    blocks = [[s13.inner.choi(j, i) for i in range(len(s13.inner.source))]
              for j in range(len(s13.inner.target))]
    n = blocks[0][0].size
    vals = np.array(EDGE_VALUES)
    edge = vals[np.arange(n) % len(vals)] + 1j * vals[(np.arange(n) + 3) % len(vals)]
    blocks[0][0] = edge.reshape(blocks[0][0].shape)
    s13 = sf.Supermap(sf.CpMap(s13.inner.source, s13.inner.target, blocks),
                      s13.source_hom, s13.target_hom, validate=False)
    serialize.save_document(HERE / "edge_values.json", serialize.supermap_document(s13))
    manifest["edge_values.json"] = {"choi": block_digests(s13.inner)}

    with open(HERE / "MANIFEST.json", "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
