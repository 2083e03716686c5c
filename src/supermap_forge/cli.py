"""Command-line surface: verify / realize / check / demo / gen.

Exit codes are uniform across commands: 0 success, 1 semantic failure
(verification or certification rejected), 2 input error (missing files,
malformed documents, bad shapes, overflowing entries).  The default tolerance
is 1e-8 and may be overridden per run with --tol or with SUPERMAP_FORGE_TOL.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .algebra import MultiMatrixAlgebra
from .errors import SupermapForgeError
from .gallery import DEMOS, run_demo
from .gen import random_channel, random_supermap_from_circuit
from .realize import check_realisation, realize
from .supermap import VERIFY_TOL, verify_deterministic

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite tolerance, got {text!r}"
        )
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _default_tol() -> float:
    env = os.environ.get("SUPERMAP_FORGE_TOL")
    if env is not None:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError:
            print(f"warning: ignoring bad SUPERMAP_FORGE_TOL={env!r}", file=sys.stderr)
    return VERIFY_TOL


def _parse_dims(text: str):
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SupermapForgeError(f"bad block dimension list {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise SupermapForgeError(f"bad block dimension list {text!r}")
    return dims


def cmd_verify(args) -> int:
    s = serialize.load_supermap(args.path)
    report = verify_deterministic(s, tol=args.tol)
    print(f"verify {args.path}: {report.summary()}")
    if args.out:
        fields = {
            "verdict": report.verdict,
            "cp_ok": report.cp_ok,
            "kernel_residual": report.kernel_residual,
            "n_unital_residual": report.n_unital_residual,
            "n_cp_ok": report.n_cp_ok,
            "tol": report.tol,
            "extracted_n": serialize.cpmap_payload(report.n_map),
        }
        serialize.save_document(args.out, serialize.report_document("verify", fields))
        print(f"report written to {args.out}")
    return EXIT_OK if report.verdict else EXIT_SEMANTIC


def cmd_realize(args) -> int:
    s = serialize.load_supermap(args.path)
    try:
        r = realize(s, tol=args.tol)
    except SupermapForgeError as exc:
        if exc.report is None:
            raise
        print(f"realize {args.path}: supermap is not deterministic ({exc.report.summary()})")
        return EXIT_SEMANTIC
    print(f"realize {args.path}: {r.summary()}")
    print(f"memory dimension {r.p_dim} <= bound {r.p_bound}")
    out = args.out or (str(args.path) + ".realisation.json")
    serialize.save_document(out, serialize.realisation_document(r))
    print(f"realisation written to {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    s = serialize.load_supermap(args.supermap)
    r = serialize.load_realisation(args.realisation)
    result = check_realisation(r, s, trials=args.trials, tol=args.tol, seed=args.seed)
    print(f"check {args.realisation} against {args.supermap}: {result.summary()}")
    if args.out:
        fields = {
            "passed": result.passed,
            "spanning_deviation": result.spanning_deviation,
            "trial_deviation": result.trial_deviation,
            "trials": result.trials,
            "tol": result.tol,
        }
        serialize.save_document(args.out, serialize.report_document("check", fields))
        print(f"report written to {args.out}")
    return EXIT_OK if result.passed else EXIT_SEMANTIC


def cmd_demo(args) -> int:
    result = run_demo(args.name)
    print(f"demo {result.name}: {result.description}")
    r = result.realisation
    print(
        f"  algebras: A={list(r.a.dims)} B={list(r.b.dims)} "
        f"C={list(r.c.dims)} D={list(r.d.dims)}"
    )
    print(f"  realisation: {r.summary()}")
    for text, flag in result.assertions:
        print(f"  [{'ok' if flag else 'FAIL'}] {text}")
    print(f"  circuit round-trip deviation: {result.roundtrip_deviation:.3e}")
    return EXIT_OK if result.ok else EXIT_SEMANTIC


def cmd_gen(args) -> int:
    try:  # numpy refusing to size an array for the draw is an input error too
        if args.kind == "channel":
            a = MultiMatrixAlgebra.from_dims(_parse_dims(args.source_dims), "x")
            b = MultiMatrixAlgebra.from_dims(_parse_dims(args.target_dims), "y")
            doc = serialize.channel_document(random_channel(a, b, seed=args.seed))
        else:
            a = MultiMatrixAlgebra.from_dims(_parse_dims(args.a_dims), "a")
            b = MultiMatrixAlgebra.from_dims(_parse_dims(args.b_dims), "b")
            c = MultiMatrixAlgebra.from_dims(_parse_dims(args.c_dims), "c")
            d = MultiMatrixAlgebra.from_dims(_parse_dims(args.d_dims), "d")
            s = random_supermap_from_circuit(a, b, c, d, p_dim=args.p_dim, seed=args.seed)
            doc = serialize.supermap_document(s)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    serialize.save_document(args.out, doc)
    print(f"{args.kind} document written to {args.out}")
    return EXIT_OK


@functools.cache  # built once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supermap-forge",
        description="verify, realise and certify deterministic supermaps "
        "between channels of any type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a supermap document is deterministic")
    p.add_argument("path")
    p.add_argument("--tol", type=_tolerance)
    p.add_argument("--out", default=None, help="write a report document here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("realize", help="realise a verified supermap as a circuit")
    p.add_argument("path")
    p.add_argument("--tol", type=_tolerance)
    p.add_argument("--out", default=None, help="realisation document path")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("check", help="certify a realisation against its supermap")
    p.add_argument("supermap")
    p.add_argument("realisation")
    p.add_argument("--trials", type=_non_negative_int, default=10)
    p.add_argument("--tol", type=_tolerance)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("demo", help="run a bundled channel-type walkthrough")
    p.add_argument("name", choices=sorted(DEMOS))
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("gen", help="generate a random channel or supermap document")
    p.add_argument("kind", choices=["channel", "supermap"])
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--source-dims", default="2", help="channel source block dims, e.g. 2,3")
    p.add_argument("--target-dims", default="2")
    p.add_argument("--a-dims", default="2")
    p.add_argument("--b-dims", default="2")
    p.add_argument("--c-dims", default="2")
    p.add_argument("--d-dims", default="2")
    p.add_argument("--p-dim", type=int, default=1)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "tol", 0) is None:  # a command with --tol, run without it
        args.tol = _default_tol()
    try:
        with np.errstate(over="raise"):  # entries too large for arithmetic: input error
            return args.func(args)
    except (OSError, json.JSONDecodeError, SupermapForgeError, KeyError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
