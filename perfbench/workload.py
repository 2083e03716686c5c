"""Run one benchmark workload in this process and print its samples as JSON.

run.py starts one process per workload, so that peak memory belongs to that
workload alone.  BLAS is pinned to one thread before numpy is imported: with
two OpenBLAS threads the first realize calls of a process ran about twenty
times slower than later ones, which would measure thread start-up instead of
the library.

The benchmark drives the package's public API.  An *instance* is one
generated supermap taken through gen, verify, realize and check (one
trial).  The CLI operations call ``cli.main(["realize", ...])`` in-process
on a deterministic document (exit 0 expected) and on a tp-breaking
perturbation of a deterministic supermap (exit 1 expected).
Every operation is timed on its own and its result is checked; a wrong or
raised result counts as failed and keeps its timing.

A *pass* is a fixed amount of work per workload.  The run repeats passes
until ``--seconds`` is spent, so that a faster program measures more passes
of the same work rather than different work.

Usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S
           --trace 0|1 [--setup-only]
"""

import os
import time

_T0 = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import supermap_forge as sf  # noqa: E402
from supermap_forge import cli, gen, serialize  # noqa: E402

from tracer import NAMES, Tracer  # noqa: E402

VERIFY_TOL = 1e-8
CHECK_TOL = 1e-6
# Unitality residual of every broken document: 100x the verify tolerance.
REJECT_EPSILON = 1e-6
STAGES = ("gen", "verify", "realize", "check", "cli_realize", "cli_reject")
WORK = HERE / "_work"
OUT = HERE / "_out"

Shape = Tuple[Tuple[Tuple[int, ...], ...], int]  # (dims of A, B, C, D), p_dim


def derive_seed(*parts):
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def algebras(dims):
    return tuple(sf.MultiMatrixAlgebra.from_dims(d, pre) for d, pre in zip(dims, "abcd"))


def _small_shape(rng) -> Shape:
    """1-3 blocks per algebra, block dims 1-2, p_dim 1-2."""
    dims = tuple(
        tuple(int(x) for x in rng.integers(1, 3, size=rng.integers(1, 4))) for _ in range(4)
    )
    return dims, int(rng.integers(1, 3))


# The small shapes are drawn once from a fixed generator, so every seed runs
# the same mix of shapes and the per-call times compare across seeds; the
# seed draws the matrices and the order.
_catalogue_rng = np.random.default_rng(2024)
SMALL_SHAPES = tuple(_small_shape(_catalogue_rng) for _ in range(64))
Q3: Shape = (((3,),) * 4, 2)
Q4: Shape = (((4,),) * 4, 2)
Q5_DOCS: Shape = (((5,),) * 4, 1)


@dataclass(frozen=True)
class Workload:
    """The fixed work of one pass.

    ``shapes`` are the instances of a pass.  Without ``fixed_cli`` each
    instance also goes through the CLI as its own document and its
    perturbation.  Otherwise the pass runs the listed CLI operations on the
    two q5 documents written at set-up, spread evenly between the instances
    so that short and long operations see the same stretch of time.  With
    several ``rounds`` an instance's operations other than check run once
    per round on the same input, and check runs in the middle round; this
    gives short operations samples spread over the whole pass.
    """

    shapes: Tuple[Shape, ...]
    fixed_cli: Tuple[str, ...] = ()
    rounds: int = 1


WORKLOADS = {
    # Per-call overhead and per-block loops, no single dominant kernel.
    "small-blocks": Workload(SMALL_SHAPES),
    # The spanning certificate and the trial evaluation dominate.
    "certify-q4": Workload((Q4,), rounds=3),
    # In-process CLI on 32 MB documents.  The in-process stages run at q3:
    # check at q5 probes 625 matrix units at about 0.14 s each.  The one
    # realize (about half the pass) sits in the middle, with three rejects
    # spread over each side, so the rejects sample the whole pass.
    "cli-q5": Workload(
        (Q3,) * 24,
        fixed_cli=("cli_reject",) * 3 + ("cli_realize",) + ("cli_reject",) * 3,
    ),
}


# -- set-up ----------------------------------------------------------------


def save_supermap(s, path):
    serialize.save_document(path, serialize.supermap_document(s))
    return path


def broken(s, seed):
    return gen.perturb_supermap(s, REJECT_EPSILON, "tp-breaking", seed=seed)


def warm_up(workdir):
    """One small full instance and a JSON round trip, paid before timing."""
    s = gen.random_supermap_from_circuit(*algebras(((2,),) * 4), p_dim=2, seed=0)
    sf.verify_deterministic(s, tol=VERIFY_TOL)
    r = sf.realize(s, tol=VERIFY_TOL)
    sf.check_realisation(r, s, trials=1, tol=CHECK_TOL)
    serialize.load_supermap(save_supermap(s, workdir / "warm.json"))


def set_up(wl, seed, workdir):
    """Warm up and write the fixed CLI documents if the workload has them.
    Returns (accepted, rejected) document paths, or None."""
    warm_up(workdir)
    if not wl.fixed_cli:
        return None
    dims, p = Q5_DOCS
    ok = gen.random_supermap_from_circuit(*algebras(dims), p_dim=p, seed=derive_seed(seed, 0, 1))
    bad = gen.random_supermap_from_circuit(*algebras(dims), p_dim=p, seed=derive_seed(seed, 0, 2))
    return (
        save_supermap(ok, workdir / "q5-ok.json"),
        save_supermap(broken(bad, derive_seed(seed, 0, 3)), workdir / "q5-bad.json"),
    )


# -- timed operations ------------------------------------------------------


class Recorder:
    """Per-operation timings, pass wall times and failures of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.times = {stage: [] for stage in STAGES}
        self.pass_means = {stage: [] for stage in STAGES}
        self.pass_wall = []
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def op(self, stage, instance, fn, check):
        """Time fn(); check(result) returns None when the result is right,
        else what is wrong.  Returns the result, or None when fn raised."""
        self.attempted += 1
        scope = self.tracer.op(instance) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = fn()
        except Exception:
            self.times[stage].append(time.perf_counter() - start)
            self.failed += 1
            print(f"instance {instance} {stage} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.times[stage].append(time.perf_counter() - start)
        problem = check(result)
        if problem:
            self.failed += 1
            print(f"instance {instance} {stage}: {problem}", file=sys.stderr)
        return result


def cli_realize(doc, out):
    text = io.StringIO()
    with redirect_stdout(text), redirect_stderr(text):
        code = cli.main(["realize", str(doc), "--out", str(out)])
    return code, text.getvalue()


def accepted(result):
    code, text = result
    m = re.search(r"memory dimension (\d+) <= bound (\d+)", text)
    if code != 0 or m is None or int(m.group(1)) > int(m.group(2)):
        return f"expected exit 0 and p_dim <= bound, got exit {code}: {text!r}"
    return None


def rejected(result):
    code, text = result
    if code != 1 or "not deterministic" not in text:
        return f"expected exit 1 for a broken document, got exit {code}: {text!r}"
    return None


def run_cli(rec, stage, docs, instance, workdir):
    """The CLI's realize on the accepted (cli_realize) or the broken
    (cli_reject) document of the pair."""
    out = workdir / "realisation.json"
    if stage == "cli_realize":
        rec.op(stage, instance, lambda: cli_realize(docs[0], out), accepted)
    else:
        rec.op(stage, instance, lambda: cli_realize(docs[1], out), rejected)


def run_instance(rec, shape, seed, instance, workdir):
    """gen -> verify -> realize -> check, then the CLI on the instance's own
    documents unless the workload has fixed ones; repeated per round."""
    wl = rec.wl
    dims, p_dim = shape
    a, b, c, d = algebras(dims)
    docs = None
    for rnd in range(wl.rounds):
        s = rec.op(
            "gen", instance,
            lambda: gen.random_supermap_from_circuit(a, b, c, d, p_dim=p_dim, seed=seed),
            lambda s: None,
        )
        if s is None:
            return
        rec.op(
            "verify", instance,
            lambda: sf.verify_deterministic(s, tol=VERIFY_TOL),
            lambda rep: None if rep.verdict else f"deterministic supermap rejected: {rep.summary()}",
        )
        r = rec.op(
            "realize", instance,
            lambda: sf.realize(s, tol=VERIFY_TOL),
            lambda r: None if r.p_dim <= r.p_bound else f"p_dim {r.p_dim} > bound {r.p_bound}",
        )
        if r is not None and rnd == wl.rounds // 2:
            rec.op(
                "check", instance,
                lambda: sf.check_realisation(r, s, trials=1, tol=CHECK_TOL, seed=seed),
                lambda chk: None if chk.passed else chk.summary(),
            )
        if not wl.fixed_cli:
            if docs is None:
                docs = (
                    save_supermap(s, workdir / "ok.json"),
                    save_supermap(broken(s, seed), workdir / "bad.json"),
                )
            run_cli(rec, "cli_realize", docs, instance, workdir)
            run_cli(rec, "cli_reject", docs, instance, workdir)


def run_pass(rec, seed, index, workdir, fixed_docs):
    wl = rec.wl
    start = time.perf_counter()
    first = {stage: len(rec.times[stage]) for stage in STAGES}
    order = np.random.default_rng([seed, index]).permutation(len(wl.shapes))
    n_cli = len(wl.fixed_cli)
    slots = {(2 * j + 1) * len(order) // (2 * n_cli): j for j in range(n_cli)}
    for pos, k in enumerate(order):
        if pos in slots:
            j = slots[pos]
            run_cli(rec, wl.fixed_cli[j], fixed_docs, f"{index}.cli{j}", workdir)
        inst_seed = derive_seed(seed, index + 1, k)
        run_instance(rec, wl.shapes[k], inst_seed, f"{index}.{k}", workdir)
    rec.pass_wall.append(time.perf_counter() - start)
    for stage in STAGES:
        calls = rec.times[stage][first[stage]:]
        if calls:
            rec.pass_means[stage].append(sum(calls) / len(calls))


def run_passes(rec, seed, workdir, fixed_docs, seconds=None, count=None):
    """Run passes 0, 1, ... until `count` are done, or else while the next
    one is expected to end less than half a pass past `seconds`.  Returns
    the number of passes and their total wall time."""
    start = time.perf_counter()
    n = 0
    while True:
        run_pass(rec, seed, n, workdir, fixed_docs)
        n += 1
        elapsed = time.perf_counter() - start
        if count is not None:
            if n >= count:
                break
        elif elapsed + 0.5 * elapsed / n >= seconds:
            break
    return n, time.perf_counter() - start


# -- traced run --------------------------------------------------------------


class Health:
    """Numerical-health figures read from the public report fields."""

    def __init__(self):
        self.values = {
            "health.spanning_deviation_max": 0.0,
            "health.trial_deviation_max": 0.0,
            "health.kernel_residual_max": 0.0,
            "health.reject_margin_min": math.inf,
            "health.w_isometry_defect_max": 0.0,
            "health.p_dim_max": 0.0,
        }

    def _max(self, key, value):
        self.values[key] = max(self.values[key], float(value))

    def verify(self, rep):
        if rep.verdict:
            self._max("health.kernel_residual_max", rep.kernel_residual)
        else:
            margin = max(rep.kernel_residual, rep.n_unital_residual) / rep.tol
            self.values["health.reject_margin_min"] = min(
                self.values["health.reject_margin_min"], margin
            )

    def realize(self, r):
        self._max("health.p_dim_max", r.p_dim)
        self._max("health.w_isometry_defect_max", r.w_isometry_defect)

    def check(self, chk):
        self._max("health.spanning_deviation_max", chk.spanning_deviation)
        self._max("health.trial_deviation_max", chk.trial_deviation)

    def hooks(self):
        return {
            "supermap.verify_deterministic": self.verify,
            "realize.realize": self.realize,
            "realize.check_realisation": self.check,
        }


def traced_run(rec, seed, seconds, workdir, fixed_docs, trace_path):
    """Untraced passes for half the budget, then the same passes traced.
    Per-layer figures are per traced pass."""
    n, plain_wall = run_passes(rec, seed, workdir, fixed_docs, seconds=seconds / 2)
    tracer = Tracer()
    health = Health()
    tracer.install(health.hooks())
    rec.tracer = tracer
    try:
        _, traced_wall = run_passes(rec, seed, workdir, fixed_docs, count=n)
    finally:
        rec.tracer = None
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path)
    layers = {}
    for name in NAMES:
        layers[f"{name}.calls"] = tracer.calls[name] / n
        layers[f"{name}.self_s"] = tracer.self_s[name] / n
    layers["trace.coverage"] = tracer.coverage()
    layers["trace.overhead_s"] = (traced_wall - plain_wall) / n
    for key, value in health.values.items():
        layers[key] = value if math.isfinite(value) else 0.0
    return layers, tracer.absent


# -- entry point -------------------------------------------------------------


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        fixed_docs = set_up(wl, args.seed, workdir)
        result = {"setup_s": time.perf_counter() - _T0}
        if not args.setup_only:
            rec = Recorder(wl)
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
                layers, absent = traced_run(
                    rec, args.seed, args.seconds, workdir, fixed_docs, trace_path
                )
                result.update(per_layer=layers, absent=absent, trace_file=str(trace_path))
            else:
                run_passes(rec, args.seed, workdir, fixed_docs, seconds=args.seconds)
            result.update(
                samples=rec.times,
                pass_means=rec.pass_means,
                pass_wall=rec.pass_wall,
                attempted=rec.attempted,
                failed=rec.failed,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                machine=machine_facts(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
