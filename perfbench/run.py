"""supermap-forge benchmark: gen -> verify -> realize -> check, plus the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-blocks --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 1

Each workload runs in its own single-threaded process (workload.py).  With
``--trace 0`` the run reports the end-to-end metrics; set-up is repeated in
extra processes and reported as the median.  With ``--trace 1`` it reports
the per-layer metrics of a traced run (see tracer.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit and sample count, and each operation's per-call median and, where at
least ten calls lie beyond it, a high percentile.

An operation's metric is the median over passes of its mean time per call
within the pass.  On a shared host the per-call times are bimodal, with a
share of slow calls that drifts over minutes; the median of such calls jumps
between the modes, while a mean per pass moves smoothly with the share.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-blocks", "certify-q4", "cli-q5")
SETUP_RUNS = 3  # processes whose set-up time enters the median
TIME_LIMIT_S = 170.0  # one workload's whole run, every process included


def high_percentile(xs):
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None


def spawn(name, seed, seconds, trace, deadline, setup_only=False):
    """Run workload.py in a process of its own and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(name, seed, seconds, trace, deadline, setup_only=True)["setup_s"])
    main = spawn(name, seed, seconds, trace, deadline)
    setups.append(main["setup_s"])

    lines = [f"== {name} seed {seed} trace {trace}: {len(main['pass_wall'])} passes, "
             f"{main['attempted']} operations, {main['failed']} failed"]
    lines.append("machine: " + " ".join(f"{k}={v}" for k, v in main["machine"].items()))
    metrics = {}
    if trace:
        for key, value in main["per_layer"].items():
            unit = per_layer_unit(key)
            metrics[key] = {"value": value, "unit": unit}
            lines.append(f"  {key:48s} {value:.6g} {unit}")
        if main["absent"]:
            lines.append("  absent (reported as 0): " + ", ".join(main["absent"]))
        lines.append(f"  spans written to {main['trace_file']}")
    else:
        for key, xs in (("setup_s", setups), ("wall_s", main["pass_wall"])):
            metrics[key] = {"value": median(xs), "unit": "s"}
            lines.append(f"  {key:14s} {median(xs):.6g} s  median of {len(xs)}")
        for stage, means in main["pass_means"].items():
            calls = main["samples"][stage]
            metrics[f"{stage}_s"] = {"value": median(means), "unit": "s"}
            text = (f"  {stage + '_s':14s} {median(means):.6g} s  median of {len(means)} "
                    f"pass means; per call median {median(calls):.6g} s")
            hp = high_percentile(calls)
            if hp:
                text += f", p{hp[0]} {hp[1]:.6g} s"
            lines.append(text + f", n={len(calls)}")
        metrics["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
        lines.append(f"  {'peak_rss_mb':14s} {main['peak_rss_mb']:.6g} MB")
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return lines, result


def per_layer_unit(key):
    if key.endswith(".calls"):
        return "count"
    if key.endswith("_s"):
        return "s"
    if key == "trace.coverage":
        return "fraction"
    if key == "health.p_dim_max":
        return "dim"
    if key == "health.reject_margin_min":
        return "x_tol"
    return "norm"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "supermap_forge" / "__init__.py").is_file():
        print(f"error: no supermap_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            lines, result = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            print(json.dumps(result), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
