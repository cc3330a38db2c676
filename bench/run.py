"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload rats-cut --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The workload's input files are written under
``.bench_out/`` and each measurement runs in a child process (bench/child.py)
with the BLAS thread count pinned to 1, so a cut's worker threads are the
only parallelism.

Each workload has one fixed data set, so --seed is recorded but unused.

Either way one child repeats the workload's operation at least three times
and until the operations have taken --seconds in all.  With --trace 0 the
child is untraced and the run reports the end-to-end metrics.  With
--trace 1 the child alternates traced and untraced operations, starting
traced, and the run reports the per-layer metrics derived from its span
file; the work counts of every traced operation must agree exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A readable table and the run's record
(environment, samples, checks) go to stderr and to
``.bench_out/<workload>.trace<k>.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170.0
PIN_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_child(workload, seconds, paths, deadline, trace_out=None):
    env = dict(os.environ, **PIN_BLAS)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seconds", repr(seconds), "--data", paths[0], "--model", paths[1]]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "lgmsplit", "__init__.py")):
        sys.exit(f"error: no lgmsplit sources under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import workloads
    from tracing import layer_metrics

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    e2e_units, layer_units = load_spec()

    os.makedirs(OUT, exist_ok=True)
    inputs = os.path.join(OUT, f"inputs-{args.workload}-{os.getpid()}")
    try:
        paths = workloads.write_inputs(args.workload, inputs)
        span_file = (os.path.join(OUT, f"{args.workload}.spans.jsonl")
                     if args.trace else None)
        run = run_child(args.workload, args.seconds, paths, deadline, span_file)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    checks = {"outputs_identical": len(set(run["digests"])) == 1,
              "outputs_match_reference": failed == 0}
    if args.trace == 0:
        metrics = {"wall_s": statistics.median(run["op_s"]),
                   "setup_s": statistics.median(s for b in run["setup_s"] for s in b),
                   "peak_rss_mb": run["peak_rss_mb"]}
        units = e2e_units
    else:
        metrics, counts = layer_metrics(span_file)
        checks["exact_counts_repeat"] = all(c == counts[0] for c in counts)
        if not checks["exact_counts_repeat"]:
            print("nondeterminism: work counts differ between traced operations: "
                  + json.dumps(counts), file=sys.stderr)
        # neighbouring operations are one traced, one untraced
        ratios = []
        for i in range(len(run["op_s"]) - 1):
            traced, untraced = run["op_s"][i:i + 2]
            if not run["op_traced"][i]:
                untraced, traced = traced, untraced
            ratios.append(traced / untraced)
        metrics["trace.overhead"] = statistics.median(ratios) - 1.0
        units = layer_units
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}

    correct = all(checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seed_used=False,
                  seconds=args.seconds, trace=args.trace, checks=checks,
                  failed_frac=failed / attempted if attempted else 1.0,
                  p_max_dev=run["max_dev"],
                  samples={k: run[k] for k in ("op_s", "op_traced", "setup_s")},
                  environment=dict(run["environment"], nproc=os.cpu_count(),
                                   python=platform.python_version(),
                                   git_commit=git_commit()),
                  span_file=span_file and os.path.relpath(span_file, ROOT))
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name, unit in units.items():
        print(f"{args.workload:12s} {name:32s} {metrics[name]:12.6g} {unit}",
              file=sys.stderr)
    print(f"{args.workload:12s} {'failed_frac':32s} {record['failed_frac']:12.6g} 1",
          file=sys.stderr)
    print(f"{args.workload:12s} {'p_max_dev':32s} {record['p_max_dev']:12.6g} p",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
