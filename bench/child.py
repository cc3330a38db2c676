"""One workload process: build the model, run operations, check outputs.

Started by run.py with the BLAS thread count pinned to 1.  Prints one JSON
object on stdout.  With --trace-out it traces the set-up and every other
operation, starting with the first, and writes the spans there at exit.

    python3 bench/child.py --workload W --seconds S --data CSV --model JSON \
        [--trace-out FILE]
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_BURST_BUILDS = 5
SETUP_BURST_S = 2.0
# Operations per run, at least.  The median of a fixed number of operations
# does not depend on whether the first ones happened to be fast.  A traced
# run's three are traced, untraced, traced: two traced operations to compare
# work counts, each with an untraced neighbour.
MIN_OPS = 3


def setup_model(csv_path, model_path, tracer):
    """Files on disk to a model ready to infer, the path ``lgmsplit cut`` takes."""
    from lgmsplit.model import build_model, read_data_csv, read_model_json

    def read():
        return read_model_json(model_path, read_data_csv(csv_path))

    if tracer is None:
        model = build_model(read())
        model.z_ordering()
        return model
    spec = tracer.span("model.read", read)
    model = tracer.wrap("model.build", build_model,
                        attrs_of=lambda a, r, e: {"design_mb": r.design.nbytes / 2 ** 20}
                        )(spec)
    tracer.span("model.z_ordering", model.z_ordering)
    return model


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import numpy
    import scipy

    tracer = Tracer() if args.trace_out else None
    reference = workloads.load_reference(args.workload)

    # Set-up is timed in bursts before the first operation and after every
    # operation, so its samples cover the whole run, not one moment of it.
    setup_s = []

    def setup_burst():
        burst = []
        t_begin = time.perf_counter()
        while (len(burst) < SETUP_BURST_BUILDS
               or time.perf_counter() - t_begin < SETUP_BURST_S):
            t0 = time.perf_counter()
            built = setup_model(args.data, args.model, tracer)
            burst.append(time.perf_counter() - t0)
        setup_s.append(burst)
        return built

    model = setup_burst()
    op_s, op_traced, digests = [], [], []
    attempted = failed = 0
    max_dev = 0.0
    while len(op_s) < MIN_OPS or sum(op_s) < args.seconds:
        traced = tracer is not None and len(op_s) % 2 == 0
        if traced:
            tracer.op = len(op_s)
            tracer.install()
        t0 = time.perf_counter()
        try:
            text = workloads.run_operation(args.workload, model)
        except Exception:
            traceback.print_exc()
            text = None
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        op_s.append(t1 - t0)
        op_traced.append(traced)
        if text is None:
            n = bad = n_na = len(reference)
            dev = float("inf")
            digests.append("error")
        else:
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            n, bad, dev, n_na = workloads.check_output(args.workload, text, reference)
        if traced:
            tracer.record("op", t0, t1, {"groups_failed": n_na})
            tracer.op = None
        attempted += n
        failed += bad
        max_dev = max(max_dev, dev)
        setup_burst()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(args.trace_out)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "op_s": op_s,
        "op_traced": op_traced,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "max_dev": max_dev,
        "peak_rss_mb": peak_rss_mb,
        "environment": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }))


if __name__ == "__main__":
    main()
