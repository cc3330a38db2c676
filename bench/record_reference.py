"""Record the reference outputs that the benchmark checks against.

    python3 bench/record_reference.py

Runs every workload once and writes bench/reference.json.  The stored
values were recorded from the code as it stood when the benchmark was
defined; re-record only on purpose, because the benchmark's output checks
compare later code against them.
"""

import json
import os
import shutil
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from child import setup_model  # noqa: E402


def main():
    refs = {}
    inputs = os.path.join(ROOT, ".bench_out", "reference-inputs")
    try:
        for workload in workloads.WORKLOADS:
            paths = workloads.write_inputs(workload, inputs)
            model = setup_model(*paths, None)
            t0 = time.perf_counter()
            text = workloads.run_operation(workload, model)
            seconds = time.perf_counter() - t0
            refs[workload] = workloads.reference_entry(text)
            print(f"{workload}: {seconds:.2f} s", file=sys.stderr)
            shutil.rmtree(inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
