"""Run every workload untraced and traced and print every metric with its unit.

    python3 bench/report.py [--seed N] [--seconds S]

For each workload this runs ``bench/run.py --trace 0`` and ``--trace 1``
and prints one line per metric: the end-to-end metrics, failed_frac
(failed / attempted operations), p_max_dev (largest |p - p_reference|
over the groups), the per-layer metrics and whether the
output checks passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload:12s} trace {trace}: run.py exited with "
                      f"code {proc.returncode}")
                ok = False
                continue
            with open(os.path.join(ROOT, ".bench_out",
                                   f"{workload}.trace{trace}.json"), encoding="utf-8") as fh:
                record = json.load(fh)
            rows = [(name, m["value"], m["unit"]) for name, m in record["metrics"].items()]
            if trace == 0:
                rows.append(("failed_frac", record["failed_frac"], "1"))
                rows.append(("p_max_dev", record["p_max_dev"], "p"))
            for name, value, unit in rows:
                print(f"{workload:12s} {name:30s} {value:14.6g} {unit}")
            print(f"{workload:12s} {'checks (trace ' + str(trace) + ')':30s} "
                  f"{json.dumps(record['checks'])}")
            ok = ok and record["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
