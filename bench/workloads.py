"""The benchmark's workloads: inputs, one user operation, output checks.

Both workloads are node splits (``conflict_pvalues``), sized so that one
operation takes seconds, leaving room for repeats inside a run that must
end within 180 s: the full 30-rat cut takes 40-48 s, so rats-cut keeps
rats 1-10.

Each workload has one fixed data set, so the benchmark seed is unused:
the cost of a lattice cut varies by +-20% between generator seeds, more
than the run-to-run spread the benchmark must resolve, and its optimizer
path even follows the rounding of the row order (4341-5087 GA calls over
three row shuffles).  Outputs are compared with reference.json by group
label.
"""

import json
import os

LATTICE_DATA_SEED = 1
RATS_KEPT = 10
Q = 0.10                     # BH level of every cut
RATS_FLAGGED = ["9"]
RATS_P_TOL = 0.05            # rat reproduction tolerance, ROADMAP.md criterion 1
LATTICE_P_TOL = 1e-3

WORKLOADS = {
    "rats-cut": {"group": "rat", "n_threads": 2},
    "lattice-cut": {"group": "county", "n_threads": 1, "m": 4, "t_periods": 3},
}

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def write_inputs(workload, out_dir):
    """Write the workload's input files; return (csv_path, model_path)."""
    from lgmsplit.datasets import rats_file_paths, write_lattice_files

    os.makedirs(out_dir, exist_ok=True)
    spec = WORKLOADS[workload]
    if workload == "rats-cut":
        csv_path, model_src = rats_file_paths()
        model_path = os.path.join(out_dir, "rats_model.json")
        with open(model_src, encoding="utf-8") as src, \
                open(model_path, "w", encoding="utf-8") as dst:
            dst.write(src.read())
    else:
        csv_path, model_path, _ = write_lattice_files(
            out_dir, spec["m"], spec["t_periods"], LATTICE_DATA_SEED)

    with open(csv_path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    if workload == "rats-cut":
        rat = header.split(",").index("rat")
        rows = [ln for ln in rows if int(ln.split(",")[rat]) <= RATS_KEPT]
    csv_path = os.path.join(out_dir, "data.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    return csv_path, model_path


def run_operation(workload, model):
    """One user operation on a built model; returns its conflict table."""
    import lgmsplit.nodesplit

    spec = WORKLOADS[workload]
    result = lgmsplit.nodesplit.conflict_pvalues(
        model, spec["group"], q=Q, n_threads=spec["n_threads"])
    return lgmsplit.nodesplit.result_to_csv(result)


# ---------------------------------------------------------------------------
# reference values and output checks


def reference_entry(text):
    """What reference.json stores for one conflict table: rows by label."""
    from lgmsplit.nodesplit import parse_result_csv
    return {r.pop("group"): r for r in parse_result_csv(text)}


def load_reference(workload):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_output(workload, text, reference):
    """Compare one conflict table with its reference.

    Returns (attempted, failed, max_dev, n_na): every group is one attempted
    operation, failed when it is NA or off its reference; a wrong flag set
    fails every group.  max_dev is the largest |p - p_ref| and n_na the
    number of groups that came back NA.
    """
    rows = reference_entry(text)
    n_na = sum(1 for r in rows.values() if r["p_value"] is None)
    if set(rows) != set(reference):
        n = max(len(rows), len(reference))
        return n, n, float("inf"), n_na
    tol = RATS_P_TOL if workload == "rats-cut" else LATTICE_P_TOL
    failed = 0
    max_dev = 0.0
    for label, want in reference.items():
        got = rows[label]
        if got["p_value"] is None:
            failed += 1
            max_dev = float("inf")
            continue
        dev = abs(got["p_value"] - want["p_value"])
        max_dev = max(max_dev, dev)
        if dev > tol or got["rank"] != want["rank"]:
            failed += 1
    flagged = sorted(label for label, r in rows.items() if r["flagged"] == 1)
    want_flagged = sorted(RATS_FLAGGED if workload == "rats-cut" else
                          [label for label, r in reference.items() if r["flagged"] == 1])
    if flagged != want_flagged:
        failed = len(rows)
    return len(rows), failed, max_dev, n_na
