"""The library names that the benchmark harness (bench/) relies on.

bench/tracing.py rebinds module attributes and methods of lgmsplit, and
bench/child.py builds models through the library's readers; a renamed name
would otherwise only show in a traced benchmark run.  The bench modules are
imported, never edited.
"""

import os
import sys

import pytest

import lgmsplit.inference as inference
import lgmsplit.model as model_mod
import lgmsplit.nodesplit as nodesplit
import lgmsplit.sparse as sparse
from lgmsplit.datasets import rats_file_paths
from lgmsplit.nodesplit import conflict_pvalues, result_to_csv

from conftest import small_hierarchy

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPAN_NAMES = {"sparse.factorize", "sparse.solve", "model.assemble",
              "inference.gaussian_approximation", "inference.sigma_z",
              "inference.log_posterior_theta", "inference.explore_hypergrid",
              "inference.lincomb_posterior", "nodesplit.between_group_run",
              "nodesplit.within_group_run"}

# (owner, attribute) pairs that Tracer.install rebinds
REBOUND = [(inference, "factorize"), (sparse.CholeskyFactor, "solve"),
           (model_mod.CompiledModel, "z_prior"),
           (model_mod.CompiledModel, "z_posterior_precision"),
           (inference, "gaussian_approximation"),
           (inference.GaussianApprox, "sigma_z"),
           (inference, "log_posterior_theta"),
           (inference, "explore_hypergrid"), (nodesplit, "explore_hypergrid"),
           (inference, "lincomb_posterior"), (nodesplit, "lincomb_posterior"),
           (nodesplit, "between_group_run"), (nodesplit, "within_group_run")]


def span_names(tracer):
    return {span[2] for span in tracer.spans}


def test_setup_model_on_bundled_rats():
    tracer = tracing.Tracer()
    model = child.setup_model(*rats_file_paths(), tracer)
    # the bench times this call at set-up, so it must stay a valid permutation
    assert sorted(model.z_ordering().tolist()) == list(range(model.z_dim))
    assert span_names(tracer) == {"model.read", "model.build", "model.z_ordering"}


def test_traced_cut_records_every_layer_and_restores_the_library():
    m = small_hierarchy(fixed_theta=False)
    plain = result_to_csv(conflict_pvalues(m, "g", q=0.1, n_threads=1))
    originals = [getattr(owner, attr) for owner, attr in REBOUND]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(REBOUND, originals))
        traced = result_to_csv(conflict_pvalues(m, "g", q=0.1, n_threads=1))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(REBOUND, originals))
    assert span_names(tracer) == SPAN_NAMES
    assert traced == plain


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_operation_passes_the_output_check(workload, tmp_path):
    # the benchmark's own set-up path and reference check, once per workload
    reference = workloads.load_reference(workload)
    paths = workloads.write_inputs(workload, str(tmp_path))
    model = child.setup_model(*paths, None)
    text = workloads.run_operation(workload, model)
    attempted, failed, max_dev, n_na = workloads.check_output(workload, text, reference)
    assert (attempted, failed, n_na) == (len(reference), 0, 0)
