import time

import numpy as np
import pytest

from lgmsplit import (DataTable, FixedPrecision, Iid, Intercept,
                      LikelihoodFamily, LogGammaPrior, ModelSpec, build_model,
                      conflict_pvalues, load_rats)
from lgmsplit.model import AdjacencyGraph, Besag

# Golden conflict p-values for the bundled rat growth data, animals 1..30
# in order; the split must reproduce these within the acceptance tolerance.
RATS_REFERENCE_P = [0.96, 0.06, 0.74, 0.11, 0.17, 0.81, 0.59, 0.86, 0.0026,
                    0.21, 0.32, 0.49, 1.00, 0.15, 0.08, 0.68, 0.56, 0.70,
                    0.73, 0.95, 0.87, 0.45, 0.50, 0.63, 0.02, 0.64, 0.26,
                    0.63, 0.16, 0.99]


def small_hierarchy(seed=7, j_groups=4, n_per=5, shift=None, shift_group=0,
                    fixed_theta=True):
    """Gaussian one-way hierarchy used across tests.

    fixed_theta pins both precisions (no hyperparameters); otherwise both get
    gamma hyperpriors so the full pipeline is exercised.
    """
    rng = np.random.default_rng(seed)
    groups = np.repeat([str(j + 1) for j in range(j_groups)], n_per)
    b_true = rng.normal(size=j_groups)
    y = 1.0 + b_true[np.repeat(np.arange(j_groups), n_per)] + rng.normal(size=j_groups * n_per)
    if shift is not None:
        y[shift_group * n_per:(shift_group + 1) * n_per] += shift
    data = DataTable({"y": y, "g": groups})
    if fixed_theta:
        lik = LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0))
        blocks = [Intercept(precision=0.01), Iid("g", prior=FixedPrecision(0.25))]
    else:
        lik = LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(1.0, 0.5))
        blocks = [Intercept(precision=0.01), Iid("g", prior=LogGammaPrior(1.0, 0.5))]
    spec = ModelSpec(lik, "y", blocks, data, group="g")
    return build_model(spec)


def two_component_besag(seed=3, per_node=2, intercept_precision=0.1):
    """Gaussian model with an intercept and a Besag effect on a graph with
    two components, a 4-cycle and a 3-node path, so the Besag block carries
    two sum-to-zero constraints; both precisions get LogGamma(1, 0.5)
    hyperpriors.

    Returns the compiled model, the graph, the node index of each row and
    the response.
    """
    rng = np.random.default_rng(seed)
    neighbors = [[1, 2], [0, 3], [0, 3], [1, 2], [5], [4, 6], [5]]
    graph = AdjacencyGraph([str(i) for i in range(len(neighbors))], neighbors)
    node = np.repeat(np.arange(graph.n_nodes), per_node)
    effect = np.array([0.8, -0.3, 0.1, -0.6, 0.5, 0.0, -0.5])
    y = 1.0 + effect[node] + 0.5 * rng.normal(size=node.size)
    data = DataTable({"y": y, "r": [str(i) for i in node]})
    spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(1.0, 0.5)), "y",
                     [Intercept(precision=intercept_precision),
                      Besag("r", graph, prior=LogGammaPrior(1.0, 0.5))], data)
    return build_model(spec), graph, node, y


@pytest.fixture(scope="session")
def rats_model():
    data, spec = load_rats()
    return build_model(spec)


@pytest.fixture(scope="session")
def rats_cut(rats_model):
    """One full node-split of the bundled rat data, shared across tests."""
    t0 = time.monotonic()
    result = conflict_pvalues(rats_model, "rat", q=0.10)
    wall = time.monotonic() - t0
    return result, wall
