"""Bundled example data and synthetic generators.

The weight-growth table (30 rats, 5 ages) is the classic dataset of Gelfand
et al. (1990), shipped verbatim with a centered age covariate; the lattice
generator produces areal count data with a spatially smooth plus unstructured
random-effect structure for exercising the graph-based model class.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.linalg

from .model import (AdjacencyGraph, DataTable, ModelError, read_data_csv,
                    read_model_json)


def _data_path(name):
    return resources.files("lgmsplit") / "data" / name


def load_rats():
    """The bundled rat growth data and its model specification."""
    with resources.as_file(_data_path("rats.csv")) as p:
        data = read_data_csv(str(p))
    with resources.as_file(_data_path("rats_model.json")) as p:
        spec = read_model_json(str(p), data)
    return data, spec


def rats_file_paths():
    """Filesystem paths of the bundled CSV and model document."""
    with resources.as_file(_data_path("rats.csv")) as p:
        csv_path = str(p)
    with resources.as_file(_data_path("rats_model.json")) as p:
        json_path = str(p)
    return csv_path, json_path


@dataclass
class LatticeParams:
    mu: float = -0.2
    beta: float = 0.05
    sigma_u: float = 0.3        # conditional scale of the smooth field
    sigma_v: float = 0.15       # scale of the unstructured effects
    exposure_mean: float = 100.0


def square_lattice_graph(m):
    """Rook-neighbour graph of an m x m lattice, nodes labelled 1..m*m."""
    if m < 2:
        raise ModelError(f"lattice side must be at least 2, got {m}")
    labels = [str(i + 1) for i in range(m * m)]
    neighbors = []
    for r in range(m):
        for c in range(m):
            nb = []
            if r > 0:
                nb.append((r - 1) * m + c)
            if r < m - 1:
                nb.append((r + 1) * m + c)
            if c > 0:
                nb.append(r * m + c - 1)
            if c < m - 1:
                nb.append(r * m + c + 1)
            neighbors.append(nb)
    return AdjacencyGraph(labels, neighbors)


def _sample_icar(graph, sigma, rng):
    """Draw from the intrinsic CAR with conditional scale sigma, sum-to-zero
    imposed per connected component.

    The precision is factored in minimum-degree order, by numpy's Cholesky
    and scipy's triangular solves rather than the inference factor: the
    order and these calls fix which draw a seed gives, so generated data
    stay the same across versions.
    """
    n = graph.n_nodes
    q = (graph.structure() + 1e-7 * np.eye(n)) / sigma ** 2
    perm = _min_degree_ordering(graph)
    iperm = np.argsort(perm)
    l = np.linalg.cholesky(q[np.ix_(perm, perm)])
    # L' w = b with b standard normal gives w covariance (P Q P')^-1
    x = scipy.linalg.solve_triangular(l, rng.standard_normal(n),
                                      lower=True, trans="T")[iperm]
    for comp in range(graph.n_components):
        a = (graph.components == comp).astype(float)
        y = scipy.linalg.solve_triangular(l, a[perm], lower=True)
        qinv_at = scipy.linalg.solve_triangular(l, y, lower=True, trans="T")[iperm]
        x = x - qinv_at * (float(a @ x) / float(a @ qinv_at))
    return x


def _min_degree_ordering(graph):
    """Greedy minimum-degree elimination order of the graph's nodes."""
    n = graph.n_nodes
    adj = [set() for _ in range(n)]
    for j in range(n):
        for i in graph.neighbors[j]:
            if i > j:
                adj[i].add(j)
                adj[j].add(i)
    alive = np.ones(n, dtype=bool)
    degree = np.array([len(a) for a in adj], dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    for step in range(n):
        best = -1
        best_deg = n + 1
        for v in range(n):
            if alive[v] and degree[v] < best_deg:
                best = v
                best_deg = degree[v]
        perm[step] = best
        alive[best] = False
        nbrs = [u for u in adj[best] if alive[u]]
        for u in nbrs:
            adj[u].discard(best)
        for a in range(len(nbrs)):
            u = nbrs[a]
            for b in range(a + 1, len(nbrs)):
                w = nbrs[b]
                if w not in adj[u]:
                    adj[u].add(w)
                    adj[w].add(u)
        for u in nbrs:
            degree[u] = len(adj[u])
    return perm


def generate_lattice(m, t_periods, seed, params=None):
    """Simulate areal counts on an m x m lattice over t_periods.

    Returns the data table, a matching model specification (smooth field plus
    unstructured effects plus a linear period trend), and the lattice graph.
    Generation is reproducible for a fixed seed.
    """
    if m < 3:
        raise ModelError(f"lattice side must be at least 3, got {m}")
    if t_periods < 2:
        raise ModelError(f"need at least 2 periods, got {t_periods}")
    params = params or LatticeParams()
    rng = np.random.default_rng(seed)
    graph = square_lattice_graph(m)
    n_cells = m * m

    u = _sample_icar(graph, params.sigma_u, rng)
    v = params.sigma_v * rng.standard_normal(n_cells)
    t_centered = np.arange(1, t_periods + 1) - (t_periods + 1) / 2.0

    county, year, tcol, ecol, ycol = [], [], [], [], []
    for j in range(t_periods):
        e_j = params.exposure_mean * np.exp(0.2 * rng.standard_normal(n_cells))
        eta = params.mu + u + v + params.beta * t_centered[j]
        counts = rng.poisson(e_j * np.exp(eta))
        county.extend(graph.labels)
        year.extend([j + 1] * n_cells)
        tcol.extend([t_centered[j]] * n_cells)
        ecol.extend(e_j.tolist())
        ycol.extend(counts.astype(float).tolist())

    data = DataTable({
        "county": np.array(county, dtype=object),
        "year": np.array(year, dtype=float),
        "t": np.array(tcol),
        "E": np.array(ecol),
        "y": np.array(ycol),
    }, group_column="county")

    from .model import Besag, Fixed, Iid, Intercept, LikelihoodFamily, LogGammaPrior, ModelSpec
    spec = ModelSpec(
        LikelihoodFamily("poisson", offset="E"),
        "y",
        [Intercept(),
         Fixed("t"),
         Besag("county", graph, prior=LogGammaPrior(1.0, 0.0005), name="smooth"),
         Iid("county", prior=LogGammaPrior(1.0, 0.0005), name="hetero")],
        data,
        group="county",
    )
    return data, spec, graph


def data_to_csv(data, columns=None):
    """Serialize a DataTable back to CSV text (NA for missing)."""
    cols = columns or list(data.columns)
    lines = [",".join(cols)]
    for i in range(data.n_rows):
        fields = []
        for c in cols:
            v = data.columns[c][i]
            if v is None or (isinstance(v, float) and math.isnan(v)):
                fields.append("NA")
            elif isinstance(v, str):
                fields.append(v)
            elif float(v) == int(v) and abs(float(v)) < 1e15:
                fields.append(str(int(v)))
            else:
                fields.append(repr(float(v)))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def graph_to_text(graph):
    lines = []
    for i, lab in enumerate(graph.labels):
        nbrs = " ".join(graph.labels[j] for j in graph.neighbors[i])
        lines.append(f"{lab}: {nbrs}")
    return "\n".join(lines) + "\n"


def write_lattice_files(out_dir, m, t_periods, seed, params=None):
    """Generate a lattice dataset and write csv, graph and model documents."""
    import os
    data, spec, graph = generate_lattice(m, t_periods, seed, params)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "lattice.csv")
    graph_path = os.path.join(out_dir, "lattice.graph")
    model_path = os.path.join(out_dir, "lattice_model.json")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(data_to_csv(data, ["county", "year", "t", "E", "y"]))
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(graph))
    doc = {
        "likelihood": "poisson",
        "response": "y",
        "offset": "E",
        "group": "county",
        "effects": [
            {"type": "intercept"},
            {"type": "fixed", "covariate": "t"},
            {"type": "besag", "name": "smooth", "index": "county",
             "adjacency": "lattice.graph"},
            {"type": "iid", "name": "hetero", "index": "county"},
        ],
        "priors": {
            "smooth": {"type": "loggamma", "a": 1.0, "b": 0.0005},
            "hetero": {"type": "loggamma", "a": 1.0, "b": 0.0005},
        },
    }
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, model_path, graph_path
