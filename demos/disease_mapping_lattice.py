"""Areal count model on a synthetic lattice, split two ways.

Counts per cell and period follow a log-linear model with a spatially smooth
field (intrinsic CAR on the lattice graph, sum-to-zero), an unstructured
per-cell effect, and a linear period trend.  The same fitted model can be
screened for conflicts by cell (is any area out of line with its neighbours
plus the trend?) or by period (does any year break the linear trend?).
"""

from lgmsplit import build_model, conflict_pvalues
from lgmsplit.datasets import LatticeParams, generate_lattice

data, spec, graph = generate_lattice(m=5, t_periods=4, seed=3,
                                     params=LatticeParams(mu=-0.3, beta=0.08,
                                                          sigma_u=0.3,
                                                          sigma_v=0.1))
model = build_model(spec)
print(f"cells: {graph.n_nodes}, periods: 4, rows: {data.n_rows}, "
      f"hyperparameters: {model.dim_theta}")

print("\n== split by cell ==")
by_cell = conflict_pvalues(model, "county")
p = by_cell.p_values()
print(f"p-values in [{p.min():.3f}, {p.max():.3f}], "
      f"flagged at 10% FDR: {by_cell.flagged or 'none'}")

print("\n== split by period ==")
by_year = conflict_pvalues(model, "year")
for outcome in by_year.outcomes:
    r = outcome.result
    print(f"  period {outcome.label}: delta {r.delta_hat:7.3f} "
          f"rank {r.rank:2d} p {r.p_value:.4f}")
print(f"flagged: {by_year.flagged or 'none'}")
