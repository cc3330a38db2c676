"""Building a model programmatically and inspecting the machinery.

A minimal one-way hierarchy assembled from blocks, fitted, and split; also a
peek at the pieces underneath: the block-coordinate prior precision, the
explored hyperparameter grid, and a joint posterior of a few predictor
coordinates.
"""

import numpy as np

from lgmsplit import (DataTable, Iid, Intercept, LikelihoodFamily,
                      LogGammaPrior, ModelSpec, build_model, conflict_pvalues,
                      explore_hypergrid, lincomb_posterior)

rng = np.random.default_rng(1)
groups = np.repeat([f"g{j}" for j in range(6)], 8)
effects = rng.normal(scale=0.8, size=6)
y = 2.0 + effects[np.repeat(np.arange(6), 8)] + rng.normal(size=48)

data = DataTable({"y": y, "batch": groups})
spec = ModelSpec(
    LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(1.0, 0.1)),
    response="y",
    blocks=[Intercept(precision=1e-4),
            Iid("batch", prior=LogGammaPrior(1.0, 0.1))],
    data=data,
    group="batch",
)
model = build_model(spec)
print(f"latent layout: {model.n_rows} predictor coordinates + "
      f"{model.z_dim} block coordinates")

q = model.z_prior(np.zeros(2))
print(f"block-coordinate prior precision ({q.shape[0]}x{q.shape[1]}):")
with np.printoptions(precision=4, suppress=True):
    print(q)

grid = explore_hypergrid(model)
mean, cov = grid.moments()
print(f"hypergrid: {grid.n_points} points, posterior mean of "
      f"(log data precision, log batch precision) = {np.round(mean, 3)}")

sel = np.zeros((3, model.latent_dim))
sel[[0, 1, 2], [0, 1, 2]] = 1.0  # first three predictor coordinates
joint = lincomb_posterior(model, grid, sel)
print("joint posterior of the first three predictors:")
print("  mean", np.round(joint.mean, 3))
print("  cov\n", np.round(joint.cov, 4))

result = conflict_pvalues(model, "batch", q=0.10)
print("\nconflict p-values per batch:")
for outcome in result.outcomes:
    print(f"  {outcome.label}: p = {outcome.result.p_value:.4f}")
print(f"flagged: {result.flagged or 'none'}")
