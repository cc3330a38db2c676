"""Screening a repeated-measures study for divergent subjects.

The bundled data records the weights of 30 young rats at five ages.  Each
animal gets its own random intercept and growth slope around a population
line; the question is whether any animal's trajectory disagrees with what
the remaining 29 predict for it.

The split works per animal: a "between" run drops the animal's five weights
and predicts them from everyone else, a "within" run sees only those five
weights (with the hyperparameter knowledge carried over as a prior so the
animal cannot inform its own yardstick), and the standardized difference of
the two predictor posteriors becomes a chi-squared test.
"""

import numpy as np

from lgmsplit import build_model, conflict_pvalues, fit, load_rats

data, spec = load_rats()
model = build_model(spec)

print("== model ==")
print(f"rows: {data.n_rows}, latent dimension: {model.latent_dim}, "
      f"hyperparameters: {model.dim_theta}")

result = fit(model)
print("\n== hyperparameter posterior (internal scale) ==")
for name, mu, sd in zip(result.theta_names, result.theta_mean, result.theta_sd):
    print(f"  {name:16s} mean {mu:+.3f}  sd {sd:.3f}")
tau = np.exp(result.theta_mean[0])
print(f"  implied residual sd: {1.0 / np.sqrt(tau):.2f} grams")

print("\n== node-split by animal (this takes a minute or two) ==")
split = conflict_pvalues(model, "rat", q=0.10)
print(f"initial fit {split.fit_seconds:.1f}s, split {split.split_seconds:.1f}s")
print(f"{'rat':>4} {'delta':>8} {'rank':>4} {'p':>8}  flag")
for outcome in split.outcomes:
    r = outcome.result
    mark = "  <== divergent" if outcome.label in split.flagged else ""
    print(f"{outcome.label:>4} {r.delta_hat:8.3f} {r.rank:4d} {r.p_value:8.4f}{mark}")
print(f"\nflagged at FDR 10%: {split.flagged}")
