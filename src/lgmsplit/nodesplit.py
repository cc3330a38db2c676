"""Group-wise node-splitting conflict diagnostics.

For each group of observations, the joint posterior of that group's linear
predictor is estimated twice: once from all other groups ("between"), and
once from the group alone ("within"), with the hyperparameter posterior of
the between run recycled as the prior of the within run so no information
flows back from the group under scrutiny.  The standardized discrepancy
between the two posteriors is referred to a chi-squared distribution with
the effective rank of its covariance as degrees of freedom.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.special

from .model import ModelError
from .inference import (InferenceConfig, InferenceError, explore_hypergrid,
                        lincomb_posterior, posterior_as_prior)

DEFAULT_RANK_TOL = 1e-8


class RankZeroError(ValueError):
    pass


@dataclass
class GroupSplit:
    """Partition of the observed rows by the values of a grouping column."""

    labels: list
    rows: list  # per group, np.ndarray of row indices

    @classmethod
    def from_model(cls, model, group_column):
        data = model.spec.data
        if group_column is None:
            raise ModelError("no grouping variable given")
        col = data.labels(group_column)
        observed = model.observed
        labels = []
        rows = {}
        for i, lab in enumerate(col):
            if not observed[i]:
                continue
            if lab not in rows:
                labels.append(lab)
                rows[lab] = []
            rows[lab].append(i)
        if len(labels) < 2:
            raise ModelError(
                f"grouping column '{group_column}' has {len(labels)} nonempty "
                "group(s); need at least 2")
        return cls(labels=labels,
                   rows=[np.array(rows[lab], dtype=np.int64) for lab in labels])

    @property
    def n_groups(self):
        return len(self.labels)


@dataclass
class DiscrepancyResult:
    """Standardized discrepancy of one group and its conflict p-value."""

    mu: np.ndarray
    sigma: np.ndarray
    rank: int
    delta_hat: float
    p_value: float


@dataclass
class GroupOutcome:
    label: str
    result: DiscrepancyResult = None
    error: str = None

    @property
    def ok(self):
        return self.result is not None


@dataclass
class NodeSplitResult:
    group_column: str
    outcomes: list
    q: float
    flagged: list                   # group labels flagged by BH at level q
    fit_seconds: float
    split_seconds: float
    rank_tol: float = DEFAULT_RANK_TOL

    @property
    def labels(self):
        return [o.label for o in self.outcomes]

    def p_values(self):
        return np.array([o.result.p_value if o.ok else np.nan for o in self.outcomes])

    @property
    def n_failed(self):
        return sum(0 if o.ok else 1 for o in self.outcomes)


def _selection_matrix(model, rows):
    b = np.zeros((rows.size, model.latent_dim))
    b[np.arange(rows.size), rows] = 1.0
    return b


def between_group_run(model, split, j, config=None, theta_init=None):
    """Posterior of group j's predictor given every other group's data.

    Returns the joint predictor posterior and the hyperparameter grid of the
    run (the carrier of the cut).
    """
    config = config or InferenceConfig()
    rows = split.rows[j]
    masked = model.mask_rows(rows)
    grid = explore_hypergrid(masked, config, theta_init=theta_init)
    post = lincomb_posterior(masked, grid, _selection_matrix(model, rows), config)
    return post, grid


def within_group_run(model, split, j, cut_prior, config=None):
    """Posterior of group j's predictor from its own data under the cut prior.

    All responses outside the group are masked and the hyperpriors are
    replaced by the between-run posterior carrier; priors of fixed effects
    (latent coordinates) are untouched.
    """
    config = config or InferenceConfig()
    rows = split.rows[j]
    keep = np.zeros(model.n_rows, dtype=bool)
    keep[rows] = True
    others = np.where(model.observed & ~keep)[0]
    masked = model.mask_rows(others).with_theta_prior(cut_prior)
    grid = explore_hypergrid(masked, config, theta_init=cut_prior.mean)
    return lincomb_posterior(masked, grid, _selection_matrix(model, rows), config)


def discrepancy(between, within, rank_tol=DEFAULT_RANK_TOL):
    """Standardized discrepancy between two predictor posteriors.

    The difference variance is the sum of the two covariances (the cut makes
    the runs independent); its pseudoinverse is taken on the eigenspace above
    rank_tol relative to the largest eigenvalue.
    """
    if between.dim != within.dim:
        raise ModelError(
            f"posterior dimensions differ: {between.dim} vs {within.dim}")
    mu = between.mean - within.mean
    sigma = between.cov + within.cov
    sigma = 0.5 * (sigma + sigma.T)
    lam, vec = np.linalg.eigh(sigma)
    lam_max = float(lam.max())
    if lam_max <= 0:
        raise RankZeroError("difference covariance has no positive eigenvalues")
    keep = lam > rank_tol * lam_max
    rank = int(np.sum(keep))
    if rank == 0:
        raise RankZeroError("all eigenvalues fall below the rank tolerance")
    proj = vec[:, keep].T @ mu
    delta = float(np.sum(proj ** 2 / lam[keep]))
    p = chisq_tail(delta, rank)
    return DiscrepancyResult(mu=mu, sigma=sigma, rank=rank, delta_hat=delta, p_value=p)


def chisq_tail(x, r):
    """Upper tail probability of a chi-squared variable with r degrees of freedom."""
    if not float(r).is_integer() or r < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {r}")
    if x < 0:
        raise ValueError(f"chi-squared statistic must be nonnegative, got {x}")
    return float(scipy.special.gammaincc(0.5 * float(r), 0.5 * float(x)))


def bh_fdr(p_values, q):
    """Benjamini-Hochberg step-up: indices of hypotheses flagged at level q."""
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        raise ValueError("empty p-value vector")
    if np.any((p < 0) | (p > 1)) or np.any(np.isnan(p)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0 < q < 1:
        raise ValueError(f"FDR level must be in (0, 1), got {q}")
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = q * np.arange(1, m + 1) / m
    below = np.nonzero(sorted_p <= thresholds)[0]
    if below.size == 0:
        return np.zeros(0, dtype=np.int64)
    crit = sorted_p[below[-1]]
    return np.nonzero(p <= crit)[0]


def conflict_pvalues(model, group_column=None, q=0.10, config=None,
                     rank_tol=DEFAULT_RANK_TOL, n_threads=1):
    """Run the full node-split over every group of the grouping variable.

    Per-group failures are recorded and do not stop the remaining groups.
    The result is deterministic for a given model and data, independent of
    the number of worker threads.
    """
    config = config or InferenceConfig()
    if group_column is None:
        group_column = model.spec.group
    split = GroupSplit.from_model(model, group_column)

    t0 = time.monotonic()
    full_grid = explore_hypergrid(model, config)
    theta_star = full_grid.mode
    fit_seconds = time.monotonic() - t0

    def run_group(j):
        label = split.labels[j]
        try:
            between, grid = between_group_run(model, split, j, config,
                                              theta_init=theta_star)
            cut_prior = posterior_as_prior(grid)
            within = within_group_run(model, split, j, cut_prior, config)
            res = discrepancy(between, within, rank_tol)
            config.log(f"group {label}: delta={res.delta_hat:.4g} "
                       f"rank={res.rank} p={res.p_value:.4g}")
            return GroupOutcome(label=label, result=res)
        except (InferenceError, ModelError, RankZeroError,
                np.linalg.LinAlgError, ValueError) as exc:
            return GroupOutcome(label=label, error=str(exc))

    t1 = time.monotonic()
    indices = range(split.n_groups)
    if n_threads and n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(run_group, indices))
    else:
        outcomes = [run_group(j) for j in indices]
    split_seconds = time.monotonic() - t1

    ok_idx = [i for i, o in enumerate(outcomes) if o.ok]
    flagged = []
    if ok_idx:
        p = np.array([outcomes[i].result.p_value for i in ok_idx])
        for k in bh_fdr(p, q):
            flagged.append(outcomes[ok_idx[int(k)]].label)
    return NodeSplitResult(group_column=group_column, outcomes=outcomes, q=q,
                           flagged=flagged, fit_seconds=fit_seconds,
                           split_seconds=split_seconds, rank_tol=rank_tol)


# ---------------------------------------------------------------------------
# serialization


def result_to_csv(result):
    """Conflict table as CSV text (floats use shortest round-trip form)."""
    lines = ["group,delta_hat,rank,p_value,flagged"]
    flagged = set(result.flagged)
    for o in result.outcomes:
        if o.ok:
            r = o.result
            lines.append(f"{o.label},{repr(r.delta_hat)},{r.rank},"
                         f"{repr(r.p_value)},{1 if o.label in flagged else 0}")
        else:
            lines.append(f"{o.label},NA,NA,NA,NA")
    return "\n".join(lines) + "\n"


def parse_result_csv(text):
    """Inverse of result_to_csv; returns a list of per-group dicts."""
    lines = [ln for ln in text.strip().split("\n")]
    header = lines[0].split(",")
    if header != ["group", "delta_hat", "rank", "p_value", "flagged"]:
        raise ValueError(f"unexpected conflict table header: {header}")
    rows = []
    for ln in lines[1:]:
        g, d, r, p, f = ln.split(",")
        if d == "NA":
            rows.append({"group": g, "delta_hat": None, "rank": None,
                         "p_value": None, "flagged": None})
        else:
            rows.append({"group": g, "delta_hat": float(d), "rank": int(r),
                         "p_value": float(p), "flagged": int(f)})
    return rows


def result_to_json_obj(result, full=False):
    flagged = set(result.flagged)
    groups = []
    for o in result.outcomes:
        entry = {"group": o.label}
        if o.ok:
            r = o.result
            entry.update(delta_hat=r.delta_hat, rank=r.rank, p_value=r.p_value,
                         flagged=o.label in flagged)
            if full:
                entry["delta_mean"] = r.mu.tolist()
                entry["delta_cov"] = r.sigma.tolist()
        else:
            entry.update(delta_hat=None, rank=None, p_value=None,
                         flagged=None, error=o.error)
        groups.append(entry)
    return {
        "group_column": result.group_column,
        "q": result.q,
        "flagged": sorted(flagged),
        "groups": groups,
        "timings": {"fit_seconds": result.fit_seconds,
                    "split_seconds": result.split_seconds},
    }
