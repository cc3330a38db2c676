import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import lgmsplit.nodesplit as ns
from lgmsplit.inference import LincombPosterior, explore_hypergrid
from lgmsplit.datasets import load_rats
from lgmsplit.model import (DataTable, Fixed, FixedPrecision,
                            GaussianThetaPrior, Iid, Iid2d, Intercept,
                            LikelihoodFamily, LogGammaPrior, ModelError,
                            ModelSpec, Wishart2dPrior, build_model)
from lgmsplit.nodesplit import (GroupSplit, RankZeroError, between_group_run,
                                bh_fdr, chisq_tail, conflict_pvalues,
                                discrepancy, parse_result_csv,
                                result_to_csv, result_to_json_obj,
                                within_group_run)
from conftest import RATS_REFERENCE_P, small_hierarchy


def lincomb(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return LincombPosterior(matrix=np.eye(mean.size), mean=mean,
                            cov=np.atleast_2d(np.asarray(cov, dtype=float)))


class TestChisqTail:
    def test_at_zero(self):
        for r in (1, 2, 5):
            assert chisq_tail(0.0, r) == 1.0

    def test_one_degree_matches_normal_identity(self):
        # P(chi2_1 >= z^2) = 2 Phi(-z)
        z = 1.9599639845400545  # 97.5 percent normal quantile
        assert chisq_tail(z * z, 1) == pytest.approx(0.05, abs=1e-12)

    def test_two_degrees_closed_form(self):
        # exp(-x/2) exactly
        x = 2.0 * math.log(2.0)
        assert chisq_tail(x, 2) == pytest.approx(0.5, abs=1e-14)

    def test_against_scipy_grid(self):
        for r in (1, 2, 3, 5, 10, 30):
            for x in np.concatenate([np.linspace(0, 10 * r, 40), [0.5, r, 100.0]]):
                assert abs(chisq_tail(float(x), r)
                           - scipy.special.gammaincc(r / 2.0, x / 2.0)) <= 1e-10

    def test_two_sided_identity_over_z_grid(self):
        for z in np.linspace(-5, 5, 101):
            u = scipy.special.ndtr(z)
            assert abs(chisq_tail(z * z, 1) - 2 * min(u, 1 - u)) <= 1e-12

    def test_monotone_in_statistic(self):
        vals = [chisq_tail(x, 3) for x in np.linspace(0, 20, 50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chisq_tail(1.0, 0)
        with pytest.raises(ValueError):
            chisq_tail(-1.0, 2)
        with pytest.raises(ValueError):
            chisq_tail(1.0, 2.5)


class TestDiscrepancy:
    def test_zero_difference(self):
        res = discrepancy(lincomb([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]]),
                          lincomb([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]))
        assert res.delta_hat == 0.0
        assert res.p_value == 1.0

    def test_one_dimensional_case(self):
        # mu = 2, total variance 4: delta = 1, p = P(chi2_1 >= 1)
        res = discrepancy(lincomb([3.0], [[3.0]]), lincomb([1.0], [[1.0]]))
        assert res.delta_hat == pytest.approx(1.0, abs=1e-14)
        assert res.rank == 1
        # 2 (1 - Phi(1)) by hand
        assert res.p_value == pytest.approx(0.3173105078629141, abs=1e-6)

    def test_rank_deficient_duplicated_coordinate(self):
        # Sigma = [[1,1],[1,1]] has eigenvalues {2, 0}: rank 1, and the
        # pseudoinverse is the quarter matrix of ones
        res = discrepancy(lincomb([1.0, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
                          lincomb([0.0, 0.0], [[0.5, 0.5], [0.5, 0.5]]))
        assert res.rank == 1
        assert res.delta_hat == pytest.approx(1.0, abs=1e-10)

    def test_matches_numpy_pinv(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            a = rng.normal(size=(k, k))
            sigma = a @ a.T + 0.1 * np.eye(k)
            mu = rng.normal(size=k)
            res = discrepancy(lincomb(mu, sigma), lincomb(np.zeros(k), np.zeros((k, k))))
            ref = float(mu @ np.linalg.pinv(sigma, rcond=1e-8) @ mu)
            assert res.delta_hat == pytest.approx(ref, rel=1e-8)
            assert res.rank == k

    def test_pseudoinverse_property_on_retained_space(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 2))
        sigma = v @ v.T  # rank 2
        res = discrepancy(lincomb(rng.normal(size=4), sigma),
                          lincomb(np.zeros(4), np.zeros((4, 4))))
        assert res.rank == 2
        lam, vec = np.linalg.eigh(res.sigma)
        keep = lam > 1e-8 * lam.max()
        pinv = (vec[:, keep] / lam[keep]) @ vec[:, keep].T
        assert np.max(np.abs(res.sigma @ pinv @ res.sigma - res.sigma)) < 1e-8

    def test_invariance_under_invertible_transform_full_rank(self):
        rng = np.random.default_rng(5)
        k = 4
        a = rng.normal(size=(k, k))
        sigma_b = a @ a.T + np.eye(k)
        b = rng.normal(size=(k, k))
        sigma_w = b @ b.T + np.eye(k)
        mu_b, mu_w = rng.normal(size=k), rng.normal(size=k)
        t = rng.normal(size=(k, k)) + 2 * np.eye(k)
        base = discrepancy(lincomb(mu_b, sigma_b), lincomb(mu_w, sigma_w))
        trans = discrepancy(lincomb(t @ mu_b, t @ sigma_b @ t.T),
                            lincomb(t @ mu_w, t @ sigma_w @ t.T))
        assert trans.delta_hat == pytest.approx(base.delta_hat, rel=1e-9)
        assert trans.rank == base.rank

    def test_invariance_under_orthogonal_transform_rank_deficient(self):
        rng = np.random.default_rng(6)
        k = 5
        v = rng.normal(size=(k, 3))
        sigma = v @ v.T
        mu = v @ rng.normal(size=3)  # keep the mean inside the support
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        base = discrepancy(lincomb(mu, sigma), lincomb(np.zeros(k), np.zeros((k, k))))
        rot = discrepancy(lincomb(q @ mu, q @ sigma @ q.T),
                          lincomb(np.zeros(k), np.zeros((k, k))))
        assert rot.delta_hat == pytest.approx(base.delta_hat, rel=1e-8)
        assert rot.rank == base.rank

    def test_p_monotone_in_delta(self):
        results = [discrepancy(lincomb([m], [[1.0]]), lincomb([0.0], [[1.0]]))
                   for m in (0.5, 1.0, 2.0, 4.0)]
        ps = [r.p_value for r in results]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_rank_zero_error(self):
        with pytest.raises(RankZeroError):
            discrepancy(lincomb([1.0], [[0.0]]), lincomb([0.0], [[0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            discrepancy(lincomb([1.0], [[1.0]]), lincomb([1.0, 2.0], np.eye(2)))


class TestBhFdr:
    def test_reference_pvalues_flag_exactly_rat_nine(self):
        flagged = bh_fdr(np.array(RATS_REFERENCE_P), 0.10)
        assert list(flagged) == [8]  # rat 9, zero-based index 8

    def test_all_ones_empty(self):
        assert bh_fdr(np.ones(10), 0.10).size == 0

    def test_step_up_example(self):
        # hand-worked: sorted p (0.01, 0.02, 0.2), thresholds (q k / m)
        flagged = bh_fdr(np.array([0.2, 0.01, 0.02]), 0.10)
        assert sorted(flagged.tolist()) == [1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
           st.floats(min_value=0.01, max_value=0.99))
    def test_matches_naive_quadratic_oracle(self, p, q):
        p = np.array(p)
        m = p.size
        # naive step-up: largest k with p_(k) <= q k / m, then threshold
        sp = np.sort(p)
        k_star = 0
        for k in range(1, m + 1):
            if sp[k - 1] <= q * k / m:
                k_star = k
        expected = set()
        if k_star:
            crit = sp[k_star - 1]
            expected = {i for i in range(m) if p[i] <= crit}
        assert set(bh_fdr(p, q).tolist()) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            bh_fdr(np.array([]), 0.1)
        with pytest.raises(ValueError):
            bh_fdr(np.array([0.5]), 1.5)
        with pytest.raises(ValueError):
            bh_fdr(np.array([1.5]), 0.1)


class TestGroupSplit:
    def test_partition(self):
        m = small_hierarchy()
        split = GroupSplit.from_model(m, "g")
        assert len(split.labels) == 4
        all_rows = np.concatenate(split.rows)
        assert sorted(all_rows.tolist()) == list(range(m.n_rows))

    def test_single_group_rejected(self):
        data = DataTable({"y": [1.0, 2.0], "g": ["a", "a"]})
        m = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0)),
            "y", [Intercept()], data))
        with pytest.raises(ModelError):
            GroupSplit.from_model(m, "g")

    def test_missing_rows_excluded(self):
        data = DataTable({"y": [1.0, np.nan, 2.0, 3.0], "g": ["a", "a", "b", "b"]})
        m = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0)),
            "y", [Intercept()], data))
        split = GroupSplit.from_model(m, "g")
        assert [r.tolist() for r in split.rows] == [[0], [2, 3]]


class TestBetweenWithinRuns:
    def test_between_run_conjugate_shrunken_mean(self):
        # two groups sharing only a global mean, fixed precisions: the
        # between posterior of a group's predictor is the other group's
        # shrunken average
        y = np.array([1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
        data = DataTable({"y": y, "g": ["a"] * 3 + ["b"] * 3})
        tau, p0 = 2.0, 0.5
        m = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=FixedPrecision(tau)),
            "y", [Intercept(precision=p0)], data, group="g"))
        split = GroupSplit.from_model(m, "g")
        post, _ = between_group_run(m, split, 0)
        shrunk = tau * y[3:].sum() / (p0 + 3 * tau)
        assert np.max(np.abs(post.mean - shrunk)) < 1e-8
        assert post.dim == 3

    def test_between_equals_mask_rows(self):
        m = small_hierarchy()
        split = GroupSplit.from_model(m, "g")
        masked = m.mask_rows(split.rows[1])
        x = np.random.default_rng(0).normal(size=m.n_rows)
        assert (masked.log_likelihood(x, np.zeros(0))
                == m.mask_rows(split.rows[1]).log_likelihood(x, np.zeros(0)))
        assert list(masked.observed[split.rows[1]]) == [False] * split.rows[1].size

    def test_within_run_with_concentrated_prior_matches_fixed_theta(self):
        # a cut prior collapsing on theta0 reproduces the run with the
        # hyperparameters pinned at theta0
        theta0 = math.log(1.2)
        m_hyper = small_hierarchy(fixed_theta=False)
        split = GroupSplit.from_model(m_hyper, "g")
        tiny = GaussianThetaPrior([theta0, theta0], 1e-12 * np.eye(2))
        post_hyper = within_group_run(m_hyper, split, 2, tiny)

        rng = np.random.default_rng(7)  # regenerate identical data
        groups = np.repeat([str(j + 1) for j in range(4)], 5)
        b_true = rng.normal(size=4)
        y = 1.0 + b_true[np.repeat(np.arange(4), 5)] + rng.normal(size=20)
        data = DataTable({"y": y, "g": groups})
        m_fixed = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=FixedPrecision(math.exp(theta0))),
            "y", [Intercept(precision=0.01),
                  Iid("g", prior=FixedPrecision(math.exp(theta0)))], data, group="g"))
        split_f = GroupSplit.from_model(m_fixed, "g")
        post_fixed = within_group_run(m_fixed, split_f, 2,
                                      GaussianThetaPrior(np.zeros(0), np.zeros((0, 0))))
        assert np.max(np.abs(post_hyper.mean - post_fixed.mean)) < 1e-3
        assert np.max(np.abs(post_hyper.cov - post_fixed.cov)) < 1e-3

    def test_within_between_symmetry_two_groups_fixed_theta(self):
        # with two groups the within run of one group applies exactly the
        # mask of the other group's between run; pin the hyperparameters so
        # the cut prior is a no-op and compare against the masked model
        from lgmsplit.inference import lincomb_posterior
        m = small_hierarchy(j_groups=2, n_per=6)
        split = GroupSplit.from_model(m, "g")
        empty = GaussianThetaPrior(np.zeros(0), np.zeros((0, 0)))
        w1 = within_group_run(m, split, 1, empty)
        masked = m.mask_rows(split.rows[0])  # the between-run mask of group 0
        grid = explore_hypergrid(masked)
        sel = np.zeros((split.rows[1].size, m.latent_dim))
        sel[np.arange(split.rows[1].size), split.rows[1]] = 1.0
        direct = lincomb_posterior(masked, grid, sel)
        assert np.allclose(w1.mean, direct.mean, atol=1e-12)
        assert np.allclose(w1.cov, direct.cov, atol=1e-12)


class TestConflictPvalues:
    def test_deterministic_across_runs(self):
        m = small_hierarchy(fixed_theta=False)
        r1 = conflict_pvalues(m, "g")
        r2 = conflict_pvalues(m, "g")
        assert result_to_csv(r1) == result_to_csv(r2)

    def test_permutation_equivariance(self):
        # renaming the groups permutes the p-values identically
        m = small_hierarchy(fixed_theta=False)
        res = conflict_pvalues(m, "g")
        rng = np.random.default_rng(7)  # rebuild with renamed labels
        name_map = {"1": "delta", "2": "alpha", "3": "omega", "4": "beta"}
        groups = np.repeat([name_map[str(j + 1)] for j in range(4)], 5)
        b_true = rng.normal(size=4)
        y = 1.0 + b_true[np.repeat(np.arange(4), 5)] + rng.normal(size=20)
        data = DataTable({"y": y, "g": groups})
        m2 = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(1.0, 0.5)), "y",
            [Intercept(precision=0.01), Iid("g", prior=LogGammaPrior(1.0, 0.5))],
            data, group="g"))
        res2 = conflict_pvalues(m2, "g")
        by_label = {o.label: o.result.p_value for o in res2.outcomes}
        for o in res.outcomes:
            assert by_label[name_map[o.label]] == pytest.approx(
                o.result.p_value, abs=1e-12)

    def test_five_hyperparameter_model_runs_every_group(self):
        # rats 1-3 with a growth curve per rat and an iid effect per age:
        # data precision, three Wishart slots and the age precision, d = 5
        data, _ = load_rats()
        rows = [i for i, r in enumerate(data.labels("rat")) if int(r) <= 3]
        sub = DataTable({c: np.asarray(v)[rows] for c, v in data.columns.items()})
        wishart = Wishart2dPrior(np.array([[200.0, 0.0], [0.0, 0.2]]), 2.0)
        m = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(0.001, 0.001)), "y",
            [Intercept(precision=1e-6), Fixed("t", precision=1e-6),
             Iid2d("rat", "t", prior=wishart, name="growth"),
             Iid("age", prior=LogGammaPrior(1.0, 0.005), name="age")],
            sub, group="rat"))
        assert m.dim_theta == 5
        res = conflict_pvalues(m, "rat")
        assert res.labels == ["1", "2", "3"]
        assert res.n_failed == 0
        assert np.all((res.p_values() > 0) & (res.p_values() <= 1))

    def test_null_smoke_no_tiny_pvalues(self):
        m = small_hierarchy(seed=2026, j_groups=10, n_per=6, fixed_theta=False)
        res = conflict_pvalues(m, "g")
        assert res.n_failed == 0
        assert res.p_values().min() > 0.001

    def test_injected_conflict_detected(self):
        # shift one group by five predictive standard deviations of its
        # between-run posterior in the unshifted data
        null_model = small_hierarchy(seed=2026, j_groups=10, n_per=6,
                                     fixed_theta=False)
        split = GroupSplit.from_model(null_model, "g")
        between, _ = between_group_run(null_model, split, 4)
        shift = 5.0 * float(np.mean(np.sqrt(np.diag(between.cov))))
        shifted = small_hierarchy(seed=2026, j_groups=10, n_per=6,
                                  shift=shift, shift_group=4, fixed_theta=False)
        res = conflict_pvalues(shifted, "g")
        p = res.p_values()
        assert np.argmin(p) == 4
        assert p[4] < 0.01

    def test_per_group_failure_does_not_stop_others(self, monkeypatch):
        m = small_hierarchy(fixed_theta=False)
        original = ns.within_group_run

        def flaky(model, split, j, cut_prior):
            if split.labels[j] == "2":
                raise ns.InferenceError("synthetic failure")
            return original(model, split, j, cut_prior)

        monkeypatch.setattr(ns, "within_group_run", flaky)
        res = conflict_pvalues(m, "g")
        assert res.n_failed == 1
        ok = [o for o in res.outcomes if o.ok]
        assert len(ok) == 3
        bad = [o for o in res.outcomes if not o.ok][0]
        assert bad.label == "2" and "synthetic failure" in bad.error

    def test_initial_fit_builds_no_grid(self, monkeypatch):
        # the full-data fit only supplies the between runs' starting point
        m = small_hierarchy(fixed_theta=False)
        grids = []
        original = ns.explore_hypergrid

        def counted(model, theta_init=None):
            grids.append(theta_init)
            return original(model, theta_init=theta_init)

        monkeypatch.setattr(ns, "explore_hypergrid", counted)
        res = conflict_pvalues(m, "g")
        assert res.n_failed == 0
        assert len(grids) == 2 * 4
        mode = explore_hypergrid(m).mode
        assert all(t is not None for t in grids)
        assert grids[0].tobytes() == mode.tobytes()

    def test_group_column_defaults_to_model(self):
        m = small_hierarchy(fixed_theta=False)
        res = conflict_pvalues(m)
        assert res.group_column == "g"


class TestSerialization:
    def test_csv_roundtrip(self):
        m = small_hierarchy(fixed_theta=False)
        res = conflict_pvalues(m, "g")
        text = result_to_csv(res)
        rows = parse_result_csv(text)
        assert len(rows) == 4
        for row, o in zip(rows, res.outcomes):
            assert row["group"] == o.label
            assert row["delta_hat"] == o.result.delta_hat  # repr round-trips
            assert row["p_value"] == o.result.p_value
            assert row["rank"] == o.result.rank

    def test_json_structure_with_full_flag(self):
        m = small_hierarchy(fixed_theta=False)
        res = conflict_pvalues(m, "g")
        doc = result_to_json_obj(res, full=True)
        assert {g["group"] for g in doc["groups"]} == {"1", "2", "3", "4"}
        first = doc["groups"][0]
        assert len(first["delta_mean"]) == 5
        assert len(first["delta_cov"]) == 5
        slim = result_to_json_obj(res, full=False)
        assert "delta_mean" not in slim["groups"][0]

    def test_failed_rows_marked_na(self):
        from lgmsplit.nodesplit import GroupOutcome, NodeSplitResult
        res = NodeSplitResult(group_column="g",
                              outcomes=[GroupOutcome(label="a", error="boom")],
                              q=0.1, flagged=[], fit_seconds=0.0, split_seconds=0.0)
        text = result_to_csv(res)
        assert "a,NA,NA,NA,NA" in text
