"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite can be read as a checklist
(run with -s or look at the captured output on failure).  The rat-data split
is computed once per session and shared.
"""

import json
import math
import subprocess
import sys

import numpy as np
import scipy.special
import scipy.stats

from lgmsplit.analytic import AnalyticNormalModel
from lgmsplit.datasets import generate_lattice
from lgmsplit.inference import InferenceConfig
from lgmsplit.model import (DataTable, FixedPrecision, Iid, Intercept,
                            LikelihoodFamily, LogGammaPrior, ModelSpec,
                            build_model)
from lgmsplit.nodesplit import (GroupSplit, bh_fdr, between_group_run,
                                chisq_tail, conflict_pvalues, discrepancy)
from lgmsplit.sparse import SparseSymmetric, factorize
from conftest import RATS_REFERENCE_P, small_hierarchy

CFG = InferenceConfig()


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


class TestCriterion1RatsReproduction:
    def test_pvalues_match_reference_table(self, rats_cut):
        result, wall = rats_cut
        assert result.n_failed == 0
        p = result.p_values()
        reference = np.array(RATS_REFERENCE_P)
        max_dev = float(np.max(np.abs(p - reference)))
        rank_corr = float(scipy.stats.spearmanr(p, reference).statistic)
        ok = (max_dev <= 0.05 and rank_corr >= 0.98 and p[8] < 0.005
              and wall <= 300.0)
        report(1, "rat growth p-values reproduce the reference table", ok,
               f"max dev {max_dev:.4f}, rank corr {rank_corr:.4f}, "
               f"divergent-animal p {p[8]:.4g}, wall {wall:.0f}s")


class TestCriterion2FdrGate:
    def test_bh_flags_exactly_the_ninth_animal(self, rats_cut):
        result, _ = rats_cut
        computed_flag = result.flagged
        idx = bh_fdr(result.p_values(), 0.10)
        ok = computed_flag == ["9"] and [result.labels[i] for i in idx] == ["9"]
        report(2, "BH at q=0.10 flags exactly animal 9", ok,
               f"flagged {computed_flag}")


class TestCriterion3ExactOracleEquivalence:
    def test_pipeline_matches_dense_conjugate_algebra(self):
        rng = np.random.default_rng(7)
        j_groups, n_per = 4, 5
        n = j_groups * n_per
        groups = np.repeat([str(j + 1) for j in range(j_groups)], n_per)
        b_true = rng.normal(size=j_groups)
        y = 1.0 + b_true[np.repeat(np.arange(j_groups), n_per)] + rng.normal(size=n)
        tau, tau_b, p0 = 1.0, 0.25, 0.01
        data = DataTable({"y": y, "g": groups})
        model = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=FixedPrecision(tau)), "y",
            [Intercept(precision=p0), Iid("g", prior=FixedPrecision(tau_b))],
            data, group="g"))
        res = conflict_pvalues(model, "g", config=CFG)
        assert res.n_failed == 0

        kappa = 1e9
        a = np.zeros((n, 1 + j_groups))
        a[:, 0] = 1.0
        a[np.arange(n), 1 + np.arange(n) // n_per] = 1.0
        q_z = np.diag(np.r_[p0, tau_b * np.ones(j_groups)])

        def eta_posterior(observed_rows):
            c = np.zeros(n)
            c[observed_rows] = tau
            d = kappa * c / (kappa + c)
            q_star = q_z + a.T @ (d[:, None] * a)
            mu_z = np.linalg.solve(q_star, a.T @ (d * y))
            sig_z = np.linalg.inv(q_star)
            scale = kappa / (kappa + c)
            mu_eta = (c / (kappa + c)) * y + scale * (a @ mu_z)
            m = scale[:, None] * a
            return mu_eta, np.diag(1.0 / (kappa + c)) + m @ sig_z @ m.T

        worst = 0.0
        for j in range(j_groups):
            rows = np.arange(j * n_per, (j + 1) * n_per)
            others = np.setdiff1d(np.arange(n), rows)
            mb, sb = eta_posterior(others)
            mw, sw = eta_posterior(rows)
            mu = mb[rows] - mw[rows]
            sigma = sb[np.ix_(rows, rows)] + sw[np.ix_(rows, rows)]
            lam, vec = np.linalg.eigh(0.5 * (sigma + sigma.T))
            keep = lam > 1e-8 * lam.max()
            proj = vec[:, keep].T @ mu
            delta_oracle = float(np.sum(proj ** 2 / lam[keep]))
            worst = max(worst, abs(res.outcomes[j].result.delta_hat - delta_oracle))
        ok = worst <= 1e-6
        report(3, "node-split equals dense conjugate oracle", ok,
               f"max |delta - oracle| = {worst:.2e}")


class TestCriterion4AnalyticIdentities:
    def test_observable_and_latent_views_agree(self):
        rng = np.random.default_rng(17)
        worst_eq = 0.0
        worst_two = 0.0
        for _ in range(200):
            y = rng.normal(size=int(rng.integers(2, 9))) * 2.0
            m = AnalyticNormalModel(y, sigma2=float(rng.uniform(0.2, 3.0)))
            for i in range(y.size):
                worst_eq = max(worst_eq, abs(m.pit(i) - m.latent_tail(i)))
                u = m.pit(i)
                two = m.two_sided_p(i)
                worst_two = max(worst_two,
                                abs(two - m.two_sided_p_chisq(i)),
                                abs(two - 2.0 * min(u, 1.0 - u)))
        rng_ks = np.random.default_rng(20260808)
        values = np.empty(2000)
        for k in range(2000):
            y = rng_ks.normal(1.5, 2.0, size=8)
            values[k] = AnalyticNormalModel(y, sigma2=4.0).pit(0)
        ks_p = scipy.stats.kstest(values, "uniform").pvalue
        ok = worst_eq == 0.0 and worst_two <= 1e-12 and ks_p > 0.01
        report(4, "closed-form identities and PIT uniformity", ok,
               f"pit==latent {worst_eq:.1e}, two-sided forms {worst_two:.1e}, "
               f"KS p {ks_p:.3f}")


class TestCriterion5LaplaceAccuracy:
    def test_conjugate_sweep(self):
        from test_inference import analytic_log_posterior, conjugate_sweep_model
        from lgmsplit.inference import log_posterior_theta
        m, y, v0, a, b = conjugate_sweep_model()
        sweep = np.linspace(-1.5, 1.5, 11)
        diffs = [log_posterior_theta(m, np.array([t]), CFG)
                 - analytic_log_posterior(t, y, v0, a, b) for t in sweep]
        spread = max(diffs) - min(diffs)
        ok1 = spread < 1e-6

        from scipy.integrate import quad
        from lgmsplit.inference import log_posterior_theta as lpt
        y2 = np.array([185.0, 241.0, 198.0, 230.0, 176.0, 215.0])
        e0 = 200.0
        data = DataTable({"y": y2, "E": np.full(6, e0),
                          "u": [str(i) for i in range(6)]})
        mp = build_model(ModelSpec(
            LikelihoodFamily("poisson", offset="E"), "y",
            [Iid("u", prior=LogGammaPrior(1.0, 0.5))], data))

        def quad_lp(th):
            tau = math.exp(th)
            total = math.log(0.5) + th - 0.5 * math.exp(th)
            sd = 1.0 / math.sqrt(tau)
            for yi in y2:
                def f(u, yi=yi):
                    return math.exp(yi * (math.log(e0) + u) - e0 * math.exp(u)
                                    - math.lgamma(yi + 1.0) - 0.5 * u * u * tau
                                    + 0.5 * (math.log(tau) - math.log(2 * math.pi)))
                val, _ = quad(f, -14 * sd, 14 * sd, limit=500,
                              epsabs=1e-14, epsrel=1e-13)
                total += math.log(val)
            return total

        sweep2 = np.linspace(-1.0, 1.0, 7)
        impl = np.array([lpt(mp, np.array([t]), CFG) for t in sweep2])
        orac = np.array([quad_lp(t) for t in sweep2])
        rel = (np.max(np.abs((impl - impl[3]) - (orac - orac[3])))
               / max(1.0, float(np.max(np.abs(orac - orac[3])))))
        ok2 = rel <= 1e-3
        report(5, "Laplace log posterior accuracy", ok1 and ok2,
               f"conjugate spread {spread:.2e}, poisson rel {rel:.2e}")


class TestCriterion6DiscrepancyUnits:
    def test_unit_suite(self):
        from lgmsplit.inference import LincombPosterior

        def lc(mean, cov):
            mean = np.atleast_1d(np.asarray(mean, dtype=float))
            return LincombPosterior(matrix=np.eye(mean.size), mean=mean,
                                    cov=np.atleast_2d(np.asarray(cov, dtype=float)))

        zero = discrepancy(lc([0.5, -1.0], np.eye(2)), lc([0.5, -1.0], np.eye(2)))
        ok_zero = zero.delta_hat == 0.0 and zero.p_value == 1.0
        one_d = discrepancy(lc([3.0], [[3.0]]), lc([1.0], [[1.0]]))
        ok_one = (abs(one_d.delta_hat - 1.0) < 1e-12 and one_d.rank == 1
                  and abs(one_d.p_value - 0.3173105078629141) <= 1e-6)
        dup = discrepancy(lc([1.0, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
                          lc([0.0, 0.0], [[0.5, 0.5], [0.5, 0.5]]))
        ok_dup = dup.rank == 1 and abs(dup.delta_hat - 1.0) <= 1e-10
        report(6, "discrepancy unit suite", ok_zero and ok_one and ok_dup,
               f"1-d p {one_d.p_value:.7f}, duplicated rank {dup.rank}")


class TestCriterion7SyntheticPower:
    def test_null_and_injected_conflict(self):
        null_model = small_hierarchy(seed=2026, j_groups=10, n_per=6,
                                     fixed_theta=False)
        null_res = conflict_pvalues(null_model, "g", config=CFG)
        p_null = null_res.p_values()
        ok_null = null_res.n_failed == 0 and float(p_null.min()) > 0.001

        split = GroupSplit.from_model(null_model, "g")
        between, _ = between_group_run(null_model, split, 4, CFG)
        shift = 5.0 * float(np.mean(np.sqrt(np.diag(between.cov))))
        shifted = small_hierarchy(seed=2026, j_groups=10, n_per=6,
                                  shift=shift, shift_group=4, fixed_theta=False)
        res = conflict_pvalues(shifted, "g", config=CFG)
        p = res.p_values()
        ok_power = int(np.argmin(p)) == 4 and p[4] < 0.01
        report(7, "synthetic null and injected-conflict power", ok_null and ok_power,
               f"null min p {p_null.min():.4f}, shifted p {p[4]:.2e}")

    def test_lattice_model_splits_cleanly(self):
        # structural stand-in for the areal-count application: the smooth
        # plus heterogeneity model fits and every group yields a usable p
        data, spec, graph = generate_lattice(4, 3, seed=11)
        model = build_model(spec)
        res = conflict_pvalues(model, "county", config=CFG, n_threads=2)
        p = res.p_values()
        ok = (res.n_failed == 0 and p.size == 16
              and np.all((p > 0.0) & (p <= 1.0)))
        report(7, "lattice count model splits cleanly", ok,
               f"{p.size} groups, p range [{p.min():.3f}, {p.max():.3f}]")


class TestCriterion8NumericalKernels:
    def test_chisq_tail_kernel(self):
        worst = 0.0
        for r in range(1, 31):
            for x in np.linspace(0.0, 8.0 * r, 50):
                worst = max(worst, abs(chisq_tail(float(x), r)
                                       - scipy.special.gammaincc(r / 2.0, x / 2.0)))
        ok = worst <= 1e-10
        report(8, "chi-squared tail vs incomplete-gamma oracle", ok,
               f"max abs err {worst:.2e}")

    def test_cholesky_kernels_at_n200(self):
        rng = np.random.default_rng(123)
        n = 200
        dense = np.zeros((n, n))
        for _ in range(5 * n):
            i, j = rng.integers(0, n, 2)
            v = rng.normal()
            dense[i, j] += v
            dense[j, i] += v
        dense += np.eye(n) * (np.abs(dense).sum(axis=1) + 1.0)
        q = SparseSymmetric.from_dense(dense)
        f = factorize(q)
        sign, logdet = np.linalg.slogdet(dense)
        b = rng.normal(size=n)
        errs = [abs(f.log_det - logdet),
                float(np.max(np.abs(dense @ f.solve(b) - b))),
                float(np.max(np.abs(f.marginal_variances()
                                    - np.diag(np.linalg.inv(dense)))))]
        ok = max(errs) <= 1e-8
        report(8, "Cholesky kernels vs dense oracle", ok,
               f"max err {max(errs):.2e}")


class TestCriterion9Determinism:
    def test_cut_outputs_byte_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        groups = np.repeat([str(j + 1) for j in range(10)], 6)
        y = (1.0 + rng.normal(size=10)[np.repeat(np.arange(10), 6)]
             + rng.normal(size=60))
        lines = ["y,g"] + [f"{repr(float(v))},{g}" for v, g in zip(y, groups)]
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "m.json").write_text(json.dumps({
            "likelihood": "gaussian", "response": "y", "group": "g",
            "effects": [{"type": "intercept", "precision": 0.01},
                        {"type": "iid", "name": "groups", "index": "g"}],
            "priors": {"data_precision": {"type": "loggamma", "a": 1.0, "b": 0.5},
                       "groups": {"type": "loggamma", "a": 1.0, "b": 0.5}},
        }))
        payloads = []
        for threads in ("1", "2"):
            out = tmp_path / f"cut_{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "lgmsplit.cli", "cut",
                 "--data", str(tmp_path / "d.csv"),
                 "--model", str(tmp_path / "m.json"),
                 "--threads", threads, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            payloads.append(out.read_bytes())
        ok = payloads[0] == payloads[1] and len(payloads[0]) > 0
        report(9, "cut output byte-identical across runs and thread counts", ok,
               f"{len(payloads[0])} bytes")
