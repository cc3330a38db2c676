import logging
import math

import numpy as np
import pytest
from scipy.integrate import quad

from lgmsplit.model import (BESAG_JITTER, MAX_THETA_DIM, CompiledModel,
                            DataTable, FixedPrecision, GaussianThetaPrior, Iid,
                            Intercept, LikelihoodFamily, LogGammaPrior,
                            ModelError, ModelSpec, build_model)
import lgmsplit.inference as inference
from lgmsplit.inference import (InferenceError, explore_hypergrid, fit,
                                gaussian_approximation, latent_summary,
                                lincomb_posterior, log_posterior_theta,
                                posterior_as_prior)

from conftest import two_component_besag

KAPPA = 1e9


def dense_conjugate(a, q_z, c, y):
    """Exact posterior of the tied model by block conjugate algebra.

    a: (n, z) design;  q_z: block prior precision;  c: per-row likelihood
    precision (0 for masked rows);  returns full mean, eta variances, block
    covariance and the eta/block cross pieces needed for joint covariances.
    """
    d = KAPPA * c / (KAPPA + c)
    q_star = q_z + a.T @ (d[:, None] * a)
    mu_z = np.linalg.solve(q_star, a.T @ (d * y))
    sig_z = np.linalg.inv(q_star)
    scale = KAPPA / (KAPPA + c)
    mu_eta = (c / (KAPPA + c)) * y + scale * (a @ mu_z)
    m = scale[:, None] * a
    cov_eta = np.diag(1.0 / (KAPPA + c)) + m @ sig_z @ m.T
    return np.r_[mu_eta, mu_z], cov_eta, sig_z, m


def one_obs_model(likelihood="gaussian"):
    data = DataTable({"y": [1.0], "u": ["a"]})
    if likelihood == "gaussian":
        lik = LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0))
    else:
        lik = LikelihoodFamily("poisson")
    return build_model(ModelSpec(lik, "y", [Iid("u", prior=FixedPrecision(1.0))], data))


class TestGaussianApproximation:
    def test_conjugate_one_dimensional(self):
        # x ~ N(0,1), one observation y=1 with unit precision: mode 1/2, precision 2
        m = one_obs_model("gaussian")
        approx = gaussian_approximation(m, np.zeros(0))
        assert approx.n_iter == 1
        assert abs(approx.mode[0] - 0.5) < 1e-7
        assert abs(1.0 / approx.marginal_variances()[0] - 2.0) < 1e-6

    def test_poisson_stationary_at_zero(self):
        # y=1, E=1, x ~ N(0,1): the gradient vanishes exactly at zero
        m = one_obs_model("poisson")
        approx = gaussian_approximation(m, np.zeros(0))
        assert np.max(np.abs(approx.mode)) < 1e-9
        assert abs(1.0 / approx.marginal_variances()[0] - 2.0) < 1e-6

    def test_random_gaussian_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        n = 50
        y = rng.normal(size=n) + 2.0
        data = DataTable({"y": y, "g": [str(i % 7) for i in range(n)]})
        tau = 1.3
        spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(tau)),
                         "y", [Intercept(precision=0.5),
                               Iid("g", prior=FixedPrecision(2.0))], data)
        m = build_model(spec)
        approx = gaussian_approximation(m, np.zeros(0))
        a = np.zeros((n, 8))
        a[:, 0] = 1.0
        a[np.arange(n), 1 + np.arange(n) % 7] = 1.0
        q_z = np.diag(np.r_[0.5, 2.0 * np.ones(7)])
        mu, cov_eta, sig_z, _ = dense_conjugate(a, q_z, np.full(n, tau), y)
        assert np.max(np.abs(approx.mode - mu)) < 1e-8
        mv = approx.marginal_variances()
        assert np.max(np.abs(mv - np.r_[np.diag(cov_eta), np.diag(sig_z)])) < 1e-8

    def test_gradient_criterion_holds_at_mode(self):
        m = one_obs_model("poisson")
        approx = gaussian_approximation(m, np.zeros(0))
        assert approx.grad_norm <= 1e-6 * (1.0 + np.linalg.norm(approx.mode))

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        data = DataTable({"y": [40.0, 55.0], "u": ["a", "b"]})
        m = build_model(ModelSpec(LikelihoodFamily("poisson"), "y",
                                  [Iid("u", prior=FixedPrecision(0.01))], data))
        monkeypatch.setattr(inference, "NEWTON_MAX_ITER", 1)
        with pytest.raises(InferenceError) as exc:
            gaussian_approximation(m, np.zeros(0))
        assert "grad_norm" in exc.value.diagnostics

    def test_one_likelihood_derivative_per_newton_iterate(self, monkeypatch):
        # the convergence check's gradient and curvature serve the next
        # Newton step and the final factor
        from lgmsplit.datasets import generate_lattice
        m = build_model(generate_lattice(4, 3, seed=1)[1])
        calls = []
        derivs = CompiledModel.likelihood_grad_curv

        def counted(self, eta, theta):
            calls.append(1)
            return derivs(self, eta, theta)

        monkeypatch.setattr(CompiledModel, "likelihood_grad_curv", counted)
        thetas = np.column_stack([np.linspace(-1.0, 1.0, 10), np.linspace(1.0, -0.5, 10)])
        approx = [gaussian_approximation(m, t) for t in thetas]
        assert len(calls) == sum(a.n_iter + 1 for a in approx)

    def test_likelihood_gradient_matches_finite_differences(self):
        # gaussian and poisson gradients/curvatures against central differences
        rng = np.random.default_rng(5)
        for kind in ("gaussian", "poisson"):
            y = np.array([2.0, 0.0, 5.0, 1.0]) if kind == "poisson" \
                else rng.normal(size=4)
            data = DataTable({"y": y, "u": [str(i) for i in range(4)]})
            lik = (LikelihoodFamily("poisson") if kind == "poisson"
                   else LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.7)))
            m = build_model(ModelSpec(lik, "y", [Iid("u", prior=FixedPrecision(1.0))], data))
            eta = rng.normal(size=4) * 0.5
            g, c = m.likelihood_grad_curv(eta, np.zeros(0))
            h = 1e-5
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd_g = (m.log_likelihood(eta + e, np.zeros(0))
                        - m.log_likelihood(eta - e, np.zeros(0))) / (2 * h)
                assert abs(g[i] - fd_g) <= 1e-5 * (1.0 + abs(fd_g)), (kind, i)
                gp, _ = m.likelihood_grad_curv(eta + e, np.zeros(0))
                gm, _ = m.likelihood_grad_curv(eta - e, np.zeros(0))
                fd_c = -(gp[i] - gm[i]) / (2 * h)
                assert abs(c[i] - fd_c) <= 1e-5 * (1.0 + abs(fd_c)), (kind, i)

    def test_objective_gradient_matches_finite_differences(self):
        # full posterior gradient (prior + likelihood) near the tie manifold
        rng = np.random.default_rng(11)
        m = one_obs_model("poisson")
        th = np.zeros(0)
        z_prior = m.z_prior(th)
        a = m.design
        z = rng.normal(size=m.z_dim)
        eta = a @ z + 1e-4 * rng.normal(size=m.n_rows)

        def objective(eta_v, z_v):
            r = eta_v - a @ z_v
            return (-0.5 * (KAPPA * float(r @ r) + float(z_v @ z_prior @ z_v))
                    + m.log_likelihood(eta_v, th))

        r = eta - a @ z
        g_lik, _ = m.likelihood_grad_curv(eta, th)
        grad_eta = -KAPPA * r + g_lik
        grad_z = -(z_prior @ z) + KAPPA * (a.T @ r)
        h = 1e-6
        for i in range(m.n_rows):
            e = np.zeros(m.n_rows)
            e[i] = h
            fd = (objective(eta + e, z) - objective(eta - e, z)) / (2 * h)
            assert abs(grad_eta[i] - fd) <= 1e-5 * (1.0 + abs(fd))
        for i in range(m.z_dim):
            e = np.zeros(m.z_dim)
            e[i] = h
            fd = (objective(eta, z + e) - objective(eta, z - e)) / (2 * h)
            assert abs(grad_z[i] - fd) <= 1e-5 * (1.0 + abs(fd))


def conjugate_sweep_model(n=12, seed=3, v0_prec=0.25, a=1.0, b=1.0):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) * 0.7 + 1.4
    data = DataTable({"y": y})
    spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(a, b)),
                     "y", [Intercept(precision=v0_prec)], data)
    return build_model(spec), y, v0_prec, a, b


def analytic_log_posterior(theta, y, v0_prec, a, b):
    # exact marginal likelihood of exchangeable normals with a normal mean
    # prior, including the tiny tie variance, plus the log-gamma prior
    tau = math.exp(theta)
    n = y.size
    sigma = (1.0 / tau + 1.0 / KAPPA) * np.eye(n) + (1.0 / v0_prec) * np.ones((n, n))
    sign, logdet = np.linalg.slogdet(sigma)
    quad = float(y @ np.linalg.solve(sigma, y))
    log_marginal = -0.5 * (n * math.log(2 * math.pi) + logdet + quad)
    log_prior = a * math.log(b) - math.lgamma(a) + a * theta - b * math.exp(theta)
    return log_marginal + log_prior


class TestLogPosteriorTheta:
    def test_matches_conjugate_marginal_up_to_constant(self):
        m, y, v0, a, b = conjugate_sweep_model()
        sweep = np.linspace(-1.5, 1.5, 11)
        diffs = [log_posterior_theta(m, np.array([t]))
                 - analytic_log_posterior(t, y, v0, a, b) for t in sweep]
        assert max(diffs) - min(diffs) < 1e-6

    def test_prior_constant_shifts_output(self):
        m, *_ = conjugate_sweep_model()

        class Shifted:
            def __init__(self, base, c):
                self.base, self.c, self.dim = base, c, 1

            def log_density(self, theta):
                return self.base.log_prior_theta(theta) + self.c

        shifted = m.with_theta_prior(Shifted(m, 7.25))
        for t in (-0.5, 0.3, 1.1):
            base = log_posterior_theta(m, np.array([t]))
            assert log_posterior_theta(shifted, np.array([t])) == \
                pytest.approx(base + 7.25, abs=1e-9)

    def test_three_point_constant_invariance(self):
        # differences between theta values do not depend on the arbitrary constant
        m, y, v0, a, b = conjugate_sweep_model(seed=10)
        ts = [-1.0, 0.0, 1.0]
        vals = [log_posterior_theta(m, np.array([t])) for t in ts]
        refs = [analytic_log_posterior(t, y, v0, a, b) for t in ts]
        assert (vals[2] - vals[0]) == pytest.approx(refs[2] - refs[0], abs=1e-6)
        assert (vals[1] - vals[0]) == pytest.approx(refs[1] - refs[0], abs=1e-6)

    def test_constrained_matches_exact_marginal_up_to_constant(self):
        # intercept plus a Besag effect on a graph with two components (two
        # sum-to-zero constraints).  The gaussian Laplace evaluation is exact,
        # so it must track the constrained marginal likelihood built by dense
        # algebra: the jittered prior, conditioned on C u = 0, plus tie noise.
        p0 = 0.1
        m, graph, node, y = two_component_besag(intercept_precision=p0)
        k = graph.n_nodes
        r = np.diag(graph.degrees.astype(float))
        for i, nb in enumerate(graph.neighbors):
            r[i, nb] = -1.0
        c = (graph.components == np.arange(graph.n_components)[:, None]).astype(float)
        a = np.column_stack([np.ones(y.size), np.eye(k)[node]])

        def exact(theta):
            tau_y, tau_u = np.exp(theta)
            sig_u = np.linalg.inv(tau_u * (r + BESAG_JITTER * np.eye(k)))
            sc = sig_u @ c.T
            sig_u = sig_u - sc @ np.linalg.solve(c @ sc, sc.T)
            sig = np.zeros((k + 1, k + 1))
            sig[0, 0] = 1.0 / p0
            sig[1:, 1:] = sig_u
            cov = a @ sig @ a.T + (1.0 / KAPPA + 1.0 / tau_y) * np.eye(y.size)
            _, logdet = np.linalg.slogdet(cov)
            log_marginal = -0.5 * (y.size * math.log(2 * math.pi) + logdet
                                   + float(y @ np.linalg.solve(cov, y)))
            # LogGamma(1, 0.5) on both precisions, on the log scale
            log_prior = sum(math.log(0.5) + t - 0.5 * math.exp(t) for t in theta)
            return log_marginal + log_prior

        thetas = [[0.0, 0.0], [1.0, -1.0], [-0.5, 1.5], [1.5, 2.0], [0.5, -2.0]]
        diffs = [log_posterior_theta(m, np.array(t)) - exact(t) for t in thetas]
        assert max(diffs) - min(diffs) < 1e-6

    def test_reads_the_approximation_without_assembly(self, monkeypatch):
        # the Laplace terms come from the Gaussian approximation: once it
        # exists, no precision is assembled or factored and the likelihood
        # is not evaluated again
        from lgmsplit.datasets import generate_lattice
        m = build_model(generate_lattice(4, 3, seed=1)[1])
        theta = np.array([0.4, -0.2])
        approx = gaussian_approximation(m, theta)
        want = log_posterior_theta(m, theta, approx)

        def forbidden(*args, **kwargs):
            raise AssertionError("called after the approximation")

        monkeypatch.setattr(inference, "factorize", forbidden)
        monkeypatch.setattr(CompiledModel, "z_prior", forbidden)
        monkeypatch.setattr(CompiledModel, "z_posterior_precision", forbidden)
        monkeypatch.setattr(CompiledModel, "log_likelihood", forbidden)
        assert log_posterior_theta(m, theta, approx) == want

    def test_poisson_matches_quadrature(self):
        # exchangeable poisson counts with one latent effect per row; the true
        # marginal is a product of one-dimensional integrals
        y = np.array([185.0, 241.0, 198.0, 230.0, 176.0, 215.0])
        e0 = 200.0
        n = y.size
        data = DataTable({"y": y, "E": np.full(n, e0),
                          "u": [str(i) for i in range(n)]})
        spec = ModelSpec(LikelihoodFamily("poisson", offset="E"), "y",
                         [Iid("u", prior=LogGammaPrior(1.0, 0.5))], data)
        m = build_model(spec)

        def quad_lp(th):
            tau = math.exp(th)
            total = math.log(0.5) + th - 0.5 * math.exp(th)
            sd = 1.0 / math.sqrt(tau)
            for yi in y:
                def f(u, yi=yi):
                    return math.exp(yi * (math.log(e0) + u) - e0 * math.exp(u)
                                    - math.lgamma(yi + 1.0) - 0.5 * u * u * tau
                                    + 0.5 * (math.log(tau) - math.log(2 * math.pi)))
                val, _ = quad(f, -14 * sd, 14 * sd, limit=500,
                              epsabs=1e-14, epsrel=1e-13)
                total += math.log(val)
            return total

        sweep = np.linspace(-1.0, 1.0, 7)
        impl = np.array([log_posterior_theta(m, np.array([t])) for t in sweep])
        orac = np.array([quad_lp(t) for t in sweep])
        impl_c = impl - impl[3]
        orac_c = orac - orac[3]
        scale = max(1.0, float(np.max(np.abs(orac_c))))
        assert float(np.max(np.abs(impl_c - orac_c))) <= 1e-3 * scale


class TestExploreHypergrid:
    def gaussian_theta_model(self, mean, cov):
        d = len(mean)
        data = DataTable({"y": [np.nan] * 4, "u": [str(i % 2) for i in range(4)]})
        blocks = [Iid("u", name=f"b{k}") for k in range(d)]
        spec = ModelSpec(LikelihoodFamily("poisson"), "y", blocks, data,
                         theta_prior=GaussianThetaPrior(mean, cov))
        return build_model(spec)

    def test_weights_sum_to_one(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        assert abs(grid.weights.sum() - 1.0) < 1e-12
        assert np.all(grid.weights >= 0)

    def test_mode_point_has_max_density(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        assert grid.log_post.max() <= 0.0 + 1e-12

    def test_exact_gaussian_grid_moments(self, monkeypatch):
        # with no data the hyperparameter posterior is exactly the prior; a
        # wide drop threshold keeps the truncation bias inside 2 percent
        mean = np.array([0.5, -0.3])
        cov = np.array([[0.5, 0.2], [0.2, 0.4]])
        m = self.gaussian_theta_model(mean, cov)
        monkeypatch.setattr(inference, "LOG_DROP", 6.0)
        grid = explore_hypergrid(m)
        got_mean, got_cov = grid.moments()
        sd = np.sqrt(np.diag(cov))
        assert np.max(np.abs(got_mean - mean) / sd) < 0.02
        assert np.max(np.abs(got_cov - cov)) / np.max(np.abs(cov)) < 0.02

    def test_exact_gaussian_grid_moments_five_dimensional(self, monkeypatch):
        # the same lattice rule integrates a 5-d posterior; the truncation
        # at the drop threshold shrinks the covariance by a few percent
        mean = np.array([0.5, -0.3, 1.0, 0.0, -1.2])
        root = np.random.default_rng(4).normal(size=(5, 5))
        cov = 0.1 * root @ root.T + 0.3 * np.eye(5)
        m = self.gaussian_theta_model(mean, cov)
        monkeypatch.setattr(inference, "LOG_DROP", 6.0)
        grid = explore_hypergrid(m)
        got_mean, got_cov = grid.moments()
        sd = np.sqrt(np.diag(cov))
        assert np.max(np.abs(got_mean - mean) / sd) < 0.02
        assert np.max(np.abs(got_cov - cov)) / np.max(np.abs(cov)) < 0.10

    def test_theta_dimension_cap_is_the_largest_grid_that_fits(self):
        # breadth-first count of the grid on an exact Gaussian log posterior,
        # -|z|^2 GRID_STEP^2 / 2 in whitened coordinates, stopped past the cap
        def grid_size(d, cap):
            origin = (0,) * d
            accepted = {origin}
            frontier = [origin]
            while frontier and len(accepted) <= cap:
                nxt = []
                for zc in frontier:
                    for axis in range(d):
                        for sgn in (-1, 1):
                            zn = zc[:axis] + (zc[axis] + sgn,) + zc[axis + 1:]
                            if (zn not in accepted
                                    and abs(zn[axis]) <= inference.MAX_AXIS_STEPS
                                    and 0.5 * inference.GRID_STEP ** 2
                                    * sum(v * v for v in zn) <= inference.LOG_DROP):
                                accepted.add(zn)
                                nxt.append(zn)
                frontier = nxt
            return len(accepted)

        cap = inference.MAX_GRID_POINTS
        assert grid_size(MAX_THETA_DIM, cap) <= cap
        assert grid_size(MAX_THETA_DIM + 1, cap) > cap

    def test_axis_step_limit_is_logged(self, monkeypatch, caplog):
        m, *_ = conjugate_sweep_model()
        monkeypatch.setattr(inference, "MAX_AXIS_STEPS", 1)
        with caplog.at_level(logging.INFO, logger="lgmsplit"):
            grid = explore_hypergrid(m)
        assert grid.n_points == 3
        assert "grid: 3 points (2 at the 1-step axis limit)" in caplog.text

    def test_zero_dimensional_grid(self):
        m = one_obs_model("gaussian")
        grid = explore_hypergrid(m)
        assert grid.n_points == 1
        assert grid.weights[0] == 1.0

    def test_optimizer_failure_raises(self, monkeypatch):
        m = self.gaussian_theta_model([0.0], [[1e-4]])
        monkeypatch.setattr(inference, "OPTIMIZER_MAX_ITER", 0)
        with pytest.raises(InferenceError):
            explore_hypergrid(m, theta_init=np.array([50.0]))

    def test_failure_at_mode_raises(self, monkeypatch):
        # every evaluation fails, so the optimizer stops where it started;
        # that point must not become the mode of a flat grid
        m = self.gaussian_theta_model([0.0], [[1.0]])

        def broken(*args, **kwargs):
            raise InferenceError("synthetic failure")

        monkeypatch.setattr(inference, "log_posterior_theta", broken)
        with pytest.raises(InferenceError, match="mode"):
            explore_hypergrid(m)

    def test_failure_at_zero_dimensional_point_raises(self, monkeypatch):
        m = one_obs_model("gaussian")
        monkeypatch.setattr(inference, "log_posterior_theta",
                            lambda *args, **kwargs: math.nan)
        with pytest.raises(InferenceError, match="mode"):
            explore_hypergrid(m)

    def test_failures_off_the_mode_are_counted(self, monkeypatch):
        # evaluations beyond 1.5 standard deviations above the mode fail; each
        # one is counted once and none of them ends up on the grid
        m, *_ = conjugate_sweep_model()
        base = explore_hypergrid(m)
        limit = base.mode[0] + 1.5 * base.transform[0, 0]
        raised = []
        original = inference.log_posterior_theta

        def failing_above(model, theta, approx=None):
            if theta[0] > limit:
                raised.append(theta[0])
                raise InferenceError("synthetic failure")
            return original(model, theta, approx)

        monkeypatch.setattr(inference, "log_posterior_theta", failing_above)
        grid = explore_hypergrid(m, theta_init=base.mode)
        assert raised
        assert grid.n_failed == len(raised)
        assert np.all(grid.points[:, 0] <= limit)
        assert len(grid.approx) == grid.n_points

    def test_rats_grid_size_bounds(self, rats_model):
        grid = explore_hypergrid(rats_model)
        # at least the 3^4 core around the mode survives the drop threshold,
        # and by construction nothing outside the threshold is kept
        assert 3 ** 4 <= grid.n_points <= 1500
        assert np.all(grid.mode_log_post - (grid.log_post + grid.mode_log_post)
                      <= inference.LOG_DROP + 1e-9)


class TestLatentSummary:
    def test_single_point_grid_equals_approximation(self):
        m = one_obs_model("gaussian")
        grid = explore_hypergrid(m)
        summary = latent_summary(m, grid)
        approx = gaussian_approximation(m, np.zeros(0))
        assert np.allclose(summary.mean, approx.mode)
        assert np.allclose(summary.sd, np.sqrt(approx.marginal_variances()))
        assert np.all(summary.sd > 0)

    def test_fixed_theta_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        n = 30
        y = rng.normal(size=n)
        data = DataTable({"y": y, "g": [str(i % 5) for i in range(n)]})
        spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(2.0)),
                         "y", [Intercept(precision=1.0),
                               Iid("g", prior=FixedPrecision(0.5))], data)
        m = build_model(spec)
        grid = explore_hypergrid(m)
        summary = latent_summary(m, grid)
        a = np.zeros((n, 6))
        a[:, 0] = 1.0
        a[np.arange(n), 1 + np.arange(n) % 5] = 1.0
        q_z = np.diag(np.r_[1.0, 0.5 * np.ones(5)])
        mu, cov_eta, sig_z, _ = dense_conjugate(a, q_z, np.full(n, 2.0), y)
        assert np.max(np.abs(summary.mean - mu)) < 1e-8
        assert np.max(np.abs(summary.sd
                             - np.sqrt(np.r_[np.diag(cov_eta), np.diag(sig_z)]))) < 1e-8

    def test_mixture_variance_adds_between_point_spread(self):
        # two grid points with different shrinkage: total variance is the
        # within part plus the spread of the two means
        m, *_ = conjugate_sweep_model(n=6, seed=4)
        t_a, t_b = np.array([-0.6]), np.array([0.6])
        ga, gb = (gaussian_approximation(m, t) for t in (t_a, t_b))
        from lgmsplit.inference import HyperGrid
        grid = HyperGrid(points=np.array([t_a, t_b]), log_post=np.zeros(2),
                         weights=np.array([0.5, 0.5]), mode=t_a,
                         mode_log_post=0.0, hessian=np.eye(1),
                         transform=np.eye(1), approx=[ga, gb], n_failed=0)
        summary = latent_summary(m, grid)
        i = m.latent_dim - 1  # the intercept coordinate
        within = 0.5 * (ga.marginal_variances()[i] + gb.marginal_variances()[i])
        mbar = 0.5 * (ga.mode[i] + gb.mode[i])
        between = 0.5 * ((ga.mode[i] - mbar) ** 2 + (gb.mode[i] - mbar) ** 2)
        assert summary.sd[i] ** 2 == pytest.approx(within + between, rel=1e-10)
        assert abs(ga.mode[i] - gb.mode[i]) > 1e-4  # the spread term is real


class TestGridReuse:
    def test_summaries_use_the_grid_approximations(self, monkeypatch):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        amat = np.random.default_rng(4).normal(size=(3, m.latent_dim))
        summary = latent_summary(m, grid)
        lc = lincomb_posterior(m, grid, amat)

        def no_new_approximations(*args, **kwargs):
            raise AssertionError("gaussian_approximation called after the grid")

        monkeypatch.setattr(inference, "gaussian_approximation", no_new_approximations)
        again = latent_summary(m, grid)
        lc_again = lincomb_posterior(m, grid, amat)
        assert np.array_equal(again.mean, summary.mean)
        assert np.array_equal(again.sd, summary.sd)
        assert np.array_equal(lc_again.mean, lc.mean)
        assert np.array_equal(lc_again.cov, lc.cov)


class TestLincombPosterior:
    def test_single_coordinate_matches_latent_summary(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        summary = latent_summary(m, grid)
        sel = np.zeros((1, m.latent_dim))
        sel[0, 3] = 1.0
        lc = lincomb_posterior(m, grid, sel)
        assert lc.mean[0] == pytest.approx(summary.mean[3], abs=1e-12)
        assert math.sqrt(lc.cov[0, 0]) == pytest.approx(summary.sd[3], abs=1e-12)

    def test_fixed_theta_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        n = 20
        y = rng.normal(size=n)
        data = DataTable({"y": y, "g": [str(i % 4) for i in range(n)]})
        spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.5)),
                         "y", [Intercept(precision=1.0),
                               Iid("g", prior=FixedPrecision(0.7))], data)
        m = build_model(spec)
        grid = explore_hypergrid(m)
        amat = rng.normal(size=(4, m.latent_dim))
        lc = lincomb_posterior(m, grid, amat)
        a = np.zeros((n, 5))
        a[:, 0] = 1.0
        a[np.arange(n), 1 + np.arange(n) % 4] = 1.0
        q_z = np.diag(np.r_[1.0, 0.7 * np.ones(4)])
        mu, cov_eta, sig_z, m_cross = dense_conjugate(a, q_z, np.full(n, 1.5), y)
        joint = np.zeros((m.latent_dim, m.latent_dim))
        joint[:n, :n] = cov_eta
        joint[:n, n:] = m_cross @ sig_z
        joint[n:, :n] = joint[:n, n:].T
        joint[n:, n:] = sig_z
        assert np.max(np.abs(lc.mean - amat @ mu)) < 1e-8
        assert np.max(np.abs(lc.cov - amat @ joint @ amat.T)) < 1e-8

    def test_duplicated_row_duplicates_cov(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        amat = np.zeros((2, m.latent_dim))
        amat[0, 1] = 1.0
        amat[1, 1] = 1.0
        lc = lincomb_posterior(m, grid, amat)
        assert lc.cov[0, 0] == lc.cov[1, 1] == lc.cov[0, 1]
        assert lc.mean[0] == lc.mean[1]

    def test_zero_row_gives_zero(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        lc = lincomb_posterior(m, grid, np.zeros((2, m.latent_dim)))
        assert np.all(lc.cov == 0.0) and np.all(lc.mean == 0.0)

    def test_row_permutation_consistency(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        rng = np.random.default_rng(1)
        amat = rng.normal(size=(3, m.latent_dim))
        perm = [2, 0, 1]
        lc = lincomb_posterior(m, grid, amat)
        lcp = lincomb_posterior(m, grid, amat[perm])
        assert np.allclose(lcp.mean, lc.mean[perm])
        assert np.allclose(lcp.cov, lc.cov[np.ix_(perm, perm)])

    def test_covariance_psd(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        amat = np.random.default_rng(0).normal(size=(5, m.latent_dim))
        lc = lincomb_posterior(m, grid, amat)
        lam = np.linalg.eigvalsh(lc.cov)
        assert lam.min() >= -1e-10 * max(lam.max(), 1e-300)

    def test_dimension_mismatch(self):
        m, *_ = conjugate_sweep_model()
        grid = explore_hypergrid(m)
        with pytest.raises(ModelError):
            lincomb_posterior(m, grid, np.zeros((1, 3)))


class TestPosteriorAsPrior:
    def test_recovers_exact_gaussian(self, monkeypatch):
        mean = np.array([0.7])
        cov = np.array([[0.36]])
        data = DataTable({"y": [np.nan] * 2, "u": ["a", "b"]})
        spec = ModelSpec(LikelihoodFamily("poisson"), "y", [Iid("u")], data,
                         theta_prior=GaussianThetaPrior(mean, cov))
        m = build_model(spec)
        monkeypatch.setattr(inference, "LOG_DROP", 6.0)
        carrier = posterior_as_prior(explore_hypergrid(m))
        assert abs(carrier.mean[0] - 0.7) < 0.02 * 0.6
        assert abs(carrier.cov[0, 0] - 0.36) / 0.36 < 0.02

    def test_roundtrip_self_consistency(self, monkeypatch):
        mean = np.array([0.4, -0.2])
        cov = np.array([[0.3, 0.1], [0.1, 0.25]])
        data = DataTable({"y": [np.nan] * 2, "u": ["a", "b"]})
        spec = ModelSpec(LikelihoodFamily("poisson"), "y",
                         [Iid("u", name="p"), Iid("u", name="q")], data,
                         theta_prior=GaussianThetaPrior(mean, cov))
        m = build_model(spec)
        monkeypatch.setattr(inference, "LOG_DROP", 6.0)
        first = posterior_as_prior(explore_hypergrid(m))
        again = posterior_as_prior(explore_hypergrid(m.with_theta_prior(first)))
        assert np.max(np.abs(again.mean - first.mean)) < 0.02 * np.sqrt(np.diag(first.cov)).max()
        assert np.max(np.abs(again.cov - first.cov)) / np.max(np.abs(first.cov)) < 0.02

    def test_single_point_grid_is_degenerate(self):
        from lgmsplit.inference import HyperGrid
        m, *_ = conjugate_sweep_model()
        grid = HyperGrid(points=np.array([[0.3]]), log_post=np.zeros(1),
                         weights=np.ones(1), mode=np.array([0.3]),
                         mode_log_post=0.0, hessian=np.eye(1),
                         transform=np.eye(1),
                         approx=[gaussian_approximation(m, np.array([0.3]))],
                         n_failed=0)
        with pytest.raises(InferenceError):
            posterior_as_prior(grid)

    def test_zero_dimensional_passthrough(self):
        m = one_obs_model("gaussian")
        carrier = posterior_as_prior(explore_hypergrid(m))
        assert carrier.dim == 0


class TestFit:
    def test_reports_theta_and_latent(self):
        m, y, *_ = conjugate_sweep_model()
        result = fit(m)
        assert len(result.theta_names) == 1
        assert result.theta_sd[0] > 0
        # near-flat intercept prior: posterior mean close to the sample mean
        assert result.latent.mean[-1] == pytest.approx(np.mean(y), abs=0.5)
