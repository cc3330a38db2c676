"""Deterministic approximate inference for compiled latent Gaussian models.

The engine follows the classic three-stage scheme: a Gaussian approximation
of the latent field at fixed hyperparameters (Newton iteration matching mode
and curvature), a Laplace-style log posterior over the hyperparameters, and
numerical integration over an adaptively explored grid in standardized
hyperparameter coordinates.

Internally the predictor coordinates are eliminated in closed form through
the tying noise (a Schur complement in the block coordinates), so the
factorized system stays well conditioned regardless of the large tying
precision; all reported quantities still refer to the full latent field.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .model import GaussianThetaPrior, ModelError, TIE_PRECISION
from .sparse import NotPositiveDefinite, factorize

LOG_2PI = math.log(2.0 * math.pi)


class InferenceError(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class InferenceConfig:
    grid_step: float = 1.0          # step in standardized hyperparameter coordinates
    log_drop: float = 4.0           # keep grid points within this log-density drop
    max_grid_points: int = 5000
    max_axis_steps: int = 10
    newton_max_iter: int = 50
    newton_tol: float = 1e-6
    max_step_halvings: int = 10
    fd_step: float = 1e-4           # central-difference step for the optimizer
    hessian_step: float = 0.1
    optimizer_max_iter: int = 200
    verbose: bool = False

    def log(self, msg):
        if self.verbose:
            print(f"[lgmsplit] {msg}", flush=True)


class GaussianApprox:
    """Mode/curvature Gaussian approximation of the latent field at one theta.

    mode holds the full latent vector (predictor coordinates first); the
    factorization lives in the block space after exact elimination of the
    predictor tie.
    """

    def __init__(self, model, theta, eta, z, resid, curv, factor_z, n_iter, grad_norm):
        self.theta = theta
        self.eta = eta
        self.z = z
        self.resid = resid            # eta - A z at the mode
        self.curv = curv              # likelihood curvature per data row
        self.factor_z = factor_z
        self.n_iter = n_iter
        self.grad_norm = grad_norm
        self._model = model
        kap = TIE_PRECISION
        self.log_det = float(np.sum(np.log(kap + curv)))
        if factor_z is not None:
            self.log_det += factor_z.log_det
        self._sigma_z = None
        self._con = None              # (chol, logdet, sigma_z_constrained)

    @property
    def mode(self):
        return np.concatenate([self.eta, self.z])

    def sigma_z(self):
        """Dense block-space posterior covariance, constraint-corrected."""
        if self._sigma_z is None:
            zdim = self.z.size
            if zdim == 0:
                self._sigma_z = np.zeros((0, 0))
            else:
                sig = self.factor_z.solve(np.eye(zdim))
                sig = 0.5 * (sig + sig.T)
                a_con = self._model.z_constraints
                if a_con.shape[0]:
                    x = sig @ a_con.T
                    g = a_con @ x
                    g = 0.5 * (g + g.T)
                    chol = scipy.linalg.cho_factor(g, lower=True)
                    self._con = (chol, float(2.0 * np.sum(np.log(np.diag(chol[0])))))
                    sig = sig - x @ scipy.linalg.cho_solve(chol, x.T)
                    sig = 0.5 * (sig + sig.T)
                self._sigma_z = sig
        return self._sigma_z

    def constraint_logdet(self):
        self.sigma_z()
        return self._con[1] if self._con is not None else 0.0

    def log_density_at_mode(self):
        """Log density of the (constrained) Gaussian at its own mean."""
        n = self.eta.size + self.z.size
        k = self._model.n_constraints
        out = 0.5 * self.log_det - 0.5 * n * LOG_2PI
        if k:
            out += 0.5 * k * LOG_2PI + 0.5 * self.constraint_logdet()
        return out

    def marginal_variances(self):
        """Posterior variances of every latent coordinate."""
        kap = TIE_PRECISION
        sig = self.sigma_z()
        denom = kap + self.curv
        var_eta = 1.0 / denom
        if self.z.size:
            quad = self._model.design_quad_diag(sig)
            var_eta = var_eta + (kap / denom) ** 2 * quad
        return np.concatenate([var_eta, np.diag(sig)])

    def lincomb(self, l_matrix):
        """Mean and covariance of L x under the approximation."""
        kap = TIE_PRECISION
        n = self.eta.size
        l_eta = l_matrix[:, :n]
        l_z = l_matrix[:, n:]
        mean = l_matrix @ self.mode
        sig = self.sigma_z()
        scale = kap / (kap + self.curv)
        g_mat = (l_eta * scale) @ self._model.design + l_z
        cov = g_mat @ sig @ g_mat.T + (l_eta / (kap + self.curv)) @ l_eta.T
        return mean, 0.5 * (cov + cov.T)


@dataclass
class HyperGrid:
    """Explored hyperparameter configurations with normalized weights."""

    points: np.ndarray              # (n_points, dim)
    log_post: np.ndarray            # relative to the mode value
    weights: np.ndarray
    mode: np.ndarray
    mode_log_post: float
    hessian: np.ndarray
    transform: np.ndarray           # theta = mode + transform @ (step * z)
    grid_step: float
    log_drop: float

    @property
    def n_points(self):
        return self.points.shape[0]

    def moments(self):
        mean = self.weights @ self.points
        centered = self.points - mean
        cov = (self.weights[:, None] * centered).T @ centered
        return mean, cov


@dataclass
class LatentSummary:
    mean: np.ndarray
    sd: np.ndarray
    labels: list


@dataclass
class LincombPosterior:
    matrix: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self):
        return self.mean.size


@dataclass
class FitResult:
    grid: HyperGrid
    theta_names: list
    theta_mean: np.ndarray
    theta_sd: np.ndarray
    latent: LatentSummary
    seconds: float


def gaussian_approximation(model, theta, config=None, start=None):
    """Newton iteration to the conditional posterior mode of the latent field.

    For a gaussian likelihood this is exact and converges in one step; for
    poisson the exact log-link curvature keeps the iteration stable.
    """
    config = config or InferenceConfig()
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    kap = TIE_PRECISION
    n = model.n_rows
    zdim = model.z_dim
    a = model.design
    a_con = model.z_constraints
    k_con = a_con.shape[0]
    z_prior = model.z_prior(theta)

    if start is None:
        eta = np.zeros(n)
        z = np.zeros(zdim)
        resid = np.zeros(n)
    else:
        start = np.asarray(start, dtype=float)
        eta = start[:n].copy()
        z = start[n:].copy()
        resid = eta - a @ z

    def objective(eta_v, z_v, r_v):
        val = (-0.5 * (kap * float(r_v @ r_v) + z_prior.quad_form(z_v))
               + model.log_likelihood(eta_v, theta))
        return val

    obj = objective(eta, z, resid)
    factor = None
    grad_norm = math.inf
    converged = False
    it = 0
    for it in range(1, config.newton_max_iter + 1):
        g, c = model.likelihood_grad_curv(eta, theta)
        b_eta = c * eta + g
        weights = kap * c / (kap + c)
        qz = model.z_posterior_precision(theta, weights)
        factor = factorize(qz, ordering=model.z_ordering())
        rhs = a.T @ ((kap / (kap + c)) * b_eta)
        z_new = factor.solve(rhs)
        if k_con:
            x = factor.solve(a_con.T)
            gmat = a_con @ x
            chol = scipy.linalg.cho_factor(0.5 * (gmat + gmat.T), lower=True)
            z_new = z_new - x @ scipy.linalg.cho_solve(chol, a_con @ z_new)
        az = a @ z_new
        eta_new = (b_eta + kap * az) / (kap + c)
        r_new = (b_eta - c * az) / (kap + c)

        step = 1.0
        eta_s, z_s, r_s = eta_new, z_new, r_new
        new_obj = objective(eta_s, z_s, r_s)
        halvings = 0
        while (not np.isfinite(new_obj) or new_obj < obj - 1e-10 * (1.0 + abs(obj))) \
                and halvings < config.max_step_halvings:
            step *= 0.5
            eta_s = eta + step * (eta_new - eta)
            z_s = z + step * (z_new - z)
            r_s = resid + step * (r_new - resid)
            new_obj = objective(eta_s, z_s, r_s)
            halvings += 1
        eta, z, resid, obj = eta_s, z_s, r_s, new_obj

        g2, _ = model.likelihood_grad_curv(eta, theta)
        grad_eta = -kap * resid + g2
        grad_z = -z_prior.matvec(z) + kap * (a.T @ resid)
        if k_con:
            lam = np.linalg.solve(a_con @ a_con.T, a_con @ grad_z)
            grad_z = grad_z - a_con.T @ lam
        grad_norm = float(max(np.max(np.abs(grad_eta), initial=0.0),
                              np.max(np.abs(grad_z), initial=0.0)))
        scale = 1.0 + math.sqrt(float(eta @ eta + z @ z))
        if grad_norm <= config.newton_tol * scale:
            converged = True
            break
    if not converged:
        raise InferenceError(
            f"latent mode search did not converge in {it} iterations",
            {"grad_norm": grad_norm, "theta": theta.copy()})

    # curvature at the final mode (matters for poisson after several steps)
    g, c_final = model.likelihood_grad_curv(eta, theta)
    if not np.array_equal(c_final, c):
        weights = kap * c_final / (kap + c_final)
        qz = model.z_posterior_precision(theta, weights)
        factor = factorize(qz, ordering=model.z_ordering())
    return GaussianApprox(model, theta, eta, z, resid, c_final, factor, it, grad_norm)


def log_posterior_theta(model, theta, config=None, approx=None):
    """Unnormalized log posterior of the internal hyperparameters.

    Combines the hyperprior, the latent prior and likelihood at the
    conditional mode, and the Gaussian approximation correction; defined up
    to one additive constant shared across theta.
    """
    config = config or InferenceConfig()
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if approx is None:
        approx = gaussian_approximation(model, theta, config)
    kap = TIE_PRECISION
    n = model.latent_dim
    k_con = model.n_constraints

    lp = model.log_prior_theta(theta)
    z_prior = model.z_prior(theta)
    prior_quad = kap * float(approx.resid @ approx.resid) + z_prior.quad_form(approx.z)
    prior_term = (0.5 * model.prior_log_det(theta) - 0.5 * prior_quad - 0.5 * n * LOG_2PI)
    if k_con:
        a_con = model.z_constraints
        prior_factor = factorize(z_prior, ordering=model.z_ordering())
        x = prior_factor.solve(a_con.T)
        gmat = a_con @ x
        chol = scipy.linalg.cho_factor(0.5 * (gmat + gmat.T), lower=True)
        r = a_con @ approx.z
        quad = float(r @ scipy.linalg.cho_solve(chol, r))
        con_logdet = float(2.0 * np.sum(np.log(np.diag(chol[0]))))
        prior_term -= (-0.5 * k_con * LOG_2PI - 0.5 * con_logdet - 0.5 * quad)
    loglik = model.log_likelihood(approx.eta, theta)
    return lp + prior_term + loglik - approx.log_density_at_mode()


def _central_grad(f, x, h):
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _central_hessian(f, x, h):
    d = x.size
    hess = np.zeros((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            hess[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                          - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h ** 2)
            hess[j, i] = hess[i, j]
    return hess


def explore_hypergrid(model, config=None, theta_init=None):
    """Locate the hyperparameter mode and integrate over a standardized grid.

    Full axis-aligned lattice (breadth-first within the log-drop threshold)
    up to dimension 4; beyond that, axis walks plus hypercube corners.
    """
    config = config or InferenceConfig()
    d = model.dim_theta
    cache = {}

    def lp(theta):
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if key not in cache:
            try:
                val = log_posterior_theta(model, theta, config)
            except (NotPositiveDefinite, InferenceError, FloatingPointError,
                    np.linalg.LinAlgError):
                val = -math.inf
            if not np.isfinite(val):
                val = -1e12
            cache[key] = float(val)
        return cache[key]

    if d == 0:
        theta0 = np.zeros(0)
        val = lp(theta0)
        return HyperGrid(points=np.zeros((1, 0)), log_post=np.zeros(1),
                         weights=np.ones(1), mode=theta0, mode_log_post=val,
                         hessian=np.zeros((0, 0)), transform=np.zeros((0, 0)),
                         grid_step=config.grid_step, log_drop=config.log_drop)

    x0 = np.zeros(d) if theta_init is None else np.asarray(theta_init, dtype=float).copy()
    neg = lambda t: -lp(t)
    jac = lambda t: _central_grad(neg, t, config.fd_step)
    res = scipy.optimize.minimize(neg, x0, jac=jac, method="BFGS",
                                  options={"maxiter": config.optimizer_max_iter,
                                           "gtol": 1e-5})
    mode = np.asarray(res.x, dtype=float)
    gnorm = float(np.max(np.abs(jac(mode))))
    if gnorm > 1e-2:
        raise InferenceError(
            f"hyperparameter optimization did not converge (|grad| = {gnorm:.2e})",
            {"theta": mode})
    config.log(f"theta mode {np.array2string(mode, precision=4)} "
               f"after {res.nfev} evaluations")

    hess = _central_hessian(neg, mode, config.hessian_step)
    lam, vec = np.linalg.eigh(hess)
    floor = 1e-6 * max(float(np.max(np.abs(lam))), 1e-6)
    if np.any(lam <= 0):
        warnings.warn("non-positive curvature at the hyperparameter mode; "
                      "flooring eigenvalues", RuntimeWarning)
    lam = np.maximum(lam, floor)
    transform = vec @ np.diag(1.0 / np.sqrt(lam))

    mode_lp = lp(mode)
    step = config.grid_step

    def theta_of(z):
        return mode + transform @ (step * np.asarray(z, dtype=float))

    accepted = {}
    if d <= 4:
        origin = (0,) * d
        accepted[origin] = mode_lp
        frontier = [origin]
        evaluated = {origin}
        n_accepted = 1
        while frontier:
            nxt = []
            for zc in frontier:
                for axis in range(d):
                    for sgn in (-1, 1):
                        zn = list(zc)
                        zn[axis] += sgn
                        zn = tuple(zn)
                        if zn in evaluated or abs(zn[axis]) > config.max_axis_steps:
                            continue
                        evaluated.add(zn)
                        val = lp(theta_of(zn))
                        if mode_lp - val <= config.log_drop:
                            accepted[zn] = val
                            nxt.append(zn)
                            n_accepted += 1
            frontier = nxt
            if n_accepted > config.max_grid_points:
                raise InferenceError("hyperparameter grid exceeded the size cap")
    else:
        accepted[(0,) * d] = mode_lp
        for axis in range(d):
            for sgn in (-1, 1):
                for k in range(1, config.max_axis_steps + 1):
                    zc = [0] * d
                    zc[axis] = sgn * k
                    val = lp(theta_of(zc))
                    if mode_lp - val > config.log_drop:
                        break
                    accepted[tuple(zc)] = val
        for corner in range(2 ** d):
            zc = tuple(1 if (corner >> b) & 1 else -1 for b in range(d))
            val = lp(theta_of(zc))
            if mode_lp - val <= config.log_drop:
                accepted[zc] = val

    keys = sorted(accepted.keys())
    points = np.array([theta_of(zc) for zc in keys])
    rel = np.array([accepted[zc] - mode_lp for zc in keys])
    w = np.exp(rel)
    weights = w / w.sum()
    config.log(f"grid: {len(keys)} points, total evaluations {len(cache)}")
    return HyperGrid(points=points, log_post=rel, weights=weights, mode=mode,
                     mode_log_post=mode_lp, hessian=hess, transform=transform,
                     grid_step=step, log_drop=config.log_drop)


def latent_summary(model, grid, config=None):
    """Gaussian-mixture posterior mean and standard deviation per latent coordinate."""
    config = config or InferenceConfig()
    if grid.n_points == 0:
        raise InferenceError("empty hyperparameter grid")
    n = model.latent_dim
    mean = np.zeros(n)
    second = np.zeros(n)
    for theta, w in zip(grid.points, grid.weights):
        approx = gaussian_approximation(model, theta, config)
        mv = approx.marginal_variances()
        mode = approx.mode
        mean += w * mode
        second += w * (mv + mode ** 2)
    var = np.maximum(second - mean ** 2, 1e-300)
    return LatentSummary(mean=mean, sd=np.sqrt(var), labels=model.latent_labels())


def lincomb_posterior(model, grid, a_matrix, config=None):
    """Joint posterior mean and covariance of linear combinations A x."""
    config = config or InferenceConfig()
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[1] != model.latent_dim:
        raise ModelError(
            f"combination matrix must have {model.latent_dim} columns, got {a.shape}")
    k = a.shape[0]
    mean = np.zeros(k)
    second = np.zeros((k, k))
    for theta, w in zip(grid.points, grid.weights):
        approx = gaussian_approximation(model, theta, config)
        m_g, s_g = approx.lincomb(a)
        mean += w * m_g
        second += w * (s_g + np.outer(m_g, m_g))
    cov = second - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    return LincombPosterior(matrix=a.copy(), mean=mean, cov=cov)


def posterior_as_prior(grid):
    """Moment-matched Gaussian carrier of a hyperparameter posterior grid."""
    d = grid.mode.size
    positive = int(np.sum(grid.weights > 0))
    if d > 0 and positive < d + 1:
        raise InferenceError(
            f"grid has only {positive} weighted points; need at least {d + 1} "
            "to carry a posterior forward")
    mean, cov = grid.moments()
    if d > 0:
        eig = np.linalg.eigvalsh(cov)
        if eig.min() <= 0:
            jitter = max(1e-12, 1e-8 * float(np.trace(cov)) / d)
            warnings.warn(f"degenerate hyperparameter covariance; inflating "
                          f"diagonal by {jitter:.1e}", RuntimeWarning)
            cov = cov + jitter * np.eye(d)
    return GaussianThetaPrior(mean, cov)


def fit(model, config=None, theta_init=None):
    """Full pass: hypergrid, hyperparameter moments and latent summaries."""
    config = config or InferenceConfig()
    t0 = time.monotonic()
    grid = explore_hypergrid(model, config, theta_init=theta_init)
    theta_mean, theta_cov = grid.moments()
    theta_sd = np.sqrt(np.maximum(np.diag(theta_cov), 0.0)) if grid.mode.size else np.zeros(0)
    summary = latent_summary(model, grid, config)
    return FitResult(grid=grid, theta_names=model.theta_names(),
                     theta_mean=theta_mean, theta_sd=theta_sd,
                     latent=summary, seconds=time.monotonic() - t0)
