"""Deterministic approximate inference for compiled latent Gaussian models.

The engine follows the classic three-stage scheme: a Gaussian approximation
of the latent field at fixed hyperparameters (Newton iteration matching mode
and curvature), a Laplace log posterior over the hyperparameters, and
numerical integration over an adaptively explored grid in standardized
hyperparameter coordinates.  Each hyperparameter point is evaluated once:
the Laplace term reads the objective and log determinant that the
approximation kept, the grid keeps the approximation of every accepted
point, and the latent and linear-combination summaries mix those.

Internally the predictor coordinates are eliminated in closed form through
the tying noise (a Schur complement in the block coordinates), so the
factorized system stays well conditioned regardless of the large tying
precision; all reported quantities still refer to the full latent field.
Block-space precisions are dense symmetric arrays, factored as they come,
and the factor itself conditions on the model's linear constraints
(``sparse.factorize``), so solves, covariances and log determinants read
here are already on the constraint space.
"""

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .model import GaussianThetaPrior, ModelError, TIE_PRECISION
from .sparse import NotPositiveDefinite, factorize

GRID_STEP = 1.0             # step in standardized hyperparameter coordinates
LOG_DROP = 4.0              # keep grid points within this log-density drop
MAX_GRID_POINTS = 5000
MAX_AXIS_STEPS = 10
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-6
MAX_STEP_HALVINGS = 10
FD_STEP = 1e-4              # central-difference step for the optimizer
HESSIAN_STEP = 0.1
OPTIMIZER_MAX_ITER = 200

log = logging.getLogger("lgmsplit")


class InferenceError(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class GaussianApprox:
    """Mode/curvature Gaussian approximation of the latent field at one theta.

    mode holds the full latent vector (predictor coordinates first); the
    factorization lives in the block space after exact elimination of the
    predictor tie, conditioned on the model's constraints.  objective is the
    log prior quadratic plus the log likelihood at the mode; log_det is that
    of the full-field posterior precision on the constraint space: the tie
    plus the constrained block factor's.
    """

    def __init__(self, model, theta, eta, z, resid, curv, factor_z, objective,
                 n_iter, grad_norm):
        self.theta = theta
        self.eta = eta
        self.z = z
        self.resid = resid            # eta - A z at the mode
        self.curv = curv              # likelihood curvature per data row
        self.factor_z = factor_z
        self.objective = objective
        self.n_iter = n_iter
        self.grad_norm = grad_norm
        self._model = model
        self.log_det = float(np.sum(np.log(TIE_PRECISION + curv))) + factor_z.log_det

    @property
    def mode(self):
        return np.concatenate([self.eta, self.z])

    def sigma_z(self):
        """Dense block-space posterior covariance on the constraint space (not cached)."""
        sig = self.factor_z.solve(np.eye(self.z.size))
        return 0.5 * (sig + sig.T)

    def marginal_variances(self):
        """Posterior variances of every latent coordinate."""
        kap = TIE_PRECISION
        sig = self.sigma_z()
        denom = kap + self.curv
        a = self._model.design
        quad = ((a @ sig) * a).sum(axis=1)          # a_i' sig a_i per row
        var_eta = 1.0 / denom + (kap / denom) ** 2 * quad
        return np.concatenate([var_eta, np.diag(sig)])

    def lincomb(self, combos):
        """Mean and covariance of L x under the approximation, L the rows of combos."""
        kap = TIE_PRECISION
        n = self.eta.size
        l_eta = combos[:, :n]
        l_z = combos[:, n:]
        mean = combos @ self.mode
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
    transform: np.ndarray           # theta = mode + transform @ (GRID_STEP * z)
    approx: list                    # GaussianApprox per point, aligned with points
    n_failed: int                   # evaluations that failed and counted as -1e12

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


def gaussian_approximation(model, theta, start=None):
    """Newton iteration to the conditional posterior mode of the latent field.

    For a gaussian likelihood this is exact and converges in one step; for
    poisson the exact log-link curvature keeps the iteration stable.
    """
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
        val = (-0.5 * (kap * float(r_v @ r_v) + float(z_v @ z_prior @ z_v))
               + model.log_likelihood(eta_v, theta))
        return val

    obj = objective(eta, z, resid)
    grad_norm = math.inf
    converged = False
    it = 0
    # gradient and curvature at the current iterate: the convergence check
    # of one step hands them to the next step and to the final factor
    g, c = model.likelihood_grad_curv(eta, theta)
    for it in range(1, NEWTON_MAX_ITER + 1):
        c_step = c
        b_eta = c * eta + g
        weights = kap * c / (kap + c)
        factor = factorize(model.z_posterior_precision(z_prior, weights), a_con)
        z_new = factor.solve(a.T @ ((kap / (kap + c)) * b_eta))
        az = a @ z_new
        eta_new = (b_eta + kap * az) / (kap + c)
        r_new = (b_eta - c * az) / (kap + c)

        step = 1.0
        eta_s, z_s, r_s = eta_new, z_new, r_new
        new_obj = objective(eta_s, z_s, r_s)
        halvings = 0
        while (not np.isfinite(new_obj) or new_obj < obj - 1e-10 * (1.0 + abs(obj))) \
                and halvings < MAX_STEP_HALVINGS:
            step *= 0.5
            eta_s = eta + step * (eta_new - eta)
            z_s = z + step * (z_new - z)
            r_s = resid + step * (r_new - resid)
            new_obj = objective(eta_s, z_s, r_s)
            halvings += 1
        eta, z, resid, obj = eta_s, z_s, r_s, new_obj

        g, c = model.likelihood_grad_curv(eta, theta)
        grad_eta = -kap * resid + g
        grad_z = -(z_prior @ z) + kap * (a.T @ resid)
        if k_con:
            lam = np.linalg.solve(a_con @ a_con.T, a_con @ grad_z)
            grad_z = grad_z - a_con.T @ lam
        grad_norm = float(max(np.max(np.abs(grad_eta), initial=0.0),
                              np.max(np.abs(grad_z), initial=0.0)))
        scale = 1.0 + math.sqrt(float(eta @ eta + z @ z))
        if grad_norm <= NEWTON_TOL * scale:
            converged = True
            break
    if not converged:
        raise InferenceError(
            f"latent mode search did not converge in {it} iterations",
            {"grad_norm": grad_norm, "theta": theta.copy()})

    # curvature at the final mode (matters for poisson after several steps)
    if not np.array_equal(c, c_step):
        weights = kap * c / (kap + c)
        factor = factorize(model.z_posterior_precision(z_prior, weights), a_con)
    return GaussianApprox(model, theta, eta, z, resid, c, factor, obj, it, grad_norm)


def log_posterior_theta(model, theta, approx=None):
    """Unnormalized log posterior of the internal hyperparameters.

    The Laplace approximation pi(theta) pi(x*, y | theta) / pi_G(x* | theta, y)
    at the approximation's mode x*, up to one constant shared across theta:
    the 2 pi terms cancel, leaving log determinants on the constraint space.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if approx is None:
        approx = gaussian_approximation(model, theta)
    return (model.log_prior_theta(theta)
            + 0.5 * (model.prior_log_det(theta) - approx.log_det) + approx.objective)


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


class _Evaluations:
    """Laplace evaluations of one model: values cached by theta, failures kept."""

    def __init__(self, model):
        self.model = model
        self.cache = {}                 # theta bytes -> log posterior
        self.failed = []

    def __call__(self, theta):
        """Log posterior and Gaussian approximation; (-1e12, None) on failure."""
        try:
            approx = gaussian_approximation(self.model, theta)
            val = log_posterior_theta(self.model, theta, approx)
            if not np.isfinite(val):
                raise FloatingPointError(f"log posterior is {val}")
        except (NotPositiveDefinite, InferenceError, FloatingPointError,
                np.linalg.LinAlgError) as exc:
            self.failed.append(f"{type(exc).__name__}: {exc}")
            approx, val = None, -1e12
        val = float(val)
        self.cache[theta.tobytes()] = val
        return val, approx

    def neg_lp(self, theta):
        """Minus the log posterior, evaluated only if theta is new."""
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if key not in self.cache:
            self(theta)
        return -self.cache[key]


def hyper_mode(model, theta_init=None):
    """Maximize the hyperparameter log posterior, starting at theta_init.

    Returns the mode, the log posterior and Gaussian approximation there,
    and the evaluations made.  Raises InferenceError if the evaluation at
    the mode fails or the gradient there exceeds 1e-2.
    """
    d = model.dim_theta
    evals = _Evaluations(model)
    mode = np.zeros(d) if theta_init is None else np.asarray(theta_init, dtype=float).copy()
    jac = lambda t: _central_grad(evals.neg_lp, t, FD_STEP)
    if d:
        res = scipy.optimize.minimize(evals.neg_lp, mode, jac=jac, method="BFGS",
                                      options={"maxiter": OPTIMIZER_MAX_ITER,
                                               "gtol": 1e-5})
        mode = np.asarray(res.x, dtype=float)
    # evaluated again even when cached: the grid needs the approximation
    mode_lp, approx = evals(mode)
    if approx is None:
        raise InferenceError(
            f"log posterior failed at the hyperparameter mode ({evals.failed[-1]})",
            {"theta": mode.copy()})
    if d:
        gnorm = float(np.max(np.abs(jac(mode))))
        if gnorm > 1e-2:
            raise InferenceError(
                f"hyperparameter optimization did not converge (|grad| = {gnorm:.2e})",
                {"theta": mode})
        log.info("theta mode %s after %d evaluations", mode, res.nfev)
    return mode, mode_lp, approx, evals


def explore_hypergrid(model, theta_init=None):
    """Locate the hyperparameter mode and integrate over a standardized grid.

    One rule at every dimension d <= MAX_THETA_DIM, d = 0 included: the
    axis-aligned lattice of step GRID_STEP in the coordinates that whiten
    the Hessian at the mode, explored breadth-first from the mode and kept
    while the log density is within LOG_DROP of the mode's, at most
    MAX_AXIS_STEPS steps from it along any axis; the log line counts the
    accepted points on that step limit.  A failed evaluation counts as log
    density -1e12 and is counted in n_failed, except at the mode, where it
    raises InferenceError.  The Gaussian approximation of every accepted
    point is kept on the grid.
    """
    d = model.dim_theta
    mode, mode_lp, mode_approx, evals = hyper_mode(model, theta_init)
    hess = _central_hessian(evals.neg_lp, mode, HESSIAN_STEP)
    lam, vec = np.linalg.eigh(hess)
    floor = 1e-6 * max(float(np.max(np.abs(lam), initial=0.0)), 1e-6)
    if np.any(lam <= 0):
        warnings.warn("non-positive curvature at the hyperparameter mode; "
                      "flooring eigenvalues", RuntimeWarning)
    lam = np.maximum(lam, floor)
    transform = vec @ np.diag(1.0 / np.sqrt(lam))

    def theta_of(z):
        return mode + transform @ (GRID_STEP * np.asarray(z, dtype=float))

    origin = (0,) * d
    # grid coordinates -> (log posterior, approx)
    accepted = {origin: (mode_lp, mode_approx)}
    frontier = [origin]
    evaluated = {origin}
    while frontier:
        nxt = []
        for zc in frontier:
            for axis in range(d):
                for sgn in (-1, 1):
                    zn = list(zc)
                    zn[axis] += sgn
                    zn = tuple(zn)
                    if zn in evaluated or abs(zn[axis]) > MAX_AXIS_STEPS:
                        continue
                    evaluated.add(zn)
                    val, approx = evals(theta_of(zn))
                    if mode_lp - val <= LOG_DROP:
                        accepted[zn] = (val, approx)
                        nxt.append(zn)
        frontier = nxt
        if len(accepted) > MAX_GRID_POINTS:
            raise InferenceError("hyperparameter grid exceeded the size cap")

    keys = sorted(accepted.keys())
    points = np.array([theta_of(zc) for zc in keys])
    rel = np.array([accepted[zc][0] - mode_lp for zc in keys])
    w = np.exp(rel)
    weights = w / w.sum()
    at_limit = sum(MAX_AXIS_STEPS in map(abs, zc) for zc in keys)
    log.info("grid: %d points (%d at the %d-step axis limit), %d failed evaluations, "
             "total evaluations %d", len(keys), at_limit, MAX_AXIS_STEPS,
             len(evals.failed), len(evals.cache))
    return HyperGrid(points=points, log_post=rel, weights=weights, mode=mode,
                     mode_log_post=mode_lp, hessian=hess, transform=transform,
                     approx=[accepted[zc][1] for zc in keys], n_failed=len(evals.failed))


def latent_summary(model, grid):
    """Gaussian-mixture posterior mean and standard deviation per latent coordinate."""
    if grid.n_points == 0:
        raise InferenceError("empty hyperparameter grid")
    n = model.latent_dim
    mean = np.zeros(n)
    second = np.zeros(n)
    for approx, w in zip(grid.approx, grid.weights):
        mv = approx.marginal_variances()
        mode = approx.mode
        mean += w * mode
        second += w * (mv + mode ** 2)
    var = np.maximum(second - mean ** 2, 1e-300)
    return LatentSummary(mean=mean, sd=np.sqrt(var), labels=model.latent_labels())


def lincomb_posterior(model, grid, a_matrix):
    """Joint posterior mean and covariance of linear combinations A x."""
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[1] != model.latent_dim:
        raise ModelError(
            f"combination matrix must have {model.latent_dim} columns, got {a.shape}")
    k = a.shape[0]
    mean = np.zeros(k)
    second = np.zeros((k, k))
    for approx, w in zip(grid.approx, grid.weights):
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
    if positive < d + 1:
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


def fit(model):
    """Full pass: hypergrid, hyperparameter moments and latent summaries."""
    grid = explore_hypergrid(model)
    theta_mean, theta_cov = grid.moments()
    theta_sd = np.sqrt(np.maximum(np.diag(theta_cov), 0.0))
    summary = latent_summary(model, grid)
    return FitResult(grid=grid, theta_names=model.theta_names(),
                     theta_mean=theta_mean, theta_sd=theta_sd, latent=summary)
