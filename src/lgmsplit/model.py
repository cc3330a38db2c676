"""Declarative latent Gaussian models and their block-space prior assembler.

A model is a likelihood plus an ordered list of additive effect blocks over a
data table.  The latent field is laid out as the per-row linear predictor
first, followed by the block coefficients; the predictor coordinates are tied
to the sum of their block contributions by a large fixed precision so that
joint posteriors of predictor subsets are well defined.  Inference eliminates
the predictor through that tie, so the compiled model assembles only the
block-coordinate prior precision and the design; the full field remains the
layout in which results are reported.

Compiled models are immutable; masking responses or swapping the
hyperparameter prior returns cheap copies sharing the assembled structure.
"""

import json
import math
import os

import numpy as np

from .sparse import SparseSymmetric, min_degree_ordering

TIE_PRECISION = 1e9
BESAG_JITTER = 1e-7
DEFAULT_FIXED_EFFECT_PRECISION = 1e-6
MAX_THETA_DIM = 20


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# data handling


class DataTable:
    """Named columns of equal length; numeric columns use NaN for missing."""

    def __init__(self, columns, group_column=None):
        self.columns = {}
        n = None
        for name, col in columns.items():
            arr = np.asarray(col)
            if arr.dtype.kind in "ifub":
                arr = arr.astype(float)
            else:
                arr = np.array([None if v is None else str(v) for v in arr], dtype=object)
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ModelError(f"column '{name}' has length {arr.shape[0]}, expected {n}")
            self.columns[name] = arr
        if n is None or n < 1:
            raise ModelError("data table needs at least one row")
        self.n_rows = n
        self.group_column = group_column
        if group_column is not None and group_column not in self.columns:
            raise ModelError(f"group column '{group_column}' not in data")

    def has(self, name):
        return name in self.columns

    def numeric(self, name, allow_missing=False):
        if name not in self.columns:
            raise ModelError(f"unknown column '{name}'")
        col = self.columns[name]
        if col.dtype == object:
            raise ModelError(f"column '{name}' is not numeric")
        if not allow_missing and np.isnan(col).any():
            raise ModelError(f"column '{name}' contains missing values")
        return col

    def labels(self, name):
        """Column values canonicalized to strings (integral floats unpadded)."""
        if name not in self.columns:
            raise ModelError(f"unknown column '{name}'")
        col = self.columns[name]
        if col.dtype == object:
            if any(v is None for v in col):
                raise ModelError(f"column '{name}' contains missing values")
            return [canonical_label(v) for v in col]
        if np.isnan(col).any():
            raise ModelError(f"column '{name}' contains missing values")
        return [canonical_label(v) for v in col]


def canonical_label(value):
    if isinstance(value, str):
        s = value.strip()
        try:
            f = float(s)
        except ValueError:
            return s
        return canonical_label(f)
    f = float(value)
    if math.isfinite(f) and f == int(f):
        return str(int(f))
    return repr(f)


def read_data_csv(path):
    """CSV with a header row; the missing marker is the literal token NA."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines:
        raise ModelError(f"empty data file: {path}")
    header = [h.strip() for h in lines[0].split(",")]
    raw = {h: [] for h in header}
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != len(header):
            raise ModelError(f"row with {len(parts)} fields, expected {len(header)}: {ln!r}")
        for h, p in zip(header, parts):
            raw[h].append(p)
    columns = {}
    for h in header:
        vals = raw[h]
        numeric = True
        for v in vals:
            if v == "NA":
                continue
            try:
                float(v)
            except ValueError:
                numeric = False
                break
        if numeric:
            columns[h] = np.array([np.nan if v == "NA" else float(v) for v in vals])
        else:
            columns[h] = np.array([None if v == "NA" else v for v in vals], dtype=object)
    return DataTable(columns)


class AdjacencyGraph:
    """Undirected neighbor structure over labelled nodes."""

    def __init__(self, labels, neighbors):
        self.labels = [canonical_label(l) for l in labels]
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("duplicate node ids in adjacency graph")
        self.index = {l: i for i, l in enumerate(self.labels)}
        self.n_nodes = len(self.labels)
        self.neighbors = []
        for i, nb in enumerate(neighbors):
            idx = sorted(set(int(j) for j in nb))
            if i in idx:
                raise ModelError(f"self loop at node '{self.labels[i]}'")
            self.neighbors.append(np.array(idx, dtype=np.int64))
        for i in range(self.n_nodes):
            for j in self.neighbors[i]:
                if j < 0 or j >= self.n_nodes:
                    raise ModelError(f"neighbor index {j} out of range")
                if i not in self.neighbors[j]:
                    raise ModelError(
                        f"adjacency not symmetric: '{self.labels[i]}' lists "
                        f"'{self.labels[j]}' but not vice versa")
        self.degrees = np.array([len(nb) for nb in self.neighbors], dtype=np.int64)
        self.components = self._components()

    def _components(self):
        comp = -np.ones(self.n_nodes, dtype=np.int64)
        c = 0
        for start in range(self.n_nodes):
            if comp[start] >= 0:
                continue
            stack = [start]
            comp[start] = c
            while stack:
                v = stack.pop()
                for u in self.neighbors[v]:
                    if comp[u] < 0:
                        comp[u] = c
                        stack.append(int(u))
            c += 1
        return comp

    @property
    def n_components(self):
        return int(self.components.max()) + 1


def read_adjacency(path):
    """One line per node: 'node_id: neighbor ids' (whitespace-separated)."""
    labels = []
    nbr_tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if ":" not in ln:
                raise ModelError(f"malformed adjacency line: {ln!r}")
            head, tail = ln.split(":", 1)
            labels.append(canonical_label(head))
            nbr_tokens.append([canonical_label(t) for t in tail.split()])
    index = {l: i for i, l in enumerate(labels)}
    neighbors = []
    for toks in nbr_tokens:
        try:
            neighbors.append([index[t] for t in toks])
        except KeyError as e:
            raise ModelError(f"adjacency references unknown node {e.args[0]!r}") from None
    return AdjacencyGraph(labels, neighbors)


# ---------------------------------------------------------------------------
# hyperparameter priors (internal scale: log precision, atanh correlation)


class LogGammaPrior:
    """Gamma(a, b) on a precision, expressed on the log-precision scale."""

    n_slots = 1

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise ModelError(f"gamma prior needs positive parameters, got ({a}, {b})")
        self.a = float(a)
        self.b = float(b)

    def log_density(self, theta):
        th = float(theta[0])
        return self.a * math.log(self.b) - math.lgamma(self.a) + self.a * th - self.b * math.exp(th)


class Wishart2dPrior:
    """Wishart(R, df) on a 2x2 precision, internal scale (logprec, logprec, atanh rho)."""

    n_slots = 3

    def __init__(self, r_matrix, df):
        r = np.asarray(r_matrix, dtype=float).reshape(2, 2)
        if not np.allclose(r, r.T):
            raise ModelError("wishart scale matrix must be symmetric")
        if np.linalg.eigvalsh(r).min() <= 0:
            raise ModelError("wishart scale matrix must be positive definite")
        if df <= 1:
            raise ModelError(f"wishart df must exceed 1, got {df}")
        self.r = 0.5 * (r + r.T)
        self.df = float(df)

    def log_density(self, theta):
        return _wishart2d_scalar(self.r, self.df, theta)


class GaussianThetaPrior:
    """Moment-matched Gaussian over the full internal hyperparameter vector.

    This is the carrier used when a hyperparameter posterior from one run is
    recycled as the prior of another.
    """

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        d = self.mean.size
        self.cov = np.asarray(cov, dtype=float).reshape(d, d)
        if d:
            self._chol = np.linalg.cholesky(self.cov)
            self._log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))

    @property
    def dim(self):
        return self.mean.size

    def log_density(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.dim:
            raise ModelError(f"theta has dim {theta.size}, prior expects {self.dim}")
        if self.dim == 0:
            return 0.0
        z = np.linalg.solve(self._chol, theta - self.mean)
        return float(-0.5 * (self.dim * math.log(2 * math.pi) + self._log_det + z @ z))


class FixedPrecision:
    """Pins a precision-type hyperparameter to a known value (no theta slot)."""

    n_slots = 0

    def __init__(self, value):
        if value <= 0:
            raise ModelError(f"fixed precision must be positive, got {value}")
        self.value = float(value)


class FixedOmega:
    """Pins the 2x2 precision of a paired block to a known matrix."""

    n_slots = 0

    def __init__(self, omega):
        w = np.asarray(omega, dtype=float).reshape(2, 2)
        if not np.allclose(w, w.T) or np.linalg.eigvalsh(w).min() <= 0:
            raise ModelError("fixed 2x2 precision must be symmetric positive definite")
        self.omega = 0.5 * (w + w.T)


def _omega_from_internal(theta3):
    t1, t2, t3 = theta3[..., 0], theta3[..., 1], theta3[..., 2]
    ch = np.cosh(t3)
    sh = np.sinh(t3)
    w11 = np.exp(t1) * ch * ch
    w22 = np.exp(t2) * ch * ch
    w12 = -np.exp(0.5 * (t1 + t2)) * sh * ch
    return w11, w22, w12


def _wishart2d_scalar(r, df, theta):
    """Scalar fast path of wishart2d_internal (same math, stdlib only)."""
    t1, t2, t3 = float(theta[0]), float(theta[1]), float(theta[2])
    if max(abs(t1), abs(t2), abs(t3)) > 300.0:
        return -math.inf
    ch = math.cosh(t3)
    sh = math.sinh(t3)
    e1 = math.exp(t1)
    e2 = math.exp(t2)
    e12 = math.exp(0.5 * (t1 + t2))
    w11 = e1 * ch * ch
    w22 = e2 * ch * ch
    w12 = -e12 * sh * ch
    log_det_w = t1 + t2 + 2.0 * math.log(ch)
    trace = r[0, 0] * w11 + r[1, 1] * w22 + 2.0 * r[0, 1] * w12
    det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    a = 0.5 * df
    log_gamma2 = 0.5 * math.log(math.pi) + math.lgamma(a) + math.lgamma(a - 0.5)
    log_pdf = (0.5 * (df - 3.0) * log_det_w - 0.5 * trace
               + 0.5 * df * math.log(det_r) - df * math.log(2.0) - log_gamma2)
    # closed-form 3x3 Jacobian determinant of the internal transform
    j13 = 2.0 * e1 * ch * sh
    j23 = 2.0 * e2 * ch * sh
    j33 = -e12 * math.cosh(2.0 * t3)
    det_j = (w11 * (w22 * j33 - j23 * 0.5 * w12)
             + j13 * (-w22 * 0.5 * w12))
    out = log_pdf + math.log(abs(det_j))
    return out if math.isfinite(out) else -math.inf


def wishart2d_internal(r_matrix, df, theta):
    """Log prior density of the internal parameters of a 2x2 precision.

    The precision carries a Wishart(R, df) prior with density proportional to
    |W|^((df-3)/2) exp(-tr(R W)/2); the internal scale is the log of the two
    marginal precisions of W^-1 plus atanh of its correlation, and the
    returned value includes the log Jacobian of that transform.  Accepts a
    trailing-axis-3 array of internal points and broadcasts.
    """
    r = np.asarray(r_matrix, dtype=float).reshape(2, 2)
    if not np.allclose(r, r.T):
        raise ModelError("wishart scale matrix must be symmetric")
    if np.linalg.eigvalsh(r).min() <= 0:
        raise ModelError("wishart scale matrix must be positive definite")
    if df <= 1:
        raise ModelError(f"wishart df must exceed 1, got {df}")
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 1
    th = np.atleast_2d(theta)
    if th.shape[-1] != 3:
        raise ModelError("internal wishart parameter must have 3 components")
    with np.errstate(over="ignore", invalid="ignore"):
        t1, t2, t3 = th[..., 0], th[..., 1], th[..., 2]
        w11, w22, w12 = _omega_from_internal(th)
        log_det_w = t1 + t2 + 2.0 * np.log(np.cosh(t3))
        trace = r[0, 0] * w11 + r[1, 1] * w22 + 2.0 * r[0, 1] * w12
        sign_r, log_det_r = np.linalg.slogdet(r)
        a = 0.5 * df
        log_gamma2 = 0.5 * math.log(math.pi) + math.lgamma(a) + math.lgamma(a - 0.5)
        log_pdf = (0.5 * (df - 3.0) * log_det_w - 0.5 * trace
                   + 0.5 * df * log_det_r - df * math.log(2.0) - log_gamma2)
        jac = np.zeros(th.shape[:-1] + (3, 3))
        ch, sh = np.cosh(t3), np.sinh(t3)
        jac[..., 0, 0] = w11
        jac[..., 0, 2] = 2.0 * np.exp(t1) * ch * sh
        jac[..., 1, 1] = w22
        jac[..., 1, 2] = 2.0 * np.exp(t2) * ch * sh
        jac[..., 2, 0] = 0.5 * w12
        jac[..., 2, 1] = 0.5 * w12
        jac[..., 2, 2] = -np.exp(0.5 * (t1 + t2)) * np.cosh(2.0 * t3)
        det_j = np.linalg.det(jac)
        out = log_pdf + np.log(np.abs(det_j))
    out = np.where(np.isfinite(out), out, -np.inf)
    if scalar:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# effect blocks


class Intercept:
    kind = "intercept"

    def __init__(self, precision=DEFAULT_FIXED_EFFECT_PRECISION, name="intercept"):
        if precision <= 0:
            raise ModelError("intercept prior precision must be positive")
        self.precision = float(precision)
        self.name = name
        self.prior = None

    def resolve(self, data):
        self.size = 1

    def design(self, data):
        n = data.n_rows
        return np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n)

    def labels(self):
        return [self.name]


class Fixed:
    kind = "fixed"

    def __init__(self, covariate, precision=DEFAULT_FIXED_EFFECT_PRECISION, name=None):
        if precision <= 0:
            raise ModelError("fixed-effect prior precision must be positive")
        self.covariate = covariate
        self.precision = float(precision)
        self.name = name or covariate
        self.prior = None

    def resolve(self, data):
        data.numeric(self.covariate)
        self.size = 1

    def design(self, data):
        z = data.numeric(self.covariate)
        n = data.n_rows
        return np.arange(n), np.zeros(n, dtype=np.int64), z.copy()

    def labels(self):
        return [self.name]


class Iid:
    """Exchangeable effects indexed by a grouping column, one shared precision."""

    kind = "iid"

    def __init__(self, index, prior=None, name=None):
        self.index = index
        self.prior = prior if prior is not None else LogGammaPrior(1.0, 5e-5)
        self.name = name or f"iid_{index}"

    def resolve(self, data):
        labels = data.labels(self.index)
        self.levels = list(dict.fromkeys(labels))
        self.level_of = {l: k for k, l in enumerate(self.levels)}
        self.row_level = np.array([self.level_of[l] for l in labels], dtype=np.int64)
        self.size = len(self.levels)

    def design(self, data):
        n = data.n_rows
        return np.arange(n), self.row_level.copy(), np.ones(n)

    def labels(self):
        return [f"{self.name}[{l}]" for l in self.levels]


class Iid2d:
    """Per-unit (intercept, slope) pairs with a joint 2x2 precision.

    Coordinates are interleaved: unit k owns positions (2k, 2k+1); the first
    slot loads with coefficient 1, the second with the slope covariate.
    """

    kind = "iid2d"

    def __init__(self, index, slope, prior=None, name=None):
        self.index = index
        self.slope = slope
        self.prior = prior if prior is not None else Wishart2dPrior(np.eye(2), 4.0)
        self.name = name or f"iid2d_{index}"

    def resolve(self, data):
        labels = data.labels(self.index)
        data.numeric(self.slope)
        self.levels = list(dict.fromkeys(labels))
        self.level_of = {l: k for k, l in enumerate(self.levels)}
        self.row_level = np.array([self.level_of[l] for l in labels], dtype=np.int64)
        self.size = 2 * len(self.levels)

    def design(self, data):
        n = data.n_rows
        z = data.numeric(self.slope)
        rows = np.repeat(np.arange(n), 2)
        cols = np.empty(2 * n, dtype=np.int64)
        cols[0::2] = 2 * self.row_level
        cols[1::2] = 2 * self.row_level + 1
        vals = np.empty(2 * n)
        vals[0::2] = 1.0
        vals[1::2] = z
        return rows, cols, vals

    def labels(self):
        out = []
        for l in self.levels:
            out.append(f"{self.name}[{l}]:0")
            out.append(f"{self.name}[{l}]:1")
        return out


class Besag:
    """Intrinsic CAR effect on a graph; improper, sum-to-zero per component."""

    kind = "besag"

    def __init__(self, index, graph, prior=None, name=None):
        if graph is None:
            raise ModelError(f"besag block on '{index}' requires an adjacency graph")
        self.index = index
        self.graph = graph
        self.prior = prior if prior is not None else LogGammaPrior(1.0, 5e-5)
        self.name = name or f"besag_{index}"

    def resolve(self, data):
        labels = data.labels(self.index)
        missing = [l for l in labels if l not in self.graph.index]
        if missing:
            raise ModelError(
                f"index column '{self.index}' has values not in the adjacency "
                f"graph: {sorted(set(missing))[:5]}")
        self.row_level = np.array([self.graph.index[l] for l in labels], dtype=np.int64)
        self.size = self.graph.n_nodes

    def design(self, data):
        n = data.n_rows
        return np.arange(n), self.row_level.copy(), np.ones(n)

    def labels(self):
        return [f"{self.name}[{l}]" for l in self.graph.labels]

    def structure_coo(self):
        """Lower triangle of the iCAR structure matrix (degrees, -1 neighbors)."""
        g = self.graph
        rows = list(range(g.n_nodes))
        cols = list(range(g.n_nodes))
        vals = [float(d) for d in g.degrees]
        for i in range(g.n_nodes):
            for j in g.neighbors[i]:
                if j < i:
                    rows.append(i)
                    cols.append(int(j))
                    vals.append(-1.0)
        return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                np.array(vals))


# ---------------------------------------------------------------------------
# likelihoods


class LikelihoodFamily:
    """Observation family: gaussian (identity link) or poisson (log link)."""

    def __init__(self, kind, prec_prior=None, offset=None):
        if kind not in ("gaussian", "poisson"):
            raise ModelError(f"unknown likelihood '{kind}'")
        self.kind = kind
        self.offset = offset
        if kind == "gaussian":
            self.prec_prior = prec_prior if prec_prior is not None else LogGammaPrior(1.0, 5e-5)
        else:
            if prec_prior is not None:
                raise ModelError("poisson likelihood has no precision parameter")
            self.prec_prior = None

    @property
    def link(self):
        return "identity" if self.kind == "gaussian" else "log"

    def validate_response(self, y):
        obs = ~np.isnan(y)
        if self.kind == "poisson":
            vals = y[obs]
            if np.any(vals < 0) or np.any(vals != np.round(vals)):
                raise ModelError("poisson responses must be non-negative integers")
        else:
            if not np.all(np.isfinite(y[obs])):
                raise ModelError("gaussian responses must be finite")


class ModelSpec:
    """Declarative model: likelihood, response column, effect blocks, data."""

    def __init__(self, likelihood, response, blocks, data, group=None, theta_prior=None):
        self.likelihood = likelihood
        self.response = response
        self.blocks = list(blocks)
        self.data = data
        self.group = group if group is not None else data.group_column
        self.theta_prior = theta_prior


# ---------------------------------------------------------------------------
# compiled model


class _Stamp:
    __slots__ = ("pos", "base", "mult", "infer_only")

    def __init__(self, pos, base, mult, infer_only):
        self.pos = pos
        self.base = base
        self.mult = mult
        self.infer_only = infer_only


class _Slot:
    __slots__ = ("name", "prior", "sl")

    def __init__(self, name, prior, sl):
        self.name = name
        self.prior = prior
        self.sl = sl


class CompiledModel:
    """Assembler for the block-coordinate prior precision and likelihood terms."""

    def __init__(self, spec):
        data = spec.data
        self.spec = spec
        self.n_rows = data.n_rows
        y = data.columns.get(spec.response)
        if y is None:
            raise ModelError(f"unknown response column '{spec.response}'")
        if y.dtype == object:
            raise ModelError(f"response column '{spec.response}' is not numeric")
        spec.likelihood.validate_response(y)
        self.response = y.astype(float)
        self._base_observed = ~np.isnan(self.response)
        self._extra_mask = np.zeros(self.n_rows, dtype=bool)
        self._obs_cache = None

        if spec.likelihood.kind == "poisson":
            if spec.likelihood.offset is not None:
                e = data.numeric(spec.likelihood.offset)
                if np.any(e <= 0):
                    raise ModelError(
                        f"offset column '{spec.likelihood.offset}' must be positive")
                self.exposure = e.astype(float)
            else:
                self.exposure = np.ones(self.n_rows)
        else:
            self.exposure = None

        # resolve blocks and lay out the latent field: eta first, then blocks
        offset = self.n_rows
        self.block_offsets = []
        for blk in spec.blocks:
            blk.resolve(data)
            self.block_offsets.append(offset)
            offset += blk.size
        self.latent_dim = offset

        # hyperparameter slots: likelihood precision first, then block priors
        self.slots = []
        pos = 0
        if spec.likelihood.kind == "gaussian" and not isinstance(
                spec.likelihood.prec_prior, FixedPrecision):
            self.slots.append(_Slot("data_precision", spec.likelihood.prec_prior,
                                    slice(pos, pos + 1)))
            pos += 1
        for blk in spec.blocks:
            prior = blk.prior
            if prior is None or prior.n_slots == 0:
                continue
            self.slots.append(_Slot(blk.name, prior, slice(pos, pos + prior.n_slots)))
            pos += prior.n_slots
        self.dim_theta = pos
        if self.dim_theta > MAX_THETA_DIM:
            raise ModelError(
                f"model has {self.dim_theta} hyperparameters; at most {MAX_THETA_DIM} supported")
        self._theta_prior = spec.theta_prior
        if self._theta_prior is not None and self._theta_prior.dim != self.dim_theta:
            raise ModelError("replacement hyperprior has wrong dimension")

        self._assemble(data)

    # -- assembly ----------------------------------------------------------

    def _assemble(self, data):
        """Block-coordinate prior stamps, design products and constraints.

        The predictor coordinates are tied to their additive decomposition
        with precision kappa; inference eliminates them in closed form, so
        only the block coordinates z are assembled here.  The tied joint has
        log determinant n_rows * log(kappa) plus that of the z prior.
        """
        n = self.n_rows
        zdim = self.z_dim
        z_offsets = [off - n for off in self.block_offsets]

        # design entries per data row, block-coordinate columns
        drows_all = []
        zcols_all = []
        dvals_all = []
        for blk, off in zip(self.spec.blocks, z_offsets):
            dr, dc, dv = blk.design(data)
            drows_all.append(dr)
            zcols_all.append(dc + off)
            dvals_all.append(dv)
        if drows_all:
            drows = np.concatenate(drows_all)
            zcols = np.concatenate(zcols_all)
            dvals = np.concatenate(dvals_all)
        else:
            drows = np.zeros(0, dtype=np.int64)
            zcols = np.zeros(0, dtype=np.int64)
            dvals = np.zeros(0)

        # block prior contributions: constants now, theta-scaled ones as stamps
        stamp_specs = []  # (rows, cols, base, mult, infer_only)
        constraint_rows = []
        self._prior_logdet_const = n * math.log(TIE_PRECISION)
        self._prior_logdet_terms = []  # callables theta -> contribution
        for blk, off in zip(self.spec.blocks, z_offsets):
            if blk.kind in ("intercept", "fixed"):
                self._prior_logdet_const += math.log(blk.precision)
            elif blk.kind == "iid":
                idx = off + np.arange(blk.size)
                mult = self._precision_mult(blk)
                stamp_specs.append((idx, idx, np.ones(blk.size), mult, False))
                self._prior_logdet_terms.append(
                    lambda th, m=blk.size, f=mult: m * math.log(f(th)))
            elif blk.kind == "iid2d":
                m = blk.size // 2
                even = off + 2 * np.arange(m)
                odd = even + 1
                if isinstance(blk.prior, FixedOmega):
                    w = blk.prior.omega
                    f11 = lambda th, v=w[0, 0]: v
                    f22 = lambda th, v=w[1, 1]: v
                    f12 = lambda th, v=w[0, 1]: v
                    ld = math.log(np.linalg.det(w))
                    self._prior_logdet_const += m * ld
                else:
                    s0 = self._slot_for(blk.name).sl.start

                    def f11(th, s=s0):
                        ch = math.cosh(th[s + 2])
                        return math.exp(th[s]) * ch * ch

                    def f22(th, s=s0):
                        ch = math.cosh(th[s + 2])
                        return math.exp(th[s + 1]) * ch * ch

                    def f12(th, s=s0):
                        t3 = th[s + 2]
                        return (-math.exp(0.5 * (th[s] + th[s + 1]))
                                * math.sinh(t3) * math.cosh(t3))

                    self._prior_logdet_terms.append(
                        lambda th, s=s0, mm=m: mm * (
                            th[s] + th[s + 1] + 2.0 * math.log(math.cosh(th[s + 2]))))
                ones = np.ones(m)
                stamp_specs.append((even, even, ones, f11, False))
                stamp_specs.append((odd, odd, ones, f22, False))
                stamp_specs.append((odd, even, ones, f12, False))
            elif blk.kind == "besag":
                kr, kc, kv = blk.structure_coo()
                mult = self._precision_mult(blk)
                stamp_specs.append((kr + off, kc + off, kv, mult, False))
                idx = off + np.arange(blk.size)
                stamp_specs.append((idx, idx, np.full(blk.size, BESAG_JITTER), mult, True))
                # structure determinant with the inference jitter, fixed over theta
                kdense = np.zeros((blk.size, blk.size))
                kdense[kr, kc] = kv
                kdense = kdense + np.tril(kdense, -1).T + BESAG_JITTER * np.eye(blk.size)
                sign, ldk = np.linalg.slogdet(kdense)
                self._prior_logdet_terms.append(
                    lambda th, m=blk.size, f=mult, c=float(ldk): m * math.log(f(th)) + c)
                for comp in range(blk.graph.n_components):
                    row = np.zeros(zdim)
                    row[idx[blk.graph.components == comp]] = 1.0
                    constraint_rows.append(row)
            else:
                raise ModelError(f"unknown block kind '{blk.kind}'")
        if constraint_rows:
            self.z_constraints = np.vstack(constraint_rows)
        else:
            self.z_constraints = np.zeros((0, zdim))

        self._a_dense = np.zeros((n, zdim))
        np.add.at(self._a_dense, (drows, zcols), dvals)

        # per-row products of design pairs, for A' diag(w) A and a_i' S a_i
        pr_row, pr_ci, pr_cj, pr_vv = [], [], [], []
        order = np.argsort(drows, kind="stable")
        sorted_rows = drows[order]
        bounds = np.searchsorted(sorted_rows, np.arange(n + 1))
        for r in range(n):
            sl = order[bounds[r]:bounds[r + 1]]
            for a in range(sl.size):
                ca, va = zcols[sl[a]], dvals[sl[a]]
                for b in range(a, sl.size):
                    cb, vb = zcols[sl[b]], dvals[sl[b]]
                    pr_row.append(r)
                    pr_ci.append(max(ca, cb))
                    pr_cj.append(min(ca, cb))
                    pr_vv.append(va * vb)
        pr_row = np.array(pr_row, dtype=np.int64)
        pr_ci = np.array(pr_ci, dtype=np.int64)
        pr_cj = np.array(pr_cj, dtype=np.int64)
        pr_vv = np.array(pr_vv)

        # lower-triangle pattern: prior stamps plus the A'A pattern
        zr = [pr_ci] + [np.asarray(s[0], dtype=np.int64) for s in stamp_specs]
        zc = [pr_cj] + [np.asarray(s[1], dtype=np.int64) for s in stamp_specs]
        zr.append(np.arange(zdim))  # keep the full diagonal present
        zc.append(np.arange(zdim))
        all_r = np.concatenate(zr)
        all_c = np.concatenate(zc)
        codes = np.minimum(all_r, all_c) * max(zdim, 1) + np.maximum(all_r, all_c)
        uniq = np.unique(codes)
        self._z_rows = uniq % max(zdim, 1)
        self._z_indptr = np.zeros(zdim + 1, dtype=np.int64)
        np.add.at(self._z_indptr, uniq // max(zdim, 1) + 1, 1)
        np.cumsum(self._z_indptr, out=self._z_indptr)

        def zpos(r, c):
            return np.searchsorted(uniq, np.minimum(r, c) * max(zdim, 1) + np.maximum(r, c))

        zconst = np.zeros(uniq.size)
        for blk, off in zip(self.spec.blocks, z_offsets):
            if blk.kind in ("intercept", "fixed"):
                zconst[zpos(np.array([off]), np.array([off]))] += blk.precision
        self._z_const_data = zconst
        self._z_stamps = []
        for r, c, base, mult, infer_only in stamp_specs:
            self._z_stamps.append(_Stamp(zpos(np.asarray(r), np.asarray(c)),
                                         np.asarray(base, dtype=float), mult, infer_only))
        self._pair_row = pr_row
        self._pair_ci = pr_ci
        self._pair_cj = pr_cj
        self._pair_pos = zpos(pr_ci, pr_cj)
        self._pair_vv = pr_vv
        self._pair_offdiag = (pr_ci != pr_cj)
        self._z_ordering = None
        # shared instance so structure caches survive across evaluations
        self._z_template = SparseSymmetric(zdim, self._z_indptr, self._z_rows,
                                           np.zeros(uniq.size))

    def _precision_mult(self, blk):
        if isinstance(blk.prior, FixedPrecision):
            return lambda th, v=blk.prior.value: v
        sl = self._slot_for(blk.name).sl
        return lambda th, s=sl: math.exp(float(th[s][0]))

    def _slot_for(self, name):
        for s in self.slots:
            if s.name == name:
                return s
        raise ModelError(f"no hyperparameter slot named '{name}'")

    # -- public assembly surface -------------------------------------------

    @property
    def observed(self):
        if self._obs_cache is None:
            obs = self._base_observed & ~self._extra_mask
            idx = np.where(obs)[0]
            y = self.response[idx]
            exposure = None
            pois_const = 0.0
            if self.exposure is not None:
                exposure = self.exposure[idx]
                pois_const = float(np.sum(y * np.log(exposure)
                                          - _gammaln_vec(y + 1.0)))
            self._obs_cache = (obs, idx, y, exposure, pois_const)
        return self._obs_cache[0]

    @property
    def _obs(self):
        self.observed
        return self._obs_cache

    @property
    def n_constraints(self):
        return self.z_constraints.shape[0]

    @property
    def z_dim(self):
        return self.latent_dim - self.n_rows

    @property
    def design(self):
        """Dense (n_rows, z_dim) map from block coordinates to the predictor."""
        return self._a_dense

    def theta_names(self):
        out = []
        for s in self.slots:
            if s.prior.n_slots == 1:
                out.append(s.name)
            else:
                out.extend(f"{s.name}[{k}]" for k in range(s.prior.n_slots))
        return out

    def latent_labels(self):
        labels = [f"eta[{i}]" for i in range(self.n_rows)]
        for blk in self.spec.blocks:
            labels.extend(blk.labels())
        return labels

    def _check_theta(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.dim_theta:
            raise ModelError(f"theta has dim {theta.size}, expected {self.dim_theta}")
        return theta

    def prior_log_det(self, theta):
        """log det of the (jittered) tied joint prior precision, in closed form:
        n_rows * log(kappa) plus the log determinant of ``z_prior``."""
        theta = self._check_theta(theta)
        out = self._prior_logdet_const
        for term in self._prior_logdet_terms:
            out += term(theta)
        return out

    # -- block-space (eta eliminated) assembly -------------------------------

    def z_ordering(self):
        if self._z_ordering is None:
            self._z_ordering = min_degree_ordering(
                self.z_dim, self._z_indptr, self._z_rows)
        return self._z_ordering

    def _z_data(self, theta, inference=True):
        data = self._z_const_data.copy()
        for st in self._z_stamps:
            if st.infer_only and not inference:
                continue
            data[st.pos] += st.mult(theta) * st.base
        return data

    def z_prior(self, theta, inference=True):
        """Block-coordinate prior precision (the tied joint has determinant
        kappa^n_rows times this one's).

        With inference=False it is exactly the specified prior: improper
        blocks keep their zero row sums.  The inference view adds a tiny
        relative jitter to keep factorizations well posed.
        """
        theta = self._check_theta(theta)
        return self._z_template.with_data(self._z_data(theta, inference))

    def z_posterior_precision(self, theta, weights):
        """Block prior plus A' diag(weights) A for per-row weights."""
        theta = self._check_theta(theta)
        data = self._z_data(theta, inference=True)
        np.add.at(data, self._pair_pos, weights[self._pair_row] * self._pair_vv)
        return self._z_template.with_data(data)

    def design_quad_diag(self, sigma_z):
        """Per-row a_i' S a_i for a dense block-space matrix S."""
        vals = self._pair_vv * sigma_z[self._pair_ci, self._pair_cj]
        out = np.zeros(self.n_rows)
        np.add.at(out, self._pair_row,
                  vals * np.where(self._pair_offdiag, 2.0, 1.0))
        return out

    # -- likelihood terms ---------------------------------------------------

    def log_prior_theta(self, theta):
        theta = self._check_theta(theta)
        if self._theta_prior is not None:
            return self._theta_prior.log_density(theta)
        out = 0.0
        for s in self.slots:
            out += s.prior.log_density(theta[s.sl])
        return out

    def _gaussian_precision(self, theta):
        p = self.spec.likelihood.prec_prior
        if isinstance(p, FixedPrecision):
            return p.value
        return math.exp(float(theta[self._slot_for("data_precision").sl][0]))

    def log_likelihood(self, eta, theta):
        """Sum of observation log densities at predictor values eta (full length)."""
        _, idx, y, ex, pois_const = self._obs
        if idx.size == 0:
            return 0.0
        e = eta[:self.n_rows][idx]
        if self.spec.likelihood.kind == "gaussian":
            tau = self._gaussian_precision(theta)
            resid = y - e
            return float(0.5 * idx.size * (math.log(tau) - math.log(2 * math.pi))
                         - 0.5 * tau * float(resid @ resid))
        with np.errstate(over="ignore"):
            mean = ex * np.exp(e)
        ll = float(y @ e) - float(mean.sum()) + pois_const
        return ll if math.isfinite(ll) else -math.inf

    def likelihood_grad_curv(self, eta, theta):
        """Gradient and negative second derivative of the log likelihood wrt
        each observed predictor coordinate (zeros elsewhere)."""
        g = np.zeros(self.n_rows)
        c = np.zeros(self.n_rows)
        _, idx, y, ex, _ = self._obs
        if idx.size == 0:
            return g, c
        e = eta[:self.n_rows][idx]
        if self.spec.likelihood.kind == "gaussian":
            tau = self._gaussian_precision(theta)
            g[idx] = tau * (y - e)
            c[idx] = tau
        else:
            with np.errstate(over="ignore"):
                mean = ex * np.exp(e)
            mean = np.where(np.isfinite(mean), mean, 1e300)
            g[idx] = y - mean
            c[idx] = mean
        return g, c

    # -- derived models ------------------------------------------------------

    def _light_copy(self):
        out = CompiledModel.__new__(CompiledModel)
        out.__dict__.update(self.__dict__)
        return out

    def mask_rows(self, rows):
        """Treat the listed responses as missing; latent layout unchanged."""
        rows = np.asarray(list(rows), dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ModelError("mask index out of range")
        out = self._light_copy()
        out._extra_mask = self._extra_mask.copy()
        out._extra_mask[rows] = True
        out._obs_cache = None
        return out

    def with_theta_prior(self, gaussian_prior):
        """Replace all hyperpriors by a joint Gaussian on the internal scale."""
        if gaussian_prior.dim != self.dim_theta:
            raise ModelError("replacement hyperprior has wrong dimension")
        out = self._light_copy()
        out._theta_prior = gaussian_prior
        return out


def _gammaln_vec(x):
    return np.vectorize(math.lgamma, otypes=[float])(x)


def build_model(spec):
    """Compile a ModelSpec into a precision assembler plus likelihood closure."""
    return CompiledModel(spec)


# ---------------------------------------------------------------------------
# model spec files


def _prior_from_json(obj, context):
    kind = obj.get("type")
    if kind == "loggamma":
        return LogGammaPrior(obj["a"], obj["b"])
    if kind == "wishart2d":
        return Wishart2dPrior(np.asarray(obj["R"], dtype=float), obj["df"])
    if kind == "fixed":
        if "omega" in obj:
            return FixedOmega(np.asarray(obj["omega"], dtype=float))
        return FixedPrecision(obj["value"])
    if kind == "gaussian":
        return GaussianThetaPrior(np.asarray(obj["mean"], dtype=float),
                                  np.asarray(obj["cov"], dtype=float))
    raise ModelError(f"unknown prior type {kind!r} for {context}")


def read_model_json(path, data):
    """Parse a declarative model document against an already-loaded table.

    Keys: likelihood, response, offset, effects[], priors{}, group.  Priors
    are keyed by effect name ('data_precision' for the gaussian noise; the
    reserved key 'theta' holds a joint gaussian replacement prior).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(path))
    for key in ("likelihood", "response", "effects"):
        if key not in doc:
            raise ModelError(f"model file missing required key '{key}'")
    priors = doc.get("priors", {})
    used = set()

    def prior_for(name):
        if name in priors:
            used.add(name)
            return _prior_from_json(priors[name], name)
        return None

    offset = doc.get("offset")
    if doc["likelihood"] == "gaussian" and offset is not None:
        raise ModelError("gaussian likelihood takes no offset column")
    lik = LikelihoodFamily(doc["likelihood"], prec_prior=prior_for("data_precision"),
                           offset=offset)

    blocks = []
    for i, eff in enumerate(doc["effects"]):
        etype = eff.get("type")
        name = eff.get("name")
        if etype == "intercept":
            blocks.append(Intercept(precision=eff.get("precision",
                                                      DEFAULT_FIXED_EFFECT_PRECISION),
                                    name=name or "intercept"))
        elif etype == "fixed":
            if "covariate" not in eff:
                raise ModelError(f"effects[{i}]: fixed effect needs a covariate")
            blocks.append(Fixed(eff["covariate"],
                                precision=eff.get("precision", DEFAULT_FIXED_EFFECT_PRECISION),
                                name=name))
        elif etype == "iid":
            blk = Iid(eff["index"], name=name)
            p = prior_for(blk.name)
            if p is not None:
                blk.prior = p
            blocks.append(blk)
        elif etype == "iid2d":
            blk = Iid2d(eff["index"], eff["slope"], name=name)
            p = prior_for(blk.name)
            if p is not None:
                blk.prior = p
            blocks.append(blk)
        elif etype == "besag":
            if "adjacency" not in eff:
                raise ModelError(f"effects[{i}]: besag effect needs an adjacency file")
            gpath = eff["adjacency"]
            if not os.path.isabs(gpath):
                gpath = os.path.join(base_dir, gpath)
            graph = read_adjacency(gpath)
            blk = Besag(eff["index"], graph, name=name)
            p = prior_for(blk.name)
            if p is not None:
                blk.prior = p
            blocks.append(blk)
        else:
            raise ModelError(f"effects[{i}]: unknown effect type {etype!r}")

    names = [b.name for b in blocks]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate effect names: {names}")
    theta_prior = None
    if "theta" in priors:
        used.add("theta")
        theta_prior = _prior_from_json(priors["theta"], "theta")
        if not isinstance(theta_prior, GaussianThetaPrior):
            raise ModelError("the 'theta' prior must be of type gaussian")
    unknown = set(priors) - used
    if unknown:
        raise ModelError(f"priors listed for unknown effects: {sorted(unknown)}")

    return ModelSpec(lik, doc["response"], blocks, data,
                     group=doc.get("group"), theta_prior=theta_prior)
