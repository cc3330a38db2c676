"""Declarative latent Gaussian models and their block-space prior assembler.

A model is a likelihood plus an ordered list of additive effect blocks over a
data table.  The latent field is laid out as the per-row linear predictor
first, followed by the block coefficients; the predictor coordinates are tied
to the sum of their block contributions by a large fixed precision so that
joint posteriors of predictor subsets are well defined.  Inference eliminates
the predictor through that tie, so the compiled model assembles only the
block-coordinate prior precision, as a dense symmetric array, and the design;
the full field remains the layout in which results are reported.

Each effect block owns its prior: it lists its prior precision entries in
block coordinates, scales them at its own slice of the hyperparameter
vector, and gives its linear constraints and, in closed form, its log
determinant on their null space.  A prior of the wrong type for its block
is rejected when the model is compiled.

Compiled models are immutable plain data (arrays, the spec objects and
theta slices, no function objects), so they pickle; masking responses or
swapping the hyperparameter prior returns cheap copies sharing the
assembled structure.
"""

import itertools
import json
import math
import os

import numpy as np

TIE_PRECISION = 1e9
BESAG_JITTER = 1e-7
DEFAULT_FIXED_EFFECT_PRECISION = 1e-6
MAX_THETA_DIM = 6            # largest d whose theta grid fits inference.MAX_GRID_POINTS


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
        levels, codes = self.factor(name)
        return np.array(levels, dtype=object)[codes].tolist()

    def factor(self, name):
        """A label column as its distinct canonical labels, in order of first
        appearance, and each row's index into them.

        Each distinct value is canonicalized once, so values such as "01"
        and 1.0 that canonicalize alike share a level.
        """
        if name not in self.columns:
            raise ModelError(f"unknown column '{name}'")
        col = self.columns[name]
        missing = np.equal(col, None) if col.dtype == object else np.isnan(col)
        if missing.any():
            raise ModelError(f"column '{name}' contains missing values")
        values, first, inverse = np.unique(col, return_index=True, return_inverse=True)
        order = np.argsort(first)            # distinct values by first appearance
        level_of = {}
        value_level = np.empty(order.size, dtype=np.int64)
        value_level[order] = [level_of.setdefault(canonical_label(v), len(level_of))
                              for v in values[order].tolist()]
        return list(level_of), value_level[inverse]


def canonical_label(value):
    if isinstance(value, str):
        value = value.strip()
        try:
            value = float(value)
        except ValueError:
            return value
    f = float(value)
    if math.isfinite(f) and f == int(f):
        return str(int(f))
    return repr(f)


def read_data_csv(path):
    """CSV with a header row of unique names; the missing marker is NA.

    Fields are trimmed and blank lines skipped.  A column is numeric (NaN
    for NA) when every field but NA parses as a float, else strings (None
    for NA).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    if not lines:
        raise ModelError(f"empty data file: {path}")
    header = [h.strip() for h in lines[0].split(",")]
    for k, h in enumerate(header):
        if not h:
            raise ModelError(f"header column {k + 1} has no name")
        if h in header[:k]:
            raise ModelError(f"duplicate column name '{h}' in header")
    width = len(header)
    rows = lines[1:]
    for ln in rows:
        if ln.count(",") != width - 1:
            raise ModelError(
                f"row with {ln.count(',') + 1} fields, expected {width}: {ln!r}")
    if not rows:
        raise ModelError("data table needs at least one row")
    fields = list(map(str.strip, ",".join(rows).split(",")))
    return DataTable({h: _csv_column(fields[k::width]) for k, h in enumerate(header)})


def _csv_column(fields):
    """One CSV column's fields as floats (NaN for NA), or else as strings."""
    try:
        if "NA" in fields:
            return np.array(["nan" if f == "NA" else f for f in fields], dtype=float)
        return np.array(fields, dtype=float)
    except ValueError:
        col = np.array(fields, dtype=object)
        col[col == "NA"] = None
        return col


class AdjacencyGraph:
    """Undirected neighbor structure over labelled nodes.

    ``neighbors[i]`` lists node i's neighbours in increasing order and
    ``adjacency`` is the dense boolean matrix of the edges.
    """

    def __init__(self, labels, neighbors):
        if len(neighbors) != len(labels):
            raise ModelError(f"adjacency graph has {len(labels)} nodes but "
                             f"{len(neighbors)} neighbor lists")
        rows = np.repeat(np.arange(len(labels)), [len(nb) for nb in neighbors])
        cols = np.array(list(itertools.chain.from_iterable(neighbors)), dtype=np.int64)
        self._set_edges([canonical_label(l) for l in labels], rows, cols)

    @classmethod
    def _from_edges(cls, labels, rows, cols):
        """A graph from canonical labels and its listed edges (rows[k], cols[k])."""
        graph = cls.__new__(cls)
        graph._set_edges(labels, rows, cols)
        return graph

    def _set_edges(self, labels, rows, cols):
        if len(set(labels)) != len(labels):
            raise ModelError("duplicate node ids in adjacency graph")
        n = len(labels)
        self.labels = labels
        self.index = {l: i for i, l in enumerate(labels)}
        self.n_nodes = n
        loop = rows == cols
        if loop.any():
            raise ModelError(f"self loop at node '{labels[rows[loop.argmax()]]}'")
        inside = (cols >= 0) & (cols < n)
        adj = np.zeros((n, n), dtype=bool)
        adj[rows[inside], cols[inside]] = True
        if not inside.all() or (adj != adj.T).any():
            # report the first bad entry, nodes in file order and each
            # node's neighbours in increasing order
            bad = ~inside
            bad[inside] = ~adj[cols[inside], rows[inside]]
            k = np.flatnonzero(bad)
            first = k[np.lexsort((cols[k], rows[k]))[0]]
            i, j = rows[first], cols[first]
            if not inside[first]:
                raise ModelError(f"neighbor index {j} out of range")
            raise ModelError(
                f"adjacency not symmetric: '{labels[i]}' lists "
                f"'{labels[j]}' but not vice versa")
        self.adjacency = adj
        nb_rows, nb_cols = np.nonzero(adj)
        self.degrees = np.bincount(nb_rows, minlength=n)
        ends = np.cumsum(self.degrees).tolist()
        nb_cols = nb_cols.tolist()
        self.neighbors = [nb_cols[a:b] for a, b in zip([0] + ends, ends)]
        self.components = self._components()

    def structure(self):
        """Dense iCAR structure matrix: the degrees on the diagonal, -1 per edge."""
        r = np.where(self.adjacency, -1.0, 0.0)
        np.fill_diagonal(r, self.degrees)
        return r

    def _components(self):
        comp = [-1] * self.n_nodes
        c = 0
        for start in range(self.n_nodes):
            if comp[start] >= 0:
                continue
            stack = [start]
            comp[start] = c
            while stack:
                for u in self.neighbors[stack.pop()]:
                    if comp[u] < 0:
                        comp[u] = c
                        stack.append(u)
            c += 1
        return np.array(comp, dtype=np.int64)

    @property
    def n_components(self):
        return int(self.components.max()) + 1


def read_adjacency(path):
    """One line per node: 'node_id: neighbor ids' (whitespace-separated)."""
    heads = []
    tails = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            head, sep, tail = ln.partition(":")
            if not sep:
                raise ModelError(f"malformed adjacency line: {ln!r}")
            heads.append(head)
            tails.append(tail.split())
    # each distinct token is canonicalized once
    canon = {t: canonical_label(t) for t in set(heads).union(*tails)}
    labels = [canon[h] for h in heads]
    index = {l: i for i, l in enumerate(labels)}
    node_of = {t: index[l] for t, l in canon.items() if l in index}
    try:
        cols = list(map(node_of.__getitem__, itertools.chain.from_iterable(tails)))
    except KeyError as e:
        raise ModelError(
            f"adjacency references unknown node {canon[e.args[0]]!r}") from None
    rows = np.repeat(np.arange(len(heads)), [len(t) for t in tails])
    return AdjacencyGraph._from_edges(labels, rows, np.array(cols, dtype=np.int64))


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

    def precision(self, theta):
        return math.exp(float(theta[0]))


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

    def precision(self, theta):
        """The entries (w11, w22, w12) of the 2x2 precision."""
        return _omega_scalar(*theta.tolist())

    def log_det(self, theta):
        return _omega_log_det(*theta.tolist())


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

    def precision(self, theta):
        return self.value


class FixedOmega:
    """Pins the 2x2 precision of a paired block to a known matrix."""

    n_slots = 0

    def __init__(self, omega):
        w = np.asarray(omega, dtype=float).reshape(2, 2)
        if not np.allclose(w, w.T) or np.linalg.eigvalsh(w).min() <= 0:
            raise ModelError("fixed 2x2 precision must be symmetric positive definite")
        self.omega = 0.5 * (w + w.T)

    def precision(self, theta):
        """The entries (w11, w22, w12) of the 2x2 precision."""
        return self.omega[0, 0], self.omega[1, 1], self.omega[0, 1]

    def log_det(self, theta):
        return math.log(np.linalg.det(self.omega))


def _omega_from_internal(theta3):
    t1, t2, t3 = theta3[..., 0], theta3[..., 1], theta3[..., 2]
    ch = np.cosh(t3)
    sh = np.sinh(t3)
    w11 = np.exp(t1) * ch * ch
    w22 = np.exp(t2) * ch * ch
    w12 = -np.exp(0.5 * (t1 + t2)) * sh * ch
    return w11, w22, w12


def _omega_scalar(t1, t2, t3):
    """Entries (w11, w22, w12) of the 2x2 precision at an internal point."""
    ch = math.cosh(t3)
    return (math.exp(t1) * ch * ch, math.exp(t2) * ch * ch,
            -math.exp(0.5 * (t1 + t2)) * math.sinh(t3) * ch)


def _omega_log_det(t1, t2, t3):
    return t1 + t2 + 2.0 * math.log(math.cosh(t3))


def _wishart2d_scalar(r, df, theta):
    """Scalar fast path of wishart2d_internal (same math, stdlib only)."""
    t1, t2, t3 = float(theta[0]), float(theta[1]), float(theta[2])
    if max(abs(t1), abs(t2), abs(t3)) > 300.0:
        return -math.inf
    w11, w22, w12 = _omega_scalar(t1, t2, t3)
    log_det_w = _omega_log_det(t1, t2, t3)
    trace = r[0, 0] * w11 + r[1, 1] * w22 + 2.0 * r[0, 1] * w12
    det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    a = 0.5 * df
    log_gamma2 = 0.5 * math.log(math.pi) + math.lgamma(a) + math.lgamma(a - 0.5)
    log_pdf = (0.5 * (df - 3.0) * log_det_w - 0.5 * trace
               + 0.5 * df * math.log(det_r) - df * math.log(2.0) - log_gamma2)
    # closed-form 3x3 Jacobian determinant of the internal transform
    ch, sh = math.cosh(t3), math.sinh(t3)
    j13 = 2.0 * math.exp(t1) * ch * sh
    j23 = 2.0 * math.exp(t2) * ch * sh
    j33 = -math.exp(0.5 * (t1 + t2)) * math.cosh(2.0 * t3)
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


class _Block:
    """An additive effect block that owns its prior, of a type in prior_types.

    prior_entries() lists the prior precision in block coordinates, each
    entry (rows, cols, base values); prior_scales(theta) gives one
    multiplier per entry at the block's theta slice.  The default is a
    diagonal with one scalar precision; subclasses override the rest.
    """

    prior_types = (LogGammaPrior, FixedPrecision)

    def prior_entries(self):
        idx = np.arange(self.size)
        return [(idx, idx, np.ones(self.size))]

    def prior_scales(self, theta):
        return (self.prior.precision(theta),)

    def log_det(self, theta):
        """log det of the block prior precision on its constraint space."""
        return self.size * math.log(self.prior.precision(theta))

    def constraint_rows(self):
        return np.zeros((0, self.size))


class Fixed(_Block):
    prior_types = (FixedPrecision,)

    def __init__(self, covariate, precision=DEFAULT_FIXED_EFFECT_PRECISION, name=None):
        if precision <= 0:
            raise ModelError("fixed-effect prior precision must be positive")
        self.covariate = covariate
        self.prior = FixedPrecision(precision)
        self.name = name or covariate

    def resolve(self, data, factor):
        data.numeric(self.covariate)
        self.size = 1

    def design(self, data):
        z = data.numeric(self.covariate)
        n = data.n_rows
        return np.arange(n), np.zeros(n, dtype=np.int64), z.copy()

    def labels(self):
        return [self.name]


class Intercept(Fixed):
    """A fixed effect whose covariate is the constant 1."""

    def __init__(self, precision=DEFAULT_FIXED_EFFECT_PRECISION, name="intercept"):
        if precision <= 0:
            raise ModelError("intercept prior precision must be positive")
        self.prior = FixedPrecision(precision)
        self.name = name

    def resolve(self, data, factor):
        self.size = 1

    def design(self, data):
        n = data.n_rows
        return np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n)


class Iid(_Block):
    """Exchangeable effects indexed by a grouping column, one shared precision."""

    def __init__(self, index, prior=None, name=None):
        self.index = index
        self.prior = prior if prior is not None else LogGammaPrior(1.0, 5e-5)
        self.name = name or f"iid_{index}"

    def resolve(self, data, factor):
        self.levels, self.row_level = factor(self.index)
        self.size = len(self.levels)

    def design(self, data):
        n = data.n_rows
        return np.arange(n), self.row_level.copy(), np.ones(n)

    def labels(self):
        return [f"{self.name}[{l}]" for l in self.levels]


class Iid2d(_Block):
    """Per-unit (intercept, slope) pairs with a joint 2x2 precision.

    Coordinates are interleaved: unit k owns positions (2k, 2k+1); the first
    slot loads with coefficient 1, the second with the slope covariate.
    """

    prior_types = (Wishart2dPrior, FixedOmega)

    def __init__(self, index, slope, prior=None, name=None):
        self.index = index
        self.slope = slope
        self.prior = prior if prior is not None else Wishart2dPrior(np.eye(2), 4.0)
        self.name = name or f"iid2d_{index}"

    def resolve(self, data, factor):
        self.levels, self.row_level = factor(self.index)
        data.numeric(self.slope)
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

    def prior_entries(self):
        even = 2 * np.arange(self.size // 2)
        ones = np.ones(even.size)
        return [(even, even, ones), (even + 1, even + 1, ones), (even + 1, even, ones)]

    def prior_scales(self, theta):
        return self.prior.precision(theta)

    def log_det(self, theta):
        return self.size // 2 * self.prior.log_det(theta)


class Besag(_Block):
    """Intrinsic CAR effect on a graph; improper, sum-to-zero per component."""

    def __init__(self, index, graph, prior=None, name=None):
        if graph is None:
            raise ModelError(f"besag block on '{index}' requires an adjacency graph")
        self.index = index
        self.graph = graph
        self.prior = prior if prior is not None else LogGammaPrior(1.0, 5e-5)
        self.name = name or f"besag_{index}"

    def resolve(self, data, factor):
        levels, codes = factor(self.index)
        node_of = self.graph.index
        missing = [l for l in levels if l not in node_of]
        if missing:
            raise ModelError(
                f"index column '{self.index}' has values not in the adjacency "
                f"graph: {sorted(missing)[:5]}")
        self.row_level = np.array([node_of[l] for l in levels], dtype=np.int64)[codes]
        self.size = self.graph.n_nodes
        r = self.graph.structure()
        rows, cols = np.nonzero(r)
        lower = rows >= cols
        rows, cols = rows[lower], cols[lower]
        self._structure = (rows, cols, r[rows, cols])
        # log det of K = R + jitter I on the sum-to-zero space, fixed over
        # theta: log det K + log det(C K^-1 C') for the component indicators
        # C.  K maps each indicator to jitter times itself, so C K^-1 C' is
        # diag(component sizes) / jitter.
        sizes = np.bincount(self.graph.components)
        r.flat[::self.size + 1] += BESAG_JITTER
        self._structure_log_det = float(
            np.linalg.slogdet(r)[1] + np.sum(np.log(sizes / BESAG_JITTER)))

    def design(self, data):
        n = data.n_rows
        return np.arange(n), self.row_level.copy(), np.ones(n)

    def labels(self):
        return [f"{self.name}[{l}]" for l in self.graph.labels]

    def prior_entries(self):
        idx = np.arange(self.size)
        return [self._structure, (idx, idx, np.full(self.size, BESAG_JITTER))]

    def prior_scales(self, theta):
        tau = self.prior.precision(theta)
        return (tau, tau)

    def log_det(self, theta):
        """(size - components) * log tau + const, on the sum-to-zero space."""
        rank = self.size - self.graph.n_components
        return rank * math.log(self.prior.precision(theta)) + self._structure_log_det

    def constraint_rows(self):
        comp = self.graph.components
        return (comp == np.arange(self.graph.n_components)[:, None]).astype(float)


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

    def validate_response(self, y):
        obs = ~np.isnan(y)
        if self.kind == "poisson":
            vals = y[obs]
            if (vals < 0).any() or (vals != np.rint(vals)).any():
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
                if (e <= 0).any():
                    raise ModelError(
                        f"offset column '{spec.likelihood.offset}' must be positive")
                self.exposure = e.astype(float)
            else:
                self.exposure = np.ones(self.n_rows)
        else:
            self.exposure = None

        # resolve blocks and lay out the latent field: eta first, then
        # blocks; a label column is canonicalized once for all its blocks
        factors = {}

        def factor(name):
            if name not in factors:
                factors[name] = data.factor(name)
            return factors[name]

        offset = self.n_rows
        self.block_offsets = []
        for blk in spec.blocks:
            blk.resolve(data, factor)
            self.block_offsets.append(offset)
            offset += blk.size
        self.latent_dim = offset

        # theta slices: likelihood precision first, then block priors
        lik_prior = spec.likelihood.prec_prior
        owners = [(blk.name, blk.prior, blk.prior_types) for blk in spec.blocks]
        if lik_prior is not None:
            owners.insert(0, ("data_precision", lik_prior, (LogGammaPrior, FixedPrecision)))
        slots = []                      # (name, prior, theta slice) per owner
        pos = 0
        for name, prior, types in owners:
            if not isinstance(prior, types):
                raise ModelError(
                    f"'{name}' takes a {' or '.join(t.__name__ for t in types)} "
                    f"prior, got {type(prior).__name__}")
            slots.append((name, prior, slice(pos, pos + prior.n_slots)))
            pos += prior.n_slots
        self._lik_slice = slots[0][2] if lik_prior is not None else None
        self._block_slices = [sl for _, _, sl in slots[len(slots) - len(spec.blocks):]]
        self.slots = [slot for slot in slots if slot[1].n_slots]
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
        blocks = self.spec.blocks
        z_offsets = [off - n for off in self.block_offsets]

        # design entries (data row, z column, value), block after block
        designs = [blk.design(data) for blk in blocks]
        if designs:
            drows, zcols, dvals = (np.concatenate(part) for part in zip(*designs))
            zcols += np.repeat(z_offsets, [len(d[0]) for d in designs])
        else:
            drows = zcols = np.zeros(0, dtype=np.int64)
            dvals = np.zeros(0)

        # block constraint rows, shifted to z coordinates
        cons = [blk.constraint_rows() for blk in blocks]
        self.z_constraints = np.zeros((sum(len(con) for con in cons), zdim))
        row = 0
        for con, off in zip(cons, z_offsets):
            self.z_constraints[row:row + len(con), off:off + con.shape[1]] = con
            row += len(con)

        self._a_dense = np.zeros((n, zdim))
        np.add.at(self._a_dense, (drows, zcols), dvals)

        # per-row products of design pairs, for A' diag(w) A:
        # every block gives each row the same number k of entries, so the
        # pairs (a <= b) of a row's entries, in block order, are a reshape
        counts = np.bincount(drows, minlength=n)
        k = int(counts[0])
        if (counts != k).any():
            raise ModelError("design blocks must give every row the same "
                             "number of entries")
        order = np.argsort(drows, kind="stable").reshape(n, k)
        row_cols, row_vals = zcols[order], dvals[order]
        ia, ib = np.nonzero(~np.tri(k, k, -1, dtype=bool))     # np.triu_indices(k), faster
        ca, cb = row_cols[:, ia], row_cols[:, ib]
        self._pair_row = np.repeat(np.arange(n, dtype=np.int64), ia.size)
        self._pair_ci = np.maximum(ca, cb).ravel()
        self._pair_cj = np.minimum(ca, cb).ravel()
        self._pair_vv = (row_vals[:, ia] * row_vals[:, ib]).ravel()

        # flat positions in the dense z precision of every prior entry,
        # block by block, and last of the A'A pairs; blocks without
        # hyperparameters are added once, to the matrix and to the log
        # determinant
        priors = [blk.prior_entries() for blk in blocks]
        entries = ([e for block_entries in priors for e in block_entries]
                   + [(self._pair_ci, self._pair_cj, self._pair_vv)])
        sizes = [len(e[0]) for e in entries]
        shift = np.repeat([off for off, block_entries in zip(z_offsets, priors)
                           for _ in block_entries] + [0], sizes)
        rows, cols, base = (np.concatenate(part) for part in zip(*entries))
        take, pos, bounds = _mirrored(rows + shift, cols + shift, zdim, sizes)
        values = base[take]
        pairs_at = bounds[-2]
        self._pair_take = take[pairs_at:] - (rows.size - sizes[-1])
        self._pair_pos = pos[pairs_at:]
        runs = iter(zip(bounds, bounds[1:]))
        stamps = [(blk, sl, [(pos[a:b], values[a:b]) for _, (a, b) in zip(block_entries, runs)])
                  for blk, sl, block_entries in zip(blocks, self._block_slices, priors)]
        fixed = [st for st in stamps if st[1].start == st[1].stop]
        self._theta_blocks = [st for st in stamps if st[1].start < st[1].stop]
        self._z_const = _add_stamps(np.zeros((zdim, zdim)), fixed, np.zeros(0))
        self._log_det_const = n * math.log(TIE_PRECISION)
        for blk, _, _ in fixed:
            self._log_det_const += blk.log_det(np.zeros(0))

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
        for name, prior, _ in self.slots:
            if prior.n_slots == 1:
                out.append(name)
            else:
                out.extend(f"{name}[{k}]" for k in range(prior.n_slots))
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
        """log det of the tied joint prior precision on the constraint space:
        n_rows * log(kappa) + log det ``z_prior`` + log det(C z_prior^-1 C'),
        summed block by block in closed form (each constraint is in one block)."""
        theta = self._check_theta(theta)
        out = self._log_det_const
        for blk, sl, _ in self._theta_blocks:
            out += blk.log_det(theta[sl])
        return out

    # -- block-space (eta eliminated) assembly -------------------------------

    def z_ordering(self):
        """The identity permutation of the block coordinates.

        Factorizations apply no ordering.  This stays only because the
        benchmark's model set-up (bench/child.py) and its contract test
        call it; it goes with the next change to the benchmark.
        """
        return np.arange(self.z_dim)

    def z_prior(self, theta):
        """Block-coordinate prior precision, a dense symmetric array (the
        tied joint has determinant kappa^n_rows times this one's).

        Improper blocks carry a tiny relative jitter (Besag: tau *
        BESAG_JITTER on the diagonal) to keep factorizations well posed.
        """
        return _add_stamps(self._z_const.copy(), self._theta_blocks, self._check_theta(theta))

    def z_posterior_precision(self, z_prior, weights):
        """A copy of the block prior precision z_prior plus A' diag(weights) A."""
        q = z_prior.copy()
        pair_w = weights[self._pair_row] * self._pair_vv
        np.add.at(q.reshape(-1), self._pair_pos, pair_w[self._pair_take])
        return q

    # -- likelihood terms ---------------------------------------------------

    def log_prior_theta(self, theta):
        theta = self._check_theta(theta)
        if self._theta_prior is not None:
            return self._theta_prior.log_density(theta)
        out = 0.0
        for _, prior, sl in self.slots:
            out += prior.log_density(theta[sl])
        return out

    def _gaussian_precision(self, theta):
        return self.spec.likelihood.prec_prior.precision(theta[self._lik_slice])

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


def _add_stamps(q, stamps, theta):
    """Add each block's scaled prior entries to the dense matrix q, in place."""
    flat = q.reshape(-1)
    for blk, sl, entries in stamps:
        for (pos, base), scale in zip(entries, blk.prior_scales(theta[sl])):
            flat[pos] += scale * base
    return q


def _mirrored(rows, cols, n, sizes):
    """Flat positions of symmetric entries (r, c) in an n x n array.

    Each entry sits at r * n + c and, off the diagonal, also at c * n + r.
    The entries come in consecutive runs of the given sizes, and so do the
    positions: each run's own positions first, then its mirrored ones.
    Returns (take, positions, bounds): position k holds entry take[k], and
    run i has the positions bounds[i]:bounds[i + 1].
    """
    off = np.flatnonzero(rows != cols)
    ends = list(itertools.accumulate(sizes))
    cuts = np.searchsorted(off, ends).tolist()           # runs' ends in off
    spans = list(zip([0] + ends, ends, [0] + cuts, cuts))
    idx = np.arange(rows.size)
    own, mirror = rows * n + cols, cols[off] * n + rows[off]
    take = np.concatenate([x for a, b, c, d in spans for x in (idx[a:b], off[c:d])])
    pos = np.concatenate([x for a, b, c, d in spans for x in (own[a:b], mirror[c:d])])
    return take, pos, [0] + [b + d for _, b, _, d in spans]


def _gammaln_vec(x):
    return np.vectorize(math.lgamma, otypes=[float])(x)


def build_model(spec):
    """Compile a ModelSpec into a CompiledModel (prior assembler and likelihood)."""
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
