"""Sparse symmetric matrices, Cholesky factorization, solves and marginal variances.

Matrices are stored as the lower triangle in compressed-column form.  The
factorization applies a fill-reducing (minimum-degree) permutation and then
runs a dense LAPACK Cholesky on the permuted matrix.  Correctness is
permutation-invariant, so callers may pass any ordering.
"""

import math

import numpy as np
import scipy.linalg

class NotPositiveDefinite(ValueError):
    """Raised when a pivot is not positive; carries the offending index."""

    def __init__(self, pivot_index, pivot_value=None):
        self.pivot_index = int(pivot_index)
        self.pivot_value = pivot_value
        msg = f"matrix is not positive definite (pivot {pivot_index}"
        if pivot_value is not None:
            msg += f" = {pivot_value:.3e}"
        super().__init__(msg + ")")


class SparseSymmetric:
    """Symmetric matrix, lower triangle in CSC layout (indptr, indices, data)."""

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have length n + 1")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have equal length")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("matrix entries must be finite")
        self._struct_cache = {}         # pattern-derived arrays, shared by with_data

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from triplets; upper-triangle entries are mirrored down and
        duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        tri_row = np.maximum(rows, cols)
        tri_col = np.minimum(rows, cols)
        codes = tri_col * n + tri_row  # column-major over the lower triangle
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        vals = vals[order]
        uniq, start = np.unique(codes, return_index=True)
        summed = np.add.reduceat(vals, start)
        out_cols = uniq // n
        out_rows = uniq % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, out_cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, out_rows, summed)

    @classmethod
    def from_dense(cls, a, tol=0.0):
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("expected a square matrix")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("matrix is not symmetric")
        rows, cols = np.nonzero(np.abs(np.tril(a)) > tol)
        keep = rows >= cols
        return cls.from_coo(n, rows[keep], cols[keep], a[rows[keep], cols[keep]])

    def _cols(self):
        # expanded column index per entry, shared across with_data copies
        cache = self._struct_cache
        if "cols" not in cache:
            cache["cols"] = np.repeat(np.arange(self.n), np.diff(self.indptr))
            cache["offdiag"] = self.indices != cache["cols"]
        return cache["cols"]

    def to_dense(self):
        cols = self._cols()
        a = np.zeros((self.n, self.n))
        a[self.indices, cols] = self.data
        a[cols, self.indices] = self.data
        return a

    def permuted_dense(self, perm, iperm):
        """Dense P Q P' without forming the unpermuted matrix."""
        self._cols()
        cache = self._struct_cache
        key = ("perm", perm.tobytes())
        if key not in cache:
            cache[key] = (iperm[self.indices], iperm[cache["cols"]])
        pi, pj = cache[key]
        a = np.zeros((self.n, self.n))
        a[pi, pj] = self.data
        a[pj, pi] = self.data
        return a

    def with_data(self, data):
        """Same pattern, new values (no copy of the structure arrays)."""
        out = SparseSymmetric.__new__(SparseSymmetric)
        out.n = self.n
        out.indptr = self.indptr
        out.indices = self.indices
        out.data = np.asarray(data, dtype=float)
        out._struct_cache = self._struct_cache
        return out

    def quad_form(self, x):
        """x' Q x computed from the lower triangle."""
        cols = self._cols()
        off = self._struct_cache["offdiag"]
        prod = self.data * x[self.indices] * x[cols]
        return float(prod.sum() + prod[off].sum())

    def matvec(self, x):
        cols = self._cols()
        off = self._struct_cache["offdiag"]
        y = np.zeros(self.n)
        np.add.at(y, self.indices, self.data * x[cols])
        np.add.at(y, cols[off], self.data[off] * x[self.indices[off]])
        return y


def min_degree_ordering(n, indptr, indices):
    """Greedy minimum-degree ordering on the sparsity graph (lower triangle in)."""
    adj = [set() for _ in range(n)]
    for j in range(n):
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    alive = np.ones(n, dtype=bool)
    degree = np.array([len(a) for a in adj], dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    for step in range(n):
        best = -1
        best_deg = n + 1
        for v in range(n):
            if alive[v] and degree[v] < best_deg:
                best = v
                best_deg = degree[v]
        perm[step] = best
        alive[best] = False
        nbrs = [u for u in adj[best] if alive[u]]
        for u in nbrs:
            adj[u].discard(best)
        for a in range(len(nbrs)):
            u = nbrs[a]
            for b in range(a + 1, len(nbrs)):
                w = nbrs[b]
                if w not in adj[u]:
                    adj[u].add(w)
                    adj[w].add(u)
        for u in nbrs:
            degree[u] = len(adj[u])
    return perm


class CholeskyFactor:
    """Cholesky factor of a permuted SPD matrix: P Q P' = L L'."""

    def __init__(self, n, perm, l):
        self.n = n
        self.perm = perm
        self._iperm = np.argsort(perm)
        self._l = l
        self.log_det = float(2.0 * np.sum(np.log(np.diag(l))))

    @property
    def is_dense(self):
        """Always True: the factor is a dense array.

        Kept for the benchmark trace, whose ``sparse.dense_frac`` reads it.
        """
        return True

    def l_matrix(self):
        """Lower factor as a dense array (testing/inspection helper)."""
        return self._l.copy()

    def solve(self, b):
        """Solve Q x = b for a vector or an (n, k) right-hand side."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"right-hand side has length {b.shape[0]}, expected {self.n}")
        y = scipy.linalg.solve_triangular(self._l, b[self.perm], lower=True)
        xp = scipy.linalg.solve_triangular(self._l, y, lower=True, trans="T")
        return xp[self._iperm]

    def solve_lt(self, b):
        """Solve L' w = b in permuted space, returning P' w.

        With b standard normal this yields a draw with covariance Q^-1.
        """
        b = np.asarray(b, dtype=float)
        w = scipy.linalg.solve_triangular(self._l, b, lower=True, trans="T")
        return w[self._iperm]

    def marginal_variances(self):
        """Diagonal of Q^-1 in the original ordering."""
        sig = scipy.linalg.cho_solve((self._l, True), np.eye(self.n))
        out = np.empty(self.n)
        out[self.perm] = np.diag(sig)
        return out


def factorize(q, ordering=None):
    """Cholesky-factorize a SparseSymmetric SPD matrix.

    ordering: optional precomputed permutation; a greedy minimum-degree
    ordering is used when omitted.
    """
    n = q.n
    if ordering is None:
        ordering = min_degree_ordering(n, q.indptr, q.indices)
    else:
        ordering = np.asarray(ordering, dtype=np.int64)
        if sorted(ordering.tolist()) != list(range(n)):
            raise ValueError("ordering must be a permutation of 0..n-1")
    a = q.permuted_dense(ordering, np.argsort(ordering))
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _locate_bad_pivot(a, ordering)
        raise
    return CholeskyFactor(n, ordering, l)


def _locate_bad_pivot(a, perm):
    a = a.copy()
    n = a.shape[0]
    for j in range(n):
        piv = a[j, j]
        if piv <= 0.0 or not math.isfinite(piv):
            raise NotPositiveDefinite(perm[j], piv)
        r = math.sqrt(piv)
        a[j:, j] /= r
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j + 1:, j])

