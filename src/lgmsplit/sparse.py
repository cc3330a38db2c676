"""Cholesky factorization of symmetric positive definite matrices: solves,
log determinants and marginal variances.

Matrices are plain dense ``numpy`` arrays, factored as given, with no
permutation, by one LAPACK Cholesky.  A fill-reducing ordering would save
nothing with a dense factor and change only the rounding.
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


class CholeskyFactor:
    """Cholesky factor of an SPD matrix: Q = L L'."""

    def __init__(self, l):
        self.n = l.shape[0]
        self._l = l
        self.log_det = float(2.0 * np.sum(np.log(np.diag(l))))

    @property
    def is_dense(self):
        """Always True: the factor is a dense array.

        Kept for the benchmark trace, whose ``sparse.dense_frac`` reads it.
        """
        return True

    def l_matrix(self):
        """A copy of the lower factor L."""
        return self._l.copy()

    def solve(self, b):
        """Solve Q x = b for a vector or an (n, k) right-hand side.

        The factor is finite by construction, so neither triangular solve
        re-checks its inputs; a non-finite b gives a non-finite x.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"right-hand side has length {b.shape[0]}, expected {self.n}")
        y = scipy.linalg.solve_triangular(self._l, b, lower=True, check_finite=False)
        return scipy.linalg.solve_triangular(self._l, y, lower=True, trans="T",
                                             check_finite=False)

    def marginal_variances(self):
        """Diagonal of Q^-1."""
        return np.diag(scipy.linalg.cho_solve((self._l, True), np.eye(self.n))).copy()


def factorize(q):
    """Cholesky-factorize a dense symmetric positive definite matrix.

    The factorization reads only the lower triangle.  Raises ValueError for
    a non-square or non-finite matrix, and NotPositiveDefinite, with the
    index of the first failing pivot, for one that is not positive definite.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("matrix entries must be finite")
    try:
        l = np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        _locate_bad_pivot(q)
        raise
    return CholeskyFactor(l)


def _locate_bad_pivot(a):
    a = np.tril(a)
    n = a.shape[0]
    for j in range(n):
        piv = a[j, j]
        if piv <= 0.0 or not math.isfinite(piv):
            raise NotPositiveDefinite(j, piv)
        r = math.sqrt(piv)
        a[j:, j] /= r
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j + 1:, j])
