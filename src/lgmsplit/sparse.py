"""Cholesky factorization of symmetric positive definite matrices, conditioned
on linear constraints: solves, log determinants and marginal variances.

Matrices are plain dense ``numpy`` arrays, factored as given, with no
permutation, by one LAPACK ``dpotrf``; each solve is one ``dpotrs``.  A
fill-reducing ordering would save nothing with a dense factor and change
only the rounding.

Constraints C z = 0 are imposed by conditioning by kriging (Rue & Held
2005, *Gaussian Markov Random Fields*, section 2.3.3): the factor forms
X = Q^-1 C' and the Cholesky factor of C X once, and every solve corrects
Q^-1 b by X (C X)^-1 C Q^-1 b.
"""

import numpy as np
from scipy.linalg import lapack


class NotPositiveDefinite(ValueError):
    """Raised when a pivot is not positive; carries the offending index."""

    def __init__(self, pivot_index, pivot_value=None):
        self.pivot_index = int(pivot_index)
        self.pivot_value = pivot_value
        msg = f"matrix is not positive definite (pivot {pivot_index}"
        if pivot_value is not None:
            msg += f" = {pivot_value:.3e}"
        super().__init__(msg + ")")


def _potrf(a):
    """Lower Cholesky factor of a, in the Fortran order ``dpotrs`` takes."""
    l, info = lapack.dpotrf(a, lower=1)
    if info > 0:
        # LAPACK leaves the failed pivot on the diagonal
        raise NotPositiveDefinite(info - 1, float(l[info - 1, info - 1]))
    return l


class CholeskyFactor:
    """Cholesky factor of an SPD matrix, Q = L L', conditioned on C z = 0.

    With constraints C, solve returns Q^-1 b less its kriging correction,
    and log_det is log det Q + log det(C Q^-1 C'), which is log det Q on
    the constraint space up to a constant set by C alone.
    """

    def __init__(self, l, constraints=None):
        self.n = l.shape[0]
        self._l = l
        self.log_det = float(2.0 * np.sum(np.log(np.diag(l))))
        self._x = None
        if constraints is not None and len(constraints):
            self._c = constraints
            self._x = lapack.dpotrs(l, constraints.T, lower=1)[0]
            self._g = _potrf(constraints @ self._x)
            self.log_det += float(2.0 * np.sum(np.log(np.diag(self._g))))

    @property
    def is_dense(self):
        """Always True: the factor is a dense array.

        Kept for the benchmark trace, whose ``sparse.dense_frac`` reads it.
        """
        return True

    def solve(self, b):
        """Solve Q x = b, conditioned on the constraints, for a vector or an
        (n, k) right-hand side.

        Nothing is re-checked: a non-finite b gives a non-finite x.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"right-hand side has length {b.shape[0]}, expected {self.n}")
        if not self.n:
            return b.copy()
        x = lapack.dpotrs(self._l, b, lower=1)[0]
        if self._x is not None:
            x = x - self._x @ lapack.dpotrs(self._g, self._c @ x, lower=1)[0]
        return x

    def marginal_variances(self):
        """Diagonal of Q^-1, conditioned on the constraints."""
        return np.diag(self.solve(np.eye(self.n))).copy()


def factorize(q, constraints=None):
    """Cholesky-factorize a dense symmetric positive definite matrix,
    conditioned on constraints C z = 0 given as the rows of a (k, n) array.

    The factorization reads only the lower triangle.  Raises ValueError for
    a non-square or non-finite matrix or constraints of the wrong width,
    and NotPositiveDefinite, with the index and value of the first failing
    pivot, for a Q or a C Q^-1 C' that is not positive definite.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("matrix entries must be finite")
    if constraints is not None:
        constraints = np.asarray(constraints, dtype=float)
        if constraints.ndim != 2 or constraints.shape[1] != q.shape[0]:
            raise ValueError(f"constraints must have {q.shape[0]} columns, "
                             f"got shape {constraints.shape}")
    return CholeskyFactor(_potrf(q), constraints)
