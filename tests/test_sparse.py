import math

import numpy as np
import pytest

from lgmsplit.sparse import NotPositiveDefinite, factorize


def random_sparse_spd(n, seed, fill=4):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for _ in range(fill * n):
        i, j = rng.integers(0, n, 2)
        v = rng.normal()
        a[i, j] += v
        a[j, i] += v
    a += np.eye(n) * (np.abs(a).sum(axis=1) + 1.0)
    return a


# The one backend is dense LAPACK on the unpermuted matrix; the id names it
# in test reports.
DENSE = pytest.mark.parametrize("backend", ["dense"])


class TestFactorize:
    @DENSE
    def test_identity(self, backend):
        f = factorize(np.eye(5))
        assert np.allclose(f.l_matrix(), np.eye(5))
        assert f.log_det == 0.0

    @DENSE
    def test_two_by_two_logdet(self, backend):
        # det [[4,2],[2,3]] = 8 by hand
        f = factorize(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert abs(f.log_det - math.log(8.0)) < 1e-12

    @DENSE
    def test_random_spd_against_dense(self, backend):
        a = random_sparse_spd(100, seed=0)
        f = factorize(a)
        l = f.l_matrix()
        assert np.allclose(a, l @ l.T, atol=1e-8)
        sign, logdet = np.linalg.slogdet(a)
        assert abs(f.log_det - logdet) < 1e-8

    @DENSE
    def test_not_positive_definite_reports_pivot(self, backend):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(bad)
        assert exc.value.pivot_index == 1

    def test_pivot_index_is_unpermuted(self):
        # the first two pivots are fine; the third is 1 - 1 = 0 after
        # eliminating the second, so the reported index is 2 in input order
        bad = np.array([[4.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 1.0, 0.0],
                        [0.0, 1.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 9.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(bad)
        assert exc.value.pivot_index == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        a = np.eye(3)
        a[2, 0] = a[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            factorize(a)

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            factorize(np.ones(shape))

    def test_logdet_matches_eigenvalue_sum_upto_200(self):
        for n in (50, 200):
            a = random_sparse_spd(n, seed=n)
            f = factorize(a)
            assert abs(f.log_det - np.sum(np.log(np.linalg.eigvalsh(a)))) < 1e-8


class TestSolve:
    @DENSE
    def test_identity(self, backend):
        f = factorize(np.eye(4))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(f.solve(b), b)

    @DENSE
    def test_diagonal(self, backend):
        f = factorize(2.0 * np.eye(4))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(f.solve(b), b / 2.0)

    @DENSE
    def test_random_against_dense(self, backend):
        a = random_sparse_spd(80, seed=2)
        f = factorize(a)
        b = np.random.default_rng(4).normal(size=80)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)

    def test_dimension_mismatch(self):
        f = factorize(np.eye(3))
        with pytest.raises(ValueError):
            f.solve(np.ones(4))

    @DENSE
    def test_matrix_rhs(self, backend):
        a = random_sparse_spd(30, seed=8)
        f = factorize(a)
        b = np.random.default_rng(0).normal(size=(30, 4))
        assert np.allclose(a @ f.solve(b), b, atol=1e-8)

    def test_nonfinite_rhs_gives_nonfinite_solution(self):
        # solves skip the input check: a bad right-hand side must still show
        # in the result, where the log posterior turns it into a failure
        f = factorize(random_sparse_spd(6, seed=3))
        b = np.ones(6)
        b[4] = np.nan
        assert not np.all(np.isfinite(f.solve(b)))


class TestMarginalVariances:
    @DENSE
    def test_diagonal_matrix(self, backend):
        f = factorize(4.0 * np.eye(6))
        assert np.allclose(f.marginal_variances(), 0.25)

    @DENSE
    def test_identity(self, backend):
        f = factorize(np.eye(6))
        assert np.allclose(f.marginal_variances(), 1.0)

    def test_tridiagonal_against_dense_inverse(self):
        a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        f = factorize(a)
        assert np.allclose(f.marginal_variances(), np.diag(np.linalg.inv(a)), atol=1e-12)

    @DENSE
    def test_random_against_dense_upto_200(self, backend):
        a = random_sparse_spd(200, seed=5)
        f = factorize(a)
        assert np.allclose(f.marginal_variances(), np.diag(np.linalg.inv(a)), atol=1e-8)

    def test_takahashi_path_beyond_dense_cutoff(self):
        # a larger system, well above the block dimensions of the bundled models
        n = 520
        a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        f = factorize(a)
        assert np.allclose(f.marginal_variances(), np.diag(np.linalg.inv(a)), atol=1e-8)
