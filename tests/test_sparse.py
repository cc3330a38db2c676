import math

import numpy as np
import pytest
import scipy.linalg

from lgmsplit.datasets import generate_lattice
from lgmsplit.inference import gaussian_approximation
from lgmsplit.model import build_model
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
        assert np.allclose(f.solve(np.eye(5)), np.eye(5))
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
        assert np.allclose(a @ f.solve(np.eye(100)), np.eye(100), atol=1e-8)
        sign, logdet = np.linalg.slogdet(a)
        assert abs(f.log_det - logdet) < 1e-8

    @DENSE
    def test_not_positive_definite_reports_pivot(self, backend):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(bad)
        assert exc.value.pivot_index == 1

    def test_not_positive_definite_reports_pivot_value(self):
        # the second pivot is 1 - 2 * 2 / 1 = -3
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(bad)
        assert exc.value.pivot_index == 1
        assert exc.value.pivot_value == -3.0

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

    def test_empty_system(self):
        # a model with no effect blocks has a 0 x 0 block precision
        f = factorize(np.zeros((0, 0)))
        assert f.log_det == 0.0
        assert f.solve(np.zeros(0)).shape == (0,)
        assert f.solve(np.eye(0)).shape == (0, 0)

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


class TestConstraints:
    """Conditioning on C z = 0 by kriging, against dense oracles."""

    N, K = 30, 2

    def system(self):
        a = random_sparse_spd(self.N, seed=11)
        c = np.random.default_rng(12).normal(size=(self.K, self.N))
        return a, c

    def test_solve_matches_dense_kkt(self):
        a, c = self.system()
        b = np.random.default_rng(13).normal(size=self.N)
        kkt = np.block([[a, c.T], [c, np.zeros((self.K, self.K))]])
        want = np.linalg.solve(kkt, np.r_[b, np.zeros(self.K)])[:self.N]
        x = factorize(a, c).solve(b)
        assert np.allclose(x, want, atol=1e-10)
        assert np.allclose(c @ x, 0.0, atol=1e-10)

    def test_log_det_adds_constraint_term(self):
        a, c = self.system()
        want = (np.linalg.slogdet(a)[1]
                + np.linalg.slogdet(c @ np.linalg.solve(a, c.T))[1])
        assert abs(factorize(a, c).log_det - want) < 1e-8

    def test_marginal_variances_match_dense_conditional_covariance(self):
        a, c = self.system()
        s = np.linalg.inv(a)
        cov = s - s @ c.T @ np.linalg.solve(c @ s @ c.T, c @ s)
        assert np.allclose(factorize(a, c).marginal_variances(), np.diag(cov),
                           atol=1e-10)

    def test_no_rows_is_unconstrained(self):
        a, _ = self.system()
        b = np.ones(self.N)
        f, g = factorize(a), factorize(a, np.zeros((0, self.N)))
        assert g.log_det == f.log_det
        assert np.array_equal(g.solve(b), f.solve(b))

    @pytest.mark.parametrize("shape", [(1, 29), (2, 31), (30,)])
    def test_wrong_width_rejected(self, shape):
        a, _ = self.system()
        with pytest.raises(ValueError, match="columns"):
            factorize(a, np.ones(shape))

    def test_lattice_approximation_uses_no_scipy_cholesky_wrappers(self, monkeypatch):
        # the Besag sum-to-zero constraint is solved in the factor's own
        # LAPACK calls, so a lattice approximation comes out the same
        # without scipy's wrappers
        m = build_model(generate_lattice(4, 3, seed=1)[1])
        theta = np.array([0.4, -0.2])
        want = gaussian_approximation(m, theta)

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg wrapper called")

        for name in ("cho_factor", "cho_solve", "solve_triangular"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        got = gaussian_approximation(m, theta)
        assert np.array_equal(got.mode, want.mode)
        assert got.log_det == want.log_det
        assert np.array_equal(got.sigma_z(), want.sigma_z())
