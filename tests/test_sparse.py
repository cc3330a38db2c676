import math

import numpy as np
import pytest

from lgmsplit.sparse import (NotPositiveDefinite, SparseSymmetric, factorize,
                             min_degree_ordering)


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


# The one backend is dense LAPACK on the permuted matrix; the id names it in
# test reports.
DENSE = pytest.mark.parametrize("backend", ["dense"])


class TestFactorize:
    @DENSE
    def test_identity(self, backend):
        q = SparseSymmetric.from_dense(np.eye(5))
        f = factorize(q, ordering=np.arange(5))
        assert np.allclose(f.l_matrix(), np.eye(5))
        assert f.log_det == 0.0

    @DENSE
    def test_two_by_two_logdet(self, backend):
        # det [[4,2],[2,3]] = 8 by hand
        q = SparseSymmetric.from_dense(np.array([[4.0, 2.0], [2.0, 3.0]]))
        f = factorize(q)
        assert abs(f.log_det - math.log(8.0)) < 1e-12

    @DENSE
    def test_random_spd_against_dense(self, backend):
        a = random_sparse_spd(100, seed=0)
        q = SparseSymmetric.from_dense(a)
        f = factorize(q)
        l = f.l_matrix()
        p = np.eye(100)[f.perm]
        assert np.allclose(p @ a @ p.T, l @ l.T, atol=1e-8)
        sign, logdet = np.linalg.slogdet(a)
        assert abs(f.log_det - logdet) < 1e-8

    @DENSE
    def test_not_positive_definite_reports_pivot(self, backend):
        bad = SparseSymmetric.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite) as exc:
            factorize(bad, ordering=np.arange(2))
        assert exc.value.pivot_index == 1

    def test_logdet_matches_eigenvalue_sum_upto_200(self):
        for n in (50, 200):
            a = random_sparse_spd(n, seed=n)
            f = factorize(SparseSymmetric.from_dense(a))
            assert abs(f.log_det - np.sum(np.log(np.linalg.eigvalsh(a)))) < 1e-8

    def test_permutation_invariance(self):
        a = random_sparse_spd(60, seed=3)
        q = SparseSymmetric.from_dense(a)
        b = np.random.default_rng(1).normal(size=60)
        x1 = factorize(q, ordering=np.arange(60)).solve(b)
        x2 = factorize(q).solve(b)
        rng = np.random.default_rng(9)
        x3 = factorize(q, ordering=rng.permutation(60)).solve(b)
        assert np.allclose(x1, x2, atol=1e-8)
        assert np.allclose(x1, x3, atol=1e-8)

    def test_bad_ordering_rejected(self):
        q = SparseSymmetric.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            factorize(q, ordering=np.array([0, 0, 2]))


class TestSolve:
    @DENSE
    def test_identity(self, backend):
        f = factorize(SparseSymmetric.from_dense(np.eye(4)))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(f.solve(b), b)

    @DENSE
    def test_diagonal(self, backend):
        f = factorize(SparseSymmetric.from_dense(2.0 * np.eye(4)))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(f.solve(b), b / 2.0)

    @DENSE
    def test_random_against_dense(self, backend):
        a = random_sparse_spd(80, seed=2)
        f = factorize(SparseSymmetric.from_dense(a))
        b = np.random.default_rng(4).normal(size=80)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)
        # solve then multiply returns the input
        q = SparseSymmetric.from_dense(a)
        assert np.linalg.norm(q.matvec(x) - b) <= 1e-8 * np.linalg.norm(b)

    def test_dimension_mismatch(self):
        f = factorize(SparseSymmetric.from_dense(np.eye(3)))
        with pytest.raises(ValueError):
            f.solve(np.ones(4))

    @DENSE
    def test_matrix_rhs(self, backend):
        a = random_sparse_spd(30, seed=8)
        f = factorize(SparseSymmetric.from_dense(a))
        b = np.random.default_rng(0).normal(size=(30, 4))
        assert np.allclose(a @ f.solve(b), b, atol=1e-8)

    @DENSE
    def test_solve_lt(self, backend):
        a = random_sparse_spd(25, seed=12)
        f = factorize(SparseSymmetric.from_dense(a))
        z = np.random.default_rng(2).normal(size=25)
        x = f.solve_lt(z)
        l = f.l_matrix()
        assert np.allclose(l.T @ x[f.perm], z, atol=1e-10)


class TestMarginalVariances:
    @DENSE
    def test_diagonal_matrix(self, backend):
        f = factorize(SparseSymmetric.from_dense(4.0 * np.eye(6)))
        assert np.allclose(f.marginal_variances(), 0.25)

    @DENSE
    def test_identity(self, backend):
        f = factorize(SparseSymmetric.from_dense(np.eye(6)))
        assert np.allclose(f.marginal_variances(), 1.0)

    def test_tridiagonal_against_dense_inverse(self):
        a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        f = factorize(SparseSymmetric.from_dense(a))
        assert np.allclose(f.marginal_variances(), np.diag(np.linalg.inv(a)), atol=1e-12)

    @DENSE
    def test_random_against_dense_upto_200(self, backend):
        a = random_sparse_spd(200, seed=5)
        f = factorize(SparseSymmetric.from_dense(a))
        assert np.allclose(f.marginal_variances(), np.diag(np.linalg.inv(a)), atol=1e-8)

    def test_takahashi_path_beyond_dense_cutoff(self):
        # a larger system, well above the block dimensions of the bundled models
        n = 520
        diag = np.full(n, 4.0)
        rows = np.r_[np.arange(n), np.arange(1, n)]
        cols = np.r_[np.arange(n), np.arange(n - 1)]
        vals = np.r_[diag, -np.ones(n - 1)]
        q = SparseSymmetric.from_coo(n, rows, cols, vals)
        f = factorize(q)
        assert np.allclose(f.marginal_variances(),
                           np.diag(np.linalg.inv(q.to_dense())), atol=1e-8)


class TestSparseSymmetric:
    def test_from_coo_coalesces_duplicates(self):
        q = SparseSymmetric.from_coo(2, [0, 0, 1, 0], [0, 0, 0, 1], [1.0, 2.0, 5.0, 1.0])
        dense = q.to_dense()
        assert dense[0, 0] == 3.0
        assert dense[1, 0] == 6.0 and dense[0, 1] == 6.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseSymmetric.from_coo(1, [0], [0], [np.inf])

    def test_rejects_asymmetric_dense(self):
        with pytest.raises(ValueError):
            SparseSymmetric.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_quad_form_and_matvec(self):
        a = random_sparse_spd(20, seed=11)
        q = SparseSymmetric.from_dense(a)
        x = np.random.default_rng(1).normal(size=20)
        assert abs(q.quad_form(x) - x @ a @ x) < 1e-10 * (1 + abs(x @ a @ x))
        assert np.allclose(q.matvec(x), a @ x, atol=1e-10)

    def test_min_degree_is_permutation(self):
        a = random_sparse_spd(30, seed=14)
        q = SparseSymmetric.from_dense(a)
        perm = min_degree_ordering(q.n, q.indptr, q.indices)
        assert sorted(perm.tolist()) == list(range(30))


class TestStructureCache:
    def test_z_prior_results_share_one_filled_cache(self):
        from lgmsplit.datasets import generate_lattice
        from lgmsplit.model import build_model
        _, spec, _ = generate_lattice(4, 3, seed=1)
        m = build_model(spec)
        theta = np.zeros(m.dim_theta)
        a, b = m.z_prior(theta), m.z_prior(theta)
        a.quad_form(np.ones(a.n))
        factorize(b, ordering=m.z_ordering())
        assert a._struct_cache is b._struct_cache
        assert "cols" in b._struct_cache
        assert len(a._struct_cache) == 3     # cols, offdiag, one permutation
