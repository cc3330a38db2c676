import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmsplit.model import (AdjacencyGraph, Besag, DataTable, Fixed,
                            FixedOmega, FixedPrecision, GaussianThetaPrior,
                            Iid, Iid2d, Intercept, LikelihoodFamily,
                            LogGammaPrior, ModelError, ModelSpec,
                            TIE_PRECISION, build_model,
                            canonical_label, read_adjacency,
                            read_data_csv, read_model_json, wishart2d_internal)


def gaussian_model(n=6, seed=0, blocks=None, tau=1.5):
    rng = np.random.default_rng(seed)
    data = DataTable({"y": rng.normal(size=n) + 1.0,
                      "g": [str(i % 3) for i in range(n)],
                      "z": rng.normal(size=n)})
    blocks = blocks or [Intercept(precision=0.1)]
    spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(tau)),
                     "y", blocks, data)
    return build_model(spec)


class TestDataTable:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(ModelError):
            DataTable({"a": [1.0, 2.0], "b": [1.0]})

    def test_labels_canonicalize_integers(self):
        dt = DataTable({"g": [1.0, 2.0, 1.0]})
        assert dt.labels("g") == ["1", "2", "1"]

    def test_numeric_rejects_missing_by_default(self):
        dt = DataTable({"x": [1.0, np.nan]})
        with pytest.raises(ModelError):
            dt.numeric("x")
        assert np.isnan(dt.numeric("x", allow_missing=True)[1])

    def test_unknown_column(self):
        dt = DataTable({"x": [1.0]})
        with pytest.raises(ModelError):
            dt.numeric("nope")


class TestCsvReader:
    def test_roundtrip_with_missing(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g\n1.5,a\nNA,b\n2.5,a\n")
        dt = read_data_csv(str(p))
        assert dt.n_rows == 3
        assert np.isnan(dt.columns["y"][1])
        assert dt.labels("g") == ["a", "b", "a"]

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g\n1.5\n")
        with pytest.raises(ModelError):
            read_data_csv(str(p))


class TestAdjacency:
    def test_reader(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("1: 2\n2: 1 3\n3: 2\n")
        g = read_adjacency(str(p))
        assert g.n_nodes == 3
        assert list(g.degrees) == [1, 2, 1]
        assert g.n_components == 1

    def test_asymmetric_rejected(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("1: 2\n2:\n")
        with pytest.raises(ModelError):
            read_adjacency(str(p))

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            AdjacencyGraph(["a"], [[0]])

    def test_components_recorded(self):
        g = AdjacencyGraph(["a", "b", "c", "d"], [[1], [0], [3], [2]])
        assert g.n_components == 2
        assert list(g.components) == [0, 0, 1, 1]


class TestBuildModel:
    def test_intercept_only_dimension(self):
        data = DataTable({"y": [1.0, 2.0, 3.0]})
        spec = ModelSpec(LikelihoodFamily("gaussian"), "y", [Intercept()], data)
        m = build_model(spec)
        assert m.latent_dim == 4  # 3 eta + 1 intercept

    def test_rats_dimensions(self, rats_model):
        assert rats_model.latent_dim == 150 + 2 + 60
        assert rats_model.dim_theta == 4

    def test_latent_layout_is_bijection(self, rats_model):
        labels = rats_model.latent_labels()
        assert len(labels) == rats_model.latent_dim
        assert len(set(labels)) == rats_model.latent_dim

    def test_besag_two_node_block(self):
        # iCAR precision of a 2-node graph, from the conditional specification
        g = AdjacencyGraph(["1", "2"], [[1], [0]])
        data = DataTable({"y": [1.0, 2.0], "r": ["1", "2"]})
        spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0)),
                         "y", [Besag("r", g, prior=FixedPrecision(4.0))], data)
        m = build_model(spec)
        block = m.z_prior(np.zeros(0), inference=False).to_dense()
        assert np.allclose(block, 4.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert m.n_constraints == 1
        assert np.allclose(m.z_constraints[0], 1.0)

    def test_besag_row_sums_zero_before_constraints(self):
        g = AdjacencyGraph([str(i) for i in range(4)],
                           [[1, 2], [0, 3], [0, 3], [1, 2]])
        data = DataTable({"y": [1.0] * 4, "r": [str(i) for i in range(4)]})
        spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0)),
                         "y", [Besag("r", g, prior=FixedPrecision(2.0))], data)
        m = build_model(spec)
        block = m.z_prior(np.zeros(0), inference=False).to_dense()
        assert np.allclose(block.sum(axis=1), 0.0, atol=1e-9)

    def test_prior_precision_psd_and_pd_after_constraints(self):
        # dense eigenvalue check on a small mixed model.  Eliminating the
        # predictor through the tie leaves z_prior as the Schur complement of
        # the tied joint, so the joint is PSD (PD on the constraint null
        # space) exactly when z_prior is.
        rng = np.random.default_rng(1)
        g = AdjacencyGraph([str(i) for i in range(4)],
                           [[1, 2], [0, 3], [0, 3], [1, 2]])
        data = DataTable({"y": rng.normal(size=8),
                          "r": [str(i % 4) for i in range(8)],
                          "z": rng.normal(size=8)})
        spec = ModelSpec(LikelihoodFamily("gaussian"), "y",
                         [Intercept(precision=0.5), Fixed("z", precision=0.5),
                          Besag("r", g, prior=LogGammaPrior(1.0, 0.01))], data)
        m = build_model(spec)
        for theta in ([0.0, 0.0], [1.0, -1.0], [-2.0, 0.5]):
            q = m.z_prior(np.array(theta), inference=False).to_dense()
            lam = np.linalg.eigvalsh(q)
            scale = np.abs(lam).max()
            assert lam.min() > -1e-9 * scale  # positive semidefinite
            # restricted to the constraint null space it is positive definite,
            # clear of the eigensolver noise floor at its scale
            a = m.z_constraints
            _, _, vt = np.linalg.svd(a)
            null = vt[a.shape[0]:].T
            lam_c = np.linalg.eigvalsh(null.T @ q @ null)
            assert lam_c.min() > 1e-7 * scale * np.finfo(float).eps * q.shape[0]
            assert lam_c.min() > 0

    def test_prior_log_det_matches_dense(self):
        # the tied joint has log det n_rows * log(kappa) + log det z_prior
        m = gaussian_model(blocks=[Intercept(precision=0.2),
                                   Iid("g", prior=LogGammaPrior(1.0, 1.0))])
        for th in ([0.0], [1.2], [-0.7]):
            q = m.z_prior(np.array(th)).to_dense()
            sign, ld = np.linalg.slogdet(q)
            ld += m.n_rows * math.log(TIE_PRECISION)
            assert abs(m.prior_log_det(np.array(th)) - ld) < 1e-5

    def test_unknown_columns_raise(self):
        data = DataTable({"y": [1.0, 2.0]})
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("gaussian"), "nope",
                                  [Intercept()], data))
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("gaussian"), "y",
                                  [Fixed("zz")], data))

    def test_besag_requires_adjacency(self):
        with pytest.raises(ModelError):
            Besag("r", None)

    def test_poisson_response_validation(self):
        data = DataTable({"y": [1.5, 2.0], "E": [1.0, 1.0]})
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("poisson"), "y", [Intercept()], data))
        data2 = DataTable({"y": [-1.0, 2.0]})
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("poisson"), "y", [Intercept()], data2))

    def test_offset_must_be_positive(self):
        data = DataTable({"y": [1.0, 2.0], "E": [1.0, 0.0]})
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("poisson", offset="E"), "y",
                                  [Intercept()], data))

    def test_covariate_missing_rejected(self):
        data = DataTable({"y": [1.0, 2.0], "z": [1.0, np.nan]})
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("gaussian"), "y", [Fixed("z")], data))

    def test_iid2d_interleaved_layout(self):
        data = DataTable({"y": [1.0, 2.0, 3.0, 4.0],
                          "g": ["a", "a", "b", "b"],
                          "t": [0.5, 1.5, 0.5, 1.5]})
        blk = Iid2d("g", "t", prior=FixedOmega(np.eye(2)))
        m = build_model(ModelSpec(
            LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0)),
            "y", [blk], data))
        assert blk.size == 4  # even, one (intercept, slope) pair per unit
        a = m.design
        assert np.allclose(a[0], [1.0, 0.5, 0.0, 0.0])
        assert np.allclose(a[3], [0.0, 0.0, 1.0, 1.5])

    def test_theta_dimension_cap(self):
        data = DataTable({"y": np.ones(4), "g": ["a", "b", "a", "b"]})
        blocks = [Iid("g", name=f"b{i}") for i in range(21)]
        with pytest.raises(ModelError):
            build_model(ModelSpec(LikelihoodFamily("poisson"), "y", blocks, data))


class TestMaskRows:
    def test_empty_mask_is_identity(self):
        m = gaussian_model()
        m2 = m.mask_rows([])
        x = np.random.default_rng(0).normal(size=m.n_rows)
        th = np.zeros(0)
        assert m.log_likelihood(x, th) == m2.log_likelihood(x, th)

    def test_mask_all_rows_gives_prior(self):
        from lgmsplit.inference import gaussian_approximation
        m = gaussian_model()
        m2 = m.mask_rows(range(m.n_rows))
        approx = gaussian_approximation(m2, np.zeros(0))
        assert np.allclose(approx.mode, 0.0)  # prior mean
        # posterior variance equals prior variance for the intercept
        assert abs(approx.marginal_variances()[-1] - 1.0 / 0.1) < 1e-6

    def test_mask_composes_as_union(self):
        m = gaussian_model(n=8)
        rng = np.random.default_rng(3)
        x = rng.normal(size=m.n_rows)
        th = np.zeros(0)
        a, b = [0, 2], [2, 5, 7]
        m_ab = m.mask_rows(a).mask_rows(b)
        m_union = m.mask_rows(sorted(set(a) | set(b)))
        assert m_ab.log_likelihood(x, th) == m_union.log_likelihood(x, th)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=6),
           st.lists(st.integers(min_value=0, max_value=7), max_size=6))
    def test_mask_union_property(self, a, b):
        m = gaussian_model(n=8)
        x = np.linspace(-1, 1, m.n_rows)
        th = np.zeros(0)
        lhs = m.mask_rows(a).mask_rows(b).log_likelihood(x, th)
        rhs = m.mask_rows(sorted(set(a) | set(b))).log_likelihood(x, th)
        assert lhs == rhs

    def test_leave_one_out_conjugate_mean(self):
        # near-flat prior on the mean: the LOO posterior mean is the LOO average
        from lgmsplit.inference import gaussian_approximation
        rng = np.random.default_rng(8)
        y = rng.normal(size=10) + 3.0
        data = DataTable({"y": y})
        spec = ModelSpec(LikelihoodFamily("gaussian", prec_prior=FixedPrecision(1.0)),
                         "y", [Intercept(precision=1e-12)], data)
        m = build_model(spec)
        masked = m.mask_rows([4])
        approx = gaussian_approximation(masked, np.zeros(0))
        loo_mean = (y.sum() - y[4]) / 9.0
        assert abs(approx.mode[-1] - loo_mean) < 1e-6

    def test_out_of_range_rejected(self):
        m = gaussian_model()
        with pytest.raises(ModelError):
            m.mask_rows([99])


class TestWishart2dInternal:
    R = np.diag([200.0, 0.2])

    def test_density_integrates_to_one(self):
        # wide-box trapezoid quadrature over the internal scale
        n1 = 101
        t1 = np.linspace(-22.0, 6.0, n1)
        t2 = np.linspace(-15.0, 13.0, n1)
        t3 = np.linspace(-9.0, 9.0, n1)
        total = np.zeros((n1, n1, n1))
        grid23 = np.stack(np.meshgrid(t2, t3, indexing="ij"), axis=-1)
        for i, a in enumerate(t1):
            pts = np.concatenate([np.full(grid23.shape[:-1] + (1,), a), grid23], axis=-1)
            total[i] = np.exp(wishart2d_internal(self.R, 2.0, pts.reshape(-1, 3))
                              .reshape(n1, n1))
        integral = np.trapezoid(np.trapezoid(np.trapezoid(total, t3, axis=2),
                                             t2, axis=1), t1, axis=0)
        assert abs(integral - 1.0) < 5e-3

    def test_jacobian_against_finite_differences(self):
        # the transform Jacobian, checked by numerically differentiating the
        # map internal-scale -> precision entries and using scipy's wishart
        theta = np.array([0.4, -0.7, 0.3])

        def omega_vec(t):
            rho = np.tanh(t[2])
            s1, s2 = np.exp(-t[0]), np.exp(-t[1])
            cov = np.array([[s1, rho * np.sqrt(s1 * s2)],
                            [rho * np.sqrt(s1 * s2), s2]])
            w = np.linalg.inv(cov)
            return np.array([w[0, 0], w[1, 1], w[0, 1]])

        h = 1e-6
        jac = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            jac[:, k] = (omega_vec(theta + e) - omega_vec(theta - e)) / (2 * h)
        v = omega_vec(theta)
        omega = np.array([[v[0], v[2]], [v[2], v[1]]])
        ref = (scipy.stats.wishart.logpdf(omega, df=2, scale=np.linalg.inv(self.R))
               + math.log(abs(np.linalg.det(jac))))
        assert abs(wishart2d_internal(self.R, 2.0, theta) - ref) < 1e-6

    def test_jacobian_at_origin(self):
        # unit precisions, zero correlation: |det J| = 1, so the value is the
        # plain wishart log density at the identity
        ref = scipy.stats.wishart.logpdf(np.eye(2), df=2, scale=np.linalg.inv(self.R))
        assert abs(wishart2d_internal(self.R, 2.0, np.zeros(3)) - ref) < 1e-10

    def test_slot_swap_symmetry_for_isotropic_scale(self):
        r_iso = 3.0 * np.eye(2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.normal(size=3)
            swapped = np.array([t[1], t[0], t[2]])
            assert (wishart2d_internal(r_iso, 2.5, t)
                    == pytest.approx(wishart2d_internal(r_iso, 2.5, swapped), abs=1e-12))

    def test_invalid_scale_matrix(self):
        with pytest.raises(ModelError):
            wishart2d_internal(np.array([[1.0, 2.0], [2.0, 1.0]]), 2.0, np.zeros(3))
        with pytest.raises(ModelError):
            wishart2d_internal(np.eye(2), 1.0, np.zeros(3))


class TestModelJson:
    def test_rats_document_loads(self, tmp_path):
        from lgmsplit.datasets import rats_file_paths
        csv_path, json_path = rats_file_paths()
        data = read_data_csv(csv_path)
        spec = read_model_json(json_path, data)
        m = build_model(spec)
        assert m.dim_theta == 4
        assert spec.group == "rat"

    def test_unknown_prior_name_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "likelihood": "gaussian", "response": "y",
            "effects": [{"type": "intercept"}],
            "priors": {"nosuch": {"type": "loggamma", "a": 1, "b": 1}},
        }))
        data = DataTable({"y": [1.0, 2.0]})
        with pytest.raises(ModelError):
            read_model_json(str(p), data)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"response": "y", "effects": []}))
        with pytest.raises(ModelError):
            read_model_json(str(p), DataTable({"y": [1.0]}))

    def test_poisson_rejects_data_precision_prior(self, tmp_path):
        # a poisson likelihood has no precision, so the prior cannot apply
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "likelihood": "poisson", "response": "y",
            "effects": [{"type": "intercept"}],
            "priors": {"data_precision": {"type": "loggamma", "a": 1, "b": 1}},
        }))
        data = DataTable({"y": [1.0, 2.0]})
        with pytest.raises(ModelError):
            read_model_json(str(p), data)

    def test_gaussian_theta_prior_via_reserved_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "likelihood": "gaussian", "response": "y",
            "effects": [{"type": "intercept"}],
            "priors": {"data_precision": {"type": "loggamma", "a": 1, "b": 1},
                       "theta": {"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}},
        }))
        data = DataTable({"y": [1.0, 2.0]})
        spec = read_model_json(str(p), data)
        m = build_model(spec)
        assert isinstance(spec.theta_prior, GaussianThetaPrior)
        assert m.log_prior_theta(np.zeros(1)) == pytest.approx(
            -0.5 * math.log(2 * math.pi))


class TestPriors:
    def test_loggamma_density(self):
        # log-scale density of Gamma(a, b) on the precision
        prior = LogGammaPrior(2.0, 3.0)
        th = 0.4
        tau = math.exp(th)
        ref = scipy.stats.gamma.logpdf(tau, 2.0, scale=1.0 / 3.0) + th  # + log Jacobian
        assert abs(prior.log_density(np.array([th])) - ref) < 1e-12

    def test_gaussian_theta_prior_dimension_check(self):
        m = gaussian_model(blocks=[Intercept(), Iid("g")])
        with pytest.raises(ModelError):
            m.with_theta_prior(GaussianThetaPrior([0.0, 0.0], np.eye(2)))

    def test_fixed_precision_validation(self):
        with pytest.raises(ModelError):
            FixedPrecision(-1.0)
        with pytest.raises(ModelError):
            FixedOmega(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_canonical_label():
    assert canonical_label(1.0) == "1"
    assert canonical_label("  7 ") == "7"
    assert canonical_label("abc") == "abc"
    assert canonical_label(1.5) == "1.5"
