import json
import math
import pickle

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmsplit.model import (AdjacencyGraph, BESAG_JITTER, Besag, DataTable,
                            Fixed, FixedOmega, FixedPrecision,
                            GaussianThetaPrior, Iid, Iid2d, Intercept,
                            LikelihoodFamily, LogGammaPrior, ModelError,
                            ModelSpec, TIE_PRECISION, Wishart2dPrior,
                            build_model, canonical_label, read_adjacency,
                            read_data_csv, read_model_json, wishart2d_internal)

from conftest import two_component_besag


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

    @pytest.mark.parametrize("col", [
        ["01", " 2 ", "3.0", "2.5", "a", "1", "a", "01", "-0", "0", " a"],
        [3.0, 2.5, 1.0, 3.0, -0.0, 0.0, 1e20, 2.5, -7.0],
    ])
    def test_labels_match_per_row_canonicalization(self, col):
        dt = DataTable({"g": col})
        assert dt.labels("g") == [canonical_label(v) for v in dt.columns["g"]]

    def test_factor_levels_in_first_appearance_order(self):
        dt = DataTable({"g": ["b", "01", "a", " 1", "b", "1.0"]})
        levels, codes = dt.factor("g")
        assert levels == ["b", "1", "a"]
        assert codes.tolist() == [0, 1, 2, 1, 0, 1]
        assert dt.labels("g") == ["b", "1", "a", "1", "b", "1"]

    def test_factor_rejects_missing(self):
        for col in (["a", None], [1.0, np.nan]):
            with pytest.raises(ModelError, match="missing values"):
                DataTable({"g": col}).factor("g")

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

    @pytest.mark.parametrize("header", ["a,a", "a,b,a", " a ,b,a"])
    def test_duplicate_header_rejected(self, tmp_path, header):
        # a repeated name must not merge two columns into one
        p = tmp_path / "d.csv"
        width = header.count(",") + 1
        p.write_text(header + "\n" + ",".join(["1"] * width) + "\n"
                     + ",".join(["2"] * width) + "\n")
        with pytest.raises(ModelError, match="duplicate column name 'a'"):
            read_data_csv(str(p))

    @pytest.mark.parametrize("header, position", [("a,,b", 2), ("a,b,", 3), (" ,a", 1)])
    def test_empty_header_name_rejected(self, tmp_path, header, position):
        p = tmp_path / "d.csv"
        p.write_text(header + "\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n")
        with pytest.raises(ModelError, match=f"header column {position} has no name"):
            read_data_csv(str(p))

    def test_crlf_blank_lines_and_padding(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b" y , g \r\n\r\n 1.5 , a \r\n   \r\nNA,b\r\n")
        dt = read_data_csv(str(p))
        assert list(dt.columns) == ["y", "g"]
        assert dt.columns["y"][0] == 1.5 and np.isnan(dt.columns["y"][1])
        assert dt.columns["g"].tolist() == ["a", "b"]

    def test_column_types(self, tmp_path):
        # numeric when every field but NA parses as a float, else strings
        p = tmp_path / "d.csv"
        p.write_text("x,s,t,u\n1,1,NA,nan\n2.5,b,NA,1e3\nNA,NA,NA,-inf\n")
        dt = read_data_csv(str(p))
        assert dt.columns["x"].dtype == float and np.isnan(dt.columns["x"][2])
        assert dt.columns["s"].tolist() == ["1", "b", None]
        assert dt.columns["t"].dtype == float and np.isnan(dt.columns["t"]).all()
        assert dt.columns["u"].dtype == float and dt.columns["u"][2] == -math.inf

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,g\n\n")
        with pytest.raises(ModelError, match="at least one row"):
            read_data_csv(str(p))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.none(), st.floats(allow_infinity=False, allow_nan=False)),
                 min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.from_regex(r"s[a-z0-9_.]{0,5}", fullmatch=True)),
                 min_size=n, max_size=n))))
    def test_roundtrip_through_data_to_csv(self, tmp_path_factory, cols):
        from lgmsplit.datasets import data_to_csv
        x, s = cols
        table = DataTable({"x": [np.nan if v is None else v for v in x],
                           "s": np.array(s, dtype=object)})
        p = tmp_path_factory.mktemp("csv") / "d.csv"
        p.write_text(data_to_csv(table))
        back = read_data_csv(str(p))
        assert list(back.columns) == ["x", "s"]
        assert back.columns["x"].dtype == float
        assert np.array_equal(back.columns["x"], table.columns["x"], equal_nan=True)
        if all(v is None for v in s):       # an all-NA column reads as numeric
            assert np.isnan(back.columns["s"]).all()
        else:
            assert back.columns["s"].tolist() == s


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

    def test_neighbours_sorted_and_unique(self):
        g = AdjacencyGraph(["a", "b", "c"], [[2, 1, 1], [0], [0, 0]])
        assert g.neighbors == [[1, 2], [0], [0]]
        assert g.degrees.tolist() == [2, 1, 1]
        assert g.structure().tolist() == [[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]

    @pytest.mark.parametrize("neighbors, index", [([[1], [0, 5]], 5), ([[1, -1], [0]], -1)])
    def test_out_of_range_neighbour(self, neighbors, index):
        with pytest.raises(ModelError, match=f"neighbor index {index} out of range"):
            AdjacencyGraph(["a", "b"], neighbors)

    def test_self_loop_names_first_node_in_file_order(self):
        # self loops are reported before any range or symmetry error
        with pytest.raises(ModelError, match="^self loop at node 'b'$"):
            AdjacencyGraph(["a", "b", "c"], [[7], [1, 2], [2]])

    @pytest.mark.parametrize("neighbors, message", [
        # the first offending node in file order, its neighbours in order
        ([[2, 1], [], [0]], "'a' lists 'b' but not vice versa"),
        ([[1], [0, 2], []], "'b' lists 'c' but not vice versa"),
        ([[2], [5], []], "'a' lists 'c' but not vice versa"),
    ])
    def test_asymmetry_names_first_offender(self, neighbors, message):
        with pytest.raises(ModelError, match=f"^adjacency not symmetric: {message}$"):
            AdjacencyGraph(["a", "b", "c"], neighbors)

    def test_neighbor_list_count_must_match_labels(self):
        with pytest.raises(ModelError, match="3 nodes but 2 neighbor lists"):
            AdjacencyGraph(["a", "b", "c"], [[1], [0]])

    def test_range_error_before_later_asymmetry(self):
        with pytest.raises(ModelError, match="neighbor index 9 out of range"):
            AdjacencyGraph(["a", "b", "c"], [[1, 9], [0, 2], []])

    def test_unknown_node_token(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("1: 2\n2: 1 03\n")
        with pytest.raises(ModelError, match="adjacency references unknown node '3'"):
            read_adjacency(str(p))

    def test_line_without_colon(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("1: 2\n2 1\n")
        with pytest.raises(ModelError, match="malformed adjacency line: '2 1'"):
            read_adjacency(str(p))

    def test_duplicate_ids_after_canonicalization(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("1: 2\n2: 1\n1.0: 2\n")
        with pytest.raises(ModelError, match="duplicate node ids"):
            read_adjacency(str(p))

    def test_crlf_comments_and_canonical_ids(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_bytes(b"# a comment\r\n01: 2.0  3\r\n\r\n 2 : 1\r\n#3: 1\r\n3: 1.0\r\n")
        g = read_adjacency(str(p))
        assert g.labels == ["1", "2", "3"]
        assert g.neighbors == [[1, 2], [0], [0]]
        assert g.n_components == 1


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
        block = m.z_prior(np.zeros(0))
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
        # zero but for the jitter, tau * BESAG_JITTER on the diagonal
        block = m.z_prior(np.zeros(0))
        assert np.allclose(block.sum(axis=1), 2.0 * BESAG_JITTER, atol=1e-9)

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
            q = m.z_prior(np.array(theta))
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
        # the tied joint has log det n_rows * log(kappa) + log det z_prior,
        # plus log det(C z_prior^-1 C') on the space of the constraints C
        m = gaussian_model(blocks=[Intercept(precision=0.2),
                                   Iid("g", prior=LogGammaPrior(1.0, 1.0))])
        besag = two_component_besag()[0]
        assert besag.n_constraints == 2
        for model, thetas in ((m, ([0.0], [1.2], [-0.7])),
                              (besag, ([0.0, 0.0], [1.0, -1.5], [-0.5, 2.0]))):
            for th in thetas:
                q = model.z_prior(np.array(th))
                sign, ld = np.linalg.slogdet(q)
                ld += model.n_rows * math.log(TIE_PRECISION)
                c = model.z_constraints
                if c.shape[0]:
                    ld += np.linalg.slogdet(c @ np.linalg.solve(q, c.T))[1]
                assert abs(model.prior_log_det(np.array(th)) - ld) < 1e-5

    def test_posterior_precision_is_prior_plus_weighted_design(self, rats_model):
        # the flat-position assembly against dense algebra: symmetric, with
        # every A'A pair and prior entry summed on both sides of the diagonal
        from lgmsplit.datasets import generate_lattice
        mixed = gaussian_model(n=9, seed=3, blocks=[
            Intercept(precision=0.1), Fixed("z"), Iid("g"),
            Iid2d("g", "z", prior=Wishart2dPrior(np.eye(2), 4.0))])
        lattice = build_model(generate_lattice(4, 3, seed=1)[1])
        rng = np.random.default_rng(2)
        for m in (rats_model, mixed, lattice):
            theta = 0.3 * rng.normal(size=m.dim_theta)
            w = rng.uniform(0.1, 2.0, size=m.n_rows)
            q = m.z_posterior_precision(m.z_prior(theta), w)
            assert np.array_equal(q, q.T)
            want = m.z_prior(theta) + m.design.T @ (w[:, None] * m.design)
            assert np.allclose(q, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

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

    def test_seven_hyperparameters_refused(self):
        # one data precision and two Wishart blocks: 7 > MAX_THETA_DIM, a
        # dimension whose grid would not fit the grid-size cap
        wishart = Wishart2dPrior(np.eye(2), 4.0)
        blocks = [Intercept(), Iid2d("g", "z", prior=wishart, name="a"),
                  Iid2d("g", "z", prior=wishart, name="b")]
        data = DataTable({"y": np.ones(6), "g": ["a", "b", "c"] * 2,
                          "z": np.arange(6.0)})
        lik = LikelihoodFamily("gaussian", prec_prior=LogGammaPrior(1.0, 1.0))
        with pytest.raises(ModelError, match="7 hyperparameters"):
            build_model(ModelSpec(lik, "y", blocks, data))


class TestPriorTypes:
    def test_api_spec_checked_at_build(self):
        with pytest.raises(ModelError, match="Wishart2dPrior"):
            gaussian_model(blocks=[Intercept(), Iid("g", prior=Wishart2dPrior(np.eye(2), 3.0))])
        with pytest.raises(ModelError, match="FixedOmega"):
            gaussian_model(blocks=[Iid2d("g", "z", prior=FixedPrecision(1.0))])

    def test_data_precision_prior_checked(self):
        data = DataTable({"y": [1.0, 2.0]})
        lik = LikelihoodFamily("gaussian", prec_prior=FixedOmega(np.eye(2)))
        with pytest.raises(ModelError, match="data_precision"):
            build_model(ModelSpec(lik, "y", [Intercept()], data))


class TestPickle:
    """A compiled model is plain data: it pickles and restores bit for bit."""

    def assert_restores_bitwise(self, m):
        r = pickle.loads(pickle.dumps(m))
        rng = np.random.default_rng(5)
        for k in range(3):
            theta = 0.3 * rng.normal(size=m.dim_theta) if k else np.zeros(m.dim_theta)
            weights = rng.uniform(0.1, 2.0, size=m.n_rows)
            eta = rng.normal(size=m.latent_dim)
            a, b = m.z_prior(theta), r.z_prior(theta)
            assert a.tobytes() == b.tobytes()
            assert (m.z_posterior_precision(a, weights).tobytes()
                    == r.z_posterior_precision(b, weights).tobytes())
            for name in ("prior_log_det", "log_prior_theta"):
                assert repr(getattr(m, name)(theta)) == repr(getattr(r, name)(theta))
            assert repr(m.log_likelihood(eta, theta)) == repr(r.log_likelihood(eta, theta))
            for x, y in zip(m.likelihood_grad_curv(eta, theta),
                            r.likelihood_grad_curv(eta, theta)):
                assert x.tobytes() == y.tobytes()

    def test_rats(self, rats_model):
        self.assert_restores_bitwise(rats_model)

    def test_besag_lattice(self):
        from lgmsplit.datasets import generate_lattice
        _, spec, _ = generate_lattice(4, 3, seed=1)
        self.assert_restores_bitwise(build_model(spec))

    def test_fixed_precision_and_fixed_omega_blocks(self):
        self.assert_restores_bitwise(gaussian_model(n=9, seed=3, blocks=[
            Intercept(precision=0.1), Fixed("z"), Iid("g", prior=FixedPrecision(2.0)),
            Iid2d("g", "z", prior=FixedOmega(np.array([[2.0, 0.3], [0.3, 1.0]]))),
            Iid("g", prior=LogGammaPrior(1.0, 0.5), name="free")]))


def loop_design_pairs(m):
    """Per-row design pairs (a <= b in block order) by an explicit loop."""
    n = m.n_rows
    parts = [blk.design(m.spec.data) for blk in m.spec.blocks]
    drows = np.concatenate([p[0] for p in parts])
    zcols = np.concatenate([p[1] + off - n for p, off in zip(parts, m.block_offsets)])
    dvals = np.concatenate([p[2] for p in parts])
    pr_row, pr_ci, pr_cj, pr_vv = [], [], [], []
    order = np.argsort(drows, kind="stable")
    bounds = np.searchsorted(drows[order], np.arange(n + 1))
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
    return (np.array(pr_row, dtype=np.int64), np.array(pr_ci, dtype=np.int64),
            np.array(pr_cj, dtype=np.int64), np.array(pr_vv))


class TestDesignPairs:
    def assert_pairs_match_loop(self, m):
        got = (m._pair_row, m._pair_ci, m._pair_cj, m._pair_vv)
        for g, want in zip(got, loop_design_pairs(m)):
            assert g.dtype == want.dtype
            assert g.tobytes() == want.tobytes()

    def test_rats(self, rats_model):
        self.assert_pairs_match_loop(rats_model)

    def test_lattice(self):
        from lgmsplit.datasets import generate_lattice
        _, spec, _ = generate_lattice(4, 3, seed=1)
        self.assert_pairs_match_loop(build_model(spec))

    def test_mixed_blocks(self):
        m = gaussian_model(n=9, seed=3, blocks=[
            Intercept(precision=0.1), Fixed("z"), Iid("g"),
            Iid2d("g", "z", prior=FixedOmega(np.eye(2)))])
        self.assert_pairs_match_loop(m)

    def test_ragged_design_rejected(self):
        class Ragged(Intercept):
            def design(self, data):
                n = data.n_rows - 1
                return np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n)

        with pytest.raises(ModelError):
            gaussian_model(blocks=[Intercept(precision=0.1), Ragged(precision=0.1)])


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


class TestWishart2dPrior:
    """The scalar path the library runs, against the vectorized reference."""

    R = np.diag([200.0, 0.2])

    def test_matches_vectorized_reference(self):
        prior = Wishart2dPrior(self.R, 2.0)
        rng = np.random.default_rng(4)
        points = np.vstack([np.zeros(3), rng.normal(scale=2.0, size=(50, 3))])
        for t in points:
            assert prior.log_density(t) == pytest.approx(
                wishart2d_internal(self.R, 2.0, t), rel=1e-12, abs=1e-9)

    def test_beyond_cutoff_is_minus_infinity(self):
        prior = Wishart2dPrior(self.R, 2.0)
        for t in ([300.5, 0.0, 0.0], [0.0, -301.0, 0.0], [0.0, 0.0, 400.0]):
            assert prior.log_density(np.array(t)) == -math.inf


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

    @pytest.mark.parametrize("effect, prior", [
        ({"type": "iid2d", "name": "growth", "index": "rat", "slope": "t"},
         {"type": "loggamma", "a": 1, "b": 1}),
        ({"type": "iid", "name": "growth", "index": "rat"},
         {"type": "wishart2d", "R": [[1, 0], [0, 1]], "df": 3}),
    ])
    def test_wrong_prior_type_rejected_at_build(self, tmp_path, effect, prior):
        from lgmsplit.datasets import rats_file_paths
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "likelihood": "gaussian", "response": "y",
            "effects": [{"type": "intercept"}, effect],
            "priors": {"growth": prior},
        }))
        spec = read_model_json(str(p), read_data_csv(rats_file_paths()[0]))
        with pytest.raises(ModelError, match="growth"):
            build_model(spec)

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


class TestFilesToModel:
    def test_lattice_files_build_the_generated_model(self, tmp_path):
        from lgmsplit.datasets import generate_lattice, write_lattice_files
        csv_path, model_path, _ = write_lattice_files(str(tmp_path), 4, 3, 1)
        read = build_model(read_model_json(model_path, read_data_csv(csv_path)))
        generated = build_model(generate_lattice(4, 3, 1)[1])
        for name in ("design", "z_constraints", "_z_const", "_pair_pos", "_pair_take",
                     "_pair_vv", "response", "exposure"):
            assert np.array_equal(getattr(read, name), getattr(generated, name)), name
        assert read.latent_labels() == generated.latent_labels()

    def test_label_column_canonicalized_once_per_build(self, monkeypatch):
        # the lattice's besag and iid blocks both index county; a second
        # build reads the column again
        from lgmsplit.datasets import generate_lattice
        calls = []
        factor = DataTable.factor

        def counting(self, name):
            calls.append(name)
            return factor(self, name)

        monkeypatch.setattr(DataTable, "factor", counting)
        spec = generate_lattice(4, 3, 1)[1]
        build_model(spec)
        assert calls == ["county"]
        build_model(spec)
        assert calls == ["county", "county"]


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
