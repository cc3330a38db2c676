import hashlib
import math

import numpy as np
import pytest

from lgmsplit.datasets import (LatticeParams, data_to_csv, generate_lattice,
                               graph_to_text, load_rats, rats_file_paths,
                               square_lattice_graph, write_lattice_files,
                               _sample_icar)
from lgmsplit.model import ModelError, build_model

RATS_CSV_SHA256 = "a7c5b5ff963d5c9fcf61eafa4120254fd7f30147f6d43ff8efe20df8609838d5"

# sha256 of the (csv, model, graph) files that write_lattice_files writes for
# (side, periods, seed); (4, 3, 1) is the lattice-cut benchmark input
LATTICE_SHA256 = {
    (4, 3, 1): ("61a84eabeb6a64f4dcc6d126857299039f0b9c3b3c7843d60bec10a65c8bff9a",
                "8c2138e14b0f052a1a8ef55dbff32d42001cf7af2dc5336bf3552f8325ed7641",
                "c3f64e9612f56a46506eae9cbcbaef9696e6d4a120231dc7ea60a946a9533756"),
    (8, 3, 2): ("8a9b05e7f151eea6cc5e420bd64b651b996b3b653926c2a370071bcc79d81028",
                "8c2138e14b0f052a1a8ef55dbff32d42001cf7af2dc5336bf3552f8325ed7641",
                "a7cecea0d18857cc138f4da1a761a5edb46d5c167e5147dc5d9043edfff76ba1"),
}


class TestRats:
    def test_digest_guards_accidental_edits(self):
        csv_path, _ = rats_file_paths()
        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == RATS_CSV_SHA256

    def test_shape(self):
        data, spec = load_rats()
        assert data.n_rows == 150
        labels = data.labels("rat")
        assert len(set(labels)) == 30
        assert labels.count("1") == 5  # five measurements per animal
        assert np.all(data.numeric("y") > 0)

    def test_centered_ages(self):
        data, _ = load_rats()
        t = data.numeric("t")
        ages = data.numeric("age")
        assert np.allclose(t, ages - 22.0)
        assert sorted(set(ages.tolist())) == [8.0, 15.0, 22.0, 29.0, 36.0]

    def test_spec_compiles(self, rats_model):
        assert rats_model.latent_dim == 212
        assert rats_model.theta_names() == ["data_precision", "growth[0]",
                                            "growth[1]", "growth[2]"]


class TestLattice:
    def test_structure(self):
        data, spec, graph = generate_lattice(4, 3, seed=5)
        assert graph.n_nodes == 16
        # corner/edge/interior degrees on a rook lattice
        assert sorted(graph.degrees.tolist()) == [2] * 4 + [3] * 8 + [4] * 4
        assert data.n_rows == 16 * 3
        m = build_model(spec)
        assert m.dim_theta == 2
        assert m.n_constraints == 1

    def test_reproducible_for_fixed_seed(self):
        a = generate_lattice(5, 2, seed=42)
        b = generate_lattice(5, 2, seed=42)
        assert data_to_csv(a[0]) == data_to_csv(b[0])
        assert graph_to_text(a[2]) == graph_to_text(b[2])
        c = generate_lattice(5, 2, seed=43)
        assert data_to_csv(c[0]) != data_to_csv(a[0])

    @pytest.mark.parametrize("args", sorted(LATTICE_SHA256),
                             ids=lambda args: "x".join(map(str, args)))
    def test_written_files_are_pinned(self, tmp_path, args):
        digests = []
        for path in write_lattice_files(str(tmp_path), *args):
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert tuple(digests) == LATTICE_SHA256[args]

    def test_smooth_field_sums_to_zero(self):
        graph = square_lattice_graph(6)
        rng = np.random.default_rng(0)
        u = _sample_icar(graph, 0.4, rng)
        assert abs(u.sum()) < 1e-8

    def test_counts_track_exposure_scale(self):
        # with tiny random-effect scales and no trend the ratio y/E centers
        # on exp(mu) within monte carlo error
        params = LatticeParams(mu=-0.4, beta=0.0, sigma_u=0.02, sigma_v=0.02)
        data, _, _ = generate_lattice(12, 2, seed=9, params=params)
        ratio = data.numeric("y") / data.numeric("E")
        se = ratio.std(ddof=1) / math.sqrt(ratio.size)
        assert abs(ratio.mean() - math.exp(-0.4)) <= 3 * se

    def test_invalid_sizes(self):
        with pytest.raises(ModelError):
            generate_lattice(2, 3, seed=1)
        with pytest.raises(ModelError):
            generate_lattice(4, 1, seed=1)
