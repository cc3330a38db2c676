import json
import subprocess
import sys

import numpy as np
import pytest

from lgmsplit.cli import main
from lgmsplit.datasets import data_to_csv, rats_file_paths
from lgmsplit.model import DataTable
from lgmsplit.nodesplit import parse_result_csv


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "lgmsplit.cli"] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_small_dataset(tmp_path, j_groups=4, n_per=5, seed=3):
    rng = np.random.default_rng(seed)
    groups = np.repeat([str(j + 1) for j in range(j_groups)], n_per)
    y = 2.0 + rng.normal(size=j_groups) [np.repeat(np.arange(j_groups), n_per)] \
        + rng.normal(size=j_groups * n_per)
    data = DataTable({"y": y, "g": groups})
    data_path = tmp_path / "d.csv"
    data_path.write_text(data_to_csv(data, ["y", "g"]))
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps({
        "likelihood": "gaussian",
        "response": "y",
        "group": "g",
        "effects": [{"type": "intercept", "precision": 0.01},
                    {"type": "iid", "name": "groups", "index": "g"}],
        "priors": {"data_precision": {"type": "loggamma", "a": 1.0, "b": 0.5},
                   "groups": {"type": "loggamma", "a": 1.0, "b": 0.5}},
    }))
    return str(data_path), str(model_path)


class TestFitCommand:
    def test_intercept_only_recovers_sample_mean(self, tmp_path):
        rng = np.random.default_rng(0)
        y = rng.normal(size=25) + 4.0
        (tmp_path / "d.csv").write_text(
            "y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
        (tmp_path / "m.json").write_text(json.dumps({
            "likelihood": "gaussian", "response": "y",
            "effects": [{"type": "intercept", "precision": 1e-9}],
            "priors": {"data_precision": {"type": "loggamma", "a": 1.0, "b": 1.0}},
        }))
        out = tmp_path / "fit.csv"
        code = main(["fit", "--data", str(tmp_path / "d.csv"),
                     "--model", str(tmp_path / "m.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "section,name,mean,sd"
        intercept_row = [ln for ln in lines if ln.startswith("latent,intercept")][0]
        mean = float(intercept_row.split(",")[2])
        assert abs(mean - y.mean()) < 0.01

    def test_missing_data_file_exits_2(self, tmp_path):
        code, _, err = run_cli(["fit", "--data", str(tmp_path / "nope.csv"),
                                "--model", str(tmp_path / "m.json")])
        assert code == 2
        assert "error" in err

    def test_bad_model_field_named_in_error(self, tmp_path):
        data, model = write_small_dataset(tmp_path)
        (tmp_path / "bad.json").write_text(json.dumps({
            "likelihood": "gaussian", "response": "nope",
            "effects": [{"type": "intercept"}]}))
        code, _, err = run_cli(["fit", "--data", data,
                                "--model", str(tmp_path / "bad.json")])
        assert code == 2
        assert "nope" in err

    @pytest.mark.parametrize("effect, prior", [
        ({"type": "iid2d", "name": "growth", "index": "rat", "slope": "t"},
         {"type": "loggamma", "a": 0.001, "b": 0.001}),
        ({"type": "iid", "name": "growth", "index": "rat"},
         {"type": "wishart2d", "R": [[200.0, 0.0], [0.0, 0.2]], "df": 2}),
    ], ids=["iid2d-loggamma", "iid-wishart2d"])
    def test_wrong_prior_type_exits_2(self, tmp_path, effect, prior):
        csv_path, json_path = rats_file_paths()
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["effects"][2] = effect
        doc["priors"]["growth"] = prior
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code, out, err = run_cli(["fit", "--data", csv_path,
                                  "--model", str(tmp_path / "m.json")])
        assert code == 2
        assert out == ""
        assert "growth" in err and "prior" in err

    def test_seven_hyperparameters_exit_2(self, tmp_path):
        csv_path, json_path = rats_file_paths()
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["effects"].append({"type": "iid2d", "name": "growth2", "index": "rat",
                               "slope": "t"})
        doc["priors"]["growth2"] = doc["priors"]["growth"]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code, out, err = run_cli(["fit", "--data", csv_path,
                                  "--model", str(tmp_path / "m.json")])
        assert code == 2
        assert out == ""
        assert "7 hyperparameters" in err

    def test_rats_fit_emits_four_hyperparameters(self, tmp_path):
        csv_path, json_path = rats_file_paths()
        out = tmp_path / "rats_fit.json"
        code = main(["fit", "--data", csv_path, "--model", json_path,
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["hyperparameters"]) == 4
        names = {h["name"] for h in doc["hyperparameters"]}
        assert "data_precision" in names


class TestCutCommand:
    def test_table_round_trips(self, tmp_path):
        data, model = write_small_dataset(tmp_path)
        out = tmp_path / "cut.csv"
        code = main(["cut", "--data", data, "--model", model, "--out", str(out)])
        assert code == 0
        text = out.read_text()
        rows = parse_result_csv(text)
        assert len(rows) == 4
        assert all(0.0 <= r["p_value"] <= 1.0 for r in rows)
        # emit(parse(emit(x))) reproduces the text exactly
        lines = ["group,delta_hat,rank,p_value,flagged"]
        for r in rows:
            lines.append(f"{r['group']},{repr(r['delta_hat'])},{r['rank']},"
                         f"{repr(r['p_value'])},{r['flagged']}")
        assert "\n".join(lines) + "\n" == text

    def test_single_group_exits_2(self, tmp_path):
        data, model = write_small_dataset(tmp_path, j_groups=1)
        code, _, err = run_cli(["cut", "--data", data, "--model", model])
        assert code == 2
        assert "group" in err

    def test_group_flag_overrides_model(self, tmp_path):
        data, model = write_small_dataset(tmp_path)
        out = tmp_path / "cut.csv"
        code = main(["cut", "--data", data, "--model", model,
                     "--group", "g", "--out", str(out)])
        assert code == 0

    def test_invalid_q_exits_2(self, tmp_path):
        data, model = write_small_dataset(tmp_path)
        code, _, err = run_cli(["cut", "--data", data, "--model", model,
                                "--q", "1.5"])
        assert code == 2

    def test_json_output_with_full_payload(self, tmp_path):
        data, model = write_small_dataset(tmp_path)
        out = tmp_path / "cut.json"
        code = main(["cut", "--data", data, "--model", model, "--format", "json",
                     "--full", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["groups"]) == 4
        assert "delta_mean" in doc["groups"][0]
        assert "timings" in doc

    def test_partial_failure_exits_1(self, tmp_path, monkeypatch):
        import lgmsplit.cli as cli
        from lgmsplit.nodesplit import GroupOutcome, NodeSplitResult
        data, model = write_small_dataset(tmp_path)
        broken = NodeSplitResult(
            group_column="g",
            outcomes=[GroupOutcome(label="1", error="boom")],
            q=0.1, flagged=[], fit_seconds=0.0, split_seconds=0.0)
        monkeypatch.setattr(cli, "conflict_pvalues",
                            lambda *a, **k: broken)
        code = main(["cut", "--data", data, "--model", model,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_deterministic_across_runs(self, tmp_path):
        data, model = write_small_dataset(tmp_path, j_groups=5)
        outs = []
        for run in ("1", "2"):
            out = tmp_path / f"cut_{run}.csv"
            code = main(["cut", "--data", data, "--model", model,
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command, progress", [("fit", "[lgmsplit] theta mode"),
                                               ("cut", "[lgmsplit] group 1: delta=")],
                         ids=["fit", "cut"])
def test_verbose_progress_goes_to_stderr(tmp_path, command, progress):
    data, model = write_small_dataset(tmp_path)
    code, quiet, _ = run_cli([command, "--data", data, "--model", model])
    assert code == 0
    code, loud, err = run_cli([command, "--data", data, "--model", model, "-v"])
    assert code == 0
    assert loud == quiet
    assert progress in err


class TestGenLattice:
    def test_writes_three_files(self, tmp_path):
        code = main(["gen-lattice", "--m", "4", "--T", "2", "--seed", "3",
                     "--out-dir", str(tmp_path / "lat")])
        assert code == 0
        for name in ("lattice.csv", "lattice.graph", "lattice_model.json"):
            assert (tmp_path / "lat" / name).exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            main(["gen-lattice", "--m", "4", "--T", "2", "--seed", "3",
                  "--out-dir", str(tmp_path / d)])
        for name in ("lattice.csv", "lattice.graph", "lattice_model.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_generated_files_feed_fit(self, tmp_path):
        main(["gen-lattice", "--m", "3", "--T", "2", "--seed", "8",
              "--out-dir", str(tmp_path)])
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(tmp_path / "lattice.csv"),
                     "--model", str(tmp_path / "lattice_model.json"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["hyperparameters"]) == 2
