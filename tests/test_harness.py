import math
import os

import numpy as np
import pytest

from driftboost import cli
from driftboost import conditions as cnd
from driftboost import harness as hz
from driftboost.potentials import EXP, ZERO_ONE, LossSpec

ZO = LossSpec(ZERO_ONE)


def write_csv(path, rows, header="a,b,label"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def window_csv(path, m, gamma_prime):
    d, _, _ = cnd.window_fixture(m, gamma_prime)
    with open(path, "w") as fh:
        fh.write("x,label\n")
        for row, y in zip(d.features, d.labels):
            fh.write(f"{row[0]},{y}\n")


class TestLoadCsv:
    def test_basic_two_class(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(0, 1.5, "cat"), (1, 2.5, "dog"),
                      (2, 0.5, "cat"), (3, 9.0, "dog")])
        d, meta = hz.load_csv(p)
        assert d.m == 4 and d.k == 2
        assert meta["label_map"] == {"cat": 1, "dog": 2}
        assert meta["kinds"] == {"a": "numeric", "b": "numeric"}

    def test_mixed_kinds_and_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [("x", 1, "u"), ("y", 2, "v"), ("x", 3, "u")],
                  header="color,label,size")
        d, meta = hz.load_csv(p, label_column="label")
        assert meta["kinds"] == {"color": "categorical",
                                 "size": "categorical"}
        assert d.labels == (1, 2, 3)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(0, 1, "a"), (1, 2, "b")])
        with pytest.raises(ValueError, match="label column"):
            hz.load_csv(p, label_column="nope")

    def test_single_class_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(0, 1, "a"), (1, 2, "a")])
        with pytest.raises(ValueError, match="single class"):
            hz.load_csv(p)

    def test_malformed_row_names_its_line(self, tmp_path):
        p = tmp_path / "d.csv"
        with open(p, "w") as fh:
            fh.write("a,label\n1,x\n2\n")
        with pytest.raises(ValueError, match=":3"):
            hz.load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            hz.load_csv(p)


class TestSplit:
    def test_deterministic_and_disjoint(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(i, i % 7, "abc"[i % 3]) for i in range(30)])
        d, _ = hz.load_csv(p)
        a1, b1 = hz.split_dataset(d, 0.8, 5)
        a2, b2 = hz.split_dataset(d, 0.8, 5)
        assert a1.features == a2.features and b1.labels == b2.labels
        assert a1.m + b1.m == d.m
        seen = set(a1.features) | set(b1.features)
        assert len(seen) == d.m


class TestRunExperiment:
    def test_window_reaches_zero_error(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "run1"
        cfg = {"data": str(data), "out": str(out), "rounds": 60,
               "algo": "mm-approx", "learner": "greedy", "tree_size": 5,
               "split": 0.99, "seed": 0}
        metrics = hz.run_experiment(cfg)
        assert metrics["train_error"] == 0.0
        lines = (out / "run.tsv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0].split("\t") == ["t", "delta", "alpha", "Z",
                                       "train_error", "test_error"]
        assert len(body) - 1 == metrics["rounds_run"]
        assert (out / "model.json").exists()
        assert (out / "metrics.tsv").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            hz.run_experiment({"data": str(data), "out": str(out),
                               "rounds": 12, "seed": 3, "split": 0.8})
            blobs.append((out / "run.tsv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_zero_rounds(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "r0"
        metrics = hz.run_experiment({"data": str(data), "out": str(out),
                                     "rounds": 0})
        assert metrics["rounds_run"] == 0
        assert metrics["train_error"] == 1.0

    def test_os_algo_runs(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "os"
        metrics = hz.run_experiment({"data": str(data), "out": str(out),
                                     "rounds": 5, "algo": "os",
                                     "gamma": 0.0, "split": 0.9})
        assert 0.0 <= metrics["train_error"] <= 1.0


class TestEvalModel:
    def test_roundtrip(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "run"
        metrics = hz.run_experiment({"data": str(data), "out": str(out),
                                     "rounds": 30, "split": 0.99, "seed": 0})
        got = hz.eval_model(out / "model.json", data)
        assert got["m"] == 11
        # trained on 10 of 11 rows; full-set error is near the train error
        assert got["error"] <= metrics["train_error"] + 1 / 11 + 1e-9


class TestEmitters:
    def test_potential_table_figure_column(self):
        text = hz.emit_potential_table(6, 0.0, 10, ZO)
        vals = [float(l.split("\t")[1]) for l in text.splitlines()[2:]]
        want = [1.0, 0.8333, 0.9722, 0.9259, 0.8912, 0.8873, 0.9013,
                0.9058, 0.8955, 0.8858]
        for got, w in zip(vals[:10], want):
            assert round(got, 4) == w
        assert vals[10] == pytest.approx(0.8848833106297312, abs=1e-12)

    def test_potential_table_t0_always_one(self):
        for k in (2, 3, 6):
            text = hz.emit_potential_table(k, 0.3, 0, ZO)
            assert float(text.splitlines()[2].split("\t")[1]) == 1.0

    def test_potential_monotone_in_k(self):
        finals = []
        for k in (2, 3, 4, 6):
            text = hz.emit_potential_table(k, 0.1, 10, ZO)
            finals.append(float(text.splitlines()[-1].split("\t")[1]))
        assert all(a < b for a, b in zip(finals, finals[1:]))

    def test_minimal_column_dominates(self):
        text = hz.emit_potential_table(3, 0.1, 6, ZO, include_minimal=True)
        for line in text.splitlines()[2:]:
            _, fixed, minimal = line.split("\t")
            assert float(minimal) >= float(fixed) - 1e-12

    def test_degree_map_small_eta(self):
        text = hz.emit_degree_map(0.0, LossSpec(EXP, 0.02), 4)
        degs = {int(l.split("\t")[3]) for l in text.splitlines()[2:]}
        assert degs == {3}

    def test_degree_map_zero_one_differs_by_gamma(self):
        a = hz.emit_degree_map(0.0, ZO, 5)
        b = hz.emit_degree_map(0.4, ZO, 5)
        assert a.splitlines()[2:] != b.splitlines()[2:]


class TestEquivalenceCheck:
    def test_all_pass(self):
        passed, total, details = hz.equivalence_check(6, 25, seed=1)
        assert (passed, total) == (6, 6)


class TestFixtureFiles:
    def test_files_written(self, tmp_path):
        names = hz.write_fixture_files(tmp_path)
        assert "figure_one.csv" in names
        assert "window_m11_cost.tsv" in names
        assert "mh_overdemand_classifiers.tsv" in names
        d, _ = hz.load_csv(tmp_path / "window_m11.csv")
        assert d.m == 11 and d.k == 3


class TestCli:
    def test_train_and_eval(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "cli_run"
        rc = cli.main(["train", str(data), "--rounds", "20",
                       "--algo", "mm-approx", "--learner", "greedy",
                       "--tree-size", "5", "--seed", "0",
                       "--out", str(out)])
        assert rc == 0
        rc = cli.main(["eval", str(out / "model.json"), str(data)])
        assert rc == 0

    def test_potentials_and_degree_map(self, tmp_path):
        out = tmp_path / "pot"
        assert cli.main(["potentials", "--k", "6", "--gamma", "0",
                         "--rounds", "5", "--out", str(out)]) == 0
        text = (out / "potentials.tsv").read_text()
        assert text.startswith("# potential_table")
        assert cli.main(["degree-map", "--gamma", "0.1", "--loss", "exp",
                         "--eta", "0.1", "--rounds", "3",
                         "--out", str(out)]) == 0
        lines = (out / "degree_map.tsv").read_text().splitlines()
        assert "degree" in lines[1]

    def test_fixtures_and_equivalence(self, tmp_path):
        assert cli.main(["fixtures", "--out", str(tmp_path / "fx")]) == 0
        assert cli.main(["equivalence-check", "--trials", "3",
                         "--rounds", "15", "--seed", "2"]) == 0

    def test_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIFTBOOST_OUT", str(tmp_path / "envout"))
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        assert cli.main(["train", str(data), "--rounds", "3"]) == 0
        assert (tmp_path / "envout" / "model.json").exists()

    def test_z_contraction_violation_is_an_error(self, tmp_path,
                                                 monkeypatch, capsys):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        real = hz.boosters.adaboost_mm

        def grows_z(*args, **kwargs):
            run = real(*args, **kwargs)
            first = run.rounds[0]
            assert first.edge >= 0.0
            assert first.alpha < hz.boosters.ALPHA_MAX
            first.Z_after = 2.0 * first.Z_prev
            return run

        monkeypatch.setattr(hz.boosters, "adaboost_mm", grows_z)
        rc = cli.main(["train", str(data), "--rounds", "3",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: round 1: Z contraction violated")
        assert "Traceback" not in err
