import argparse
import gc
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from driftboost import cli
from driftboost import harness as hz
from driftboost.core import (Dataset, ScoringFunction, WeakClassifier,
                             exp_risk, training_error)
from driftboost.potentials import EXP, ZERO_ONE, LossSpec
from driftboost.weaklearners import tree_from_dict

import oracles

ZO = LossSpec(ZERO_ONE)


def write_csv(path, rows, header="a,b,label"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def window_csv(path, m, gamma_prime):
    d, _, _ = hz.window_fixture(m, gamma_prime)
    with open(path, "w") as fh:
        fh.write("x,label\n")
        for x, y in zip(d.columns[0].tolist(), d.labels.tolist()):
            fh.write(f"{x},{y}\n")


def readme_invocations():
    """The argument lists of the driftboost commands in the README's CLI
    section, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("driftboost ")]


def readme_names(heading):
    """The code-quoted names, options aside, in the README's sentence
    that starts with `heading:`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(rf"{heading}: (.*?)\.(\s|$)", text, re.S).group(1)
    return sorted(name for name in re.findall(r"`([^`]+)`", sentence)
                  if not name.startswith("-"))


def train_choices(dest):
    """The choices of a `train` option in the CLI parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["train"]._actions
                if a.dest == dest)


def split_model(alpha=1.0, **fields):
    """A one-split model of the given alpha whose split node takes the
    given fields."""
    node = {"feature": 0, "threshold": 0.5, "numeric": True,
            "left": {"leaf": 1}, "right": {"leaf": 2}}
    return {"k": 2, "label_map": {"a": 1, "b": 2},
            "rounds": [{"alpha": alpha, "tree": dict(node, **fields)}]}


def rows(d):
    """The dataset's feature rows as tuples."""
    return list(zip(*(col.tolist() for col in d.columns)))


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
        assert d.labels.tolist() == [1, 2, 3]

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

    def test_quoted_cells_keep_commas_and_newlines(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('a,"b,c",label\n1,"x,\ny",u\n2,"say ""hi""",v\n')
        d, meta = hz.load_csv(p)
        assert meta["columns"] == ["a", "b,c"]
        assert d.columns[1].tolist() == ["x,\ny", 'say "hi"']
        assert d.labels.tolist() == [1, 2]

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,label\r\n1,u\r\n\r\n2.5,v\r\n")
        d, meta = hz.load_csv(p)
        assert d.columns[0].tolist() == [1.0, 2.5]
        assert meta["label_map"] == {"u": 1, "v": 2}

    def test_short_row_after_blank_lines_names_its_physical_line(self,
                                                                 tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('a,label\n1,u\n\n\n"2\n",v\n\n3\n4,v\n')
        with pytest.raises(ValueError, match=r"d\.csv:8: expected 2 "
                                             r"fields, got 1$"):
            hz.load_csv(p)

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n")
        with pytest.raises(ValueError, match="single class"):
            hz.load_csv(p)
        with pytest.raises(ValueError, match="at least one example"):
            hz.load_csv(p, label_map={"u": 1, "v": 2})

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text", ["a,label\n1,u\n2\n",
                                      "a,label\n1,u\n2,u\n",
                                      "a,label\n1,u\n2,v\n"])
    def test_collector_state_restored(self, tmp_path, enabled, text):
        # malformed, single-class and good files alike
        p = tmp_path / "d.csv"
        p.write_text(text)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                hz.load_csv(p)
            except ValueError:
                pass
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_numeric_rejected(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        write_csv(p, [(0, 1.5, "cat"), (1, cell, "dog"), (2, 0.5, "cat")])
        with pytest.raises(ValueError, match=f"column 'b'.*{cell}"):
            hz.load_csv(p)

    def test_numeric_cells_parse_as_python_float(self, tmp_path):
        # float()'s own syntax: surrounding spaces, digit underscores and
        # exponents read as numbers; one "inf" rejects its column
        p = tmp_path / "d.csv"
        write_csv(p, [(" 2.5 ", "1_000", "1e3", "x"),
                      ("-0", "2_5.0_1", "1E-2", "y")], header="a,b,c,label")
        d, meta = hz.load_csv(p)
        assert [col.tolist() for col in d.columns] == [
            [2.5, -0.0], [1000.0, 25.01], [1000.0, 0.01]]
        assert set(meta["kinds"].values()) == {"numeric"}
        write_csv(p, [(" 2.5 ", "1_000", "inf", "x"), ("1", "2", "3", "y")],
                  header="a,b,c,label")
        with pytest.raises(ValueError,
                           match="column 'c': non-finite value 'inf'"):
            hz.load_csv(p)

    def test_columns_carry_their_kind(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [("x", 1, "u"), ("y", 2.5, "v"), ("x", 3, "u")])
        d, _ = hz.load_csv(p)
        assert d.columns[0].tolist() == ["x", "y", "x"]
        assert d.columns[0].dtype.kind == "U"
        assert d.columns[1].tolist() == [1.0, 2.5, 3.0]
        assert d.columns[1].dtype == float

    def test_label_map_numbers_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(0, 1, "b"), (1, 2, "b")])
        d, meta = hz.load_csv(p, label_map={"a": 1, "b": 2, "c": 3})
        assert d.labels.tolist() == [2, 2] and d.k == 3
        assert meta["label_map"] == {"a": 1, "b": 2, "c": 3}
        with pytest.raises(ValueError, match="unknown label 'b'"):
            hz.load_csv(p, label_map={"a": 1, "c": 2})


class TestRunCurves:
    """run.tsv's error columns and metrics.tsv hold what a round-by-round
    recomputation on row-major score tables gives (oracles.run_curves)."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("algo", ["os", "mm-approx"])
    def test_error_columns_match_the_row_major_oracle(self, tmp_path, algo,
                                                      k):
        rng = np.random.default_rng(k)
        y = rng.integers(0, k, 80)
        y[:k] = range(k)
        # few distinct values: stumps are weak and scores tie
        x = np.clip(y + rng.integers(-2, 3, (2, 80)), 0, k)
        data = tmp_path / "d.csv"
        write_csv(data, zip(*x, (f"c{v}" for v in y)))
        out = tmp_path / "out"
        # an edge of 0.4 keeps the OS booster from repeating one stump;
        # AdaBoost.MM takes no edge
        cfg = {"data": str(data), "out": str(out), "algo": algo,
               "learner": "stump", "rounds": 8, "split": 0.7, "seed": k}
        metrics = hz.run_experiment(dict(cfg, gamma=0.4) if algo == "os"
                                    else cfg)
        want = oracles.run_curves(out)
        body = [line.split("\t") for line in
                (out / "run.tsv").read_text().splitlines()[3:]]
        assert len(body) == metrics["rounds_run"] > 0
        assert [float(r[4]) for r in body] == want["train_error"]
        assert [float(r[5]) for r in body] == want["test_error"]
        written = dict(line.split("\t") for line in
                       (out / "metrics.tsv").read_text().splitlines()[2:])
        for key, value in want["metrics"].items():
            assert metrics[key] == float(written[key]) == value
        if algo == "os":
            assert want["ties"] > 0


class TestSplit:
    def test_deterministic_and_disjoint(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [(i, i % 7, "abc"[i % 3]) for i in range(30)])
        d, _ = hz.load_csv(p)
        a1, b1 = hz.split_dataset(d, 0.8, 5)
        a2, b2 = hz.split_dataset(d, 0.8, 5)
        assert (rows(a1) == rows(a2)
                and b1.labels.tolist() == b2.labels.tolist())
        assert a1.m + b1.m == d.m
        seen = set(rows(a1)) | set(rows(b1))
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

    @pytest.mark.parametrize("algo", ["os", "mm-approx"])
    def test_each_row_predicted_once_per_round(self, algo, tmp_path,
                                               monkeypatch):
        # the OS bound check and the training curve used to predict every
        # tree on the training rows again
        data = tmp_path / "w.csv"
        window_csv(data, 21, 0.1)
        counted = []
        predict_all = WeakClassifier.predict_all

        def counting(self, dataset):
            counted.append(dataset.m)
            return predict_all(self, dataset)

        monkeypatch.setattr(WeakClassifier, "predict_all", counting)
        metrics = hz.run_experiment({"data": str(data),
                                     "out": str(tmp_path / "o"),
                                     "algo": algo, "learner": "stump",
                                     "rounds": 6, "split": 0.8})
        assert metrics["rounds_run"] == 6
        assert sum(counted) == 6 * 21  # T (m_train + m_test)

    def test_unknown_learner(self, tmp_path):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        with pytest.raises(ValueError, match="^unknown learner greedy-info$"):
            hz.run_experiment({"data": str(data), "out": str(tmp_path / "o"),
                               "learner": "greedy-info"})

    def test_unknown_algo_before_loading(self, tmp_path):
        # the algo is checked before the CSV is read: no such file here
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="^unknown algo adaboost$"):
            hz.run_experiment({"data": str(tmp_path / "missing.csv"),
                               "out": str(out), "algo": "adaboost"})
        assert not out.exists()


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

    def test_predicts_each_tree_once(self, tmp_path, monkeypatch):
        # error and exp_risk each used to rebuild the score table
        data, model, metrics = trained_window_model(tmp_path)
        want = hz.eval_model(model, data)
        calls = []
        predict_all = WeakClassifier.predict_all

        def counting(self, dataset):
            calls.append(self)
            return predict_all(self, dataset)

        monkeypatch.setattr(WeakClassifier, "predict_all", counting)
        assert hz.eval_model(model, data) == want
        assert len(calls) == len(set(map(id, calls))) == metrics["rounds_run"]


def trained_window_model(tmp_path):
    """(data path, model path, metrics) of an 11-row window run."""
    data = tmp_path / "w.csv"
    window_csv(data, 11, 0.1)
    out = tmp_path / "run"
    metrics = hz.run_experiment({"data": str(data), "out": str(out),
                                 "rounds": 30, "split": 0.99, "seed": 0})
    return data, out / "model.json", metrics


def write_lines(path, header, lines):
    path.write_text("\n".join([header] + lines) + "\n")


class TestEvalByLabelName:
    def test_reversed_rows_same_metrics(self, tmp_path):
        # labels used to be numbered by first appearance, so the reversed
        # file failed with "label map mismatch"
        data, model, _ = trained_window_model(tmp_path)
        header, *body = data.read_text().splitlines()
        rev = tmp_path / "rev.csv"
        write_lines(rev, header, body[::-1])
        fwd, back = hz.eval_model(model, data), hz.eval_model(model, rev)
        assert back["error"] == fwd["error"] and back["m"] == fwd["m"]
        assert back["exp_risk"] == fwd["exp_risk"]

    def test_missing_class_keeps_model_k(self, tmp_path):
        # a held-out file without label 3 used to get k = 2
        data, model, _ = trained_window_model(tmp_path)
        header, *body = data.read_text().splitlines()
        part = tmp_path / "part.csv"
        keep = [ln for ln in body if not ln.endswith(",3")]
        write_lines(part, header, keep)
        full, _ = hz.load_csv(data)
        d, meta = hz.load_csv(part, label_map={"1": 1, "2": 2, "3": 3})
        assert d.k == 3 and meta["label_map"]["3"] == 3
        got = hz.eval_model(model, part)
        rows = [i for i, ln in enumerate(body) if not ln.endswith(",3")]
        rounds = json.loads(model.read_text())["rounds"]
        F = ScoringFunction(tuple((tree_from_dict(r["tree"], full),
                                   r["alpha"]) for r in rounds))
        f = F.score_table(full)[rows]
        assert got["m"] == len(keep)
        assert got["error"] == training_error(f, full.subset(rows))
        assert got["exp_risk"] == exp_risk(f, full.subset(rows))

    def test_single_class_file(self, tmp_path):
        # used to fail in load_csv with "single class"
        data, model, _ = trained_window_model(tmp_path)
        header, *body = data.read_text().splitlines()
        one = tmp_path / "one.csv"
        write_lines(one, header, [ln for ln in body if ln.endswith(",2")])
        got = hz.eval_model(model, one)
        assert got["m"] == 4 and 0.0 <= got["error"] <= 1.0

    def test_unknown_label_rejected(self, tmp_path):
        data, model, _ = trained_window_model(tmp_path)
        header, *body = data.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        write_lines(bad, header, body + ["3,9"])
        with pytest.raises(ValueError, match="unknown label '9'"):
            hz.eval_model(model, bad)


def one_split_model(path, feature, threshold, numeric):
    tree = {"feature": feature, "threshold": threshold, "numeric": numeric,
            "left": {"leaf": 1}, "right": {"leaf": 2}}
    path.write_text(json.dumps({"k": 2, "label_map": {"a": 1, "b": 2},
                                "algo": "mm-approx",
                                "rounds": [{"alpha": 1.0, "tree": tree}]}))
    return path


class TestEvalColumnMismatch:
    def run_eval(self, tmp_path, capsys, model, lines):
        data = tmp_path / "d.csv"
        write_lines(data, "x,label", lines)
        rc = cli.main(["eval", str(model), str(data)])
        return rc, capsys.readouterr().err

    def test_numeric_split_on_categorical_column(self, tmp_path, capsys):
        # used to escape as a TypeError traceback
        model = one_split_model(tmp_path / "m.json", 0, 0.5, True)
        rc, err = self.run_eval(tmp_path, capsys, model, ["u,a", "v,b"])
        assert rc == 1
        assert err.startswith("error: model splits column 0 as numeric")
        assert "Traceback" not in err

    def test_categorical_split_on_numeric_column(self, tmp_path, capsys):
        # used to compare floats with a str and misroute every row
        model = one_split_model(tmp_path / "m.json", 0, "u", False)
        rc, err = self.run_eval(tmp_path, capsys, model, ["0,a", "1,b"])
        assert rc == 1
        assert err.startswith("error: model splits column 0 as categorical")

    def test_split_on_missing_column(self, tmp_path, capsys):
        model = one_split_model(tmp_path / "m.json", 3, 0.5, True)
        rc, err = self.run_eval(tmp_path, capsys, model, ["0,a", "1,b"])
        assert rc == 1
        assert err.startswith("error: split on column 3, but the data has "
                              "1 feature columns")

    def test_matching_columns_evaluate(self, tmp_path, capsys):
        model = one_split_model(tmp_path / "m.json", 0, "u", False)
        rc, err = self.run_eval(tmp_path, capsys, model, ["u,a", "v,b"])
        assert (rc, err) == (0, "")


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

    @pytest.mark.parametrize("learner, tree_size", [("greedy", 5),
                                                    ("stump", None)])
    def test_tree_size_recorded_for_greedy_only(self, learner, tree_size,
                                                tmp_path):
        # run.tsv's config line names the cap only where one was applied
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "o"
        assert cli.main(["train", str(data), "--learner", learner,
                         "--rounds", "2", "--out", str(out)]) == 0
        config = (out / "run.tsv").read_text().splitlines()[0]
        cfg = json.loads(config.removeprefix("# config "))
        assert cfg.get("tree_size") == tree_size

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

    def test_potentials_past_factorial_range(self, capsys):
        # the zero-one DP built float factorials: OverflowError from T = 171
        assert cli.main(["potentials", "--k", "4", "--rounds", "200",
                         "--out", "-"]) == 0
        rows = [line.split("\t")
                for line in capsys.readouterr().out.splitlines()[2:]]
        assert [int(T) for T, _ in rows] == list(range(201))
        assert all(0.0 < float(v) <= 1.0 for _, v in rows)

    def test_fixtures_and_equivalence(self, tmp_path):
        assert cli.main(["fixtures", "--out", str(tmp_path / "fx")]) == 0
        assert cli.main(["equivalence-check", "--trials", "3",
                         "--rounds", "15", "--seed", "2"]) == 0

    def test_readme_invocations(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        window_csv(tmp_path / "data.csv", 11, 0.1)
        calls = readme_invocations()
        assert [argv[0] for argv in calls] == [
            "train", "eval", "potentials", "degree-map",
            "equivalence-check", "fixtures"]
        for argv in calls:
            assert cli.main(argv) == 0, argv
        assert readme_names("Learners") == sorted(train_choices("learner"))
        assert readme_names("Algorithms") == sorted(train_choices("algo"))

    @pytest.mark.parametrize("learner", train_choices("learner"))
    def test_learner_answers_the_cost_matrix(self, learner):
        # C1 makes label 1 free on every row and C2 label 2, whatever the
        # true labels say; a learner that reads C follows it
        d = Dataset((np.arange(4.0),), [1, 1, 2, 2], 2)
        C1 = np.array([[0.0, 1.0]] * 4)
        h = hz._make_learner({"learner": learner})
        assert h(d, C1).predict_all(d).tolist() == [1, 1, 1, 1]
        assert h(d, C1[:, ::-1]).predict_all(d).tolist() == [2, 2, 2, 2]

    def test_learner_calls_the_bound_greedy_tree(self, monkeypatch):
        # a tracer rebinds weaklearners.greedy_tree around a run; a
        # learner built before the rebinding must still call through it
        learner = hz._make_learner({"learner": "stump"})
        grow, calls = hz.weaklearners.greedy_tree, []

        def counting(dataset, C, max_size):
            calls.append(max_size)
            return grow(dataset, C, max_size)

        monkeypatch.setattr(hz.weaklearners, "greedy_tree", counting)
        d, _, _ = hz.window_fixture(11, 0.1)
        run = hz.boosters.os_boost_fixed(
            d, hz.potentials.uniform_baseline(d, 0.1), ZO, 6, learner)
        assert len(run.rounds) == 6 and calls == [3] * 6

    @pytest.mark.parametrize("learner", ["greedy-info", "best-response"])
    def test_removed_learner_names_are_rejected(self, learner, tmp_path,
                                                capsys):
        window_csv(tmp_path / "w.csv", 11, 0.1)
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", str(tmp_path / "w.csv"), "--learner", learner,
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"invalid choice: '{learner}'" in capsys.readouterr().err

    # options these subcommands never read: argparse rejects them
    @pytest.mark.parametrize("argv", [
        ["potentials", "--seed", "1"], ["degree-map", "--seed", "1"],
        ["equivalence-check", "--gamma", "0.1"],
        ["equivalence-check", "--eta", "0.2"],
        ["equivalence-check", "--loss", "exp"],
        ["equivalence-check", "--out", "eq"],
        ["fixtures", "--gamma", "0.1"], ["fixtures", "--eta", "0.2"],
        ["fixtures", "--loss", "exp"], ["fixtures", "--seed", "1"]])
    def test_unread_options_are_rejected(self, argv, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    def test_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIFTBOOST_OUT", str(tmp_path / "envout"))
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        assert cli.main(["train", str(data), "--rounds", "3"]) == 0
        assert (tmp_path / "envout" / "model.json").exists()

    def test_non_finite_numeric_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_csv(data, [(0, 1.5, "cat"), (1, "nan", "dog"),
                         (2, 0.5, "cat"), (3, 2.0, "dog")])
        rc = cli.main(["train", str(data), "--rounds", "2",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: column 'b': non-finite value 'nan'")
        assert "Traceback" not in err

    def test_z_contraction_violation_is_an_error(self, tmp_path,
                                                 monkeypatch, capsys):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        real = hz.boosters._step

        def doubled(delta, ratio=None):
            # twice the step of a positive, unclamped edge overshoots the
            # minimum of Z, which the booster must catch
            alpha, clamped = real(delta, ratio)
            assert delta >= 0.0 and not clamped
            assert 2.0 * alpha < hz.boosters.ALPHA_MAX
            return 2.0 * alpha, clamped

        monkeypatch.setattr(hz.boosters, "_step", doubled)
        rc = cli.main(["train", str(data), "--rounds", "3",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: round 1: Z contraction violated")
        assert "Traceback" not in err


class TestCliRejectsBadInput:
    """Each case used to run silently, print numpy's message, or end in
    a traceback; now it exits 1 with one "error:" line."""

    def run(self, argv, capsys):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        return err

    # gamma outside [0, 1): the OS booster trained on negative
    # "probabilities", the AdaBoost.MM runs ignored it, and the potential
    # tables were printed
    @pytest.mark.parametrize("argv", [
        ["train", "{data}", "--algo", "os", "--gamma", "1.5"],
        ["train", "{data}", "--algo", "os", "--gamma", "-0.5"],
        ["degree-map", "--gamma", "2", "--rounds", "2"],
        ["potentials", "--gamma", "-0.2", "--minimal", "--rounds", "2"],
        ["train", "{data}", "--algo", "mm-approx", "--gamma", "1.5"],
        ["train", "{data}", "--algo", "mm-exact", "--gamma", "1.5"]])
    def test_gamma_out_of_range(self, argv, tmp_path, capsys):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        argv = [a.format(data=data) for a in argv]
        err = self.run(argv + ["--out", str(tmp_path / "out")], capsys)
        assert err.startswith("error: need 0 <= gamma < 1")

    # the minimal sweep checks the rows it would hold, and degree-map
    # its query grid, against the state cap before building them
    @pytest.mark.parametrize("argv", [
        ["potentials", "--k", "6", "--rounds", "10", "--minimal",
         "--out", "-"],
        ["degree-map", "--rounds", "10", "--out", "-"]])
    def test_state_cap(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(hz.potentials, "STATE_CAP", 50)
        err = self.run(argv, capsys)
        assert err == "error: minimal-potential state cap exceeded\n"

    # each printed an empty table or map, or passed vacuously ("passed
    # 0/-1"), and exited 0
    @pytest.mark.parametrize("argv, message", [
        (["potentials", "--rounds", "-3", "--out", "-"], "need rounds >= 0"),
        (["degree-map", "--rounds", "-2", "--out", "-"], "need rounds >= 0"),
        (["equivalence-check", "--trials", "-1"], "need trials >= 1"),
        (["equivalence-check", "--trials", "0"], "need trials >= 1"),
        (["equivalence-check", "--rounds", "-1"], "need trials >= 1 and "
                                                  "rounds >= 0")])
    def test_bad_counts(self, argv, message, capsys):
        err = self.run(argv, capsys)
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    # an eta whose exponential is not a finite float: NaN trained a model
    # with alpha NaN, which eval rejects, and inf printed a column of
    # nan, both exiting 0; 800 ended in an OverflowError traceback
    @pytest.mark.parametrize("argv", [
        ["train", "{data}", "--algo", "os", "--loss", "exp", "--eta", "nan"],
        ["potentials", "--loss", "exp", "--eta", "inf", "--rounds", "2"],
        ["train", "{data}", "--algo", "os", "--loss", "exp", "--eta", "800"]])
    def test_eta_out_of_range(self, argv, tmp_path, capsys):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "out"
        err = self.run([a.format(data=data) for a in argv]
                       + ["--out", str(out)], capsys)
        assert err.startswith("error: EXP loss needs 0 <= eta <= 709.78")
        assert err.count("\n") == 1
        assert not out.exists()

    # EXP potentials past the float range: the run went on with NaN
    # edges and inf averages after numpy warnings, and exited 0
    def test_exp_potentials_overflow(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_csv(data, [(i % 7, i % 5, "abc"[i % 3]) for i in range(30)])
        out = tmp_path / "out"
        err = self.run(["train", str(data), "--algo", "os", "--loss", "exp",
                        "--eta", "50", "--rounds", "30", "--learner",
                        "stump", "--out", str(out)], capsys)
        assert err == ("error: the initial potentials overflow the float "
                       "range: the EXP loss needs a smaller eta or fewer "
                       "rounds\n")
        assert not out.exists()

    def test_zeroone_table_state_cap(self, tmp_path, capsys, monkeypatch):
        # the OS booster's zero-one table had no cap
        monkeypatch.setattr(hz.potentials, "STATE_CAP", 50)
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        err = self.run(["train", str(data), "--algo", "os", "--rounds", "10",
                        "--out", str(tmp_path / "out")], capsys)
        assert err == "error: zero-one potential state cap exceeded\n"

    # AdaBoost.MM reads neither option, but recorded both in run.tsv's
    # config and exited 0
    @pytest.mark.parametrize("option", [
        ["--loss", "exp", "--eta", "3"], ["--gamma", "0.4"]])
    @pytest.mark.parametrize("algo", ["mm-approx", "mm-exact"])
    def test_os_options_with_adaboost_mm(self, algo, option, tmp_path,
                                         capsys):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "out"
        err = self.run(["train", str(data), "--algo", algo, "--out",
                        str(out)] + option, capsys)
        assert err == ("error: loss and gamma apply to the OS booster only; "
                       "AdaBoost.MM reads neither\n")
        assert not out.exists()

    def test_tree_size_with_stump(self, tmp_path, capsys):
        # used to write "tree_size": 9 into run.tsv and grow 3-node trees
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "out"
        err = self.run(["train", str(data), "--learner", "stump",
                        "--tree-size", "9", "--out", str(out)], capsys)
        assert err.startswith("error: tree_size applies to the greedy "
                              "learner only")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unreached_leaf_label_checked_on_load(self, tmp_path, capsys):
        # no row reaches the right leaf, so its label 3 (k = 2) used to
        # go unchecked: error 0.5 and exit 0
        tree = {"feature": 0, "threshold": 5.0, "numeric": True,
                "left": {"leaf": 1}, "right": {"leaf": 3}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"k": 2, "label_map": {"a": 1, "b": 2},
                                    "rounds": [{"alpha": 1.0,
                                                "tree": tree}]}))
        data = tmp_path / "d.csv"
        write_lines(data, "x,label", ["0,a", "1,b"])
        err = self.run(["eval", str(path), str(data)], capsys)
        assert err == "error: tree leaf 3 is outside 1..2\n"

    def test_potentials_k_below_two(self, tmp_path, capsys):
        err = self.run(["potentials", "--k", "1", "--out", "-"], capsys)
        assert err.startswith("error: need k >= 2")

    # a split outside (0, 1) used to be clamped, negative rounds gave an
    # empty model
    @pytest.mark.parametrize("option", [
        ["--split", "0"], ["--split", "-3"], ["--split", "1.7"],
        ["--rounds", "-2"]])
    def test_bad_split_or_rounds(self, option, tmp_path, capsys):
        data = tmp_path / "w.csv"
        window_csv(data, 11, 0.1)
        out = tmp_path / "out"
        err = self.run(["train", str(data), "--out", str(out)] + option,
                       capsys)
        assert err.startswith("error: need 0 < split < 1 and rounds >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("model, message", [
        ({"k": 2, "label_map": {"a": 1, "b": 2}}, "need a JSON object"),
        ({"k": 2, "rounds": []}, "need a JSON object"),
        ([{"k": 2}], "need a JSON object"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"feature": 0, "left": {"leaf": 1},
                                    "right": {"leaf": 2}}}]},
         "tree node ['feature', 'left', 'right'] is neither a leaf nor a "
         "full split"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1}},
            {"alpha": 1.0, "tree": {"leaf": 3}}]},
         "tree leaf 3 is outside 1..2"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 0}}]},
         "tree leaf 0 is outside 1..2"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"feature": 0, "threshold": 0.5,
                                    "numeric": True, "left": {"leaf": 1},
                                    "right": 5}}]},
         "tree node 5 is not an object"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": 5}]}, "tree node 5 is not an object"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1}}, {"tree": {"leaf": 2}}]},
         "round 2 needs a numeric alpha and a tree"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0}]}, "round 1 needs a numeric alpha and a tree"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": "x", "tree": {"leaf": 1}}]},
         "round 1 needs a numeric alpha and a tree"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": 5},
         "need a JSON object"),
        # a non-integer leaf used to evaluate silently as int(leaf), and
        # k was never compared with the label names
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1.7}}]},
         "tree leaf 1.7 is not an integer label"),
        ({"k": 2, "label_map": {"a": 1, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"feature": 0, "threshold": 0.5,
                                    "numeric": True, "left": {"leaf": 1},
                                    "right": {"leaf": True}}}]},
         "tree leaf True is not an integer label"),
        ({"k": 5, "label_map": {"a": 1, "b": 2}, "rounds": []},
         "model has k = 5, but its label_map names 2 labels"),
        ({"k": 2, "label_map": 5, "rounds": []}, "need a JSON object"),
        # split fields were read unchecked: a fractional feature ended in
        # a TypeError, a text threshold in a numpy loop error, and `true`
        # was read as column 1
        (split_model(feature=0.5), "split feature 0.5 is not a column index"),
        (split_model(feature=True),
         "split feature True is not a column index"),
        (split_model(feature=-1), "split feature -1 is not a column index"),
        (split_model(numeric=1), "split flag numeric = 1 is not a boolean"),
        (split_model(threshold="abc"),
         "split threshold 'abc' is not a number"),
        (split_model(threshold=False),
         "split threshold False is not a number"),
        (split_model(numeric=False, threshold=0.5),
         "split threshold 0.5 is not a string"),
        # a non-finite threshold sent every row right, and a non-finite
        # alpha made every score NaN, which no row counts as an error:
        # both used to evaluate with exit 0
        (split_model(threshold=math.nan), "split threshold nan is not finite"),
        (split_model(threshold=math.inf), "split threshold inf is not finite"),
        (split_model(threshold=-math.inf),
         "split threshold -inf is not finite"),
        # an int too large for a float (message cut to keep the id short)
        (split_model(threshold=10 ** 400), "split threshold 10000000000"),
        (split_model(alpha=math.nan), "round 1 alpha nan is not finite"),
        (split_model(alpha=math.inf), "round 1 alpha inf is not finite"),
        (split_model(alpha=-math.inf), "round 1 alpha -inf is not finite"),
        # a label_map that does not number the labels 1..k evaluated
        # silently, with the error of labels it never names
        ({"k": 2, "label_map": {"a": 1.5, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1}}]},
         "label_map values [1.5, 2] are not 1..2"),
        ({"k": 2, "label_map": {"a": "1", "b": "2"}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1}}]},
         "label_map values ['1', '2'] are not 1..2"),
        ({"k": 2, "label_map": {"a": True, "b": 2}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1}}]},
         "label_map values [True, 2] are not 1..2"),
        ({"k": 2, "label_map": {"a": 1, "b": 1}, "rounds": [
            {"alpha": 1.0, "tree": {"leaf": 1}}]},
         "label_map values [1, 1] are not 1..2")])
    def test_malformed_model(self, model, message, tmp_path, capsys):
        # each used to escape as a KeyError, TypeError or IndexError
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        data = tmp_path / "d.csv"
        write_lines(data, "x,label", ["0,a", "1,b"])
        err = self.run(["eval", str(path), str(data)], capsys)
        assert err.startswith(f"error: {path}: {message}"
                              if "JSON" in message else f"error: {message}")
        assert err.count("\n") == 1
