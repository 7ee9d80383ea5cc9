import json
import shlex
from pathlib import Path

import pytest

from driftboost import cli
from driftboost import conditions as cnd
from driftboost import harness as hz
from driftboost.core import ScoringFunction, exp_risk, training_error
from driftboost.potentials import EXP, ZERO_ONE, LossSpec
from driftboost.weaklearners import tree_from_dict

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
        for x, y in zip(d.columns[0].tolist(), d.labels.tolist()):
            fh.write(f"{x},{y}\n")


def readme_invocations():
    """The argument lists of the driftboost commands in the README's CLI
    section, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("driftboost ")]


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


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_numeric_rejected(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        write_csv(p, [(0, 1.5, "cat"), (1, cell, "dog"), (2, 0.5, "cat")])
        with pytest.raises(ValueError, match=f"column 'b'.*{cell}"):
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
        F = ScoringFunction(tuple((tree_from_dict(r["tree"]), r["alpha"])
                                  for r in json.loads(model.read_text())
                                  ["rounds"]), 3)
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

    def test_readme_invocations(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        window_csv(tmp_path / "data.csv", 11, 0.1)
        calls = readme_invocations()
        assert [argv[0] for argv in calls] == [
            "train", "eval", "potentials", "degree-map",
            "equivalence-check", "fixtures"]
        for argv in calls:
            assert cli.main(argv) == 0, argv

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
