"""Property tests of ingestion and train -> eval over small random CSVs
with numeric and categorical columns, and of batched potentials against
path enumeration."""

import json
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftboost import harness as hz
from driftboost import potentials as pot
from driftboost.weaklearners import greedy_tree, tree_from_dict

NUMERIC_CELLS = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False).map(repr))
# a column drawn from these is categorical unless every cell is a number
CATEGORICAL_CELLS = st.sampled_from(["a", "b", "c", "1", "2.5"])


@st.composite
def csv_tables(draw):
    """(feature columns as lists of cell strings, label strings)."""
    m = draw(st.integers(2, 12))
    columns = [draw(st.lists(draw(st.sampled_from([NUMERIC_CELLS,
                                                   CATEGORICAL_CELLS])),
                             min_size=m, max_size=m))
               for _ in range(draw(st.integers(1, 3)))]
    labels = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=m,
                           max_size=m).filter(lambda ls: len(set(ls)) > 1))
    return columns, labels


def write_table(path, columns, labels, order=None):
    order = range(len(labels)) if order is None else order
    header = [f"f{j}" for j in range(len(columns))] + ["label"]
    lines = [",".join(header)]
    lines += [",".join([col[i] for col in columns] + [labels[i]])
              for i in order]
    path.write_text("\n".join(lines) + "\n")


def parse_cells(cells):
    """The per-cell reference: float() on every cell, or the strings
    themselves if any cell is not a number."""
    try:
        return [float(v) for v in cells]
    except ValueError:
        return list(cells)


def walk(node, row):
    """The row-by-row tree semantics: numeric splits send `value <=
    threshold` left, categorical ones `value == category`."""
    while "leaf" not in node:
        value = row[node["feature"]]
        left = (value <= node["threshold"] if node["numeric"]
                else value == node["threshold"])
        node = node["left"] if left else node["right"]
    return node["leaf"]


@settings(max_examples=60, deadline=None)
@given(csv_tables())
def test_load_csv_matches_per_cell_parse(table):
    columns, labels = table
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "d.csv"
        write_table(path, columns, labels)
        d, meta = hz.load_csv(path)
    first = {}
    for v in labels:
        first.setdefault(v, len(first) + 1)
    assert meta["label_map"] == first and d.k == len(first)
    assert d.labels.tolist() == [first[v] for v in labels]
    assert len(d.columns) == len(columns)
    for j, (col, cells) in enumerate(zip(d.columns, columns)):
        want = parse_cells(cells)
        numeric = all(isinstance(v, float) for v in want)
        assert col.tolist() == want
        assert col.dtype.kind == ("f" if numeric else "U")
        assert meta["kinds"][f"f{j}"] == ("numeric" if numeric
                                          else "categorical")


@settings(max_examples=60, deadline=None)
@given(csv_tables(), st.sampled_from([1, 3, 5, 9]),
       st.integers(0, 2**32 - 1))
def test_tree_predictions_match_row_walk(table, size, seed):
    columns, labels = table
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "d.csv"
        write_table(path, columns, labels)
        d, _ = hz.load_csv(path)
    C = np.random.default_rng(seed).normal(size=(d.m, d.k))
    tree = greedy_tree(d, C, size)
    rows = list(zip(*(parse_cells(cells) for cells in columns)))
    want = [walk(tree.to_dict(), row) for row in rows]
    assert tree.predict_all(d).tolist() == want
    again = tree_from_dict(json.loads(json.dumps(tree.to_dict())), d)
    assert again.predict_all(d).tolist() == want


@settings(max_examples=25, deadline=None)
@given(csv_tables(), st.randoms(use_true_random=False),
       st.sampled_from(["mm-approx", "os"]))
def test_eval_invariant_under_row_permutation(table, rnd, algo):
    columns, labels = table
    order = list(range(len(labels)))
    rnd.shuffle(order)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        write_table(tmp / "d.csv", columns, labels)
        write_table(tmp / "p.csv", columns, labels, order)
        hz.run_experiment({"data": str(tmp / "d.csv"), "out": str(tmp / "o"),
                           "rounds": 3, "algo": algo, "tree_size": 5})
        fwd = hz.eval_model(tmp / "o" / "model.json", tmp / "d.csv")
        perm = hz.eval_model(tmp / "o" / "model.json", tmp / "p.csv")
    assert perm["m"] == fwd["m"] == len(labels)
    assert perm["error"] == fwd["error"]
    assert perm["exp_risk"] == fwd["exp_risk"]


@st.composite
def potential_batches(draw):
    """(b, s, t): up to 4 states over k <= 4 labels with their own rows b,
    zero entries allowed, and a walk length t <= 6."""
    k = draw(st.integers(2, 4))
    S = draw(st.integers(1, 4))
    weights = draw(st.lists(st.lists(st.sampled_from([0, 1, 2, 3, 5]),
                                     min_size=k, max_size=k)
                            .filter(lambda w: w[0] > 0),
                            min_size=S, max_size=S))
    b = np.array(weights, dtype=float)
    b /= b.sum(axis=1, keepdims=True)
    s = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=k,
                                        max_size=k),
                               min_size=S, max_size=S)))
    return b, s, draw(st.integers(0, 6))


@settings(max_examples=40, deadline=None)
@given(potential_batches(), st.sampled_from([pot.LossSpec(pot.ZERO_ONE),
                                             pot.LossSpec(pot.EXP, 0.3)]))
def test_potential_batches_match_path_enumeration(case, loss):
    b, s, t = case
    got = pot.potential_fixed(b, loss, t, s)
    want = [pot.potential_oracle_bruteforce(bi, loss, t, si)
            for bi, si in zip(b, s)]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
