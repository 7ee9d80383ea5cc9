"""Dataset ingestion, experiment orchestration, artifact emission.

All artifacts are TSV with '#'-prefixed metadata lines and 17-significant-
digit floats, so identical seeds give byte-identical files.
"""

import csv
import gc
import itertools
import json
import math
import os
import random

import numpy as np

from . import boosters, potentials, weaklearners
from .core import (CostMatrix, Dataset, ScoringFunction, TableClassifier,
                   exp_risk, indexed_dataset, is_finite, is_numeric,
                   training_error, vote, wrong_labels)
from .potentials import EXP, ZERO_ONE, LossSpec


def fmt(x):
    return f"{float(x):.17g}"


def _parse_column(name, cells):
    """float() on every cell, or a categorical (str) column if any cell
    fails; non-finite numbers are rejected."""
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return np.array(cells, dtype=str)
    finite = np.isfinite(values)
    if not finite.all():
        bad = cells[int(np.argmin(finite))]
        raise ValueError(f"column {name!r}: non-finite value {bad!r}")
    return values


def load_csv(path, label_column=None, label_map=None):
    """Parse a headered CSV into a columnar Dataset: each feature column
    is numeric (float) if every cell parses as a finite float, else
    categorical (str). Labels are numbered 1..k by first appearance, or
    by `label_map` (name -> number, k = its size) when given, e.g. a
    trained model's; a label it lacks is a ValueError. Blank lines are
    skipped; a record of another width than the header is a ValueError
    naming its physical line.

    Returns (dataset, meta) with meta = {label_map, columns, kinds}."""
    # the row lists live only for the parse; a collection would find
    # nothing to free in them, so the collector waits until it ends
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            # one pass of the reader, blank records dropped
            rows = list(filter(None, reader))
        if set(map(len, rows)) - {len(header)}:
            line, width = _misfit(path, len(header))
            raise ValueError(f"{path}:{line}: expected {len(header)} "
                             f"fields, got {width}")
        cells = list(zip(*rows)) if rows else [()] * len(header)
    finally:
        if collecting:
            gc.enable()
    if label_column is None:
        label_column = header[-1]
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not in header")
    li = header.index(label_column)
    names = cells[li]
    if label_map is None:
        label_map = {v: n for n, v in enumerate(dict.fromkeys(names), 1)}
        if len(label_map) < 2:
            raise ValueError("dataset has a single class; need k >= 2")
    unknown = set(names) - label_map.keys()
    if unknown:
        raise ValueError(f"{path}: unknown label {min(unknown)!r}")
    feat_cols = [j for j in range(len(header)) if j != li]
    columns = tuple(_parse_column(header[j], cells[j]) for j in feat_cols)
    dataset = Dataset(columns, list(map(label_map.__getitem__, names)),
                      len(label_map))
    meta = {"label_map": label_map,
            "columns": [header[j] for j in feat_cols],
            "kinds": {header[j]: "numeric" if is_numeric(col)
                      else "categorical"
                      for j, col in zip(feat_cols, columns)}}
    return dataset, meta


def _misfit(path, width):
    """(first physical line, field count) of the first non-blank record
    after the header whose field count is not width."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        line = reader.line_num + 1
        for row in reader:
            if row and len(row) != width:
                return line, len(row)
            line = reader.line_num + 1


def split_dataset(dataset, ratio, seed):
    """Seeded shuffle, then prefix split (train fraction = ratio)."""
    idx = list(range(dataset.m))
    random.Random(seed).shuffle(idx)
    cut = max(1, min(dataset.m - 1, int(round(dataset.m * ratio))))
    return dataset.subset(idx[:cut]), dataset.subset(idx[cut:])


def _make_learner(cfg):
    name = cfg.get("learner", "greedy")
    if name not in ("stump", "greedy"):
        raise ValueError(f"unknown learner {name}")
    if name == "stump" and "tree_size" in cfg:
        raise ValueError("tree_size applies to the greedy learner only; "
                         "a stump has 3 nodes")
    size = 3 if name == "stump" else cfg.get("tree_size", 5)
    # greedy_tree is looked up per call: a rebinding of it sees every tree
    return lambda dataset, C: weaklearners.greedy_tree(dataset, C, size)


def _loss_from_cfg(cfg):
    if cfg.get("loss", "zeroone") == "exp":
        return LossSpec(EXP, cfg.get("eta", 0.1))
    return LossSpec(ZERO_ONE)


def run_experiment(cfg):
    """Train per cfg, write run.tsv + model.json + metrics.tsv into
    cfg['out']; returns the metrics dict."""
    ratio, T = cfg.get("split", 0.8), cfg.get("rounds", 10)
    if not 0.0 < ratio < 1.0 or T < 0:
        raise ValueError("need 0 < split < 1 and rounds >= 0")
    algo, gamma = cfg.get("algo", "mm-approx"), cfg.get("gamma", 0.0)
    if algo not in ("mm-approx", "mm-exact", "os"):
        raise ValueError(f"unknown algo {algo}")
    potentials.check_gamma(gamma)
    loss = _loss_from_cfg(cfg)
    if algo != "os" and (loss.kind != ZERO_ONE or gamma):
        raise ValueError("loss and gamma apply to the OS booster only; "
                         "AdaBoost.MM reads neither")
    dataset, meta = load_csv(cfg["data"], cfg.get("label"))
    train, test = split_dataset(dataset, ratio, cfg.get("seed", 0))
    learner = _make_learner(cfg)
    if algo == "os":
        baseline = potentials.uniform_baseline(train, gamma)
        run = boosters.os_boost_fixed(train, baseline, loss, T, learner)
    else:
        rule = "APPROX" if algo == "mm-approx" else "EXACT"
        run = boosters.adaboost_mm(train, T, learner, rule)

    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    # drop the output path from the recorded config so identical seeds
    # give byte-identical artifacts regardless of destination
    logged = {k: v for k, v in cfg.items() if k != "out"}
    header_meta = [f"# config {json.dumps(logged, sort_keys=True)}",
                   f"# label_map {json.dumps(meta['label_map'], sort_keys=True)}"]

    # per-round curves on label-major (k, m) score tables: the booster's
    # own training predictions, and one prediction pass over the test rows
    ftr, fte = np.zeros((train.k, train.m)), np.zeros((test.k, test.m))
    lines = ["t\tdelta\talpha\tZ\ttrain_error\ttest_error"]
    for r in run.rounds:
        vote(ftr, r.preds, r.alpha)
        vote(fte, r.classifier.predict_all(test), r.alpha)
        zcol = r.Z_prev if algo != "os" else r.extra.get("avg_potential", 0.0)
        errors = training_error(ftr.T, train), training_error(fte.T, test)
        lines.append("\t".join((str(r.t), fmt(r.edge), fmt(r.alpha),
                                fmt(zcol), *map(fmt, errors))))
    with open(os.path.join(outdir, "run.tsv"), "w") as fh:
        fh.write("\n".join(header_meta + lines) + "\n")

    model = {"k": dataset.k, "label_map": meta["label_map"], "algo": algo,
             "rounds": [{"alpha": r.alpha, "tree": r.classifier.to_dict()}
                        for r in run.rounds]}
    with open(os.path.join(outdir, "model.json"), "w") as fh:
        fh.write(json.dumps(model, sort_keys=True, indent=1) + "\n")

    if not run.rounds:  # no row: the errors of the all-zero tables
        errors = training_error(ftr.T, train), training_error(fte.T, test)
    metrics = {"train_error": errors[0], "test_error": errors[1],
               "train_exp_risk": exp_risk(ftr.T.copy(), train),
               "rounds_run": len(run.rounds),
               "separated": run.separated}
    with open(os.path.join(outdir, "metrics.tsv"), "w") as fh:
        fh.write("\n".join(header_meta) + "\n")
        for key in sorted(metrics):
            fh.write(f"{key}\t{fmt(metrics[key]) if isinstance(metrics[key], float) else metrics[key]}\n")
    return metrics


def eval_model(model_path, data_path, label_column=None):
    """Metrics of a serialized model on a CSV with the same feature
    columns; labels are numbered by the model's label names."""
    with open(model_path) as fh:
        model = json.load(fh)
    if (not isinstance(model, dict)
            or {"k", "label_map", "rounds"} - model.keys()
            or not isinstance(model["label_map"], dict)
            or not isinstance(model["rounds"], list)):
        raise ValueError(f"{model_path}: need a JSON object with keys k, "
                         "label_map (an object) and rounds (a list)")
    if model["k"] != len(model["label_map"]):
        raise ValueError(f"model has k = {model['k']!r}, but its label_map "
                         f"names {len(model['label_map'])} labels")
    numbers = list(model["label_map"].values())
    if (not all(type(n) is int for n in numbers)  # bools are ints too
            or sorted(numbers) != list(range(1, len(numbers) + 1))):
        raise ValueError(f"label_map values {numbers} are not 1..{model['k']}")
    for t, r in enumerate(model["rounds"], start=1):
        if (not isinstance(r, dict) or {"alpha", "tree"} - r.keys()
                or not isinstance(r["alpha"], (int, float))):
            raise ValueError(f"round {t} needs a numeric alpha and a tree")
        if not is_finite(r["alpha"]):
            raise ValueError(f"round {t} alpha {r['alpha']!r} is not finite")
    dataset, _ = load_csv(data_path, label_column, model["label_map"])
    prov = tuple((weaklearners.tree_from_dict(r["tree"], dataset),
                  r["alpha"]) for r in model["rounds"])
    f = ScoringFunction(prov).score_table(dataset)
    return {"error": training_error(f, dataset),
            "exp_risk": exp_risk(f, dataset), "m": dataset.m}


def emit_potential_table(k, gamma, T_max, loss, include_minimal=False):
    """TSV rows (T, phi^b_T(0)) for b = gamma-biased uniform, optionally
    plus the minimal-condition column."""
    if T_max < 0:
        raise ValueError("need rounds >= 0")
    b = potentials.gamma_biased_uniform(k, gamma)
    rounds, zero = range(T_max + 1), np.zeros((T_max + 1, k), dtype=int)
    columns = [[potentials.potential_fixed(b, loss, T, zero[T])
                for T in rounds]]
    if include_minimal:
        columns.append(potentials.minimal_sweep(gamma, loss, rounds, zero)[0])
    lines = [f"# potential_table k={k} gamma={fmt(gamma)} loss={loss.kind}",
             "T\tfixed" + ("\tminimal" if include_minimal else "")]
    lines += ["\t".join([str(T)] + [fmt(c[T]) for c in columns])
              for T in rounds]
    return "\n".join(lines) + "\n"


def emit_degree_map(gamma, loss, T):
    rows = potentials.degree_map(gamma, loss, T)
    lines = [f"# degree_map gamma={fmt(gamma)} loss={loss.kind} "
             f"eta={fmt(loss.eta)} T={T}",
             "u\tv\tt\tdegree"]
    lines += [f"{u}\t{v}\t{t}\t{a}" for (u, v, t, a) in rows]
    return "\n".join(lines) + "\n"


def figure_one_fixture():
    """Two examples, three classes, h1 always 1, h2 always 2."""
    dataset = indexed_dataset([1, 2], 3)
    h1 = TableClassifier([1, 1])
    h2 = TableClassifier([2, 2])
    return dataset, [h1, h2]


def window_fixture(m, gamma_prime):
    """m examples / m classifiers over k = 3 classes, for the uniform
    baseline with gamma = k * gamma_prime; classifier j is correct exactly
    on the wrap-around window of length floor(m(1/2+gamma_prime))
    starting at j, and predicts yhat_i = the lowest wrong label (the
    argmin wrong-label baseline entry) elsewhere.

    Returns (dataset, Hspace, cost matrix charging 1 for predicting yhat)."""
    k = 3
    if m <= 1.0 / gamma_prime:
        raise ValueError("need m > 1/gamma_prime")
    if k * gamma_prime >= 1.0:
        raise ValueError("k * gamma_prime must stay below 1")
    labels = np.arange(m) % k + 1
    dataset = indexed_dataset(labels, k)
    yhat = wrong_labels(dataset.labels, k)[:, 0]
    w = int(math.floor(m * (0.5 + gamma_prime)))
    # P[j, i]: the true label for i = j, ..., j + w - 1 (mod m), else yhat
    window = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m < w
    space = [TableClassifier(p) for p in np.where(window, labels, yhat)]
    cost = np.zeros((m, k))
    cost[np.arange(m), yhat - 1] = 1.0
    return dataset, space, CostMatrix(cost, "EOR")


def mh_overdemand_fixture(k, gamma, m):
    """One classifier per (1/k+gamma)m-element subset, correct exactly
    there; wrong predictions rotate through the k-1 wrong labels so the
    uniform mixture spreads wrong mass evenly."""
    size = (1.0 / k + gamma) * m
    n = round(size)
    if abs(size - n) > 1e-9 or not 1 <= n <= m:
        raise ValueError("(1/k + gamma) m must be a positive integer <= m")
    labels = np.arange(m) % k + 1
    dataset = indexed_dataset(labels, k)
    subsets = np.array(list(itertools.combinations(range(m), n)))
    chosen = np.zeros((len(subsets), m), dtype=bool)
    chosen[np.arange(len(subsets))[:, None], subsets] = True
    # a wrong prediction of example i takes the wrong label after y_i
    # rotated by the number of earlier classifiers wrong on i
    offset = (np.cumsum(~chosen, axis=0) - 1) % (k - 1)
    P = np.where(chosen, labels, (labels + offset) % k + 1)
    return dataset, [TableClassifier(p) for p in P]


def random_dataset_space(rng, m, k, n):
    """Random indexed dataset plus n random table classifiers."""
    labels = [rng.randrange(1, k + 1) for _ in range(m)]
    dataset = indexed_dataset(labels, k)
    space = [TableClassifier([rng.randrange(1, k + 1) for _ in range(m)])
             for _ in range(n)]
    return dataset, space


def equivalence_check(trials, rounds, seed):
    """Run-equivalence over random small instances; returns (passed,
    total, details)."""
    if trials < 1 or rounds < 0:
        raise ValueError("need trials >= 1 and rounds >= 0")
    rng, details = random.Random(seed), []
    for trial in range(trials):
        m, k, n = (rng.randrange(2, top) for top in (9, 5, 7))
        dataset, space = random_dataset_space(rng, m, k, n)
        ok, why = boosters.check_run_equivalence(dataset, space, rounds)
        details.append((trial, ok, why))
    return sum(ok for _, ok, _ in details), trials, details


def write_fixture_files(outdir):
    """Materialize the counterexample fixtures as CSV/TSV files."""
    os.makedirs(outdir, exist_ok=True)

    def dump(name, dataset, space, cost=None):
        with open(os.path.join(outdir, f"{name}.csv"), "w") as fh:
            fh.write("x,label\n")
            for x, yv in zip(dataset.columns[0].tolist(),
                             dataset.labels.tolist()):
                fh.write(f"{x},{yv}\n")
        with open(os.path.join(outdir, f"{name}_classifiers.tsv"), "w") as fh:
            fh.write("# one row per classifier; columns = predictions\n")
            for h in space:
                fh.write("\t".join(str(v) for v in h.predict_all(dataset)))
                fh.write("\n")
        if cost is not None:
            with open(os.path.join(outdir, f"{name}_cost.tsv"), "w") as fh:
                for row in cost.entries:
                    fh.write("\t".join(fmt(v) for v in row) + "\n")

    d1, s1 = figure_one_fixture()
    dump("figure_one", d1, s1)
    d2, s2, c2 = window_fixture(11, 0.1)
    dump("window_m11", d2, s2, c2)
    d3, s3 = mh_overdemand_fixture(3, 0.0, 3)
    dump("mh_overdemand", d3, s3)
    return sorted(os.listdir(outdir))
