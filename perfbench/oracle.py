"""Independent recomputations that the output checks compare against.

None of this calls the program: CSVs are parsed with the csv module,
trees are read from model.json and walked here, game values are
recomputed from the returned mixtures with numpy, and the zero-one
potential is computed as a chain of binomials in log space.
"""

import csv

import numpy as np
from scipy.special import gammaln


def read_csv(path, numeric_columns):
    """(rows, labels): feature rows with the named columns as floats and
    the rest as strings, and the label strings (last column)."""
    with open(path, newline="") as fh:
        header, *raw = list(csv.reader(fh))
    numeric = [name in numeric_columns for name in header[:-1]]
    rows = [tuple(float(v) if num else v for v, num in zip(r[:-1], numeric))
            for r in raw]
    return rows, [r[-1] for r in raw]


def read_run_tsv(path):
    """Per-round columns of run.tsv as a dict of float lists."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    names = lines[0].split("\t")
    columns = {n: [] for n in names}
    for ln in lines[1:]:
        for n, v in zip(names, ln.split("\t")):
            columns[n].append(float(v))
    return columns


def tree_label(node, row):
    while "leaf" not in node:
        value = row[node["feature"]]
        left = (value <= node["threshold"] if node["numeric"]
                else value == node["threshold"])
        node = node["left"] if left else node["right"]
    return node["leaf"]


def tree_nodes(node):
    if "leaf" in node:
        return 1
    return 1 + tree_nodes(node["left"]) + tree_nodes(node["right"])


def round_errors(model, rows, labels):
    """Misclassified-example counts after each round's prefix of the
    ensemble (ties count as errors), the final score table and the
    0-based true labels."""
    k = model["k"]
    y = np.array([model["label_map"][v] - 1 for v in labels])
    idx = np.arange(len(rows))
    f = np.zeros((len(rows), k))
    counts = []
    for r in model["rounds"]:
        preds = np.array([tree_label(r["tree"], row) for row in rows])
        f[idx, preds - 1] += r["alpha"]
        own = f[idx, y]
        wrong = f.copy()
        wrong[idx, y] = -np.inf
        counts.append(int(np.sum(own <= wrong.max(axis=1))))
    return counts, f, y


def exp_risk(f, y):
    idx = np.arange(len(y))
    d = f - f[idx, y][:, None]
    d[idx, y] = -np.inf
    return float(np.exp(d).sum() / len(y))


def one_hot(predictions, k):
    """(n, m) predictions in 1..k -> (n, m, k) indicators."""
    return np.eye(k)[np.asarray(predictions) - 1]


def game_upper(family, M, y):
    """sum_i max(0, max over the family's normalised cost rows of
    c_i . M_i): the condition game's value at payoff M = H_lambda - B."""
    m, k = M.shape
    idx = np.arange(m)
    own = M[idx, y]
    wrong = M.copy()
    wrong[idx, y] = -np.inf
    if family == "SAM":
        rows = (M.sum(axis=1) - own) / (k - 1)
    elif family == "MR":
        rows = (wrong.max(axis=1) - own) / 2.0
    elif family == "EOR":
        rows = np.maximum.reduce([-own, wrong.max(axis=1),
                                  (wrong.max(axis=1) - own) / 2.0])
    else:
        raise ValueError(f"no game rows for family {family}")
    return float(np.maximum(rows, 0.0).sum())


def margin(H, y):
    idx = np.arange(len(y))
    wrong = H.copy()
    wrong[idx, y] = -np.inf
    return float((H[idx, y] - wrong.max(axis=1)).min())


def _binomial_pmf(n, p):
    """(n+1, n+1) matrix P[r, x] = Pr[Bin(r, p) = x], 0 for x > r."""
    r = np.arange(n + 1)[:, None]
    x = np.arange(n + 1)[None, :]
    lg = gammaln(np.arange(n + 1) + 1.0)   # log r!
    ok = x <= r
    rx = np.where(ok, r - x, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = (lg[r] - lg[x] - lg[rx] + np.where(x > 0, x * np.log(p), 0.0)
               + np.where(rx > 0, rx * np.log1p(-p), 0.0))
    return np.where(ok, np.exp(log), 0.0)


def zeroone_potential(b, t, s):
    """1 - Pr[s_1 + x_1 > s_l + x_l for all l > 1] for x multinomial(t, b).

    x_1 is binomial; given x_1 = j the other t - j steps are split one
    coordinate at a time, each a binomial of what is left."""
    b = np.asarray(b, dtype=float)
    s = np.asarray(s, dtype=int)
    k = len(b)
    first = _binomial_pmf(t, b[0])[t]
    chains = []
    rest = 1.0 - b[0]
    for l in range(1, k - 1):
        chains.append(_binomial_pmf(t, min(b[l] / rest, 1.0)))
        rest -= b[l]
    win = 0.0
    for j in range(t + 1):
        caps = s[0] + j - s[1:] - 1
        if caps.min() < 0:
            continue
        n = t - j
        left = np.zeros(n + 1)
        left[n] = 1.0            # distribution of the steps still unassigned
        for cap, pmf in zip(caps[:-1], chains):
            nxt = np.zeros(n + 1)
            for r in np.nonzero(left)[0]:
                x = np.arange(min(cap, r) + 1)
                nxt[r - x] += left[r] * pmf[r, x]
            left = nxt
        win += first[j] * left[:caps[-1] + 1].sum()
    return 1.0 - min(win, 1.0)


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
