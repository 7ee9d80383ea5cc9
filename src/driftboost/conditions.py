"""Weak-learning conditions as (cost-family, baseline) pairs.

Includes baseline constructors for every condition in the framework, the
zero-sum game solver certifying satisfaction/violation on finite
classifier spaces, a boostability (linear separation) check, and the
counterexample fixtures.

The game solved is  min_lambda max_C  C . (H_lambda - B)  with cost rows
restricted to the family cone, l1-normalized to <= 1. Each family cone
has finitely many extreme rays per row, so the game is a small LP; we
solve it exactly and report a duality gap recomputed from the two
returned certificates (mixture and cost matrix), not trusted from the
solver.

A finite classifier space is carried as one (n, m) prediction matrix
P[j, i] = h_j(x_i) (core.prediction_matrix); the LP coefficients, H_lambda
and the certificate bounds are read from it by indexing. Both games, the
condition game and the separation game of is_boostable, share one LP
builder and solver (_solve_lp); they differ only in their cost rows and
slacks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .core import (Baseline, CostMatrix, TableClassifier, indexed_dataset,
                   prediction_matrix, wrong_labels)


# ---------------------------------------------------------------- baselines

def uniform_baseline(dataset, gamma):
    """U_gamma: (1-gamma)/k everywhere plus gamma on the true label."""
    m, k = dataset.m, dataset.k
    entries = np.full((m, k), (1.0 - gamma) / k)
    entries[np.arange(m), dataset.labels - 1] += gamma
    return Baseline(entries, "U", gamma)


def m1_baseline(dataset, gamma):
    m, k = dataset.m, dataset.k
    entries = np.zeros((m, k))
    entries[np.arange(m), dataset.labels - 1] = gamma
    return Baseline(entries, "M1", gamma)


def mh_baseline(dataset, gamma):
    m, k = dataset.m, dataset.k
    entries = np.full((m, k), 0.5 - gamma / 2.0)
    entries[np.arange(m), dataset.labels - 1] = 0.5 + gamma / 2.0
    return Baseline(entries, "MH", gamma)


def mr_baseline(dataset, gamma):
    m, k = dataset.m, dataset.k
    entries = np.full((m, k), -gamma / 2.0)
    entries[np.arange(m), dataset.labels - 1] = gamma / 2.0
    return Baseline(entries, "MR", gamma)


def eor_baseline(dataset, rows, gamma):
    """Baseline with every row in Delta_gamma^k (true-label convention
    already applied: rows are over labels, not reordered)."""
    entries = np.asarray(rows, dtype=float)
    y = dataset.labels - 1
    for i in range(dataset.m):
        row = entries[i]
        if row.min() < -1e-12 or abs(row.sum() - 1.0) > 1e-9:
            raise ValueError(f"baseline row {i} is not a distribution")
        others = np.delete(row, y[i])
        if abs((row[y[i]] - gamma) - others.max()) > 1e-9:
            raise ValueError(f"baseline row {i} violates b(y) = max other + gamma")
    return Baseline(entries, "EOR", gamma)


@dataclass(frozen=True)
class Condition:
    name: str            # SAMME | M1 | MH | MR | EOR-fixed | MINIMAL
    family: str          # cost family tag
    baseline: Baseline   # None for MINIMAL (the whole family B^eor_gamma)
    gamma: float


def make_condition(name, gamma, dataset, baseline=None):
    if not 0.0 <= gamma < 1.0:
        raise ValueError("need 0 <= gamma < 1")
    if name == "SAMME":
        return Condition(name, "SAM", uniform_baseline(dataset, gamma), gamma)
    if name == "M1":
        return Condition(name, "M1", m1_baseline(dataset, gamma), gamma)
    if name == "MH":
        return Condition(name, "MH", mh_baseline(dataset, gamma), gamma)
    if name == "MR":
        return Condition(name, "MR", mr_baseline(dataset, gamma), gamma)
    if name == "EOR-fixed":
        if baseline is None:
            baseline = uniform_baseline(dataset, gamma)
        else:
            baseline = eor_baseline(dataset, baseline.entries, gamma)
        return Condition(name, "EOR", baseline, gamma)
    if name == "MINIMAL":
        return Condition(name, "EOR", None, gamma)
    raise ValueError(f"unknown condition {name}")


def edge(C, h, B, dataset):
    """C.B - C.1_h; nonnegative iff h meets the constraint for this C."""
    c = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=float)
    b = B.entries if isinstance(B, Baseline) else np.asarray(B, dtype=float)
    preds = h.predict_all(dataset)
    return float((c * b).sum() - c[np.arange(dataset.m), preds - 1].sum())


# ---------------------------------------------------------------- the game

def _row_vertices(family, k, y):
    """Extreme rays of the family cone for one row, l1-normalized."""
    e = np.eye(k)
    out = []
    if family == "SAM":
        v = np.full(k, 1.0 / (k - 1))
        v[y] = 0.0
        out.append(v)
    elif family == "M1":
        v = np.full(k, 1.0 / k)
        v[y] = -1.0 / k
        out.append(v)
    elif family == "MH":
        out.append(-e[y])
        out.extend(e[l] for l in range(k) if l != y)
    elif family == "MR":
        out.extend((e[l] - e[y]) / 2.0 for l in range(k) if l != y)
    elif family == "EOR":
        # the cone contains the line R.1, irrelevant whenever the payoff
        # row sums to zero (row-stochastic H_lambda and B), which holds
        # for every game posed here
        out.append(-e[y])
        out.extend(e[l] for l in range(k) if l != y)
        out.extend((e[l] - e[y]) / 2.0 for l in range(k) if l != y)
    else:
        raise ValueError(f"no vertex set for family {family}")
    return out


@dataclass(frozen=True)
class GameValueReport:
    value: float            # certified upper bound on the game value
    mixture: np.ndarray     # lambda over Hspace achieving `value`
    cost_matrix: CostMatrix  # achieving cost matrix (lower-bound certificate)
    iterations: int
    gap: float              # value - min_h cost_matrix.(1_h - B), >= 0
    satisfied: bool         # value <= tolerance

    def __post_init__(self):
        if abs(self.mixture.sum() - 1.0) > 1e-9:
            raise ValueError("mixture does not sum to 1")
        if self.gap < 0.0:
            raise ValueError("negative duality gap")


def _vertex_rows(family, k, y):
    """(m, r, k) array: each example's cost rows, from its label."""
    # + 0.0 turns the -0.0 entries of -e_y into +0.0, the value of the
    # dot product v . 1_h(x_i), so A_ub holds exactly those products
    table = np.array([_row_vertices(family, k, l) for l in range(k)]) + 0.0
    return table[y]


def _solve_lp(P, rows, B, per_example):
    """The LP of a game over the (n, m) prediction matrix P: minimize the
    slack total over lambda in the simplex subject to
    rows[i, q] . (H_lambda(i) - B(i)) <= slack, with one slack >= 0 per
    example (per_example) or one free slack shared by every row.

    Returns (lambda, H_lambda, certificate, lower, iterations): the
    certificate is the cost matrix sum_q mu[i, q] rows[i, q] of the dual
    weights mu, and lower = min_j certificate . (1_{h_j} - B)."""
    n, m = P.shape
    if n == 0:
        raise ValueError("empty classifier space")
    r = rows.shape[1]
    slacks = m if per_example else 1
    A = np.zeros((m * r, n + slacks))
    # A[(i, q), j] = rows[i, q] . 1_{h_j}(x_i) = rows[i, q, h_j(x_i) - 1]
    A[:, :n] = rows[np.arange(m)[:, None, None], np.arange(r)[None, :, None],
                    P.T[:, None, :] - 1].reshape(m * r, n)
    owner = np.repeat(np.arange(m), r) if per_example else 0
    A[np.arange(m * r), n + owner] = -1.0
    # one dot per row: a batched product sums in another order, which
    # moves b_ub in the last bit
    rhs = np.array([v @ b for vs, b in zip(rows, B) for v in vs])
    c_obj = np.concatenate([np.zeros(n), np.ones(slacks)])
    a_eq = np.concatenate([np.ones(n), np.zeros(slacks)])[None, :]
    bounds = [(0, None)] * n + [(0 if per_example else None, None)] * slacks
    res = linprog(c_obj, A_ub=A, b_ub=rhs, A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"game LP failed: {res.message}")

    lam = np.clip(res.x[:n], 0.0, None)
    lam /= lam.sum()
    H_lam = np.zeros((m, rows.shape[2]))
    np.add.at(H_lam, (np.arange(m), P - 1), lam[:, None])
    mu = np.clip(-res.ineqlin.marginals, 0.0, None).reshape(m, r)
    cert = np.einsum("ir,irk->ik", mu, rows)
    lower = float(cert[np.arange(m), P - 1].sum(axis=1).min()
                  - (cert * B).sum())
    return lam, H_lam, cert, lower, int(getattr(res, "nit", 0))


def solve_game(Hspace, cond, dataset, tol=1e-7):
    """Value, mixture and achieving cost matrix of the condition game."""
    if cond.baseline is None:
        raise ValueError("MINIMAL has no single baseline; use is_boostable")
    y = dataset.labels - 1
    B = cond.baseline.entries
    rows = _vertex_rows(cond.family, dataset.k, y)
    lam, H_lam, cert, lower, nit = _solve_lp(
        prediction_matrix(Hspace, dataset), rows, B, per_example=True)
    M = H_lam - B
    upper = float(np.maximum(np.einsum("irk,ik->ir", rows, M).max(axis=1),
                             0.0).sum())
    gap = max(0.0, upper - lower)
    return GameValueReport(upper, lam, CostMatrix(cert, cond.family), nit,
                           gap, upper <= tol)


@dataclass(frozen=True)
class BoostabilityReport:
    verdict: str            # "yes" | "no" | "undetermined"
    margin: float           # min_i (H_lam(i,y_i) - max wrong), at mixture
    mixture: np.ndarray
    certificate: CostMatrix  # violating cost matrix when verdict == "no"
    gap: float


def is_boostable(Hspace, dataset, tol=1e-7):
    """Solve the separation game min_lambda max_{i, l != y_i}
    (H_lambda(i,l) - H_lambda(i,y_i)); margin > 0 means boostable."""
    m, k = dataset.m, dataset.k
    y = dataset.labels - 1
    # the rows e_l - e_y, l != y: the MR vertices, unscaled
    rows = 2.0 * _vertex_rows("MR", k, y)
    lam, H_lam, cert, lower, _ = _solve_lp(
        prediction_matrix(Hspace, dataset), rows, np.zeros((m, k)),
        per_example=False)
    wrong = H_lam.copy()
    wrong[np.arange(m), y] = -np.inf
    margin = float((H_lam[np.arange(m), y] - wrong.max(axis=1)).min())

    # -margin upper-bounds the game value, the certificate lower-bounds it
    gap = max(0.0, (-margin) - lower)
    if margin > tol:
        verdict = "yes"
    elif lower >= -tol:
        # the certificate bounds the game value from below by `lower`,
        # so no mixture separates with margin above tol: not boostable
        verdict = "no"
    else:
        verdict = "undetermined"
    return BoostabilityReport(verdict, margin, lam, CostMatrix(cert, "MR"),
                              gap)


# ---------------------------------------------------------------- fixtures

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
    labels = [(i % k) + 1 for i in range(m)]
    dataset = indexed_dataset(labels, k)
    yhat = wrong_labels(dataset.labels, k)[:, 0]
    w = int(math.floor(m * (0.5 + gamma_prime)))
    space = []
    for j in range(m):
        preds = yhat.copy()
        for step in range(w):
            i = (j + step) % m
            preds[i] = labels[i]
        space.append(TableClassifier(preds))
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
    labels = [(i % k) + 1 for i in range(m)]
    dataset = indexed_dataset(labels, k)
    counters = [0] * m
    space = []
    for subset in itertools.combinations(range(m), n):
        chosen = set(subset)
        preds = np.empty(m, dtype=int)
        for i in range(m):
            if i in chosen:
                preds[i] = labels[i]
            else:
                offset = counters[i] % (k - 1)
                counters[i] += 1
                preds[i] = ((labels[i] - 1 + 1 + offset) % k) + 1
        space.append(TableClassifier(preds))
    return dataset, space
