"""Weak-learning conditions as (cost-family, baseline) pairs.

Includes one table of the fixed baselines (SAMME, M1, MH, MR), the
zero-sum game solver certifying satisfaction/violation on finite
classifier spaces, a boostability (linear separation) check, and the
counterexample fixtures.

The game solved is  min_lambda max_C  C . (H_lambda - B)  with cost rows
restricted to the family cone, l1-normalized to <= 1. Each family cone
has finitely many extreme rays per row, so the game is a small dense
LP. HiGHS solves it by interior point with crossover, so the solution is
a basic one: the mixture and the dual weights of the cost-matrix
certificate are read from the crossover basis. The reported duality gap
is recomputed from those two certificates, not trusted from the solver.

The cost rows are built from the labels alone (_vertex_rows), one (m, r, k)
table per family. EOR shares MH's rows -e_y and e_l (l != y): the EOR cone
{c : c(y) <= c(l)} is MH's cone plus the line R.1, which no zero-sum
payoff row sees, and its other normalized rays (e_l - e_y)/2 are
midpoints of two MH rows, so they change neither the game value nor the
upper bound solve_game reports.

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
                   prediction_matrix, true_label_first, wrong_labels)
from .potentials import check_eor_rows, check_gamma


# ---------------------------------------------------------------- baselines

# condition -> (cost family, baseline kind, wrong-label entry, true-label
# entry); entries are functions of (gamma, k)
_BASELINES = {
    "SAMME": ("SAM", "U", lambda g, k: (1.0 - g) / k,
              lambda g, k: (1.0 - g) / k + g),
    "M1": ("M1", "M1", lambda g, k: 0.0, lambda g, k: g),
    "MH": ("MH", "MH", lambda g, k: 0.5 - g / 2.0, lambda g, k: 0.5 + g / 2.0),
    "MR": ("MR", "MR", lambda g, k: -g / 2.0, lambda g, k: g / 2.0),
}


def _baseline(name, dataset, gamma):
    check_gamma(gamma)
    _, kind, wrong, true = _BASELINES[name]
    m, k = dataset.m, dataset.k
    entries = np.full((m, k), wrong(gamma, k))
    entries[np.arange(m), dataset.labels - 1] = true(gamma, k)
    return Baseline(entries, kind)


def uniform_baseline(dataset, gamma):
    """U_gamma: (1-gamma)/k everywhere plus gamma on the true label."""
    return _baseline("SAMME", dataset, gamma)


def eor_baseline(dataset, rows, gamma):
    """Baseline of rows over labels (not reordered), each in Delta_gamma^k."""
    entries = np.asarray(rows, dtype=float)
    order = true_label_first(dataset.labels, dataset.k) - 1
    check_eor_rows(entries[np.arange(dataset.m)[:, None], order], gamma)
    return Baseline(entries, "EOR")


@dataclass(frozen=True)
class Condition:
    family: str          # cost family tag
    baseline: Baseline


def make_condition(name, gamma, dataset, baseline=None):
    if name in _BASELINES:
        return Condition(_BASELINES[name][0], _baseline(name, dataset, gamma))
    if name == "EOR-fixed":
        if baseline is None:
            return Condition("EOR", uniform_baseline(dataset, gamma))
        eor_baseline(dataset, baseline.entries, gamma)  # checks the rows
        return Condition("EOR", baseline)
    raise ValueError(f"unknown condition {name}")


# ---------------------------------------------------------------- the game

@dataclass(frozen=True)
class GameValueReport:
    value: float            # certified upper bound on the game value
    mixture: np.ndarray     # lambda over Hspace achieving `value`
    cost_matrix: CostMatrix  # achieving cost matrix (lower-bound certificate)
    gap: float              # value - min_h cost_matrix.(1_h - B), >= 0
    satisfied: bool         # value <= tolerance

    def __post_init__(self):
        if abs(self.mixture.sum() - 1.0) > 1e-9:
            raise ValueError("mixture does not sum to 1")
        if self.gap < 0.0:
            raise ValueError("negative duality gap")


def _vertex_rows(family, k, y):
    """(m, r, k) array: each example's extreme cost rows, l1-normalized,
    from the one-hot true label e_y and wrong labels e_l (l != y,
    ascending)."""
    one_hot = np.eye(k)
    true = one_hot[y][:, None, :]
    wrong = one_hot[wrong_labels(y + 1, k) - 1]
    if family == "SAM":
        rows = (1.0 - true) / (k - 1)
    elif family == "M1":
        rows = (1.0 - 2.0 * true) / k
    elif family == "MR":
        rows = (wrong - true) / 2.0
    elif family in ("MH", "EOR"):
        # EOR: the cone also contains the line R.1, irrelevant whenever
        # the payoff row sums to zero (row-stochastic H_lambda and B),
        # which holds for every game posed here. Its rays (e_l - e_y)/2
        # are left out: each is the midpoint of the kept rows e_l and -e_y,
        # so it moves neither the LP optimum nor the upper bound
        rows = np.concatenate((-true, wrong), axis=1)
    else:
        raise ValueError(f"no vertex set for family {family}")
    # + 0.0 turns the -0.0 entries of -e_y into +0.0, the value of the
    # dot product v . 1_h(x_i), so A_ub holds exactly those products
    return rows + 0.0


def _solve_lp(P, rows, B, per_example):
    """The LP of a game over the (n, m) prediction matrix P: minimize the
    slack total over lambda in the simplex subject to
    rows[i, q] . (H_lambda(i) - B(i)) <= slack, with one slack >= 0 per
    example (per_example) or one free slack shared by every row.

    HiGHS solves it by interior point with crossover, so the dual weights
    mu are those of a basic solution, as under the simplex.

    Returns (lambda, H_lambda, certificate, lower): the
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
                  bounds=bounds, method="highs-ipm")
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
    return lam, H_lam, cert, lower


def solve_game(Hspace, cond, dataset, tol=1e-7):
    """Value, mixture and achieving cost matrix of the condition game."""
    y = dataset.labels - 1
    B = cond.baseline.entries
    rows = _vertex_rows(cond.family, dataset.k, y)
    lam, H_lam, cert, lower = _solve_lp(
        prediction_matrix(Hspace, dataset), rows, B, per_example=True)
    M = H_lam - B
    upper = float(np.maximum(np.einsum("irk,ik->ir", rows, M).max(axis=1),
                             0.0).sum())
    gap = max(0.0, upper - lower)
    return GameValueReport(upper, lam, CostMatrix(cert, cond.family), gap,
                           upper <= tol)


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
    lam, H_lam, cert, lower = _solve_lp(
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
