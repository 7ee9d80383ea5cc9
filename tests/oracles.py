"""Reference implementations that only the tests use: the loss L(s),
brute-force and closed-form potentials, the exact AdaBoost.MM drop factor, a
plain-Python recursion for the zero-one table of the OS booster, the
plurality vote, the cost-family row constraints, the best response
over all k^m classifiers, a run's error curves recomputed round by
round, a float sum that adds one value at a time, and the
minimal-condition potential as a memoized per-state recursion."""

import functools
import itertools
import json
import math
import operator
import os

import numpy as np

from driftboost.core import (TableClassifier, exp_risk, training_error,
                             wrong_labels)
from driftboost.harness import load_csv, split_dataset
from driftboost.potentials import (ZERO_ONE, LossSpec, _rows,
                                   gamma_biased_uniform, potential_minimal,
                                   potential_zeroone_dp)
from driftboost.weaklearners import tree_from_dict


def sequential_sum(values):
    """The floats added one at a time, left to right, from 0.0: what
    sum() gave before Python 3.12 began to compensate."""
    return functools.reduce(operator.add, values, 0.0)


def loss_value(loss, s):
    """L(s): 1[s_1 <= max_l s_l] (ZERO_ONE) or sum_{l>=2} e^{eta (s_l - s_1)},
    added in label order with math.exp (EXP)."""
    diffs = [float(x - s[0]) for x in s[1:]]
    if loss.kind == ZERO_ONE:
        return 1.0 if max(diffs) >= 0.0 else 0.0
    # one at a time: from Python 3.12 on, sum() compensates float sums
    total = 0.0
    for d in diffs:
        total += math.exp(loss.eta * d)
    return total


def run_curves(out):
    """The error curves and metrics of a run_experiment output directory,
    recomputed round by round on row-major (m, k) score tables with
    training_error: the config from run.tsv's header, the trees and
    weights from model.json. "ties" counts the (round, training row)
    pairs whose true score equals their largest wrong score."""
    with open(os.path.join(out, "run.tsv")) as fh:
        cfg = json.loads(fh.readline().split(" ", 2)[2])
    with open(os.path.join(out, "model.json")) as fh:
        model = json.load(fh)
    dataset, _ = load_csv(cfg["data"], cfg.get("label"))
    parts = split_dataset(dataset, cfg.get("split", 0.8), cfg.get("seed", 0))
    tables = [np.zeros((part.m, part.k)) for part in parts]
    curves = {"train_error": [], "test_error": [], "ties": 0}
    for r in model["rounds"]:
        tree = tree_from_dict(r["tree"], dataset)
        for name, part, f in zip(("train_error", "test_error"), parts,
                                 tables):
            f[np.arange(part.m), tree.predict_all(part) - 1] += r["alpha"]
            curves[name].append(training_error(f, part))
        train, f = parts[0], tables[0]
        y = train.labels - 1
        wrong = np.where(np.arange(train.k) == y[:, None], -np.inf, f)
        curves["ties"] += int(np.count_nonzero(
            f[np.arange(train.m), y] == wrong.max(axis=1)))
    curves["metrics"] = {"train_error": training_error(tables[0], parts[0]),
                         "test_error": training_error(tables[1], parts[1]),
                         "train_exp_risk": exp_risk(tables[0], parts[0])}
    return curves


def potential_oracle_bruteforce(b, loss, t, s):
    """Exact E[L(end state)] by enumerating all k^t walk paths."""
    bv = _rows(b)
    k = len(bv)
    if t > 8 or k > 5:
        raise ValueError("brute-force oracle capped at t <= 8, k <= 5")
    s = np.asarray(s, dtype=float)
    total = 0.0
    for path in itertools.product(range(k), repeat=t):
        prob = 1.0
        end = s.copy()
        for step in path:
            prob *= bv[step]
            end[step] += 1.0
        if prob:
            total += prob * loss_value(loss, end)
    return total


def kappa(gamma, eta, k):
    """Per-round drop factor of the uniform-baseline exponential potential."""
    return (1.0 + ((1.0 - gamma) / k) * (math.exp(eta) + math.exp(-eta) - 2.0)
            - (1.0 - math.exp(-eta)) * gamma)


class MinimalRecursion:
    """The minimal-condition potential as a per-state recursion:
    value_degree(t, s) is (phi_t(s), degree), each state memoized in a
    plain dict by t and its sorted difference vector s_l - s_1."""

    def __init__(self, gamma, loss, k):
        self.gamma = gamma
        self.loss = loss
        self.k = k
        self._memo = {}

    def _value_degree(self, t, diffs):
        key = (t, tuple(sorted(diffs, reverse=True)))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if t == 0:
            result = (loss_value(self.loss, (0,) + key[1]), self.k)
        else:
            d = list(key[1])
            child_true = self._value_degree(t - 1, [x - 1 for x in d])[0]
            child_wrong = [
                self._value_degree(t - 1, d[:j] + [d[j] + 1] + d[j + 1:])[0]
                for j in range(self.k - 1)]
            # stable sort by (value desc, label index asc); d is already in
            # descending order so equal child values keep label order
            order = sorted(range(self.k - 1), key=lambda j: (-child_wrong[j], j))
            best_val, best_a = -math.inf, None
            run = 0.0
            for a in range(2, self.k + 1):
                run += child_wrong[order[a - 2]]
                share = (1.0 - self.gamma) / a
                val = (share + self.gamma) * child_true + share * run
                if val >= best_val - 1e-15:  # ties -> largest a
                    best_val, best_a = max(val, best_val), a
            result = (best_val, best_a)
        self._memo[key] = result
        return result

    def value_degree(self, t, s):
        return self._value_degree(t, [int(x) - int(s[0]) for x in s[1:]])


def degree_map_recursion(gamma, loss, T):
    """The (u, v, t, degree) rows of a k = 3 degree map, state by state
    through MinimalRecursion, in degree_map's order."""
    table = MinimalRecursion(gamma, loss, 3)
    return [(u, v, t, table.value_degree(t, (0, u, u + v))[1])
            for t in range(1, T + 1)
            for u in range(-T, T + 1)
            for v in range(-T, T + 1)]


def minimal_vs_fixed_gap(gamma, T, k):
    """(phi_T(0), max_b phi^b_T(0)) under ZERO_ONE; the fixed maximum is
    taken at the gamma-biased uniform b."""
    loss = LossSpec(ZERO_ONE)
    zero = np.zeros(k, dtype=int)
    minimal, _ = potential_minimal(gamma, loss, T, zero)
    fixed = potential_zeroone_dp(gamma_biased_uniform(k, gamma), T, zero)
    return minimal, fixed


def drop_factor_exact(A_plus, A_minus, Z_prev, delta):
    """Exact per-round loss drop under the EXACT step rule:
    (1 - c) + sqrt(c^2 - delta^2) with c = (A_plus + A_minus)/Z_prev.
    Always <= sqrt(1 - delta^2)."""
    if not 0.0 <= A_minus <= A_plus <= Z_prev:
        raise ValueError("need 0 <= A_minus <= A_plus <= Z_prev")
    if abs(delta - (A_plus - A_minus) / Z_prev) > 1e-9:
        raise ValueError("delta inconsistent with (A_plus - A_minus)/Z_prev")
    c = (A_plus + A_minus) / Z_prev
    return (1.0 - c) + math.sqrt(max(c * c - delta * delta, 0.0))


def table_potential(b, left, s):
    """V(s) with `left` rounds to go under the shared baseline row b
    (true label first, equal wrong-label entries), by recursion over the
    states s (true label first) in zeroone_table's operation order: the
    k - 1 wrong children's values added in sorted order, then b_1 times
    the true child's value plus b_2 times that sum. A state that some
    wrong label leads by `left` or more reads 1.0, and one that every
    wrong label trails by more than `left` reads 0.0."""
    d = tuple(sorted(int(x) - int(s[0]) for x in s[1:]))
    return _table_value(float(b[0]), float(b[1]), left, d)


@functools.lru_cache(maxsize=None)
def _table_value(b1, bw, left, d):
    if d[-1] >= left:
        return 1.0
    if d[-1] < -left:
        return 0.0
    true = _table_value(b1, bw, left - 1, tuple(x - 1 for x in d))
    wrong = None
    for p in range(len(d)):
        child = tuple(sorted(d[:p] + (d[p] + 1,) + d[p + 1:]))
        value = _table_value(b1, bw, left - 1, child)
        wrong = value if wrong is None else wrong + value
    return b1 * true + bw * wrong


def plurality_predict(f):
    """argmax_l f(i,l) per row of a score table; ties go to the lowest
    label."""
    return np.argmax(f, axis=1) + 1


def validate_cost(cost, labels, tol=1e-9):
    """Check a CostMatrix's family row constraints against true labels."""
    c = np.asarray(cost.entries, dtype=float)
    m, k = c.shape
    y = np.asarray(labels, dtype=int) - 1
    idx = np.arange(m)
    own = c[idx, y]
    off = c[idx[:, None], wrong_labels(labels, k) - 1]
    if cost.family == "EOR":
        ok = np.all(own[:, None] <= off + tol)
    elif cost.family == "SAM":
        ok = (np.all(np.abs(own) <= tol)
              and np.all(off >= -tol)
              and np.all(np.abs(off - off[:, :1]) <= tol))
    elif cost.family == "M1":
        ok = (np.all(own <= tol)
              and np.all(np.abs(off + own[:, None]) <= tol)
              and np.all(np.abs(off - off[:, :1]) <= tol))
    elif cost.family == "MH":
        ok = np.all(own <= tol) and np.all(off >= -tol)
    elif cost.family == "MR":
        ok = np.all(off >= -tol) and np.all(np.abs(c.sum(axis=1)) <= tol)
    else:
        ok = True
    return bool(ok)


class FullSpaceBestResponse:
    """Best response over the space of all k^m classifiers: the per-row
    cost argmin, realized as a memorizing table classifier."""

    def __call__(self, dataset, C):
        return TableClassifier(np.argmin(C, axis=1) + 1)
