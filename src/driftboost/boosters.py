"""Boosting loops: the non-adaptive OS strategy for a fixed
edge-over-random condition, adaptive AdaBoost.MM with both step rules,
plain binary AdaBoost, and the mislabel-triple transform tying the two
together.

Every loop works on whole arrays: the OS booster evaluates each round's
potentials as one batch of child states, the mislabel triples are three
index arrays, and the transformed classifier space is one value matrix
with a row per classifier and a column per triple.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Baseline, prediction_matrix, training_error,
                   true_label_first, wrong_labels)
from .potentials import EXP, potential_fixed
from .weaklearners import BestResponseLearner

ALPHA_MAX = 20.0


@dataclass
class BoostRound:
    t: int
    classifier: object      # binary AdaBoost: the row j of its value matrix
    edge: float
    alpha: float
    Z_prev: float
    Z_after: float
    A_plus: float = 0.0
    A_minus: float = 0.0
    preds: np.ndarray = None  # MM and OS: the classifier's training labels
    extra: dict = field(default_factory=dict)


@dataclass
class BoostRun:
    rounds: list
    f: np.ndarray  # final training scores; binary AdaBoost: F~ per triple
    separated: bool = False
    extra: dict = field(default_factory=dict)


def _mm_weight_matrix(f, y):
    """exp(f(i,l) - f(i,y_i)) off the true label, 0 on it."""
    m = f.shape[0]
    d = f - f[np.arange(m), y][:, None]
    e = np.exp(np.minimum(d, 700.0))
    e[np.arange(m), y] = 0.0
    return e


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


def _step(delta, ratio=None):
    """(alpha, clamped): 0 for a non-positive edge, else half the log of
    ratio, clamped at ALPHA_MAX. The ratio defaults to the APPROX odds
    (1 + delta)/(1 - delta); an edge within 1e-15 of 1, or an infinite
    ratio, is separation and clamps."""
    if delta <= 0.0:
        return 0.0, False
    if ratio is None:
        ratio = ((1.0 + delta) / (1.0 - delta) if delta < 1.0 - 1e-15
                 else math.inf)
    alpha = 0.5 * math.log(ratio)
    if alpha > ALPHA_MAX:
        return ALPHA_MAX, True
    return max(alpha, 0.0), False


def adaboost_mm(dataset, T, learner, step_rule="APPROX"):
    """Algorithm with original labels y_i: adaptive cost matrix, edge
    delta_t = (-C_t.1_h)/Z_{t-1}, APPROX or EXACT step, clamp at
    ALPHA_MAX on separation; Z_t > sqrt(1 - delta_t^2) Z_{t-1} raises."""
    if step_rule not in ("APPROX", "EXACT"):
        raise ValueError("step_rule must be APPROX or EXACT")
    m, k = dataset.m, dataset.k
    y = dataset.labels - 1
    f = np.zeros((m, k))
    rounds = []
    separated = False
    for t in range(1, T + 1):
        e = _mm_weight_matrix(f, y)
        Z = float(e.sum())
        if Z <= 0.0:
            separated = True
            break
        C = e.copy()
        C[np.arange(m), y] = -e.sum(axis=1)
        h = learner(dataset, C)
        preds = h.predict_all(dataset)
        cost = float(C[np.arange(m), preds - 1].sum())
        delta = -cost / Z
        correct = preds - 1 == y
        A_plus = float(e[correct].sum())
        A_minus = float(e[np.arange(m), preds - 1][~correct].sum())

        ratio = None
        if step_rule == "EXACT":
            ratio = A_plus / A_minus if A_minus > 0.0 else math.inf
        alpha, clamped = _step(delta, ratio)
        f[np.arange(m), preds - 1] += alpha
        # exact identity: Z_t = Z - (1-e^-a) A_plus + (e^a - 1) A_minus
        Z_after = Z - (1.0 - math.exp(-alpha)) * A_plus \
            + (math.exp(alpha) - 1.0) * A_minus
        # a negative edge (alpha = 0) and a clamped step are exempt
        bound = Z * math.sqrt(max(1.0 - delta * delta, 0.0)) + 1e-9
        if delta >= 0.0 and not clamped and Z_after > bound:
            raise RuntimeError(f"round {t}: Z contraction violated "
                               f"({Z_after} > {bound})")
        rounds.append(BoostRound(t, h, delta, alpha, Z, Z_after, A_plus,
                                 A_minus, preds))
        if clamped:
            separated = True
            break
    return BoostRun(rounds, f, separated=separated)


# ------------------------------------------------------------ OS strategy

def os_boost_fixed(dataset, baseline, loss, T, learner):
    """OS booster for a fixed EOR baseline: C_t(i,l) =
    phi^{b_i}_{T-t-1}(s_t(i) + e_l), alpha_t = 1 (ZERO_ONE) or eta (EXP).

    Potentials index coordinate 1 = true label, so each row's baseline
    and states are reordered true-label-first; potential_fixed evaluates
    each round's m*k child states as one batch."""
    if not isinstance(baseline, Baseline) or baseline.kind not in ("EOR", "U"):
        raise ValueError("OS booster needs an edge-over-random baseline")
    m, k = dataset.m, dataset.k
    rows = np.arange(m)[:, None]
    order = true_label_first(dataset.labels, k) - 1
    b = baseline.entries[rows, order]
    alpha = loss.eta if loss.kind == EXP else 1.0
    s = np.zeros((m, k), dtype=int)
    rounds = []
    initial = sum(potential_fixed(b, loss, T, s).tolist()) / m
    all_satisfied = True
    for t in range(T):
        children = s[rows, order][:, None, :] + np.eye(k, dtype=int)
        C = np.empty((m, k))
        C[rows, order] = potential_fixed(b[:, None], loss, T - t - 1, children)
        h = learner(dataset, C)
        preds = h.predict_all(dataset)
        chosen = C[rows[:, 0], preds - 1]
        e = float((C * baseline.entries).sum()) - float(chosen.sum())
        if e < -1e-9:
            all_satisfied = False
        s[rows[:, 0], preds - 1] += 1
        # s_{t+1}(i) = s_t(i) + e_{h(x_i)}: the chosen entries of C_t
        avg = sum(chosen.tolist()) / m
        rounds.append(BoostRound(t + 1, h, e, alpha, 0.0, 0.0, preds=preds,
                                 extra={"avg_potential": avg}))
    # alpha * s ranks each row's labels as the summed table does
    run = BoostRun(rounds, alpha * s,
                   extra={"initial_potential": initial,
                          "condition_satisfied": all_satisfied})
    if all_satisfied:
        err = training_error(run.f, dataset)
        if err > initial + 1e-9:
            raise RuntimeError(
                f"training error {err} above initial potential {initial}")
    return run


# ---------------------------------------------------- mislabel transform

def transform_mislabel(dataset, Hspace):
    """((i, y, l), V): the m(k-1) all-negative binary examples as three
    int arrays, one triple (example, its label y_i, wrong label l) per
    wrong label, ordered by example, then by l; and the transformed space
    as one (n, m(k-1)) float matrix V[j, q] = 1[h_j(x_i) = l] -
    1[h_j(x_i) = y] for triple q, in {-1, 0, +1}."""
    return _mislabel(dataset, prediction_matrix(Hspace, dataset))


def _mislabel(dataset, P):
    """transform_mislabel of the space with prediction matrix P."""
    m, k = dataset.m, dataset.k
    i = np.repeat(np.arange(m), k - 1)
    y = np.repeat(dataset.labels, k - 1)
    l = wrong_labels(dataset.labels, k).ravel()
    p = P[:, i]
    return (i, y, l), (p == l).astype(float) - (p == y)


def adaboost_binary(V, T):
    """Confidence-rated binary AdaBoost on the all-negative transform with
    value matrix V; each round takes the maximum-edge row j of V (ties to
    the lowest j) and names it as its classifier."""
    Ft = np.zeros(V.shape[1])
    rounds = []
    separated = False
    for t in range(1, T + 1):
        w = np.exp(np.minimum(Ft, 700.0))  # labels are all -1
        Z = float(w.sum())
        if Z <= 0.0:
            separated = True
            break
        dist = w / Z
        edges = -(V @ dist)
        # lowest index among near-maximal edges, so exact mathematical
        # ties cannot be broken by float summation noise
        j = int(np.argmax(edges >= edges.max() - 2e-12))
        delta = float(edges[j])
        alpha, clamped = _step(delta)
        Ft = Ft + alpha * V[j]
        rounds.append(BoostRound(t, j, delta, alpha, Z,
                                 float(np.exp(np.minimum(Ft, 700.0)).sum()),
                                 extra={"dist": dist}))
        if clamped:
            separated = True
            break
    return BoostRun(rounds, Ft, separated=separated)


def check_run_equivalence(dataset, Hspace, T, tol=1e-9):
    """AdaBoost.MM (APPROX, exhaustive best response) against binary
    AdaBoost on the mislabel transform: same classifier each round, same
    weights, same normalized per-triple weights. Returns (ok, detail)."""
    learner = BestResponseLearner(Hspace)
    (ti, ty, tl), V = _mislabel(dataset, learner.matrix(dataset))
    mm = adaboost_mm(dataset, T, learner, "APPROX")
    bin_run = adaboost_binary(V, T)

    y = dataset.labels - 1
    if len(mm.rounds) != len(bin_run.rounds):
        return False, "round counts differ"
    f = np.zeros((dataset.m, dataset.k))
    for ra, rb in zip(mm.rounds, bin_run.rounds):
        if ra.classifier is not Hspace[rb.classifier]:
            return False, f"round {ra.t}: different classifier"
        if abs(ra.alpha - rb.alpha) > tol:
            return False, f"round {ra.t}: weights differ"
        # normalized per-triple weights at the start of the round
        e = _mm_weight_matrix(f, y)
        mm_w = e[ti, tl - 1]
        mm_w /= mm_w.sum()
        if np.max(np.abs(mm_w - rb.extra["dist"])) > tol:
            return False, f"round {ra.t}: per-triple weights differ"
        f[np.arange(dataset.m), ra.preds - 1] += ra.alpha
    ft = bin_run.f
    mm_ft = f[ti, tl - 1] - f[ti, ty - 1]
    if np.max(np.abs(ft - mm_ft)) > max(tol, 1e-8):
        return False, "final transformed scores differ"
    return True, "ok"
