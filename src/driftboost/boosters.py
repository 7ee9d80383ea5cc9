"""Boosting loops: the non-adaptive OS strategy for a fixed
edge-over-random condition, adaptive AdaBoost.MM with both step rules,
plain binary AdaBoost, and the mislabel-triple transform tying the two
together.

Every loop works on whole arrays: the OS booster evaluates each round's
potentials once per distinct (baseline row, s_l - s_1) key, the mislabel
triples are three index arrays, and the transformed classifier space is
one value matrix with a row per classifier and a column per triple.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Baseline, CostMatrix, ScoringFunction, prediction_matrix,
                   training_error, wrong_labels)
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
    extra: dict = field(default_factory=dict)


@dataclass
class BoostRun:
    rounds: list
    scoring: ScoringFunction
    separated: bool = False
    negative_edge_rounds: int = 0
    extra: dict = field(default_factory=dict)


def _mm_weight_matrix(f, y):
    """exp(f(i,l) - f(i,y_i)) off the true label, 0 on it."""
    m = f.shape[0]
    d = f - f[np.arange(m), y][:, None]
    e = np.exp(np.minimum(d, 700.0))
    e[np.arange(m), y] = 0.0
    return e


def edge_minimal(C, h_preds, f, labels):
    """delta = (-C.1_h) / Z for the adaptive cost matrix at state f."""
    c = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=float)
    y = np.asarray(labels, dtype=int) - 1
    z = _mm_weight_matrix(np.asarray(f, dtype=float), y).sum()
    if z <= 0.0:
        raise ValueError("Z = 0: state already separated")
    preds = np.asarray(h_preds, dtype=int)
    return float(-c[np.arange(len(preds)), preds - 1].sum() / z)


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
    ALPHA_MAX on separation."""
    if step_rule not in ("APPROX", "EXACT"):
        raise ValueError("step_rule must be APPROX or EXACT")
    m, k = dataset.m, dataset.k
    y = dataset.labels - 1
    f = np.zeros((m, k))
    rounds, prov = [], []
    separated = False
    negative = 0
    for t in range(1, T + 1):
        e = _mm_weight_matrix(f, y)
        Z = float(e.sum())
        if Z <= 0.0:
            separated = True
            break
        C = e.copy()
        C[np.arange(m), y] = -e.sum(axis=1)
        h = learner(dataset, CostMatrix(C, "EOR"))
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
        if delta <= 0.0:
            negative += 1
        f[np.arange(m), preds - 1] += alpha
        # exact identity: Z_t = Z - (1-e^-a) A_plus + (e^a - 1) A_minus
        Z_after = Z - (1.0 - math.exp(-alpha)) * A_plus \
            + (math.exp(alpha) - 1.0) * A_minus
        prov.append((h, alpha))
        rounds.append(BoostRound(t, h, delta, alpha, Z, Z_after, A_plus,
                                 A_minus))
        if clamped:
            separated = True
            break
    return BoostRun(rounds, ScoringFunction(tuple(prov), k),
                    separated=separated, negative_edge_rounds=negative)


# ------------------------------------------------------------ OS strategy

def os_boost_fixed(dataset, baseline, loss, T, learner):
    """OS booster for a fixed EOR baseline: C_t(i,l) =
    phi^{b_i}_{T-t-1}(s_t(i) + e_l), alpha_t = 1 (ZERO_ONE) or eta (EXP).

    Potentials index coordinate 1 = true label, so each row's baseline
    and states are reordered true-label-first. A potential reads a state
    only through s_l - s_1, so a batch of lookups calls potential_fixed
    once per distinct key (b_i, s - s_1) and scatters the values back."""
    if not isinstance(baseline, Baseline) or baseline.kind not in ("EOR", "U"):
        raise ValueError("OS booster needs an edge-over-random baseline")
    m, k = dataset.m, dataset.k
    rows = np.arange(m)[:, None]
    order = np.concatenate((dataset.labels[:, None],
                            wrong_labels(dataset.labels, k)), axis=1) - 1
    b = baseline.entries[rows, order]
    alpha = loss.eta if loss.kind == EXP else 1.0

    def phi(t, states):
        """phi^{b_i}_t(states[i, r]) for true-label-first states (m, r, k)."""
        diffs = (states - states[:, :, :1]).reshape(-1, k)
        keys = np.concatenate((np.repeat(b, states.shape[1], axis=0), diffs),
                              axis=1)
        # one void scalar per (C-contiguous) key row: a 1-D unique is
        # several times faster than np.unique(keys, axis=0)
        void = keys.view(np.dtype((np.void, keys.itemsize * 2 * k))).ravel()
        _, first, inverse = np.unique(void, return_index=True,
                                      return_inverse=True)
        values = np.array([potential_fixed(keys[j, :k], loss, t, diffs[j])
                           for j in first])
        return values[inverse].reshape(states.shape[:2])

    s = np.zeros((m, k), dtype=int)
    rounds, prov = [], []
    initial = sum(phi(T, s[:, None, :])[:, 0].tolist()) / m
    all_satisfied = True
    for t in range(T):
        children = s[rows, order][:, None, :] + np.eye(k, dtype=int)
        C = np.empty((m, k))
        C[rows, order] = phi(T - t - 1, children)
        h = learner(dataset, CostMatrix(C, "UNCONSTRAINED"))
        preds = h.predict_all(dataset)
        chosen = C[rows[:, 0], preds - 1]
        e = float((C * baseline.entries).sum()) - float(chosen.sum())
        if e < -1e-9:
            all_satisfied = False
        s[rows[:, 0], preds - 1] += 1
        # s_{t+1}(i) = s_t(i) + e_{h(x_i)}: the chosen entries of C_t
        avg = sum(chosen.tolist()) / m
        prov.append((h, alpha))
        rounds.append(BoostRound(t + 1, h, e, alpha, 0.0, 0.0,
                                 extra={"avg_potential": avg}))
    scoring = ScoringFunction(tuple(prov), k)
    run = BoostRun(rounds, scoring,
                   extra={"initial_potential": initial,
                          "condition_satisfied": all_satisfied})
    if all_satisfied:
        err = training_error(scoring, dataset)
        if err > initial + 1e-9:
            raise RuntimeError(
                f"training error {err} above initial potential {initial}")
    return run


# ---------------------------------------------------- mislabel transform

@dataclass(frozen=True, eq=False)
class MislabelDataset:
    """m(k-1) all-negative binary examples, one triple (i, y_i, l) per
    wrong label l, ordered by example, then by l."""
    columns: tuple  # three int arrays: example index, y, l

    @property
    def size(self):
        return len(self.columns[0])


def transform_mislabel(dataset, Hspace):
    """(mislabel, V): the triples, and the transformed space as one (n,
    m(k-1)) float matrix V[j, q] = 1[h_j(x_i) = l] - 1[h_j(x_i) = y] for
    triple q = (i, y, l), in {-1, 0, +1}."""
    m, k = dataset.m, dataset.k
    mislabel = MislabelDataset((np.repeat(np.arange(m), k - 1),
                                np.repeat(dataset.labels, k - 1),
                                wrong_labels(dataset.labels, k).ravel()))
    i, y, l = mislabel.columns
    p = prediction_matrix(Hspace, dataset)[:, i]
    return mislabel, (p == l).astype(float) - (p == y)


def adaboost_binary(V, T):
    """Confidence-rated binary AdaBoost on the all-negative transform with
    value matrix V; each round takes the maximum-edge row j of V (ties to
    the lowest j) and names it as its classifier."""
    Ft = np.zeros(V.shape[1])
    rounds = []
    separated = False
    negative = 0
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
        if delta <= 0.0:
            negative += 1
        Ft = Ft + alpha * V[j]
        rounds.append(BoostRound(t, j, delta, alpha, Z,
                                 float(np.exp(np.minimum(Ft, 700.0)).sum()),
                                 extra={"dist": dist}))
        if clamped:
            separated = True
            break
    return BoostRun(rounds, None, separated=separated,
                    negative_edge_rounds=negative, extra={"F_tilde": Ft})


def check_run_equivalence(dataset, Hspace, T, tol=1e-9):
    """AdaBoost.MM (APPROX, best-response learner) against binary
    AdaBoost on the mislabel transform: same classifier each round, same
    weights, same normalized per-triple weights. Returns (ok, detail)."""
    mm = adaboost_mm(dataset, T, BestResponseLearner(Hspace), "APPROX")
    mislabel, V = transform_mislabel(dataset, Hspace)
    bin_run = adaboost_binary(V, T)
    P = prediction_matrix(Hspace, dataset)

    y = dataset.labels - 1
    ti, ty, tl = mislabel.columns
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
        f[np.arange(dataset.m), P[rb.classifier] - 1] += ra.alpha
    ft = bin_run.extra["F_tilde"]
    mm_ft = f[ti, tl - 1] - f[ti, ty - 1]
    if np.max(np.abs(ft - mm_ft)) > max(tol, 1e-8):
        return False, "final transformed scores differ"
    return True, "ok"
