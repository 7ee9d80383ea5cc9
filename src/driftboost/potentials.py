"""Drifting-game potential functions.

Convention throughout this module: state vectors s and distributions b are
indexed with coordinate 1 (array index 0) = the true label. Both losses
depend on s only through s_l - s_1, and so do all potentials. The walk is
also exchangeable in the wrong labels, so a fixed-baseline potential reads
only b_1 and the multiset of pairs (b_l, s_l - s_1), l > 1: a batch keys
each state by one int64 code of that multiset and evaluates each distinct
key once. The zero-one potentials of a whole run under one shared
baseline row (zeroone_table) and the minimal-condition potential
(minimal_sweep) each fill one backward sweep over levels of sorted
difference vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Baseline

ZERO_ONE = "ZERO_ONE"
EXP = "EXP"


@dataclass(frozen=True)
class LossSpec:
    kind: str
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in (ZERO_ONE, EXP):
            raise ValueError(f"unknown loss kind {self.kind}")
        if self.kind == EXP and self.eta < 0:
            raise ValueError("EXP loss needs eta >= 0")


def check_gamma(gamma):
    if not 0.0 <= gamma < 1.0:
        raise ValueError("need 0 <= gamma < 1")


def check_eor_rows(rows, gamma):
    """Raise ValueError unless 0 <= gamma < 1 and every row of the (m, k)
    array rows, true label first, lies in Delta_gamma^k: a distribution
    with b(1) - gamma = the largest other entry."""
    check_gamma(gamma)
    rows = np.asarray(rows, dtype=float)
    # a negated pass on the sum, so that a row holding NaN is off
    off = (rows.min(axis=1) < -1e-12) | ~(abs(rows.sum(axis=1) - 1.0) <= 1e-9)
    bad = off | (np.abs((rows[:, 0] - gamma) - rows[:, 1:].max(axis=1)) > 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} " + ("is not a probability vector" if off[i]
                                        else "violates b(1) - gamma = max "
                                        "other entry"))


@dataclass(frozen=True)
class EorDistribution:
    """A distribution in Delta_gamma^k: b(1) - gamma = max of the rest."""
    b: tuple
    gamma: float

    def __post_init__(self):
        check_eor_rows([self.b], self.gamma)


def gamma_biased_uniform(k, gamma):
    if k < 2:
        raise ValueError("need k >= 2")
    base = (1.0 - gamma) / k
    return EorDistribution((base + gamma,) + (base,) * (k - 1), gamma)


def uniform_baseline(dataset, gamma):
    """U_gamma: gamma_biased_uniform's row, its first entry on each
    example's own label."""
    b = gamma_biased_uniform(dataset.k, gamma).b
    entries = np.full((dataset.m, dataset.k), b[1])
    entries[np.arange(dataset.m), dataset.labels - 1] = b[0]
    return Baseline(entries)


def _rows(b):
    return np.asarray(b.b if isinstance(b, EorDistribution) else b, float)


def potential_exp_closed(b, eta, t, s):
    # phi^b_t(s) = sum_{l>=2} a_l^t e^{eta (s_l - s_1)}, states (..., k)
    bv, s = _rows(b), np.asarray(s, dtype=float)
    b1, bl = bv[..., :1], bv[..., 1:]
    a = 1.0 - (b1 + bl) + math.exp(eta) * bl + math.exp(-eta) * b1
    return (a ** t * np.exp(eta * (s[..., 1:] - s[..., :1]))).sum(axis=-1)


def potential_zeroone_dp(b, t, s):
    """1 - Pr[s_1 + x_1 > s_l + x_l for all l > 1] after a t-step walk for
    states s (k,) or (S, k), rows b broadcast: x_1 ~ Bin(t, b_1), then x_l ~
    Bin(votes left, b_l / (b_l + ... + b_k)) capped at x_1 - (s_l - s_1) - 1.
    Summing the mass lost past caps keeps an unbeatable lead exactly 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    bv, d = np.broadcast_arrays(np.atleast_2d(_rows(b)), np.atleast_2d(s))
    bv, row = np.unique(bv, axis=0, return_inverse=True)
    q = np.cumsum(bv[:, ::-1], axis=1)[:, ::-1]
    p = np.divide(bv, q, out=np.ones_like(bv), where=q > 0)[..., None, None]
    # pmf[u, l, r, x] = Pr[Bin(r, p[u, l]) = x] for x = n, from log r!
    n, r = np.arange(t + 1), np.arange(t + 1)[:, None]
    lf = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log = (lf[r] - lf - lf[abs(r - n)] + np.where(n > 0, n * np.log(p), 0)
               + np.where(r > n, (r - n) * np.log1p(-p), 0))
    pmf = np.where(n <= r, np.exp(log), 0.0)
    caps = n - (d[:, 1:] - d[:, :1])[:, :, None] - 1
    # x_2 = t - j - n of the votes left after x_1 = j: mass by (state, j, n)
    x = t - r - n
    move = pmf[row, 0, t, :, None] * np.where(
        x >= 0, pmf[row[:, None, None], 1, t - r, x], 0.0)
    keep = x <= caps[:, 0, :, None]
    mass, lost = np.where(keep, move, 0), np.where(keep, 0, move).sum((1, 2))
    for l in range(2, d.shape[1] - 1):   # O(t^3); x_k gets the votes left
        nxt = np.zeros_like(mass)
        for v, w in zip(n, t + 1 - n):   # x_l = v needs j <= t - v < w
            move = mass[:, :w, v:] * pmf[row, l, None, v:, v]
            keep = v <= caps[:, l - 1, :w]
            nxt[:, :w, :w] += np.where(keep[:, :, None], move, 0.0)
            lost += np.where(keep, 0.0, move.sum(axis=2)).sum(axis=1)
        mass = nxt
    lost += np.where(n > caps[:, -1, :, None], mass, 0.0).sum(axis=(1, 2))
    # a wrong label t or more votes ahead has already won: exactly 1
    lost[(d[:, 1:] - d[:, :1]).max(axis=1) >= t] = 1.0
    return lost.reshape(np.shape(s)[:-1])[()]


def _classes(key, size, columns, width):
    """(rep, inverse) for rows keyed by key in [0, size) and then by the
    int columns (rows, n) in [0, width): one representative row per
    distinct key, and each row's class index. The row key is packed in
    mixed radix into one int64, and the packed prefix is re-ranked
    whenever the next column could take it past 2^62, so no width or
    column count can overflow it."""
    for column in np.asarray(columns).T:
        if size * width > 2 ** 62:
            uniq, key = np.unique(key, return_inverse=True)
            size = len(uniq)
        key, size = key * width + column, size * width
    uniq, inverse = np.unique(key, return_inverse=True)
    # any row of a class will do, as its rows share their potentials;
    # not asking for the first occurrence spares unique a stable sort
    rep = np.empty(len(uniq), dtype=int)
    rep[inverse] = np.arange(len(key))
    return rep, inverse


def potential_fixed(b, loss, t, s):
    """phi^b_t(s) for baseline rows b broadcast to states s (..., k).

    A potential reads only b_1 and the multiset of wrong-label pairs
    (b_l, s_l - s_1), l > 1, since the walk is exchangeable in the wrong
    labels. So each state is keyed by b_1's rank among b's entries and
    its pairs, each coded as one int and sorted along the row (_classes
    packs them). Each distinct key is evaluated once, on its canonical
    row (wrong-label pairs in ascending order)."""
    bv = _rows(b)
    vals, code = np.unique(bv, return_inverse=True)
    code, s = np.broadcast_arrays(code.reshape(bv.shape),
                                  np.asarray(s, dtype=int))
    k = s.shape[-1]
    code, d = code.reshape(-1, k), (s - s[..., :1]).reshape(-1, k)[:, 1:]
    lo = int(d.min(initial=0))
    span = int(d.max(initial=0)) - lo + 1
    pairs = np.sort(code[:, 1:] * span + (d - lo), axis=1)
    rep, inverse = _classes(code[:, 0], len(vals), pairs, len(vals) * span)
    pairs = pairs[rep]
    b = vals[np.concatenate((code[rep, :1], pairs // span), axis=1)]
    d = np.concatenate((np.zeros((len(rep), 1), int), pairs % span + lo), 1)
    phi = (potential_exp_closed(b, loss.eta, t, d) if loss.kind == EXP
           else potential_zeroone_dp(b, t, d))
    return phi[inverse].reshape(s.shape[:-1])[()]


def _settle(d, left):
    """(index, states) for rows d of sorted wrong-label differences at a
    level with `left` rounds to go. A row with max d >= left is lost
    (index 1), one with max d < -left is won (index 0): no later votes
    can change either. The other rows, each entry clamped at -left - 1
    (a label that far behind can no longer win), get 2 + their rank
    among the distinct rows, which are returned in that order."""
    d = np.maximum(d, -left - 1)
    top = d[:, -1]
    index = (top >= left).astype(int)
    open_ = (top >= -left) & (top < left)
    # entries of open rows lie in [-left - 1, left - 1]
    d = d[open_]
    code, width = d.astype(np.int64) + (left + 1), 2 * left + 1
    rep, inverse = _classes(code[:, 0], width, code[:, 1:], width)
    index[open_] = 2 + inverse
    return index, d[rep]


def _children(level):
    """The k children of each row of ascending wrong-label differences
    (n, k - 1), as n * k rows: a true-label vote, then a vote for each
    position p, raising the last entry of p's run so the row stays sorted."""
    n, w = level.shape
    last = np.tile(np.arange(w), (n, 1))
    for p in range(w - 2, -1, -1):
        last[:, p] = np.where(level[:, p] == level[:, p + 1],
                              last[:, p + 1], p)
    kids = np.repeat(level[:, None], w + 1, axis=1)
    kids[:, 0] -= 1
    kids[np.arange(n)[:, None], np.arange(1, w + 1), last] += 1
    return kids.reshape(-1, w)


def zeroone_table(b1, bw, k, T):
    """Zero-one potentials of a whole T-round run under one baseline row
    (b1, bw, ..., bw) shared by every example.

    A state after t rounds is keyed by its sorted wrong-label
    differences d_l = s_l - s_1. A forward pass lists each level's
    reachable undecided states (see _settle), and a backward pass fills
    the drifting-game recurrence V_t(s) = b1 V_{t+1}(s + e_1) +
    bw sum_{l>1} V_{t+1}(s + e_l), the wrong children added in sorted
    order. Returns (start, children, values): values[t][u] is V_t of
    level t's state u, where u = 0 is every won state (exactly 0.0) and
    u = 1 every lost one (exactly 1.0); children[t][u, 0] is the index at
    level t + 1 of u's child after a true-label vote, and
    children[t][u, 1 + p] after a vote for the wrong label at sorted
    position p; start is the index of state 0 at level 0."""
    dtype = np.min_scalar_type(-T - 2)
    start, level = _settle(np.zeros((1, k - 1), dtype), T)
    children = []
    for t in range(T):
        index, level = _settle(_children(level), T - t - 1)
        children.append(np.concatenate(([[0] * k, [1] * k],
                                        index.reshape(-1, k))))
    values = [np.array([0.0, 1.0])]
    for child in reversed(children):
        nxt = values[-1]
        wrong = nxt[child[:, 1]]
        for p in range(2, k):
            wrong += nxt[child[:, p]]
        v = b1 * nxt[child[:, 0]] + bw * wrong
        v[:2] = 0.0, 1.0
        values.append(v)
    return int(start[0]), children, values[::-1]


# rows of states held at k <= 4; wider rows count k / 4 each, so no k
# holds more memory than k = 4 does
STATE_CAP = 5_000_000


def _over_cap(rows, k):
    return rows * max(k, 4) > 4 * STATE_CAP


def minimal_sweep(gamma, loss, t, s):
    """(values, degrees) of the minimal-condition potential phi_t(s) for
    queries t (Q,) and states s (Q, k): each round the adversary puts
    (1-gamma)/a + gamma on the true label and (1-gamma)/a on the a-1
    wrong labels of largest child potential, for the degree a in {2..k}
    that maximizes phi (ties to the largest a; degree k at t = 0). The
    rows of ascending wrong-label differences the queries reach are
    listed from the largest t down, then filled from t = 0 up, none
    pruned or clamped (the degree map reads decided states). Raises
    RuntimeError before the rows held would pass STATE_CAP (_over_cap)."""
    t, s = np.asarray(t, dtype=int), np.asarray(s, dtype=np.int64)
    k = s.shape[1]
    if k < 2:
        raise ValueError("need k >= 2")
    check_gamma(gamma)
    if (t < 0).any():
        raise ValueError("t must be >= 0")
    d = np.sort(s[:, 1:] - s[:, :1], axis=1)
    # popped from t = 0 up: each level's rows, each query's index in them
    # and the index in them of each child of the level above
    kids, levels, children, asks = d[:0], [], [], []
    for left in range(int(t.max(initial=0)), -1, -1):
        rows = np.concatenate((kids, d[t == left]))
        code = rows - rows.min(initial=0)
        width = int(code.max(initial=0)) + 1
        rep, inverse = _classes(code[:, 0], width, code[:, 1:], width)
        children.append(inverse[:len(kids)].reshape(-1, k))
        asks.append(inverse[len(kids):])
        levels.append(rows[rep])
        if left and _over_cap(sum(map(len, levels)) + k * len(rep), k):
            raise RuntimeError("minimal-potential state cap exceeded")
        kids = _children(levels[-1]) if left else None
    values, degrees = np.empty(len(t)), np.empty(len(t), dtype=int)
    for left in range(len(levels)):
        level, ask = levels.pop(), asks.pop()
        degree = np.full(len(level), k)
        if left == 0 and loss.kind == ZERO_ONE:
            value = (level[:, -1] >= 0) * 1.0
        elif left == 0:   # the EXP loss: a math.exp sum, largest d first
            e = np.frompyfunc(math.exp, 1, 1)(loss.eta * level[:, ::-1])
            value = e.astype(float).cumsum(axis=1)[:, -1]
        else:
            child = children.pop()
            true = value[child[:, 0]]
            # equal values may come in any order: their sums agree
            run = np.sort(value[child[:, 1:]], axis=1)[:, ::-1].cumsum(axis=1)
            value = np.full(len(level), -np.inf)
            for a in range(2, k + 1):
                share = (1.0 - gamma) / a
                val = (share + gamma) * true + share * run[:, a - 2]
                degree = np.where(val >= value - 1e-15, a, degree)
                value = np.maximum(val, value)
        values[t == left], degrees[t == left] = value[ask], degree[ask]
    return values, degrees


def potential_minimal(gamma, loss, t, s):
    """(value, degree) of the minimal-condition potential at (t, s)."""
    value, degree = minimal_sweep(gamma, loss, [t], [s])
    return float(value[0]), int(degree[0])


def degree_map(gamma, loss, T):
    """(u, v, t, degree) rows over compressed k = 3 states (u, v) =
    (s_2-s_1, s_3-s_2), the one arity that fits a 2-D map, for t = 1..T
    and u, v in [-T, T]."""
    if T < 0:
        raise ValueError("need rounds >= 0")
    if _over_cap(T * (2 * T + 1) ** 2, 3):
        raise RuntimeError("minimal-potential state cap exceeded")
    t, u, v = np.mgrid[1:T + 1, -T:T + 1, -T:T + 1].reshape(3, -1)
    _, a = minimal_sweep(gamma, loss, t, np.stack((0 * u, u, u + v), axis=1))
    return list(zip(u.tolist(), v.tolist(), t.tolist(), a.tolist()))
