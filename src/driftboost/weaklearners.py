"""Weak learners the boosters query. Each answers the booster's (m, k)
cost array: exhaustive best response over a finite space, and greedy
size-capped trees (a stump has size 3) that minimize summed cost."""

import numpy as np

from .core import (TableClassifier, WeakClassifier, is_finite, is_numeric,
                   prediction_matrix)


def _argmin_cost(P, C):
    """Row j of the (n, m) prediction matrix P minimizing C.1_{h_j}; ties
    go to the lowest index."""
    c = np.asarray(C, dtype=float)
    costs = c[np.arange(P.shape[1]), P - 1].sum(axis=1)
    # lowest index among near-minimal costs: exact mathematical ties must
    # not be broken by float summation noise, so the window is relative
    # to the cost scale (which shrinks with the weights)
    tol = 1e-12 * float(np.abs(c).sum())
    return int(np.argmax(costs <= costs.min() + tol))


def best_response(Hspace, C, dataset):
    """argmin_h C.1_h; ties go to the lowest index."""
    return Hspace[_argmin_cost(prediction_matrix(Hspace, dataset), C)]


class BestResponseLearner:
    """Learner closure over a fixed finite space; it returns members of
    the space itself, so runs compare classifiers by identity. The
    prediction matrix of the last dataset it was called with is kept,
    so a run predicts the space once, not once per round."""

    def __init__(self, Hspace):
        self.space = list(Hspace)
        self._dataset = self._P = None

    def matrix(self, dataset):
        if dataset is not self._dataset:
            self._dataset = dataset
            self._P = prediction_matrix(self.space, dataset)
        return self._P

    def __call__(self, dataset, C):
        return self.space[_argmin_cost(self.matrix(dataset), C)]


class FullSpaceBestResponse:
    """Best response over the space of all k^m classifiers: the per-row
    cost argmin, realized as a memorizing table classifier."""

    def __call__(self, dataset, C):
        return TableClassifier(np.argmin(C, axis=1) + 1)


# ------------------------------------------------------------------ trees

class Leaf(WeakClassifier):
    def __init__(self, label):
        self.label = int(label)

    def route(self, dataset, idx, out):
        out[idx] = self.label

    @property
    def size(self):
        return 1

    def to_dict(self):
        return {"leaf": self.label}


class Split(WeakClassifier):
    """Binary split: numeric columns by `value <= threshold`, categorical
    by `value == category` (single category vs rest)."""

    def __init__(self, feature, threshold, numeric, left, right):
        self.feature = feature
        self.threshold = threshold
        self.numeric = numeric
        self.left = left
        self.right = right

    def route(self, dataset, idx, out):
        values = dataset.columns[self.feature][idx]
        left = (values <= self.threshold if self.numeric
                else values == self.threshold)
        self.left.route(dataset, idx[left], out)
        self.right.route(dataset, idx[~left], out)

    @property
    def size(self):
        return 1 + self.left.size + self.right.size

    def to_dict(self):
        return {"feature": self.feature, "threshold": self.threshold,
                "numeric": self.numeric,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


def _is_a(value, kind):
    """isinstance, but a JSON true/false is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def tree_from_dict(d, dataset):
    """A model file's tree, checked against the dataset it will predict."""
    if not isinstance(d, dict):
        raise ValueError(f"tree node {d!r} is not an object")
    if "leaf" in d:
        label = d["leaf"]
        if not _is_a(label, int):
            raise ValueError(f"tree leaf {label!r} is not an integer label")
        if not 1 <= label <= dataset.k:
            raise ValueError(f"tree leaf {label} is outside 1..{dataset.k}")
        return Leaf(label)
    if {"feature", "threshold", "numeric", "left", "right"} - set(d):
        raise ValueError(f"tree node {sorted(d)} is neither a leaf nor a "
                         "full split")
    feature, threshold, numeric = d["feature"], d["threshold"], d["numeric"]
    if not _is_a(feature, int) or feature < 0:
        raise ValueError(f"split feature {feature!r} is not a column index")
    if not isinstance(numeric, bool):
        raise ValueError(f"split flag numeric = {numeric!r} is not a boolean")
    if not (_is_a(threshold, (int, float)) if numeric
            else isinstance(threshold, str)):
        kind = "number" if numeric else "string"
        raise ValueError(f"split threshold {threshold!r} is not a {kind}")
    if numeric and not is_finite(threshold):
        raise ValueError(f"split threshold {threshold!r} is not finite")
    if feature >= len(dataset.columns):
        raise ValueError(f"split on column {feature}, but the data has "
                         f"{len(dataset.columns)} feature columns")
    if is_numeric(dataset.columns[feature]) != numeric:
        kind = "numeric" if numeric else "categorical"
        raise ValueError(f"model splits column {feature} as {kind}, but it "
                         f"is not {kind} in the data")
    return Split(feature, threshold, numeric,
                 tree_from_dict(d["left"], dataset),
                 tree_from_dict(d["right"], dataset))


class _Node:
    """A node of a growing tree: its members as an ascending index
    array, its leaf label (least summed cost) and score (that sum), and
    once split, the split and the two children. A leaf caches its
    candidates' approximate gains."""

    __slots__ = ("members", "score", "label", "split", "left", "right",
                 "candidates")

    def __init__(self, members, c):
        self.members = members
        totals = c[members].sum(axis=0)
        self.label = int(np.argmin(totals)) + 1
        self.score = float(totals[self.label - 1])
        self.split = self.left = self.right = self.candidates = None

    def leaves(self):
        if self.split is None:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def freeze(self):
        if self.split is None:
            return Leaf(self.label)
        j, thr, numeric = self.split
        return Split(j, thr, numeric, self.left.freeze(), self.right.freeze())


def _split_gains(node, dataset, c):
    """[(column, numeric, thresholds, approximate gains)] of a leaf's
    candidate splits, in (column, candidate) order. Child cost sums come
    from prefix sums over the leaf sorted by the column (numeric) or
    from per-category sums (categorical). The leaf's sorted order is the
    dataset's one stable column order filtered to the leaf's members:
    the same rows in the same order as a stable sort of the leaf. Its
    categories are the codes present among its members, read from the
    dataset's one ranking of the column, and each category's sum adds
    the members' cost rows in member order. A numeric left count comes
    from searchsorted, which reproduces `values <= thr` exactly even
    where a midpoint rounds up to the next value."""
    rows = c[node.members]
    n, k = rows.shape
    total = rows.sum(axis=0)
    member = None
    if n < dataset.m:
        member = np.zeros(dataset.m, dtype=bool)
        member[node.members] = True
    out = []
    for j, column in enumerate(dataset.columns):
        numeric = is_numeric(column)
        if numeric:
            order = dataset.orders[j]
            if member is not None:
                order = order[member[order]]
            ordered = column[order]
            new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
            distinct = ordered[new]
            # halves first: the sum of two large values overflows
            thresholds = distinct[:-1] / 2 + distinct[1:] / 2
            n_left = np.searchsorted(ordered, thresholds, side="right")
            keep = (n_left > 0) & (n_left < n)
            left = np.cumsum(c[order], axis=0)[n_left[keep] - 1]
        else:
            thresholds, codes = dataset.categories[j]
            code = codes[node.members]
            n_left = np.bincount(code, minlength=len(thresholds))
            keep = (n_left > 0) & (n_left < n)
            # each category's cost rows summed in member order
            left = np.bincount((code[:, None] * k + np.arange(k)).ravel(),
                               rows.ravel(), len(thresholds) * k)
            left = left.reshape(-1, k)[keep]
        gains = node.score - (left.min(axis=1) + (total - left).min(axis=1))
        out.append((j, numeric, thresholds[keep], gains))
    return out


def greedy_tree(dataset, C, max_size):
    """Grow a binary tree greedily until max_size nodes or no improving
    split. Each leaf takes the label of least summed cost under C, and a
    split's gain is the drop in summed leaf cost, so the tree answers
    the cost matrix it is given.

    Each node holds its members as an ascending index array. A leaf's
    candidates are, per column, the midpoints between its sorted distinct
    numeric values or each of its categories. Candidates are tried in
    (leaf DFS, column, candidate) order, and one replaces the best so far
    only if its gain exceeds 1e-12 and the best so far by more than 1e-12.

    The search is exact-greedy over prefix sums (Chen & Guestrin, KDD
    2016, Alg. 1): each leaf scores all its candidates in one vectorised
    pass when it joins the tree and keeps the gains, so an expansion
    scans only the two new children. Each numeric column is sorted once
    per dataset (Dataset.orders), and each categorical column ranked once
    (Dataset.categories), not per leaf or per round: a leaf filters that
    order, or those codes, to its members. Prefix sums add in another order,
    so their gains only shortlist: the candidates whose approximate gain
    lies in the top cluster (no gap wider than 2 eps + 1e-12, eps a
    bound on the prefix-sum error) have their gains recomputed from the
    members' own sums, and the rule above is replayed on them in order.
    Every candidate left out is more than 1e-12 below every one kept, so
    it could never win, and the tree equals that of a full scan."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    c = np.asarray(C, dtype=float)
    root = _Node(np.arange(dataset.m), c)
    # Error bound (u = 2^-53, n <= m rows, S = sum|c|): every sum of cost
    # rows, prefix, per-category or a child's own, is off by at most n u S
    # from the real sum. The approximate gain uses the left sum twice
    # (right = total - left) and the total once, the exact gain the sums
    # of its two children, and the roundings between add at most 7 u S,
    # so the two gains differ by at most (4n + 7) u S. eps is about twice
    # that bound.
    eps = 4 * (dataset.m + dataset.k + 8) * 2.0 ** -52 * float(np.abs(c).sum())
    size = 1
    while size + 2 <= max_size:
        chunks = []  # (leaf, column, numeric, thresholds), in replay order
        gains = []
        for leaf in root.leaves():
            if leaf.candidates is None:
                leaf.candidates = _split_gains(leaf, dataset, c)
            for j, numeric, thresholds, g in leaf.candidates:
                chunks.append((leaf, j, numeric, thresholds))
                gains.append(g)
        if not chunks:
            break
        ends = np.cumsum([len(g) for g in gains])
        gains = np.concatenate(gains)
        # a candidate at or below 1e-12 - eps cannot have a gain > 1e-12
        alive = np.flatnonzero(gains > 1e-12 - eps)
        ranked = alive[np.argsort(-gains[alive], kind="stable")]
        gaps = np.flatnonzero(gains[ranked[:-1]] - gains[ranked[1:]]
                              > 2 * eps + 1e-12)
        shortlist = np.sort(ranked[:gaps[0] + 1] if len(gaps) else ranked)
        best = None  # (gain, leaf, split, left node, right node)
        for i in shortlist.tolist():
            q = int(np.searchsorted(ends, i, side="right"))
            leaf, j, numeric, thresholds = chunks[q]
            # a plain Python scalar, so that to_dict() holds JSON types
            thr = thresholds[i - (ends[q - 1] if q else 0)].item()
            values = dataset.columns[j][leaf.members]
            left = values <= thr if numeric else values == thr
            lw = _Node(leaf.members[left], c)
            rw = _Node(leaf.members[~left], c)
            gain = leaf.score - (lw.score + rw.score)
            if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                best = (gain, leaf, (j, thr, numeric), lw, rw)
        if best is None:
            break
        _, leaf, split, lw, rw = best
        leaf.split, leaf.left, leaf.right = split, lw, rw
        leaf.candidates = None
        size += 2
    return root.freeze()


class TreeLearner:
    """Learner wrapper for the boosters: grows a fresh capped tree per
    round from the current cost matrix."""

    def __init__(self, max_size):
        self.max_size = max_size

    def __call__(self, dataset, C):
        return greedy_tree(dataset, C, self.max_size)
