"""Weak learners the boosters query. Each answers the booster's (m, k)
cost array: exhaustive best response over a finite space, and greedy
size-capped trees (a stump has size 3) that minimize summed cost."""

import numpy as np

from .core import WeakClassifier, is_finite, is_numeric, prediction_matrix


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
        if isinstance(self.left, Leaf) and isinstance(self.right, Leaf):
            out[idx] = np.where(left, self.left.label, self.right.label)
            return
        if isinstance(idx, slice):
            idx = np.arange(len(left))
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

    def __init__(self, members, cT):
        self.members = members
        # the root holds every row, in order: no gather; a cumsum along
        # the label-major costs adds the members in order, one at a time
        rows = cT if len(members) == cT.shape[1] else cT.take(members, 1)
        totals = np.cumsum(rows, axis=1)[:, -1]
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


# floats in one block of columns' bin sums, and in its tiled costs
BLOCK = 2 ** 18


def _split_gains(node, layout, cT):
    """(approximate gains, first bins, thresholds) of a leaf's candidate
    splits, in (column, candidate) order; a categorical candidate's
    threshold is NaN, its category the value of its bin.

    The columns are scored in blocks, as many per block (at least one) as
    keep its (k + 1) x bins sums and its k x (columns x members) tiled
    costs under BLOCK floats, so memory stays bounded however wide the
    data. One pass scores a block: per label, one bincount adds the
    members' costs into their (column, rank) bins in member order, and
    one more counts them; a cumsum over the ranks of each numeric
    column turns the bins into left sums. A numeric candidate lies
    between two ranks present in the leaf, at the midpoint of their
    values; its left side ends at the lower rank, or, where the
    midpoint rounds up to the upper value, at the end of that value's
    run of equal floats, so the left sum is that of `values <= thr`
    exactly. A categorical candidate is one present rank. The left
    sums are gathered label-major, one contiguous row of candidates
    per label, so the minima reduce along the long axis."""
    q, numeric, bins, floats, last = layout
    k, n = len(cT), len(node.members)
    # the root holds every row, in order: no gather
    members = node.members if n < bins.shape[1] else slice(None)
    rows = cT[:, members]
    total = rows.sum(axis=1)[:, None]
    width = max(1, BLOCK // ((k + 1) * max(n, q)))
    parts = []
    # one pass even without columns, so that the result has its dtypes
    for j in range(0, max(len(bins), 1), width):
        block = bins[j:j + width, members]
        base, size = j * q, len(block) * q
        flat = block.ravel() - base
        weights = np.tile(rows, len(block))
        sums = np.empty((k + 1, size))
        for label in range(k):
            sums[label] = np.bincount(flat, weights[label], size)
        sums[k] = np.bincount(flat, minlength=size)
        present = np.flatnonzero(sums[k]) + base
        cube = sums.reshape(k + 1, len(block), q)
        kinds = numeric[j:j + width]
        cube[:, kinds] = np.cumsum(cube[:, kinds], axis=2)
        lo, hi = present[:-1], present[1:]
        # halves first: the sum of two large values overflows; a NaN
        # midpoint (of a NaN value, or of -inf and inf) puts no row left
        with np.errstate(invalid="ignore"):
            thresholds = np.append(floats[lo] / 2 + floats[hi] / 2, np.nan)
        end = np.append(np.where(thresholds[:-1] >= floats[hi], last[hi],
                                 lo), present[-1:]) - base
        col = present // q
        proper = ((np.append(col[1:] == col[:-1], False)
                   & ~np.isnan(thresholds)) | ~numeric[col])
        keep = np.flatnonzero(proper & (sums[k, end] < n))
        left = sums.take(end[keep], axis=1)[:k]
        gains = node.score - (left.min(axis=0) + (total - left).min(axis=0))
        parts.append((gains, present[keep], thresholds[keep]))
    return tuple(map(np.concatenate, zip(*parts)))


def _shortlist(gains, eps):
    """Indices, ascending, of the candidates whose approximate gain lies
    in the top cluster: the gains above 1e-12 - eps (at or below it, no
    exact gain exceeds 1e-12), from the largest down to the first gap
    wider than 2 eps + 1e-12."""
    alive = np.sort(gains[gains > 1e-12 - eps])
    if not len(alive):
        return []
    gaps = np.flatnonzero(np.diff(alive) > 2 * eps + 1e-12)
    return np.flatnonzero(gains >= alive[gaps[-1] + 1 if len(gaps) else 0]
                          ).tolist()


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
    2016, Alg. 1), binned by rank as in histogram split finding: every
    column is ranked and laid out once per dataset
    (Dataset.split_layout), and each leaf scores all its candidates in
    blocks of columns over its members' ranks when it joins the tree
    (_split_gains) and keeps the gains, so an expansion scans only the
    two new children. Binned and prefix sums add in another order, so
    their gains only shortlist: the candidates whose approximate gain
    lies in the top cluster (no gap wider than 2 eps + 1e-12, eps a
    bound on the sums' error) have their gains recomputed from the
    members' own sums, and the rule above is replayed on them in
    order. Every candidate left out is more than 1e-12 below every one
    kept, so it could never win, and the tree equals that of a full
    scan."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    c = np.asarray(C, dtype=float)
    layout = dataset.split_layout
    q, numeric = layout[:2]
    cT = np.ascontiguousarray(c.T)
    root = _Node(np.arange(dataset.m), cT)
    # Error bound (u = 2^-53, n <= m rows, S = sum|c|): every sum of cost
    # rows is off by at most n u S from the real sum if it adds at most n
    # terms, whatever their order. A left sum adds each member's cost once:
    # into its bin, then the bins of lower ranks (empty ones add 0); the
    # total and a child's own sum add each member once too. The
    # approximate gain uses the left sum twice (right = total - left) and
    # the total once, the exact gain the sums of its two children, and the
    # roundings between add at most 7 u S, so the two gains differ by at
    # most (4n + 7) u S. eps is about twice that bound.
    eps = 4 * (dataset.m + dataset.k + 8) * 2.0 ** -52 * float(np.abs(c).sum())
    size = 1
    while size + 2 <= max_size:
        leaves = list(root.leaves())
        for leaf in leaves:
            if leaf.candidates is None:
                leaf.candidates = _split_gains(leaf, layout, cT)
        gains = np.concatenate([leaf.candidates[0] for leaf in leaves])
        ends = np.cumsum([len(leaf.candidates[0]) for leaf in leaves])
        best = None  # (gain, leaf, split, left node, right node)
        for i in _shortlist(gains, eps):
            at = int(np.searchsorted(ends, i, side="right"))
            leaf = leaves[at]
            _, first, thresholds = leaf.candidates
            i -= ends[at - 1] if at else 0
            j, rank = divmod(int(first[i]), q)
            # a plain Python scalar, so that to_dict() holds JSON types
            thr = (thresholds[i] if numeric[j]
                   else dataset.ranking[0][j][rank]).item()
            values = dataset.columns[j][leaf.members]
            left = values <= thr if numeric[j] else values == thr
            lw = _Node(leaf.members[left], cT)
            rw = _Node(leaf.members[~left], cT)
            gain = leaf.score - (lw.score + rw.score)
            if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                best = (gain, leaf, (j, thr, bool(numeric[j])), lw, rw)
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
