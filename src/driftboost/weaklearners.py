"""Weak learners the boosters query. Each answers the booster's (m, k)
cost array: exhaustive best response over a finite space, and greedy
size-capped trees (a stump has size 3) that minimize summed cost."""

import numpy as np

from .core import (WeakClassifier, is_finite, is_numeric, prediction_matrix,
                   split_candidates)


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
    """A growing tree's node: ascending members, label and score (least
    per-label cost total), split and children, a leaf's candidates."""

    __slots__ = ("members", "score", "label", "split", "left", "right",
                 "candidates")

    def __init__(self, members, totals):
        self.members = members
        self.label = int(np.argmin(totals)) + 1
        self.score = float(totals[self.label - 1])
        self.split = self.left = self.right = self.candidates = None

    def freeze(self):
        if self.split is None:
            return Leaf(self.label)
        j, thr, numeric = self.split
        return Split(j, thr, numeric, self.left.freeze(), self.right.freeze())


# floats in one block of columns' bin sums, and in its tiled costs
BLOCK = 2 ** 18


def _split_gains(nodes, dataset, cT):
    """Per node (the root, or a split's two children together), its
    candidates' (approximate gains, first bins, thresholds). Per block
    of columns (bin sums and tiled costs under BLOCK floats) and label,
    a bincount adds the members' costs into their bins in member order,
    and a cumsum over each numeric (node, column) segment of present
    bins (split_candidates; the root's are cached) makes left sums."""
    layout = dataset.split_layout
    q, numeric, bins = layout[:3]
    k, cuts = len(cT), [0]
    for node in nodes:
        cuts.append(cuts[-1] + len(node.members))
    # the root holds every row, in order: no gather
    root = len(nodes) == 1 and cuts[1] == dataset.m
    members = slice(None) if root else np.concatenate(
        [node.members for node in nodes])
    rows = cT[:, members]
    totals = [rows[:, a:z].sum(axis=1)[:, None]
              for a, z in zip(cuts, cuts[1:])]
    width = max(1, BLOCK // ((k + 1) * max(cuts[-1], len(nodes) * q)))
    parts = [[] for _ in nodes]
    whole = np.empty(len(dataset.root_candidates[1]) if root else 0)
    # one pass even without columns, so that the result has its dtypes
    for j in range(0, max(len(bins), 1), width):
        cols = slice(j, j + width)
        block = bins[cols, members] - j * q if j else bins[cols, members]
        b = len(block)
        if root:
            ends, first, thresholds = dataset.root_candidates
            lo, hi = ((0, len(first)) if b == len(bins) else
                      np.searchsorted(first, [j * q, (j + b) * q]).tolist())
            ends, first, thresholds = (ends[lo:hi] - j * q, first[lo:hi],
                                       thresholds[lo:hi])
            w, bounds = q, [hi - lo]
        else:
            for cut in cuts[1:-1]:
                block[:, cut:] += b * q
            mark = np.zeros(len(nodes) * b * q, dtype=bool)
            mark[block] = True
            slot, w, ends, first, thresholds, bounds = split_candidates(
                layout, cols, mark)
            block, ends = slot[block], slot[ends]
        size = len(nodes) * b * w
        weights = np.repeat(rows[:, None], b, axis=1).reshape(k, -1)
        sums = np.empty((k, size))
        for label in range(k):
            sums[label] = np.bincount(block.ravel(), weights[label], size)
        # categorical bins keep their own sums
        cube, categorical = sums.reshape(k, len(nodes), -1, w), ~numeric[cols]
        own = cube[:, :, categorical]
        np.cumsum(cube, axis=3, out=cube)
        cube[:, :, categorical] = own
        # label-major: the minima reduce along the long axis
        left = sums.take(ends, axis=1)
        for node, part, a, z, total in zip(nodes, parts, [0, *bounds],
                                           bounds, totals):
            gains = node.score - (left[:, a:z].min(axis=0)
                                  + (total - left[:, a:z]).min(axis=0))
            if root:  # the candidates' bins and thresholds are cached whole
                whole[lo:hi] = gains
            else:
                part.append((gains, first[a:z], thresholds[a:z]))
    if root:
        return [(whole, *dataset.root_candidates[1:])]
    return [part[0] if len(part) == 1
            else tuple(map(np.concatenate, zip(*part))) for part in parts]


def _shortlist(gains, eps):
    """Indices, ascending, of the candidates whose approximate gain lies
    in the top cluster: the gains above 1e-12 - eps (at or below it, no
    exact gain exceeds 1e-12), from the largest down to the first gap
    wider than 2 eps + 1e-12. Only the gains within a doubling reach of
    the top are sorted."""
    alive, gap = gains[gains > 1e-12 - eps], 2 * eps + 1e-12
    if not len(alive):
        return []
    lo, reach = alive.max(), gap
    while (near := np.sort(alive[~(lo - alive > reach)]))[0] < lo:
        cut = np.flatnonzero(np.diff(near) > gap)
        lo, reach = near[cut[-1] + 1 if len(cut) else 0], 2 * reach
        if len(cut):
            break
    return np.flatnonzero(gains >= lo).tolist()


def _exact_gains(leaf, chosen, dataset, cT):
    """(split, gain, rows that go left, (k, 2) per-label totals of right
    and left child) per chosen candidate of a leaf; one bincount per
    label adds the members in order, as the child's own cumsum would."""
    q, numeric, *_, distinct = dataset.split_layout
    _, first, thresholds = leaf.candidates
    rows = cT if len(leaf.members) == cT.shape[1] else cT.take(leaf.members,
                                                              1)
    splits, lefts = [], []
    for i in chosen:
        j, rank = divmod(int(first[i]), q)
        # a plain Python scalar, so that to_dict() holds JSON types
        thr = (thresholds[i] if numeric[j]
               else distinct[j][rank]).item()
        values = dataset.columns[j][leaf.members]
        lefts.append(values <= thr if numeric[j] else values == thr)
        splits.append((j, thr, bool(numeric[j])))
    sums = np.array([[np.bincount(left, row, 2) for row in rows]
                     for left in lefts])
    scores = sums.min(axis=1)
    return zip(splits, (leaf.score - (scores[:, 1] + scores[:, 0])).tolist(),
               lefts, sums)


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
    2016, Alg. 1), binned by rank, a leaf's work following its members
    as in SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996). Each leaf is
    scored once (_split_gains): the root from structure cached per
    dataset, a split's two children in one pass, so a size-s tree makes
    at most 1 + (s - 3) / 2 passes. Binned sums add in another order, so
    their gains only shortlist: the top cluster (no gap wider than
    2 eps + 1e-12, eps a bound on the sums' error) is recomputed from
    the children's own sums (_exact_gains) and the rule above replayed
    on it in order. Every candidate left out is more than 1e-12 below
    every one kept, so the tree equals that of a full scan."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    c = np.asarray(C, dtype=float)
    cT = np.ascontiguousarray(c.T)
    root = _Node(np.arange(dataset.m), np.cumsum(cT, axis=1)[:, -1])
    # Error bound (u = 2^-53, n <= m rows, S = sum|c|): every sum of cost
    # rows is off by at most n u S from the real sum if it adds at most n
    # terms, whatever their order. A left sum adds each member's cost once:
    # into its bin, then the present bins of lower ranks in its node and
    # column; no absent bin adds a term. The total and a child's own sum
    # add each member once too. The approximate gain uses the left sum
    # twice (right = total - left) and the total once, the exact gain the
    # sums of its two children, and the roundings between add at most
    # 7 u S, so the two gains differ by at most (4n + 7) u S. eps is about
    # twice that bound.
    eps = 4 * (dataset.m + dataset.k + 8) * 2.0 ** -52 * float(np.abs(c).sum())
    leaves, size = [root], 1
    if max_size >= 3:
        root.candidates, = _split_gains([root], dataset, cT)
    while size + 2 <= max_size:
        picks, at, start = {}, 0, 0  # shortlisted candidates per leaf
        gains = [leaf.candidates[0] for leaf in leaves]
        for i in _shortlist(np.concatenate(gains) if len(gains) > 1
                            else gains[0], eps):
            while i >= start + len(leaves[at].candidates[0]):
                start += len(leaves[at].candidates[0])
                at += 1
            picks.setdefault(at, []).append(i - start)
        best = None  # (gain, leaf index, split, its left rows, their sums)
        for at, chosen in picks.items():
            for split, gain, left, sums in _exact_gains(leaves[at], chosen,
                                                        dataset, cT):
                if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                    best = (gain, at, split, left, sums)
        if best is None:
            break
        _, at, split, left, sums = best
        leaf = leaves[at]
        leaf.split, leaf.candidates = split, None
        leaf.left = _Node(leaf.members[left], sums[:, 1])
        leaf.right = _Node(leaf.members[~left], sums[:, 0])
        leaves[at:at + 1] = [leaf.left, leaf.right]
        size += 2
        if size + 2 <= max_size:
            leaf.left.candidates, leaf.right.candidates = _split_gains(
                [leaf.left, leaf.right], dataset, cT)
    return root.freeze()


class TreeLearner:
    """Learner wrapper for the boosters: grows a fresh capped tree per
    round from the current cost matrix."""

    def __init__(self, max_size):
        self.max_size = max_size

    def __call__(self, dataset, C):
        return greedy_tree(dataset, C, self.max_size)
