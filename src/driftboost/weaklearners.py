"""Weak learners the boosters query: exhaustive best response over a
finite space, greedy size-capped trees (cost or information-gain
splitting), and stumps."""

import numpy as np

from .core import (CostMatrix, TableClassifier, WeakClassifier, is_numeric,
                   prediction_matrix)


def best_response(Hspace, C, dataset):
    """argmin_h C.1_h; ties go to the lowest index."""
    c = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=float)
    P = prediction_matrix(Hspace, dataset)
    costs = c[np.arange(dataset.m), P - 1].sum(axis=1)
    # lowest index among near-minimal costs: exact mathematical ties must
    # not be broken by float summation noise, so the window is relative
    # to the cost scale (which shrinks with the weights)
    tol = 1e-12 * float(np.abs(c).sum())
    return Hspace[int(np.argmax(costs <= costs.min() + tol))]


class BestResponseLearner:
    """Learner closure over a fixed finite space; it returns members of
    the space itself, so runs compare classifiers by identity."""

    def __init__(self, Hspace):
        self.space = list(Hspace)

    def __call__(self, dataset, C):
        return best_response(self.space, C, dataset)


class FullSpaceBestResponse:
    """Best response over the space of all k^m classifiers: the per-row
    cost argmin, realized as a memorizing table classifier."""

    def __call__(self, dataset, C):
        c = C.entries if isinstance(C, CostMatrix) else np.asarray(C)
        return TableClassifier(np.argmin(c, axis=1) + 1)


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
        if not 0 <= self.feature < len(dataset.columns):
            raise ValueError(f"split on column {self.feature}, but the data "
                             f"has {len(dataset.columns)} feature columns")
        column = dataset.columns[self.feature]
        if is_numeric(column) != self.numeric:
            kind = "numeric" if self.numeric else "categorical"
            raise ValueError(f"model splits column {self.feature} as "
                             f"{kind}, but it is not {kind} in the data")
        values = column[idx]
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


def tree_from_dict(d):
    if "leaf" in d:
        return Leaf(d["leaf"])
    return Split(d["feature"], d["threshold"], d["numeric"],
                 tree_from_dict(d["left"]), tree_from_dict(d["right"]))


def _leaf_score_cost(members, c):
    """(best cost, best label) for a leaf under the cost criterion."""
    totals = c[members].sum(axis=0)
    label = int(np.argmin(totals)) + 1
    return float(totals[label - 1]), label


def _entropy(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _leaf_score_info(members, y, k):
    counts = np.bincount(y[members], minlength=k + 1)[1:]
    label = int(np.argmax(counts)) + 1
    return _entropy(counts) * len(members), label


def greedy_tree(dataset, C, max_size, criterion="COST"):
    """Grow a binary tree greedily until max_size nodes or no improving
    split; COST leaves minimize summed cost, INFO_GAIN leaves take the
    majority label and splits maximize entropy reduction.

    Each node holds its members as an ascending index array. A leaf's
    candidates are, per column, the midpoints between its sorted distinct
    numeric values or each of its categories. Candidates are tried in
    (leaf DFS, column, candidate) order, and one replaces the best so far
    only if its gain is larger by more than 1e-12."""
    if criterion not in ("COST", "INFO_GAIN"):
        raise ValueError("criterion must be COST or INFO_GAIN")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    c = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=float)
    y = dataset.labels

    def leaf_score(members):
        if criterion == "COST":
            return _leaf_score_cost(members, c)
        return _leaf_score_info(members, y, dataset.k)

    class Work:
        __slots__ = ("members", "score", "label", "split", "left", "right")

        def __init__(self, members):
            self.members = members
            self.score, self.label = leaf_score(members)
            self.split = None
            self.left = self.right = None

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
            return Split(j, thr, numeric,
                         self.left.freeze(), self.right.freeze())

    root = Work(np.arange(dataset.m))
    size = 1
    while size + 2 <= max_size:
        best = None  # (gain, leaf, split, left Work, right Work)
        for leaf in root.leaves():
            for j, column in enumerate(dataset.columns):
                values = column[leaf.members]
                distinct = np.unique(values)
                if len(distinct) < 2:
                    continue
                numeric = is_numeric(column)
                # midpoints or categories, as plain Python scalars so
                # that to_dict() holds JSON types
                candidates = ((distinct[:-1] + distinct[1:]) / 2.0
                              if numeric else distinct)
                for thr in candidates.tolist():
                    left = values <= thr if numeric else values == thr
                    n_left = np.count_nonzero(left)
                    if n_left == 0 or n_left == len(values):
                        continue
                    lw = Work(leaf.members[left])
                    rw = Work(leaf.members[~left])
                    gain = leaf.score - (lw.score + rw.score)
                    if gain > 1e-12 and (best is None
                                         or gain > best[0] + 1e-12):
                        best = (gain, leaf, (j, thr, numeric), lw, rw)
        if best is None:
            break
        _, leaf, split, lw, rw = best
        leaf.split, leaf.left, leaf.right = split, lw, rw
        size += 2
    return root.freeze()


def stump(dataset, C):
    """One split, two leaves: greedy_tree with max_size = 3 and COST."""
    return greedy_tree(dataset, C, 3, "COST")


class TreeLearner:
    """Learner wrapper for the boosters: grows a fresh capped tree per
    round from the current cost matrix."""

    def __init__(self, max_size, criterion="COST"):
        self.max_size = max_size
        self.criterion = criterion

    def __call__(self, dataset, C):
        return greedy_tree(dataset, C, self.max_size, self.criterion)
