"""Weak learners the boosters query: exhaustive best response over a
finite space, greedy size-capped trees (cost or information-gain
splitting), and stumps."""

import numpy as np

from .core import CostMatrix, WeakClassifier, prediction_matrix


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
    """Learner closure over a fixed finite space; tags members with
    their index so runs can be compared classifier-for-classifier."""

    def __init__(self, Hspace):
        self.space = list(Hspace)
        for j, h in enumerate(self.space):
            h.index = j

    def __call__(self, dataset, C):
        return best_response(self.space, C, dataset)


class FullSpaceBestResponse:
    """Best response over the space of all k^m classifiers: the per-row
    cost argmin, realized as a memorizing table classifier."""

    def __call__(self, dataset, C):
        from .core import TableClassifier
        c = C.entries if isinstance(C, CostMatrix) else np.asarray(C)
        return TableClassifier(np.argmin(c, axis=1) + 1)


# ------------------------------------------------------------------ trees

class TreeNode(WeakClassifier):
    pass


class Leaf(TreeNode):
    def __init__(self, label):
        self.label = int(label)

    def __call__(self, row):
        return self.label

    @property
    def size(self):
        return 1

    def to_dict(self):
        return {"leaf": self.label}


class Split(TreeNode):
    """Binary split: numeric columns by `value <= threshold`, categorical
    by `value == category` (single category vs rest)."""

    def __init__(self, feature, threshold, numeric, left, right):
        self.feature = feature
        self.threshold = threshold
        self.numeric = numeric
        self.left = left
        self.right = right

    def _go_left(self, value):
        if self.numeric:
            return value <= self.threshold
        return value == self.threshold

    def __call__(self, row):
        child = self.left if self._go_left(row[self.feature]) else self.right
        return child(row)

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


def _column_kinds(dataset):
    kinds = []
    for j in range(len(dataset.features[0])):
        kinds.append(all(isinstance(r[j], (int, float, np.integer, np.floating))
                         for r in dataset.features))
    return kinds


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


def _candidate_splits(dataset, members, kinds):
    for j, numeric in enumerate(kinds):
        values = [dataset.features[i][j] for i in members]
        distinct = sorted(set(values))
        if len(distinct) < 2:
            continue
        if numeric:
            for a, b in zip(distinct, distinct[1:]):
                yield j, (a + b) / 2.0, True
        else:
            for cat in distinct:
                yield j, cat, False


def greedy_tree(dataset, C, max_size, criterion="COST"):
    """Grow a binary tree greedily until max_size nodes or no improving
    split; COST leaves minimize summed cost, INFO_GAIN leaves take the
    majority label and splits maximize entropy reduction."""
    if criterion not in ("COST", "INFO_GAIN"):
        raise ValueError("criterion must be COST or INFO_GAIN")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    c = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=float)
    y = dataset.label_array
    kinds = _column_kinds(dataset)

    def leaf_score(members):
        members = np.asarray(members, dtype=int)
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

    root = Work(list(range(dataset.m)))
    size = 1
    while size + 2 <= max_size:
        best = None  # (gain, leaf, split, left Work, right Work)
        for leaf in root.leaves():
            for j, thr, numeric in _candidate_splits(dataset, leaf.members,
                                                     kinds):
                if numeric:
                    left = [i for i in leaf.members
                            if dataset.features[i][j] <= thr]
                else:
                    left = [i for i in leaf.members
                            if dataset.features[i][j] == thr]
                if not left or len(left) == len(leaf.members):
                    continue
                chosen = set(left)
                right = [i for i in leaf.members if i not in chosen]
                lw, rw = Work(left), Work(right)
                gain = leaf.score - (lw.score + rw.score)
                if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
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
