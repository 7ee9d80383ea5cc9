"""Weak learners the boosters query. Each answers the booster's (m, k)
cost array: exhaustive best response over a finite space, and greedy
size-capped trees (a stump has size 3) that minimize summed cost, whose
split search indexes each dataset once (split_layout)."""

import weakref
from collections import namedtuple

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


Layout = namedtuple("Layout", "q numeric bins floats last values root")
_LAYOUTS = weakref.WeakKeyDictionary()


def split_layout(dataset):
    """The dataset's read-only Layout, built on first use and freed with
    it (a weak key of _LAYOUTS). Each column is ranked by np.unique on
    one axis of bins: rank r of column j is bin j * q + r, q the most
    distinct values in any column. Fields: q; numeric, per column; bins,
    the (p, m) bins of the rows; floats, each bin's value as a float (NaN
    in categorical columns and past a column's last value); last, the
    last bin of the bin's run of equal floats in its column (`values <=
    thr` compares floats; ints beyond 2**53 can share one); values, each
    column's sorted distinct values; root, split_candidates' (ends,
    firsts, thresholds) for a node of every row, found 2**16 bins at a
    time once the ranking's temporaries are freed."""
    if dataset in _LAYOUTS:
        return _LAYOUTS[dataset]
    pairs = [np.unique(col, return_inverse=True) for col in dataset.columns]
    values = tuple(v for v, _ in pairs)
    p = len(values)
    q = max(map(len, values), default=1)
    numeric = np.array([is_numeric(v) for v in values], dtype=bool)
    floats = np.full((p, q), np.nan)
    for j in np.flatnonzero(numeric):
        floats[j, :len(values[j])] = values[j]
    run_end = np.ones((p, q), dtype=bool)
    run_end[:, :-1] = floats[:, 1:] != floats[:, :-1]
    ends = np.flatnonzero(run_end)
    last = ends[np.searchsorted(ends, np.arange(p * q))]
    bins = np.array([r for _, r in pairs], dtype=int).reshape(-1, dataset.m)
    layout = Layout(q, numeric, bins + q * np.arange(p)[:, None],
                    floats.ravel(), last, values, None)
    del pairs, run_end, ends, bins
    step, parts = max(1, 2 ** 16 // q), [[], [], []]
    for j in range(0, max(p, 1), step):
        ends, *rest = split_candidates(layout, slice(j, j + step),
                                       layout.bins[j:j + step] - j * q)[2:]
        for part, array in zip(parts, (ends + j * q, *rest)):
            part.append(array)
    # one list at a time, so that each frees its parts once joined
    root = tuple(np.concatenate(parts.pop(0)) for _ in range(3))
    layout = _LAYOUTS[dataset] = layout._replace(root=root)
    for array in (numeric, layout.bins, layout.floats, last, *values, *root):
        array.setflags(write=False)
    return layout


def split_candidates(layout, cols, block):
    """The cost-free split structure of one leaf over the layout's column
    block cols, whose bins (counted from the block's first) the leaf's
    rows hold in block. Returns each bin's position in rows padded to the
    leaf's most present bins in one column, that width, and per
    candidate, in (column, candidate) order, the bin (as in block) its
    left sum ends at, its layout bin and its threshold. A numeric
    candidate is the midpoint of two present values of a column, its
    left side ending at the lower bin, or at the last present bin of the
    upper value's run of equal floats if it rounds up to it; a
    categorical one is a present bin (NaN threshold). Both sides must
    hold rows."""
    q, numeric = layout.q, layout.numeric[cols]
    mark = np.zeros(len(numeric) * q, dtype=bool)
    mark[block] = True
    present = mark.nonzero()[0]
    start = np.searchsorted(present, np.arange(0, len(mark) + 1, q))
    start, stop = start[:-1], start[1:]
    counts = stop - start
    width = int(counts.max(initial=1))
    slot = np.empty(len(mark), dtype=int)
    slot[present] = np.arange(len(present)) + np.repeat(
        np.arange(len(counts)) * width - start, counts)
    own = present + cols.start * q  # as bins of the whole layout
    # halves first: the sum of two large values overflows; a NaN
    # midpoint (of a NaN value, or of -inf and inf) puts no row left
    thresholds = (v := layout.floats[own]) / 2
    with np.errstate(invalid="ignore"):
        thresholds[:-1] += thresholds[1:]
    more = np.ones(len(present), dtype=bool)  # next bin in the column
    more[stop[counts > 0] - 1] = False
    ends, up = present, (more[:-1] & (thresholds[:-1] >= v[1:])).nonzero()[0]
    if len(up):
        run = present[up + 1] + layout.last[own[up + 1]] - own[up + 1]
        at = np.searchsorted(present, run, "right") - 1
        ends = present.copy()
        ends[up] = present[at]
        thresholds[up[~more[at]]] = np.nan  # nothing right of the run
    keep = ((more & (thresholds == thresholds))
            | np.repeat(~numeric & (counts > 1), counts)).nonzero()[0]
    return slot, width, ends[keep], own[keep], thresholds[keep]


# floats in one block of columns' bin sums, and in its tiled costs
BLOCK = 2 ** 18


def _split_gains(node, dataset, cT):
    """(approximate gains, first bins, thresholds) of the node's
    candidates. Per block of columns (bin sums and tiled costs under BLOCK
    floats) and label, a bincount adds the members' costs into their bins
    in member order, and a cumsum over each numeric column's present bins
    (split_candidates; the layout holds the root's) makes left sums."""
    layout = split_layout(dataset)
    q, numeric, bins = layout.q, layout.numeric, layout.bins
    k, n = len(cT), len(node.members)
    root = n == dataset.m  # every row, in order: no gather
    members = slice(None) if root else node.members
    rows = cT[:, members]
    total = rows.sum(axis=1)[:, None]
    width = max(1, BLOCK // ((k + 1) * max(n, q)))
    parts = []
    whole = np.empty(len(layout.root[1]) if root else 0)
    # one pass even without columns, so that the result has its dtypes
    for j in range(0, max(len(bins), 1), width):
        cols = slice(j, j + width)
        block = bins[cols, members] - j * q if j else bins[cols, members]
        b = len(block)
        if root:
            lo, hi = ((0, len(whole)) if b == len(bins) else np.searchsorted(
                layout.root[1], [j * q, (j + b) * q]).tolist())
            ends, w = layout.root[0][lo:hi] - j * q, q
        else:
            slot, w, ends, *found = split_candidates(layout, cols, block)
            block, ends = slot[block], slot[ends]
        weights = np.repeat(rows[:, None], b, axis=1).reshape(k, -1)
        sums = np.empty((k, b * w))
        for label in range(k):
            sums[label] = np.bincount(block.ravel(), weights[label], b * w)
        # categorical bins keep their own sums
        cube, categorical = sums.reshape(k, b, w), ~numeric[cols]
        own = cube[:, categorical]
        np.cumsum(cube, axis=2, out=cube)
        cube[:, categorical] = own
        # label-major: the minima reduce along the long axis
        left = sums.take(ends, axis=1)
        gains = node.score - (left.min(axis=0) + (total - left).min(axis=0))
        if root:  # the layout holds the candidates' bins and thresholds
            whole[lo:hi] = gains
        else:
            parts.append((gains, *found))
    if root:
        return whole, *layout.root[1:]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate,
                                                      zip(*parts)))


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
    layout = split_layout(dataset)
    _, first, thresholds = leaf.candidates
    rows = cT if len(leaf.members) == cT.shape[1] else cT[:, leaf.members]
    splits, lefts = [], []
    for i in chosen:
        j, rank = divmod(int(first[i]), layout.q)
        numeric = bool(layout.numeric[j])
        # a plain Python scalar, so that to_dict() holds JSON types
        thr = (thresholds[i] if numeric else layout.values[j][rank]).item()
        values = dataset.columns[j][leaf.members]
        lefts.append(values <= thr if numeric else values == thr)
        splits.append((j, thr, numeric))
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
    scored once, in its own pass (_split_gains): the root from the
    candidates its dataset's split_layout holds, any other leaf over its
    own present bins, so a size-s tree (s >= 3) makes at most
    2 floor((s - 1) / 2) - 1 passes. Binned sums add in another order, so
    their gains only shortlist: the top cluster (no gap wider than
    2 eps + 1e-12, eps a bound on the sums' error) is recomputed from the
    children's own sums (_exact_gains) and the rule above replayed on it
    in order. Every candidate left out is more than 1e-12 below every one
    kept, so the tree equals that of a full scan."""
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
    while size + 2 <= max_size:
        for leaf in leaves:
            if leaf.candidates is None:
                leaf.candidates = _split_gains(leaf, dataset, cT)
        picks, at, start = {}, 0, 0  # shortlisted candidates per leaf
        gains = np.concatenate([leaf.candidates[0] for leaf in leaves])
        for i in _shortlist(gains, eps):
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
    return root.freeze()
