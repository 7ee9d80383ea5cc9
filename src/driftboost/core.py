"""Shared domain types: datasets, classifiers, states, scores.

A Dataset is columnar: one 1-D array per feature, whose dtype is the
column's kind, and one int label array; row subsets index every array
with the same index. Classifiers predict a whole dataset at once.
Score tables are (m, k) at every interface; the vote and the tie rule
(vote, training_error) work label-major, on (k, m) tables.

Labels live in {1..k} everywhere; arrays are 0-indexed, so column l-1
holds label l. True labels are kept as given (no relabeling to 1).
"""

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def is_numeric(column):
    """Int or float dtype: numeric; str dtype: categorical."""
    return column.dtype.kind in "iuf"


def is_finite(number):
    """A Python int or float that a float holds finitely: NaN compares
    false, and an int too large for a float counts as infinite."""
    return abs(number) <= sys.float_info.max


@dataclass(frozen=True, eq=False)
class Dataset:
    columns: tuple      # one 1-D array per feature: int, float64 or str
    labels: np.ndarray  # int labels in {1..k}
    k: int

    def __post_init__(self):
        # float columns become float64: tree thresholds are float64
        # midpoints, which a narrower column would round when compared
        columns = tuple(col.astype(float, copy=False) if col.dtype.kind == "f"
                        else col for col in map(np.asarray, self.columns))
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or self.m < 1:
            raise ValueError("need a 1-D label array, at least one example")
        if self.k < 2:
            raise ValueError("need k >= 2 classes")
        bad = (labels < 1) | (labels > self.k)
        if bad.any():
            raise ValueError(f"label {labels[bad][0]} outside 1..{self.k}")
        for j, col in enumerate(columns):
            kind_ok = is_numeric(col) or col.dtype.kind == "U"
            if col.shape != labels.shape or not kind_ok:
                raise ValueError(f"column {j} is not {self.m} numeric or "
                                 "str values")

    @property
    def m(self):
        return len(self.labels)

    @property
    def features(self):
        """Row tuples of Python scalars, rebuilt from the columns."""
        return tuple(zip(*(col.tolist() for col in self.columns)))

    @cached_property
    def split_layout(self):
        """Each column ranked by np.unique, on one flat axis of bins: rank
        r of column j is bin j * q + r, q the most distinct values in any
        column. Returns q, whether each column is numeric, the (p, m) bins
        of the rows, each bin's value as a float (NaN in categorical
        columns and past a column's last value), the last bin of the bin's
        run of equal floats in its column (`values <= thr` compares as
        floats; int values beyond 2**53 can share one), and each column's
        sorted distinct values. Read-only, built once per dataset."""
        pairs = [np.unique(col, return_inverse=True) for col in self.columns]
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
        bins = np.array([r for _, r in pairs], dtype=int).reshape(-1, self.m)
        layout = (numeric, bins + q * np.arange(p)[:, None], floats.ravel(),
                  ends[np.searchsorted(ends, np.arange(p * q))])
        for array in (*layout, *values):
            array.setflags(write=False)
        return (q, *layout, values)

    @cached_property
    def root_candidates(self):
        """split_candidates' (ends, firsts, thresholds) for a node of every
        row, as layout bins: the data alone fixes them. Read-only, built
        once per dataset, 2**16 bins at a time."""
        q, _, bins = self.split_layout[:3]
        step, parts = max(1, 2 ** 16 // q), [[], [], []]
        for j in range(0, max(len(bins), 1), step):
            mark = np.zeros(len(bins[j:j + step]) * q, dtype=bool)
            mark[bins[j:j + step] - j * q] = True
            ends, *rest = split_candidates(self.split_layout,
                                           slice(j, j + step), mark)[2:5]
            for part, array in zip(parts, (ends + j * q, *rest)):
                part.append(array)
        # one list at a time, so that each frees its parts once joined
        out = tuple(np.concatenate(parts.pop(0)) for _ in range(3))
        for array in out:
            array.setflags(write=False)
        return out

    def subset(self, idx):
        """The examples idx, in that order."""
        idx = np.asarray(idx, dtype=int)
        return Dataset(tuple(col[idx] for col in self.columns),
                       self.labels[idx], self.k)


def split_candidates(layout, cols, mark):
    """The cost-free split structure of leaves over split_layout's column
    block cols; mark flags their present bins, leaf after leaf. Returns
    each bin's position in rows padded to the most present bins of any
    (leaf, column) segment, that width, and per candidate, (leaf, column,
    candidate) in order: the bin (as in mark) its left sum ends at, its
    layout bin and its threshold, then where each leaf's candidates stop.
    A numeric candidate is the midpoint of two present values of a
    segment, its left side ending at the lower bin, or at the last
    present bin of the upper value's run of equal floats if it rounds up
    to it; a categorical one is a present bin (NaN threshold). Both
    sides must hold rows."""
    q, numeric, _, floats, last = layout[:5]
    numeric, present = numeric[cols], mark.nonzero()[0]
    b = max(len(numeric), 1)
    start = np.searchsorted(present, np.arange(0, len(mark) + 1, q))
    start, stop = start[:-1], start[1:]
    counts = stop - start
    width = int(counts.max(initial=1))
    slot = np.empty(len(mark), dtype=int)
    slot[present] = np.arange(len(present)) + np.repeat(
        np.arange(len(counts)) * width - start, counts)
    own = present + cols.start * q  # as bins of the whole layout
    for cut in stop[b - 1:-1:b].tolist():
        own[cut:] -= b * q
    # halves first: the sum of two large values overflows; a NaN
    # midpoint (of a NaN value, or of -inf and inf) puts no row left
    thresholds = (v := floats[own]) / 2
    with np.errstate(invalid="ignore"):
        thresholds[:-1] += thresholds[1:]
    more = np.ones(len(present), dtype=bool)  # next bin in the segment
    more[stop[counts > 0] - 1] = False
    ends, up = present, (more[:-1] & (thresholds[:-1] >= v[1:])).nonzero()[0]
    if len(up):
        run = present[up + 1] + last[own[up + 1]] - own[up + 1]
        at = np.searchsorted(present, run, "right") - 1
        ends = present.copy()
        ends[up] = present[at]
        thresholds[up[~more[at]]] = np.nan  # nothing right of the run
    categorical = ~numeric[np.arange(len(counts)) % b] & (counts > 1)
    keep = ((more & (thresholds == thresholds))
            | np.repeat(categorical, counts)).nonzero()[0]
    return (slot, width, ends[keep], own[keep], thresholds[keep],
            np.searchsorted(keep, stop[b - 1::b]).tolist())


def indexed_dataset(labels, k):
    """Dataset whose single feature is the example index (fixture helper)."""
    return Dataset((np.arange(len(labels)),), labels, k)


class WeakClassifier:
    """Deterministic map from examples to labels in {1..k}; trees write
    the labels of rows idx into out by route(dataset, idx, out), idx an
    index array or slice(None) for every row."""

    def route(self, dataset, idx, out):
        raise NotImplementedError

    def predict_all(self, dataset):
        out = np.empty(dataset.m, dtype=int)
        self.route(dataset, slice(None), out)
        return out


class TableClassifier(WeakClassifier):
    """Fixed predictions, one per example (fixtures)."""

    def __init__(self, predictions):
        self.predictions = np.asarray(predictions, dtype=int)

    def predict_all(self, dataset):
        return self.predictions


def wrong_labels(labels, k):
    """(m, k-1) int array: each example's labels other than its own,
    ascending."""
    wrong = np.arange(1, k)[None, :]
    return wrong + (wrong >= np.asarray(labels, dtype=int)[:, None])


def true_label_first(labels, k):
    """(m, k) int array: each example's own label, then wrong_labels."""
    labels = np.asarray(labels, dtype=int)
    return np.concatenate((labels[:, None], wrong_labels(labels, k)), axis=1)


def prediction_matrix(Hspace, dataset):
    """A finite classifier space as one (n, m) int array P[j, i] = h_j(x_i)."""
    return np.array([h.predict_all(dataset) for h in Hspace],
                    dtype=int).reshape(len(Hspace), dataset.m)


@dataclass(frozen=True)
class ScoringFunction:
    """F(x,l) = sum_t alpha_t 1[h_t(x)=l] of a saved model, carried as
    (classifier, alpha) pairs; score_table scores new rows."""
    provenance: tuple  # ((WeakClassifier, alpha), ...)

    def score_table(self, dataset):
        """(m, k) scores, voted label-major, as a C-contiguous copy."""
        F = np.zeros((dataset.k, dataset.m))
        for h, alpha in self.provenance:
            vote(F, h.predict_all(dataset), alpha)
        return F.T.copy()


def vote(F, preds, alpha):
    """Add alpha to the (k, m) score table F at each row's prediction."""
    m = F.shape[1]
    F.reshape(-1)[(preds - 1) * m + np.arange(m)] += alpha


def training_error(f, dataset):
    """Fraction of examples with f(i,y_i) <= max wrong score (ties count),
    for the (m, k) score table f; reduced label-major, as k row maxima."""
    F = f.T.copy()
    own = (dataset.labels - 1) * dataset.m + np.arange(dataset.m)
    scores = F.reshape(-1)[own]
    F.reshape(-1)[own] = -np.inf
    return float(np.mean(scores <= F.max(axis=0)))


def exp_risk(f, dataset):
    """(1/m) sum_i sum_{l != y_i} exp(f(i,l) - f(i,y_i)) for the (m, k)
    score table f; the row terms are added in ascending order, so the row
    order does not matter."""
    y = dataset.labels - 1
    d = f - f[np.arange(dataset.m), y][:, None]
    d[np.arange(dataset.m), y] = -np.inf
    hi = d.max(axis=1, keepdims=True)
    big = hi[:, 0] > 700.0
    with np.errstate(over="ignore"):
        terms = np.exp(d).sum(axis=1)
        # max-shift to avoid intermediate overflow; a genuinely huge
        # risk still becomes inf, deliberately
        shifted = np.exp(d[big] - hi[big]).sum(axis=1)
        terms[big] = np.exp(hi[big, 0] + np.log(shifted))
    return float(np.sort(terms).sum() / dataset.m)


_FAMILIES = ("EOR", "SAM", "M1", "MH", "MR", "UNCONSTRAINED")


@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray
    family: str = "UNCONSTRAINED"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown cost family {self.family}")


@dataclass(frozen=True)
class Baseline:
    entries: np.ndarray  # (m, k), column l-1 for label l
