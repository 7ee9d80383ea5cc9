"""Shared domain types: datasets, classifiers, states, scores.

A Dataset is columnar: one 1-D array per feature, whose dtype is the
column's kind, and one int label array; row subsets index every array
with the same index; the split search indexes a Dataset in
weaklearners. Classifiers predict a whole dataset at once.
Score tables are (m, k) at every interface; the vote and the tie rule
(vote, training_error) work label-major, on (k, m) tables.

Labels live in {1..k} everywhere; arrays are 0-indexed, so column l-1
holds label l. True labels are kept as given (no relabeling to 1).
"""

import sys
from dataclasses import dataclass

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

    def subset(self, idx):
        """The examples idx, in that order."""
        idx = np.asarray(idx, dtype=int)
        return Dataset(tuple(col[idx] for col in self.columns),
                       self.labels[idx], self.k)


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
