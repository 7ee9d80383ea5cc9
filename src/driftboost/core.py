"""Shared domain types: datasets, classifiers, states, scores.

Labels live in {1..k} everywhere; arrays are 0-indexed, so column l-1
holds label l. True labels are kept as given (no relabeling to 1).
"""

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class Dataset:
    features: tuple  # tuple of feature rows (tuples; numeric or str entries)
    labels: tuple    # labels in {1..k}
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one example")
        if self.k < 2:
            raise ValueError("need k >= 2 classes")
        if len(self.features) != len(self.labels):
            raise ValueError("features/labels length mismatch")
        for y in self.labels:
            if not (1 <= y <= self.k):
                raise ValueError(f"label {y} outside 1..{self.k}")
        arity = len(self.features[0])
        for row in self.features:
            if len(row) != arity:
                raise ValueError("ragged feature rows")

    @property
    def m(self):
        return len(self.labels)

    @property
    def label_array(self):
        return np.asarray(self.labels, dtype=int)


def indexed_dataset(labels, k):
    """Dataset whose single feature is the example index (fixture helper)."""
    labels = tuple(int(y) for y in labels)
    return Dataset(tuple((i,) for i in range(len(labels))), labels, k)


class WeakClassifier:
    """Deterministic map from feature row to a label in {1..k}."""

    def __call__(self, row):
        raise NotImplementedError

    def predict_all(self, dataset):
        return np.array([self(row) for row in dataset.features], dtype=int)


class TableClassifier(WeakClassifier):
    """Fixed predictions indexed by the example-id feature (fixtures)."""

    def __init__(self, predictions):
        self.predictions = np.asarray(predictions, dtype=int)

    def __call__(self, row):
        return int(self.predictions[int(row[0])])

    def predict_all(self, dataset):
        return self.predictions


def prediction_matrix(Hspace, dataset):
    """A finite classifier space as one (n, m) int array P[j, i] = h_j(x_i)."""
    return np.array([h.predict_all(dataset) for h in Hspace],
                    dtype=int).reshape(len(Hspace), dataset.m)


@dataclass(frozen=True)
class StateMatrix:
    """Per-example vote counts s_t(i) (and optionally weighted f_t(i))."""
    counts: np.ndarray            # m x k integers
    t: int
    weighted: np.ndarray = None   # m x k reals, or None

    def __post_init__(self):
        c = np.asarray(self.counts)
        if not np.all(c.sum(axis=1) == self.t):
            raise ValueError("state rows must sum to the round index")
        if np.any(c < 0):
            raise ValueError("negative vote counts")


@dataclass(frozen=True)
class ScoringFunction:
    """F(x,l) = sum_t alpha_t 1[h_t(x)=l], carried as provenance pairs."""
    provenance: tuple  # ((WeakClassifier, alpha), ...)
    k: int

    @staticmethod
    def zero(k):
        return ScoringFunction((), k)

    def scores(self, row):
        s = np.zeros(self.k)
        for h, alpha in self.provenance:
            s[h(row) - 1] += alpha
        return s

    def score_table(self, dataset):
        f = np.zeros((dataset.m, dataset.k))
        for h, alpha in self.provenance:
            preds = h.predict_all(dataset)
            f[np.arange(dataset.m), preds - 1] += alpha
        return f


def plurality_predict(F, row):
    """argmax_l F(x,l); ties go to the lowest label index."""
    return int(np.argmax(F.scores(row))) + 1


def _score_table(F, dataset):
    if isinstance(F, np.ndarray):
        return F
    return F.score_table(dataset)


def training_error(F, dataset):
    """Fraction of examples with F(x,y) <= max wrong score (ties count)."""
    f = _score_table(F, dataset)
    y = dataset.label_array - 1
    own = f[np.arange(dataset.m), y]
    masked = f.copy()
    masked[np.arange(dataset.m), y] = -np.inf
    return float(np.mean(own <= masked.max(axis=1)))


def exp_risk(F, dataset):
    """(1/m) sum_i sum_{l != y_i} exp(F(x_i,l) - F(x_i,y_i))."""
    f = _score_table(F, dataset)
    y = dataset.label_array - 1
    d = f - f[np.arange(dataset.m), y][:, None]
    d[np.arange(dataset.m), y] = -np.inf
    hi = d.max(axis=1)
    total = 0.0
    for i in range(dataset.m):
        if hi[i] > 700.0:
            # max-shift to avoid intermediate overflow; a genuinely huge
            # risk still becomes inf, deliberately
            with np.errstate(over="ignore"):
                total += np.exp(hi[i] + np.log(np.exp(d[i] - hi[i]).sum()))
        else:
            total += np.exp(d[i]).sum()
    return float(total / dataset.m)


_FAMILIES = ("EOR", "SAM", "M1", "MH", "MR", "UNCONSTRAINED")


@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray
    family: str = "UNCONSTRAINED"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown cost family {self.family}")

    def validate(self, labels, tol=1e-9):
        """Check the family row constraints against true labels."""
        c = np.asarray(self.entries, dtype=float)
        m, k = c.shape
        y = np.asarray(labels, dtype=int) - 1
        idx = np.arange(m)
        own = c[idx, y]
        mask = np.ones_like(c, dtype=bool)
        mask[idx, y] = False
        off = c[mask].reshape(m, k - 1)
        if self.family == "EOR":
            ok = np.all(own[:, None] <= off + tol)
        elif self.family == "SAM":
            ok = (np.all(np.abs(own) <= tol)
                  and np.all(off >= -tol)
                  and np.all(np.abs(off - off[:, :1]) <= tol))
        elif self.family == "M1":
            ok = (np.all(own <= tol)
                  and np.all(np.abs(off + own[:, None]) <= tol)
                  and np.all(np.abs(off - off[:, :1]) <= tol))
        elif self.family == "MH":
            ok = np.all(own <= tol) and np.all(off >= -tol)
        elif self.family == "MR":
            ok = np.all(off >= -tol) and np.all(np.abs(c.sum(axis=1)) <= tol)
        else:
            ok = True
        return bool(ok)


@dataclass(frozen=True)
class Baseline:
    entries: np.ndarray
    kind: str       # EOR, U, M1, MH, MR
    gamma: float
