import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftboost import conditions as cnd
from driftboost import weaklearners as wl
from driftboost.core import (Dataset, TableClassifier, indexed_dataset,
                             is_numeric)
from driftboost.weaklearners import (BestResponseLearner,
                                     FullSpaceBestResponse, Leaf, Split,
                                     TreeLearner, best_response, greedy_tree,
                                     stump, tree_from_dict)


def cost_of(h, C, dataset):
    preds = h.predict_all(dataset)
    return float(C[np.arange(dataset.m), preds - 1].sum())


class TestBestResponse:
    def test_zero_cost_ties_to_first(self):
        d, space = cnd.figure_one_fixture()
        got = best_response(space, np.zeros((2, 3)), d)
        assert got is space[0]

    def test_figure_one_symmetric_cost_tie(self):
        d, space = cnd.figure_one_fixture()
        C = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        # both classifiers cost 0; lowest index wins
        assert best_response(space, C, d) is space[0]

    def test_true_label_classifier_wins(self):
        d = indexed_dataset([1, 2, 2], 2)
        space = [TableClassifier([2, 1, 1]), TableClassifier([1, 2, 2])]
        C = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, -1.0]])
        assert best_response(space, C, d) is space[1]

    def test_never_beaten_by_a_member(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            m, k = 7, 3
            d = indexed_dataset(rng.integers(1, k + 1, m), k)
            space = [TableClassifier(rng.integers(1, k + 1, m))
                     for _ in range(5)]
            C = rng.normal(size=(m, k))
            got = best_response(space, C, d)
            lo = cost_of(got, C, d)
            assert all(lo <= cost_of(h, C, d) + 1e-12 for h in space)

    def test_learner_leaves_classifiers_untagged(self):
        d, space = cnd.figure_one_fixture()
        learner = BestResponseLearner(space)
        assert learner(d, np.zeros((2, 3))) is space[0]
        assert not any(hasattr(h, "index") for h in space)

    def test_learner_predicts_each_dataset_once(self, monkeypatch):
        # the learner used to rebuild the prediction matrix every round
        calls = []
        real = wl.prediction_matrix
        monkeypatch.setattr(wl, "prediction_matrix",
                            lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(9)
        d1 = indexed_dataset(rng.integers(1, 4, 6), 3)
        d2 = indexed_dataset(rng.integers(1, 4, 6), 3)
        space = [TableClassifier(rng.integers(1, 4, 6)) for _ in range(4)]
        learner = BestResponseLearner(space)
        for d in (d1, d1, d1, d2, d2, d1):
            learner(d, rng.normal(size=(6, 3)))
        assert [a[1] for a in calls] == [d1, d2, d1]

    def test_learner_equals_best_response(self):
        # ties included: integer costs on three labels tie often
        rng = np.random.default_rng(10)
        for _ in range(30):
            m, k = 5, 3
            d = indexed_dataset(rng.integers(1, k + 1, m), k)
            space = [TableClassifier(rng.integers(1, k + 1, m))
                     for _ in range(6)]
            learner = BestResponseLearner(space)
            for scale in (1.0, 1e-9):
                C = scale * rng.integers(-1, 2, (m, k)).astype(float)
                assert learner(d, C) is best_response(space, C, d)


class TestFullSpaceBestResponse:
    def test_per_row_argmin(self):
        d = indexed_dataset([1, 2], 3)
        C = np.array([[0.0, -1.0, 2.0], [3.0, 1.0, -2.0]])
        h = FullSpaceBestResponse()(d, C)
        assert list(h.predict_all(d)) == [2, 3]


def numeric_dataset(xs, labels, k):
    return Dataset((np.asarray(xs, dtype=float),), labels, k)


class TestGreedyTree:
    def test_size_one_is_argmin_leaf(self):
        d = numeric_dataset([0, 1, 2], [1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = greedy_tree(d, C, 1)
        assert h.size == 1
        assert h.predict_all(d).tolist() == [2, 2, 2]

    def test_separable_split_reaches_zero_cost(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = greedy_tree(d, C, 3)
        assert cost_of(h, C, d) == 0.0
        assert h.size == 3

    def test_size_cap_respected(self):
        rng = np.random.default_rng(3)
        d = Dataset(tuple(rng.normal(size=(30, 2)).T),
                    rng.integers(1, 4, 30), 3)
        C = rng.uniform(size=(30, 3))
        for cap in (1, 3, 5, 9):
            assert greedy_tree(d, C, cap).size <= cap

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(14)
        d = Dataset(tuple(rng.normal(size=(40, 2)).T),
                    rng.integers(1, 4, 40), 3)
        C = -np.eye(3)[np.asarray(d.labels) - 1]  # reward the true label
        costs = [cost_of(greedy_tree(d, C, cap), C, d)
                 for cap in (1, 3, 5, 9, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        d = Dataset(tuple(rng.normal(size=(25, 2)).T),
                    rng.integers(1, 3, 25), 2)
        C = rng.normal(size=(25, 2))
        a = greedy_tree(d, C, 7).to_dict()
        b = greedy_tree(d, C, 7).to_dict()
        assert a == b

    def test_categorical_split(self):
        d = Dataset((np.array(["a", "a", "b", "c"]),), [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = greedy_tree(d, C, 3)
        assert cost_of(h, C, d) == 0.0
        assert h.predict_all(d).tolist() == [1, 1, 2, 2]

    def test_bad_arguments(self):
        d = numeric_dataset([0, 1], [1, 2], 2)
        C = np.zeros((2, 2))
        with pytest.raises(ValueError):
            greedy_tree(d, C, 0)

    def test_roundtrip_through_dict(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = greedy_tree(d, C, 3)
        h2 = tree_from_dict(h.to_dict(), d)
        assert h2.predict_all(d).tolist() == h.predict_all(d).tolist()

    def test_midpoint_of_values_near_the_float_maximum(self):
        # (a + b) / 2 overflowed to inf for such a pair, the candidate
        # was dropped and the separable column gave a single leaf
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        big = greedy_tree(numeric_dataset([1.7e308, 1.7e308, 1.79e308,
                                           1.79e308], [1, 1, 2, 2], 2), C, 3)
        small = greedy_tree(numeric_dataset([1, 1, 2, 2], [1, 1, 2, 2], 2),
                            C, 3)
        assert 1.7e308 < big.threshold < 1.79e308
        assert ({**big.to_dict(), "threshold": 1.5} == small.to_dict()
                == {"feature": 0, "threshold": 1.5, "numeric": True,
                    "left": {"leaf": 1}, "right": {"leaf": 2}})


class TestStump:
    def test_constant_data_single_leaf(self):
        d = numeric_dataset([5, 5, 5], [1, 2, 1], 2)
        C = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        h = stump(d, C)
        assert h.size == 1

    def test_one_dim_separable(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        assert cost_of(stump(d, C), C, d) == 0.0

    def test_equals_size_three_cost_tree(self):
        rng = np.random.default_rng(30)
        d = Dataset((rng.normal(size=12),), rng.integers(1, 3, 12), 2)
        C = rng.normal(size=(12, 2))
        assert stump(d, C).to_dict() == greedy_tree(d, C, 3).to_dict()

    def test_tree_learner_wrapper(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = TreeLearner(3)(d, C)
        assert h.to_dict() == stump(d, C).to_dict()


# ------------------------------------------- reference split search

def _leaf_score_cost(members, c):
    """(best cost, best label) for a leaf under the cost criterion."""
    totals = c[members].sum(axis=0)
    label = int(np.argmin(totals)) + 1
    return float(totals[label - 1]), label


def reference_greedy_tree(dataset, C, max_size):
    """The full scan that the prefix-sum search replaced, kept verbatim:
    every candidate builds its mask and both children, and every
    expansion rescans every leaf."""
    c = np.asarray(C, dtype=float)

    class Work:
        __slots__ = ("members", "score", "label", "split", "left", "right")

        def __init__(self, members):
            self.members = members
            self.score, self.label = _leaf_score_cost(members, c)
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
                candidates = (distinct[:-1] / 2 + distinct[1:] / 2
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


# 0.3 and the next float up: their midpoint rounds to the upper value
ADJACENT = 0.3


def random_problem(rng):
    """(dataset, cost matrix, size) with ties, repeated values,
    categorical columns and adjacent floats."""
    m, k = int(rng.integers(1, 40)), int(rng.integers(2, 5))
    makers = (lambda: rng.normal(size=m),
              lambda: rng.integers(0, 4, m),
              lambda: np.round(rng.normal(size=m), 1),
              lambda: np.array(["a", "b", "c"])[rng.integers(0, 3, m)],
              lambda: np.where(rng.random(m) < 0.5, ADJACENT,
                               np.nextafter(ADJACENT, np.inf)))
    columns = tuple(makers[rng.integers(len(makers))]()
                    for _ in range(rng.integers(0, 4)))
    C = (rng.integers(-2, 3, (m, k)).astype(float) if rng.random() < 0.5
         else rng.normal(size=(m, k)))
    return (Dataset(columns, rng.integers(1, k + 1, m), k), C,
            int(rng.integers(1, 12)))


@st.composite
def tree_problems(draw):
    m, k = draw(st.integers(1, 25)), draw(st.integers(2, 4))

    def column(cells):
        return draw(st.lists(cells, min_size=m, max_size=m))

    kinds = {
        "float": lambda: np.array(column(st.floats(-10, 10))),
        "int": lambda: np.array(column(st.integers(-3, 3))),
        "str": lambda: np.array(column(st.sampled_from(["a", "b", "c"]))),
        "adjacent": lambda: np.array(column(st.sampled_from(
            [ADJACENT, float(np.nextafter(ADJACENT, np.inf))])))}
    columns = tuple(kinds[kind]() for kind in draw(
        st.lists(st.sampled_from(sorted(kinds)), max_size=3)))
    labels = column(st.integers(1, k))
    cells = (st.integers(-2, 2) if draw(st.booleans())
             else st.floats(-5, 5, allow_nan=False))
    C = np.array(draw(st.lists(st.lists(cells, min_size=k, max_size=k),
                               min_size=m, max_size=m)), dtype=float)
    return Dataset(columns, labels, k), C, draw(st.integers(1, 11))


class TestSplitSearchMatchesFullScan:
    """The prefix-sum search grows the same tree as the full scan."""

    def test_fixed_seed_sweep(self):
        rng = np.random.default_rng(2016)
        for _ in range(400):
            d, C, size = random_problem(rng)
            assert (greedy_tree(d, C, size).to_dict()
                    == reference_greedy_tree(d, C, size).to_dict())

    @settings(max_examples=150, deadline=None)
    @given(tree_problems())
    def test_property(self, problem):
        d, C, size = problem
        assert (greedy_tree(d, C, size).to_dict()
                == reference_greedy_tree(d, C, size).to_dict())

    def test_midpoint_rounding_to_the_upper_value(self):
        # `values <= thr` puts both adjacent values left, so that column
        # has no proper split and the tree splits the other column
        upper = np.nextafter(ADJACENT, np.inf)
        assert ADJACENT / 2 + upper / 2 == upper
        d = Dataset((np.array([ADJACENT, upper] * 3),
                     np.arange(6.0)), [1, 2, 1, 2, 1, 2], 2)
        C = np.array([[0.0, 1.0], [1.0, 0.0]] * 3)
        got = greedy_tree(d, C, 5).to_dict()
        assert got == reference_greedy_tree(d, C, 5).to_dict()
        assert got["feature"] == 1

    def test_mirrored_column_ties_across_summation_orders(self):
        # x and -x give each split twice with the sides swapped: equal
        # exact gains, but their prefix sums run in opposite orders and,
        # with costs of mixed magnitude, differ far more than 1e-12; the
        # full scan keeps column 0, so the shortlist must hold both
        for seed in range(60):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=40)
            d = Dataset((x, -x), rng.integers(1, 4, 40), 3)
            C = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-3, 9, (40, 3))
            for size in (3, 7):
                assert (greedy_tree(d, C, size).to_dict()
                        == reference_greedy_tree(d, C, size).to_dict())

    def test_cost_matrix_and_more_rows(self):
        rng = np.random.default_rng(7)
        d = Dataset((np.round(rng.normal(size=300), 2),
                     rng.integers(0, 6, 300),
                     np.array(list("pqrs"))[rng.integers(0, 4, 300)]),
                    rng.integers(1, 4, 300), 3)
        C = rng.normal(size=(300, 3))
        assert (greedy_tree(d, C, 9).to_dict()
                == reference_greedy_tree(d, C, 9).to_dict())


def test_greedy_tree_leaves_no_cyclic_garbage():
    # a class defined per call made every call leave its nodes, the cost
    # matrix and the dataset in reference cycles
    rng = np.random.default_rng(5)
    d = Dataset(tuple(rng.normal(size=(3, 200))), rng.integers(1, 4, 200), 3)
    C = rng.normal(size=(200, 3))
    gc.collect()
    gc.disable()
    try:
        greedy_tree(d, C, 9)
        assert gc.collect() == 0
    finally:
        gc.enable()
