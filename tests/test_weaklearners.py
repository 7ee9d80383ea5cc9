import numpy as np
import pytest

from driftboost import conditions as cnd
from driftboost.core import Dataset, TableClassifier, indexed_dataset
from driftboost.weaklearners import (BestResponseLearner,
                                     FullSpaceBestResponse, TreeLearner,
                                     best_response, greedy_tree, stump,
                                     tree_from_dict)


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

    def test_info_gain_majority_leaves(self):
        d = numeric_dataset([0, 1, 2, 10, 11], [1, 1, 2, 3, 3], 3)
        h = greedy_tree(d, np.zeros((5, 3)), 5, "INFO_GAIN")
        preds = h.predict_all(d).tolist()
        assert preds[3:] == [3, 3]
        assert preds[0] == 1 and preds[1] == 1

    def test_bad_arguments(self):
        d = numeric_dataset([0, 1], [1, 2], 2)
        C = np.zeros((2, 2))
        with pytest.raises(ValueError):
            greedy_tree(d, C, 0)
        with pytest.raises(ValueError):
            greedy_tree(d, C, 3, "GINI")

    def test_roundtrip_through_dict(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = greedy_tree(d, C, 3)
        h2 = tree_from_dict(h.to_dict())
        assert h2.predict_all(d).tolist() == h.predict_all(d).tolist()


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
        h = TreeLearner(3, "COST")(d, C)
        assert h.to_dict() == stump(d, C).to_dict()
