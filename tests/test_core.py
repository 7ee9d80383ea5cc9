import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftboost.core import (CostMatrix, Dataset, ScoringFunction,
                             TableClassifier, exp_risk, indexed_dataset,
                             training_error, wrong_labels)

from oracles import plurality_predict, validate_cost


class TestPluralityPredict:
    def test_all_zero_ties_to_lowest(self):
        F = ScoringFunction(()).score_table(indexed_dataset([1], 4))
        assert plurality_predict(F).tolist() == [1]

    def test_unique_argmax(self):
        h = TableClassifier([2])
        F = ScoringFunction(((h, 0.9),)).score_table(indexed_dataset([1], 3))
        assert plurality_predict(F).tolist() == [2]

    def test_two_classifier_tie(self):
        # alpha=(1,1) over h1 == 1 and h2 == 2: tie 1 vs 1 -> label 1
        h1, h2 = TableClassifier([1]), TableClassifier([2])
        F = ScoringFunction(((h1, 1.0), (h2, 1.0))).score_table(
            indexed_dataset([1], 3))
        assert plurality_predict(F).tolist() == [1]

    def test_per_example_argmax_of_score_table(self):
        F = np.array([[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        assert plurality_predict(F).tolist() == [2, 1, 3]

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=6),
           st.integers(-50, 50))
    def test_shift_invariance(self, scores, shift):
        # exact integers so the shift cannot perturb near-ties in floats
        a = int(np.argmax(np.asarray(scores, dtype=float))) + 1
        b = int(np.argmax(np.asarray(scores, dtype=float) + shift)) + 1
        assert a == b


class TestTrainingError:
    def test_zero_scores_all_error(self):
        d = indexed_dataset([1, 2, 1], 2)
        assert training_error(ScoringFunction(()).score_table(d), d) == 1.0

    def test_strict_separation(self):
        d = indexed_dataset([1, 2], 2)
        h = TableClassifier([1, 2])
        F = ScoringFunction(((h, 1.0),)).score_table(d)
        assert training_error(F, d) == 0.0

    def test_figure_one_uniform_mixture_all_tied(self):
        d = indexed_dataset([1, 2], 3)
        h1, h2 = TableClassifier([1, 1]), TableClassifier([2, 2])
        F = ScoringFunction(((h1, 0.5), (h2, 0.5))).score_table(d)
        assert training_error(F, d) == 1.0

    @pytest.mark.parametrize("k", [2, 4, 9])
    def test_matches_row_major_rule_in_every_memory_order(self, k):
        # the label-major reduction counts what the per-row rule counts,
        # ties as errors, however the (m, k) table lies in memory
        rng = np.random.default_rng(k)
        m = 60
        labels = rng.integers(1, k + 1, m)
        d = indexed_dataset(labels, k)
        f = rng.integers(0, 3, (m, k)).astype(float)  # small ints tie often
        own = f[np.arange(m), labels - 1]
        wrong = [max(np.delete(row, y - 1)) for row, y in zip(f, labels)]
        assert (own == wrong).any()
        want = float(np.mean(own <= wrong))
        for table in (f, np.asfortranarray(f), np.ascontiguousarray(f.T).T,
                      np.repeat(f, 2, axis=0)[::2]):
            before = table.copy()
            assert training_error(table, d) == want
            assert np.array_equal(table, before)


class TestScoreTable:
    def test_contiguous_rows_keep_the_exp_risk_bits(self):
        # exp_risk's row sums take other bits on a strided row once
        # k >= 8: the table is a C-ordered copy, with the same cells as
        # votes added row-major through a flat index
        rng = np.random.default_rng(1)
        m, k = 50, 9
        d = indexed_dataset(rng.integers(1, k + 1, m), k)
        prov = tuple((TableClassifier(rng.integers(1, k + 1, m)), alpha)
                     for alpha in rng.uniform(0.1, 2.0, 12))
        want = np.zeros((m, k))
        for h, alpha in prov:
            want.reshape(-1)[np.arange(m) * k + h.predictions - 1] += alpha
        got = ScoringFunction(prov).score_table(d)
        assert got.shape == (m, k) and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert exp_risk(got, d) == exp_risk(want, d)


class TestExpRisk:
    def test_zero_scores(self):
        d = indexed_dataset([1, 2], 3)
        F = ScoringFunction(()).score_table(d)
        assert exp_risk(F, d) == pytest.approx(2.0)

    def test_single_binary_example(self):
        d = indexed_dataset([1], 2)
        h = TableClassifier([1])
        F = ScoringFunction(((h, 1.0),)).score_table(d)
        assert exp_risk(F, d) == pytest.approx(math.exp(-1))

    def test_direct_sum(self):
        d = indexed_dataset([1], 3)
        F = np.array([[0.0, 1.0, 2.0]])
        assert exp_risk(F, d) == pytest.approx(math.e + math.e ** 2)

    def test_overflow_guard(self):
        d = indexed_dataset([1], 2)
        F = np.array([[0.0, 800.0]])
        assert exp_risk(F, d) > 1e300 or math.isinf(exp_risk(F, d))

    def test_shifted_rows_match_direct_terms(self):
        # one row above the overflow guard's threshold, one below
        d = indexed_dataset([1, 1], 3)
        F = np.array([[0.0, 705.0, 704.0], [0.0, 1.0, 2.0]])
        want = (math.exp(705) + math.exp(704) + math.e + math.e ** 2) / 2
        assert exp_risk(F, d) == pytest.approx(want, rel=1e-12)

    @given(st.integers(0, 10_000))
    def test_row_order_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 40, 4
        y = rng.integers(1, k + 1, size=m)
        F = rng.normal(scale=3.0, size=(m, k))
        perm = rng.permutation(m)
        assert (exp_risk(F[perm], indexed_dataset(y[perm], k))
                == exp_risk(F, indexed_dataset(y, k)))

    @given(st.integers(0, 10_000))
    def test_per_example_error_bound(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 5, 3
        d = indexed_dataset(rng.integers(1, k + 1, size=m), k)
        F = rng.normal(size=(m, k))
        # 1[error on i] <= sum_{l != y_i} e^{F(i,l)-F(i,y_i)}, summed
        assert m * training_error(F, d) <= m * exp_risk(F, d) + 1e-9


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset((np.array([0, 1]),), np.array([1, 4]), 3)

    def test_single_class_count_rejected(self):
        with pytest.raises(ValueError):
            indexed_dataset([1, 1], 1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            # rows (0, 1) and (1,) as columns of unequal length
            Dataset((np.array([0, 1]), np.array([1])), np.array([1, 2]), 2)

    def test_features_are_rows_of_the_columns(self):
        d = Dataset((np.array([0.5, 2.0]), np.array(["a", "b"])),
                    np.array([1, 2]), 2)
        assert d.features == ((0.5, "a"), (2.0, "b"))
        assert all(type(v) in (float, str) for row in d.features for v in row)


class TestWrongLabels:
    def test_other_labels_ascending(self):
        got = wrong_labels([2, 1, 3, 3], 3)
        assert got.tolist() == [[1, 3], [2, 3], [1, 2], [1, 2]]

    def test_matches_per_row_definition(self):
        labels = np.random.default_rng(2).integers(1, 6, 40)
        want = [[l for l in range(1, 6) if l != y] for y in labels]
        assert wrong_labels(labels, 5).tolist() == want


class TestCostMatrixFamilies:
    labels = [1, 2]

    def test_eor_valid(self):
        c = CostMatrix(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]), "EOR")
        assert validate_cost(c, self.labels)

    def test_eor_invalid(self):
        c = CostMatrix(np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0]]), "EOR")
        assert not validate_cost(c, self.labels)

    def test_sam(self):
        good = CostMatrix(np.array([[0.0, 2.0, 2.0], [1.0, 0.0, 1.0]]), "SAM")
        bad = CostMatrix(np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 1.0]]), "SAM")
        assert (validate_cost(good, self.labels)
                and not validate_cost(bad, self.labels))

    def test_m1(self):
        good = CostMatrix(np.array([[-2.0, 2.0, 2.0], [0.5, -0.5, 0.5]]), "M1")
        bad = CostMatrix(np.array([[-2.0, 2.0, 1.0], [0.5, -0.5, 0.5]]), "M1")
        assert (validate_cost(good, self.labels)
                and not validate_cost(bad, self.labels))

    def test_mh(self):
        good = CostMatrix(np.array([[-1.0, 0.5, 2.0], [3.0, 0.0, 1.0]]), "MH")
        bad = CostMatrix(np.array([[1.0, 0.5, 2.0], [3.0, 0.0, 1.0]]), "MH")
        assert (validate_cost(good, self.labels)
                and not validate_cost(bad, self.labels))

    def test_mr(self):
        good = CostMatrix(np.array([[-3.0, 1.0, 2.0], [2.0, -2.0, 0.0]]), "MR")
        bad = CostMatrix(np.array([[-3.0, 1.0, 1.0], [2.0, -2.0, 0.0]]), "MR")
        assert (validate_cost(good, self.labels)
                and not validate_cost(bad, self.labels))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(np.zeros((1, 2)), "WAT")
