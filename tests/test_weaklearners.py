import functools
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftboost import harness as hz
from driftboost import weaklearners as wl
from driftboost.boosters import os_boost_fixed
from driftboost.core import (Dataset, TableClassifier, indexed_dataset,
                             is_numeric)
from driftboost.potentials import ZERO_ONE, LossSpec, uniform_baseline
from driftboost.weaklearners import (BestResponseLearner, Leaf, Split,
                                     TreeLearner, best_response, greedy_tree,
                                     tree_from_dict)

from oracles import FullSpaceBestResponse


def cost_of(h, C, dataset):
    preds = h.predict_all(dataset)
    return float(C[np.arange(dataset.m), preds - 1].sum())


class TestBestResponse:
    def test_zero_cost_ties_to_first(self):
        d, space = hz.figure_one_fixture()
        got = best_response(space, np.zeros((2, 3)), d)
        assert got is space[0]

    def test_figure_one_symmetric_cost_tie(self):
        d, space = hz.figure_one_fixture()
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
        d, space = hz.figure_one_fixture()
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
        h = greedy_tree(d, C, 3)
        assert h.size == 1

    def test_one_dim_separable(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        assert cost_of(greedy_tree(d, C, 3), C, d) == 0.0

    def test_tree_learner_wrapper(self):
        d = numeric_dataset([0, 1, 10, 11], [1, 1, 2, 2], 2)
        C = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        h = TreeLearner(3)(d, C)
        assert h.to_dict() == greedy_tree(d, C, 3).to_dict()


class TestPresort:
    """Each column of a dataset is sorted once, by the one np.unique call
    that ranks it; every leaf of every round reads that one layout."""

    def training_set(self):
        # int32 and str columns: the program's own unique and sort calls
        # (on gains, potential keys and bins) are float or int64, so a
        # call on one of these dtypes ranks or sorts a column
        rng = np.random.default_rng(3)
        m = 300
        full = Dataset((*rng.integers(0, 8, (3, m), dtype=np.int32),
                        np.array(list("abc"))[rng.integers(0, 3, m)]),
                       rng.integers(1, 5, m), 4)
        return full.subset(rng.permutation(m)[:240])

    @pytest.mark.parametrize("size", [3, 9])
    def test_os_run_sorts_each_column_once(self, monkeypatch, size):
        d = self.training_set()
        calls = []

        def recording(name):
            real = getattr(np, name)

            def call(a, *args, **kwargs):
                if np.asarray(a).dtype in (np.int32, d.columns[3].dtype):
                    calls.append((name, np.array(a)))
                return real(a, *args, **kwargs)
            return call

        for name in ("unique", "argsort", "sort"):
            monkeypatch.setattr(np, name, recording(name))
        run = os_boost_fixed(d, uniform_baseline(d, 0.1), LossSpec(ZERO_ONE),
                             20, TreeLearner(size))
        assert len(run.rounds) == 20
        assert any(r.classifier.size > 1 for r in run.rounds)
        assert [name for name, _ in calls] == ["unique"] * len(d.columns)
        for col, (_, got) in zip(d.columns, calls):
            assert np.array_equal(got, col)

    @pytest.mark.parametrize("size", [3, 9])
    def test_os_run_ranks_each_categorical_column_once(self, monkeypatch,
                                                       size):
        d = self.training_set()
        ranked = []
        unique = np.unique

        def recording(a, *args, **kwargs):
            if np.asarray(a).dtype.kind == "U":
                ranked.append(np.array(a))
            return unique(a, *args, **kwargs)

        monkeypatch.setattr(np, "unique", recording)
        run = os_boost_fixed(d, uniform_baseline(d, 0.1), LossSpec(ZERO_ONE),
                             20, TreeLearner(size))
        assert len(run.rounds) == 20
        assert any(r.classifier.size > 1 for r in run.rounds)
        categorical = [col for col in d.columns if not is_numeric(col)]
        assert len(ranked) == len(categorical) == 1
        assert np.array_equal(ranked[0], categorical[0])

    @staticmethod
    def ranking(d):
        """(values, ranks) as the layout holds them: each column's sorted
        distinct values, and each row's rank among them (its bin less
        the column's offset)."""
        q, _, bins, *_, values = d.split_layout
        return values, bins - q * np.arange(len(values))[:, None]

    def test_categories_are_cached_and_read_only(self):
        # the categorical column's entry of the layout: its categories
        # and each row's code
        d = self.training_set()
        assert d.split_layout is d.split_layout
        values, ranks = self.ranking(d)
        codes = ranks[3]
        assert values[3].tolist() == sorted(set(d.columns[3].tolist()))
        assert np.array_equal(values[3][codes], d.columns[3])
        for array in (values[3], d.split_layout[2][3]):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]

    def test_orders_are_cached_and_read_only(self):
        # a numeric column's ranks order its rows as a stable sort does
        d = self.training_set()
        assert d.split_layout is d.split_layout
        _, ranks = self.ranking(d)
        bins = d.split_layout[2]
        for col, rank, row in zip(d.columns[:3], ranks[:3], bins):
            assert np.array_equal(np.argsort(rank, kind="stable"),
                                  np.argsort(col, kind="stable"))
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = row[1]

    def test_ranking_is_cached_and_read_only(self):
        d = self.training_set()
        layout = d.split_layout
        assert d.split_layout is layout
        values, ranks = self.ranking(d)
        assert len(values) == len(ranks) == len(d.columns)
        for col, vals, rank in zip(d.columns, values, ranks):
            assert vals.tolist() == sorted(set(col.tolist()))
            assert vals.dtype == col.dtype
            assert np.array_equal(vals[rank], col)
        for array in (*values, layout[2]):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[-1]

    def test_split_layout_is_cached_and_read_only(self):
        d = self.training_set()
        layout = d.split_layout
        assert d.split_layout is layout
        q, numeric, bins, floats, last, values = layout
        ranks = np.array([np.unique(col, return_inverse=True)[1]
                          for col in d.columns])
        assert q == max(map(len, values))
        assert numeric.tolist() == [True, True, True, False]
        assert np.array_equal(bins, ranks + q * np.arange(4)[:, None])
        for j, vals in enumerate(values[:3]):
            assert floats[j * q:j * q + len(vals)].tolist() == vals.tolist()
        assert np.isnan(floats[3 * q:]).all()
        for array in (numeric, bins, floats, last, *values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[-1]

    @pytest.mark.parametrize("size", [3, 9])
    def test_os_run_lays_out_each_dataset_once(self, monkeypatch, size):
        d = self.training_set()
        built = []
        layout = Dataset.split_layout.func

        def recording(dataset):
            built.append(dataset)
            return layout(dataset)

        monkeypatch.setattr(Dataset, "split_layout",
                            functools.cached_property(recording))
        Dataset.split_layout.__set_name__(Dataset, "split_layout")
        run = os_boost_fixed(d, uniform_baseline(d, 0.1), LossSpec(ZERO_ONE),
                             20, TreeLearner(size))
        assert len(run.rounds) == 20
        assert built == [d]

    def test_root_candidates_are_cached_and_read_only(self):
        # a node of every row has all ranks present: its candidates are
        # each numeric column's adjacent ranks and each category, as the
        # layout's bins, and a stump's root scores exactly them
        d = self.training_set()
        candidates = d.root_candidates
        assert d.root_candidates is candidates
        ends, first, thresholds = candidates
        q, numeric, *_, values = d.split_layout
        want = [j * q + r for j, vals in enumerate(values)
                for r in range(len(vals) - numeric[j])]
        assert first.tolist() == want
        assert np.array_equal(ends, first)
        for j, vals in enumerate(values[:3]):
            mids = vals[:-1] / 2 + vals[1:] / 2
            assert thresholds[first // q == j].tolist() == mids.tolist()
        assert np.isnan(thresholds[first // q == 3]).all()
        for array in candidates:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[-1]
        cT = np.ones((d.k, d.m))
        gains, got_first, got_thresholds = wl._split_gains(
            [leaf_node(np.arange(d.m), cT)], d, cT)[0]
        assert got_first is first and got_thresholds is thresholds
        assert len(gains) == len(first)

    @pytest.mark.parametrize("size", [3, 9])
    def test_os_run_finds_root_candidates_once(self, monkeypatch, size):
        d = self.training_set()
        built = []
        find = Dataset.root_candidates.func

        def recording(dataset):
            built.append(dataset)
            return find(dataset)

        monkeypatch.setattr(Dataset, "root_candidates",
                            functools.cached_property(recording))
        Dataset.root_candidates.__set_name__(Dataset, "root_candidates")
        run = os_boost_fixed(d, uniform_baseline(d, 0.1), LossSpec(ZERO_ONE),
                             20, TreeLearner(size))
        assert len(run.rounds) == 20
        assert built == [d]


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


def leaf_node(members, cT):
    """A tree node holding members, its sums added in member order."""
    return wl._Node(members, np.cumsum(cT[:, members], axis=1)[:, -1])


def edge_problem(rng):
    """(dataset, cost array, two disjoint ascending member arrays, one
    often a single row) over columns with NaN and +-inf, categories only
    (sometimes every column), ints beyond 2**53 that share floats, and
    adjacent floats whose midpoint rounds up."""
    m, k = int(rng.integers(2, 40)), int(rng.integers(2, 5))
    makers = (lambda: rng.normal(size=m),
              lambda: rng.choice([0.0, 1.0, 2.0, np.nan, np.inf, -np.inf], m),
              lambda: np.array(list("abc"))[rng.integers(0, 3, m)],
              lambda: 2 ** 60 + rng.choice([0, 1, 3, 256, 512], m),
              lambda: np.where(rng.random(m) < 0.5, ADJACENT,
                               np.nextafter(ADJACENT, np.inf)),
              lambda: rng.integers(0, 4, m))
    categorical = rng.random() < 0.2
    columns = tuple(makers[2 if categorical else rng.integers(len(makers))]()
                    for _ in range(rng.integers(1, 5)))
    C = (rng.integers(-2, 3, (m, k)).astype(float) if rng.random() < 0.5
         else rng.normal(size=(m, k)))
    if rng.random() < 0.3:
        left = np.zeros(m, dtype=bool)
        left[rng.integers(m)] = True
    else:
        left = rng.random(m) < rng.uniform(0.1, 0.9)
    rows = rng.permutation(m)[:int(rng.integers(2, m + 1))]
    inside = np.zeros(m, dtype=bool)
    inside[rows] = True
    a, b = np.flatnonzero(inside & left), np.flatnonzero(inside & ~left)
    if not len(a) or not len(b):
        a, b = np.sort(rows)[:1], np.sort(rows)[1:]
    return Dataset(columns, rng.integers(1, k + 1, m), k), C, a, b


def same_bits(got, want):
    return (len(got) == len(want)
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                    for x, y in zip(got, want)))


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

    def test_children_scored_together_as_each_alone(self):
        # the two children of a split share one pass, each leaf's bins
        # offset on the bin axis; leaf by leaf, its candidates keep the
        # bits and dtypes of the leaf scored alone
        rng = np.random.default_rng(1996)
        for _ in range(300):
            d, C, a, b = edge_problem(rng)
            cT = np.ascontiguousarray(C.T)
            nodes = [leaf_node(a, cT), leaf_node(b, cT)]
            with np.errstate(invalid="ignore"):
                both = wl._split_gains(nodes, d, cT)
                alone = [wl._split_gains([node], d, cT)[0] for node in nodes]
            assert len(both) == 2
            for got, want in zip(both, alone):
                assert same_bits(got, want)

    def test_edge_problems_match_the_full_scan(self):
        rng = np.random.default_rng(1997)
        for _ in range(200):
            d, C, _, _ = edge_problem(rng)
            for size in (3, 7):
                with np.errstate(invalid="ignore"):
                    want = reference_greedy_tree(d, C, size).to_dict()
                assert greedy_tree(d, C, size).to_dict() == want

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 9, 10, 15])
    def test_one_scoring_pass_per_expansion(self, monkeypatch, size):
        # the root, then the two children of each split but the last,
        # one pass each: 1 + (s - 3) / 2 passes for a size-s tree
        passes = []
        score = wl._split_gains

        def counting(nodes, dataset, cT):
            passes.append(len(nodes))
            return score(nodes, dataset, cT)

        monkeypatch.setattr(wl, "_split_gains", counting)
        rng = np.random.default_rng(size)
        d = Dataset(tuple(rng.normal(size=(3, 200))), rng.integers(1, 4, 200),
                    3)
        for _ in range(5):
            passes.clear()
            tree = greedy_tree(d, rng.normal(size=(200, 3)), size)
            assert tree.size == size - (size % 2 == 0)
            assert passes == ([1] + [2] * ((size - 3) // 2) if size >= 3
                              else [])

    def test_cost_matrix_and_more_rows(self):
        rng = np.random.default_rng(7)
        d = Dataset((np.round(rng.normal(size=300), 2),
                     rng.integers(0, 6, 300),
                     np.array(list("pqrs"))[rng.integers(0, 4, 300)]),
                    rng.integers(1, 4, 300), 3)
        C = rng.normal(size=(300, 3))
        assert (greedy_tree(d, C, 9).to_dict()
                == reference_greedy_tree(d, C, 9).to_dict())


class TestColumnBlocks:
    """Columns scored in blocks of any width give the gains, and so the
    trees, of one block holding every column."""

    def test_one_column_per_block(self, monkeypatch):
        rng = np.random.default_rng(18)
        problems = [random_problem(rng) for _ in range(200)]
        whole = [greedy_tree(d, C, size).to_dict() for d, C, size in problems]
        monkeypatch.setattr(wl, "BLOCK", 1)
        for (d, C, size), want in zip(problems, whole):
            assert greedy_tree(d, C, size).to_dict() == want
            assert want == reference_greedy_tree(d, C, size).to_dict()

    @pytest.mark.parametrize("block", [1, 300, 2000])
    def test_block_gains_equal_one_pass(self, monkeypatch, block):
        rng = np.random.default_rng(6)
        d = Dataset((rng.integers(0, 9, 50), np.round(rng.normal(size=50), 1),
                     np.array(list("xyz"))[rng.integers(0, 3, 50)],
                     rng.normal(size=50)), rng.integers(1, 4, 50), 3)
        C = rng.normal(size=(50, 3))
        cT = np.ascontiguousarray(C.T)
        node = leaf_node(np.flatnonzero(rng.random(50) < 0.7), cT)
        want = wl._split_gains([node], d, cT)[0]
        monkeypatch.setattr(wl, "BLOCK", block)
        got = wl._split_gains([node], d, cT)[0]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize("block", [1, 300, 2000])
    def test_block_pairs_and_roots_equal_one_pass(self, monkeypatch, block):
        rng = np.random.default_rng(9)
        problems = []
        for _ in range(60):
            d, C, a, b = edge_problem(rng)
            cT = np.ascontiguousarray(C.T)
            nodes = ([leaf_node(a, cT), leaf_node(b, cT)],
                     [leaf_node(np.arange(d.m), cT)])
            with np.errstate(invalid="ignore"):
                want = [wl._split_gains(n, d, cT) for n in nodes]
            problems.append((d, cT, nodes, want))
        monkeypatch.setattr(wl, "BLOCK", block)
        for d, cT, nodes, want in problems:
            with np.errstate(invalid="ignore"):
                got = [wl._split_gains(n, d, cT) for n in nodes]
            for a, b in zip(sum(got, []), sum(want, [])):
                assert same_bits(a, b)


def test_wide_stump_memory():
    # a stump on 20,000 rows of 30 four-decimal columns, k = 8, peaked at
    # 46.5 MiB of traced memory from a fresh dataset and at 26.7 MiB once
    # the layout was built when every leaf scored the dense bin cube; the
    # root candidates, now found in the first call, must fit within those
    rng = np.random.default_rng(0)
    m, k = 20000, 8
    columns = tuple(np.round(rng.normal(size=(30, m)), 4))
    labels, C = rng.integers(1, k + 1, m), rng.normal(size=(m, k))

    def peak(grow):
        tracemalloc.start()
        try:
            tree = grow()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20, tree
        finally:
            tracemalloc.stop()

    fresh, tree = peak(lambda: greedy_tree(Dataset(columns, labels, k), C, 3))
    d = Dataset(columns, labels, k)
    assert d.split_layout[0] > 15000
    laid_out, again = peak(lambda: greedy_tree(d, C, 3))
    assert tree.to_dict() == again.to_dict() and tree.size == 3
    assert fresh <= 47 and laid_out <= 27


@st.composite
def permuted_tree_problems(draw):
    """A tree problem with integer costs, so that many gains and leaf
    totals tie exactly, and a permutation of its rows."""
    m, k = draw(st.integers(1, 30)), draw(st.integers(2, 4))

    def column(cells):
        return draw(st.lists(cells, min_size=m, max_size=m))

    kinds = {"int": lambda: np.array(column(st.integers(-2, 2))),
             "half": lambda: np.array(column(st.integers(-4, 4))) / 2,
             "str": lambda: np.array(column(st.sampled_from(["a", "b"])))}
    columns = tuple(kinds[kind]() for kind in draw(
        st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4)))
    labels = np.array(column(st.integers(1, k)))
    C = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=k,
                                        max_size=k),
                               min_size=m, max_size=m)), dtype=float)
    perm = np.array(draw(st.permutations(range(m))), dtype=int)
    return Dataset(columns, labels, k), C, perm


class TestRowOrder:
    @pytest.mark.parametrize("size", [3, 5, 9])
    @settings(max_examples=60, deadline=None)
    @given(problem=permuted_tree_problems())
    def test_permuting_rows_keeps_the_tree(self, size, problem):
        d, C, perm = problem
        shuffled = Dataset(tuple(col[perm] for col in d.columns),
                           d.labels[perm], d.k)
        assert (greedy_tree(shuffled, C[perm], size).to_dict()
                == greedy_tree(d, C, size).to_dict())


    def test_permuting_rows_keeps_edge_trees(self):
        # NaN and +-inf, shared floats and rounded-up midpoints too
        rng = np.random.default_rng(27)
        for _ in range(150):
            d, C, _, _ = edge_problem(rng)
            C = np.round(C)  # integer costs: ties are common
            perm = rng.permutation(d.m)
            shuffled = Dataset(tuple(col[perm] for col in d.columns),
                               d.labels[perm], d.k)
            for size in (3, 7):
                with np.errstate(invalid="ignore"):
                    assert (greedy_tree(shuffled, C[perm], size).to_dict()
                            == greedy_tree(d, C, size).to_dict())


def stable_argsort_shortlist(gains, eps):
    """The shortlist cut as the prefix-sum search first made it: a stable
    argsort of the gains, descending, cut at the first wide gap."""
    alive = np.flatnonzero(gains > 1e-12 - eps)
    ranked = alive[np.argsort(-gains[alive], kind="stable")]
    gaps = np.flatnonzero(gains[ranked[:-1]] - gains[ranked[1:]]
                          > 2 * eps + 1e-12)
    return np.sort(ranked[:gaps[0] + 1] if len(gaps) else ranked).tolist()


class TestRankedSearchEdges:
    @pytest.mark.parametrize("base, top", [(2 ** 60, 3), (2 ** 60 + 256, 256)])
    def test_int_values_beyond_2_53(self, base, top):
        # the three values share floats, and `values <= thr` compares as
        # floats. From 2**60 every midpoint is the one shared float, so
        # all rows go left and column 0 has no split; from 2**60 + 256 the
        # first midpoint keeps two values left and the second rounds up to
        # the top value, so column 0 has exactly one split
        x = np.array([base, base + 1, base + top] * 4)
        assert x.dtype == np.int64 and x[0] / 2 + x[1] / 2 == float(x[1])
        labels = [1, 1, 2] * 4
        y = np.array([0, 1, 5, 2, 3, 6, 4, 7, 8, 9, 10, 11.0])
        d = Dataset((x, y), labels, 2)
        C = -np.eye(2)[np.array(labels) - 1]
        for size in (3, 5):
            got = greedy_tree(d, C, size).to_dict()
            assert got == reference_greedy_tree(d, C, size).to_dict()
        assert got["feature"] == (1 if top == 3 else 0)

    def test_float32_columns_split_as_float64(self):
        # a float32 column kept its dtype, so `values <= thr` rounded the
        # float64 midpoint of two adjacent float32 values to one of them
        rng = np.random.default_rng(6)
        a = np.float32(0.3)
        for _ in range(50):
            m = int(rng.integers(2, 30))
            x = np.where(rng.random(m) < 0.5, a, np.nextafter(a, np.inf))
            d = Dataset((x.astype(np.float32),
                         rng.normal(size=m).astype(np.float32)),
                        rng.integers(1, 3, m), 2)
            assert [col.dtype for col in d.columns] == [float, float]
            C = rng.normal(size=(m, 2))
            assert (greedy_tree(d, C, 5).to_dict()
                    == reference_greedy_tree(d, C, 5).to_dict())

    @pytest.mark.parametrize("special", [np.nan, np.inf])
    def test_non_finite_values(self, special):
        # NaN is never <= a threshold, and the midpoint of NaN, or of -inf
        # and inf, is NaN, which puts no row left: no candidate. Columns x
        # and -x put inf and -inf side by side in the bins
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = int(rng.integers(2, 20))
            x = rng.choice([0.0, 1.0, 2.0, special, -special], m)
            d = Dataset((rng.normal(size=m), x, -x), rng.integers(1, 3, m), 2)
            C = rng.normal(size=(m, 2))
            with np.errstate(invalid="ignore"):
                want = reference_greedy_tree(d, C, 5).to_dict()
            assert greedy_tree(d, C, 5).to_dict() == want

    @pytest.mark.parametrize("columns, labels", [
        ((), [1, 2, 3, 1]),
        ((np.array([0.5]), np.array(["a"]), np.array([7])), [2])])
    def test_no_columns_or_one_row_is_one_leaf(self, columns, labels):
        d = Dataset(columns, labels, 3)
        C = np.random.default_rng(4).normal(size=(d.m, 3))
        for size in (1, 3, 9):
            got = greedy_tree(d, C, size).to_dict()
            assert got == reference_greedy_tree(d, C, size).to_dict()
            assert list(got) == ["leaf"]

    def test_equal_gains_shortlist_as_a_stable_argsort(self):
        # copies of one column and integer costs: most gains tie exactly
        rng = np.random.default_rng(11)
        x = rng.integers(0, 6, 40)
        cat = np.array(list("pqr"))[rng.integers(0, 3, 40)]
        d = Dataset((x, x.astype(float), cat, x, cat), rng.integers(1, 4, 40),
                    3)
        C = rng.integers(-1, 2, (40, 3)).astype(float)
        cT = np.ascontiguousarray(C.T)
        root = leaf_node(np.arange(40), cT)
        gains = wl._split_gains([root], d, cT)[0][0]
        assert len(gains) - len(np.unique(gains)) >= 15
        assert np.count_nonzero(gains == gains.max()) >= 2
        for eps in (0.0, 1e-9, 0.3, 1.0, 5.0):
            assert (wl._shortlist(gains, eps)
                    == stable_argsort_shortlist(gains, eps))
        for size in (3, 7):
            assert (greedy_tree(d, C, size).to_dict()
                    == reference_greedy_tree(d, C, size).to_dict())
        for _ in range(200):
            gains = rng.integers(-4, 5, int(rng.integers(0, 30))) / 2
            eps = float(rng.choice([0.0, 0.2, 0.5, 2.0]))
            assert (wl._shortlist(gains, eps)
                    == stable_argsort_shortlist(gains, eps))


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
