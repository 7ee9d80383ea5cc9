import itertools
import math
import random

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

from driftboost import conditions as cnd
from driftboost.core import (Baseline, CostMatrix, TableClassifier,
                             indexed_dataset)
from driftboost.harness import random_dataset_space


@pytest.fixture
def figure_one():
    return cnd.figure_one_fixture()


def edge(C, h, B, dataset):
    """C.B - C.1_h; nonnegative iff h meets the constraint for this C."""
    c = C.entries if isinstance(C, CostMatrix) else np.asarray(C, dtype=float)
    preds = h.predict_all(dataset)
    return float((c * B.entries).sum()
                 - c[np.arange(dataset.m), preds - 1].sum())


class TestMakeCondition:
    def test_m1_baseline_entries(self):
        d = indexed_dataset([1, 2], 3)
        c = cnd.make_condition("M1", 0.1, d)
        want = np.array([[0.1, 0, 0], [0, 0.1, 0]])
        assert np.allclose(c.baseline.entries, want)

    def test_mh_gamma_zero_all_halves(self):
        d = indexed_dataset([1, 2, 3], 3)
        c = cnd.make_condition("MH", 0.0, d)
        assert np.allclose(c.baseline.entries, 0.5)

    def test_mr_baseline(self):
        d = indexed_dataset([2], 3)
        c = cnd.make_condition("MR", 0.4, d)
        assert np.allclose(c.baseline.entries, [[-0.2, 0.2, -0.2]])

    def test_eor_fixed_row_accepted(self):
        d = indexed_dataset([1], 3)
        b = cnd.Baseline(np.array([[0.4667, 0.2667, 0.2666]]), "EOR")
        c = cnd.make_condition("EOR-fixed", 0.2, d, b)
        assert c.family == "EOR"

    def test_eor_fixed_bad_row_rejected(self):
        d = indexed_dataset([1], 3)
        b = cnd.Baseline(np.array([[0.6, 0.3, 0.1]]), "EOR")
        with pytest.raises(ValueError):
            cnd.make_condition("EOR-fixed", 0.2, d, b)

    def test_gamma_one_rejected(self):
        d = indexed_dataset([1, 2], 2)
        with pytest.raises(ValueError):
            cnd.make_condition("SAMME", 1.0, d)

    def test_eor_baseline_invariant(self):
        d = indexed_dataset([1, 3, 2], 3)
        c = cnd.make_condition("EOR-fixed", 0.25, d)
        e = c.baseline.entries
        y = d.labels - 1
        for i in range(3):
            assert e[i].sum() == pytest.approx(1.0)
            assert e[i].min() >= 0
            others = np.delete(e[i], y[i])
            assert e[i][y[i]] - 0.25 == pytest.approx(others.max())


class TestEdge:
    def test_figure_one_matrix(self, figure_one):
        d, space = figure_one
        C = CostMatrix(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]), "EOR")
        B = cnd.uniform_baseline(d, 0.1)
        assert edge(C, space[0], B, d) == pytest.approx(-0.2)
        assert edge(C, space[1], B, d) == pytest.approx(-0.2)

    def test_zero_cost_matrix(self, figure_one):
        d, space = figure_one
        B = cnd.uniform_baseline(d, 0.3)
        for h in space:
            assert edge(np.zeros((2, 3)), h, B, d) == 0.0


class TestSolveGame:
    def test_figure_one_samme_satisfied(self, figure_one):
        d, space = figure_one
        gamma = (1 - 1 / 3) * 0.05  # SAMME gamma' mapped by the caller
        rep = cnd.solve_game(space, cnd.make_condition("SAMME", gamma, d), d)
        assert rep.satisfied and rep.value <= rep.gap + 1e-9

    def test_figure_one_eor_fails(self, figure_one):
        d, space = figure_one
        rep = cnd.solve_game(space, cnd.make_condition("EOR-fixed", 0.1, d), d)
        assert not rep.satisfied and rep.value > rep.gap

    @pytest.mark.parametrize("name", ["SAMME", "M1", "MH", "MR", "EOR-fixed"])
    def test_perfect_classifier_satisfies_everything(self, name):
        d = indexed_dataset([1, 2, 3, 2], 3)
        space = [TableClassifier([1, 2, 3, 2])]
        rep = cnd.solve_game(space, cnd.make_condition(name, 0.3, d), d)
        assert rep.satisfied

    def test_report_invariants_and_gap(self):
        rng = random.Random(2)
        for _ in range(10):
            d, space = random_dataset_space(rng, rng.randrange(2, 8),
                                            rng.randrange(2, 5),
                                            rng.randrange(2, 6))
            rep = cnd.solve_game(space, cnd.make_condition("MR", 0.1, d), d)
            assert rep.mixture.sum() == pytest.approx(1.0, abs=1e-9)
            assert rep.gap >= 0.0
            assert rep.gap < 1e-6  # exact LP: certificates nearly meet
            assert rep.cost_matrix.validate(d.labels, tol=1e-7)

    def test_report_rejects_broken_invariants(self):
        cost = CostMatrix(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="sum to 1"):
            cnd.GameValueReport(0.0, np.array([0.5, 0.4]), cost, 0.0, True)
        with pytest.raises(ValueError, match="gap"):
            cnd.GameValueReport(0.0, np.array([0.5, 0.5]), cost, -1e-3, True)

    def test_empty_space_rejected(self, figure_one):
        d, _ = figure_one
        with pytest.raises(ValueError, match="empty"):
            cnd.solve_game([], cnd.make_condition("MR", 0.1, d), d)
        with pytest.raises(ValueError, match="empty"):
            cnd.is_boostable([], d)

    def test_minimal_has_no_single_game(self, figure_one):
        # the minimal condition is boostability: is_boostable, not a
        # condition object
        d, space = figure_one
        with pytest.raises(ValueError, match="unknown condition MINIMAL"):
            cnd.solve_game(space, cnd.make_condition("MINIMAL", 0.1, d), d)


class TestIsBoostable:
    def test_figure_one_not_boostable(self, figure_one):
        d, space = figure_one
        rep = cnd.is_boostable(space, d)
        assert rep.verdict == "no"
        # the certificate achieves nonnegative cost against every classifier
        c = rep.certificate.entries
        for h in space:
            preds = h.predict_all(d)
            assert c[np.arange(d.m), preds - 1].sum() >= -1e-9

    def test_window_boostable_with_verified_margin(self):
        d, space, _ = cnd.window_fixture(11, 0.1)
        rep = cnd.is_boostable(space, d)
        assert rep.verdict == "yes"
        inds = [h.predict_all(d) for h in space]
        H = np.zeros((d.m, d.k))
        for lam, preds in zip(rep.mixture, inds):
            H[np.arange(d.m), preds - 1] += lam
        y = d.labels - 1
        wrong = H.copy()
        wrong[np.arange(d.m), y] = -np.inf
        margin = (H[np.arange(d.m), y] - wrong.max(axis=1)).min()
        assert margin >= rep.margin - 1e-9

    def test_perfect_classifier_margin_one(self):
        d = indexed_dataset([2, 1], 2)
        rep = cnd.is_boostable([TableClassifier([2, 1])], d)
        assert rep.verdict == "yes"
        assert rep.margin == pytest.approx(1.0)


class TestWindowFixture:
    def test_window_length_and_coverage(self):
        d, space, cost = cnd.window_fixture(5, 0.3)
        w = math.floor(5 * 0.8)
        assert w == 4
        correct = np.zeros(5, dtype=int)
        for h in space:
            preds = h.predict_all(d)
            n_right = int((preds == d.labels).sum())
            assert n_right == w
            correct += preds == d.labels
        assert (correct == w).all()

    def test_per_classifier_cost(self):
        for m, gp in ((5, 0.3), (11, 0.1), (21, 0.2)):
            d, space, cost = cnd.window_fixture(m, gp)
            want = math.ceil(m * (0.5 - gp))
            for h in space:
                preds = h.predict_all(d)
                got = cost.entries[np.arange(m), preds - 1].sum()
                assert got == pytest.approx(want)

    def test_cost_matrix_family(self):
        d, _, cost = cnd.window_fixture(7, 0.2)
        assert cost.validate(d.labels)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            cnd.window_fixture(9, 0.1)


class TestMhOverdemandFixture:
    def test_three_singletons(self):
        d, space = cnd.mh_overdemand_fixture(3, 0.0, 3)
        assert len(space) == 3
        for h in space:
            assert int((h.predict_all(d) == d.labels).sum()) == 1

    def test_mh_violation_value(self):
        k = 3
        d, space = cnd.mh_overdemand_fixture(k, 0.0, 3)
        B = cnd.make_condition("MH", 0.0, d).baseline
        C = np.zeros((d.m, k))
        C[np.arange(d.m), d.labels - 1] = -1.0
        # per-example violation 1/2 - 1/k for every classifier
        for h in space:
            assert edge(C, h, B, d) / d.m == pytest.approx(-(0.5 - 1 / k))

    def test_k2_boundary_no_violation(self):
        d, space = cnd.mh_overdemand_fixture(2, 0.0, 2)
        B = cnd.make_condition("MH", 0.0, d).baseline
        C = np.zeros((d.m, 2))
        C[np.arange(d.m), d.labels - 1] = -1.0
        for h in space:
            assert edge(C, h, B, d) == pytest.approx(0.0)

    def test_satisfies_eor_against_uniform(self):
        d, space = cnd.mh_overdemand_fixture(3, 0.0, 3)
        rep = cnd.solve_game(space, cnd.make_condition("EOR-fixed", 0.0, d), d)
        assert rep.satisfied

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            cnd.mh_overdemand_fixture(3, 0.05, 4)


def window_fixture_loops(m, gamma_prime):
    """Reference: the window space built one prediction at a time."""
    k = 3
    labels = [(i % k) + 1 for i in range(m)]
    yhat = [min(l for l in range(1, k + 1) if l != y) for y in labels]
    w = int(math.floor(m * (0.5 + gamma_prime)))
    space = []
    for j in range(m):
        preds = list(yhat)
        for step in range(w):
            i = (j + step) % m
            preds[i] = labels[i]
        space.append(preds)
    cost = np.zeros((m, k))
    cost[np.arange(m), np.array(yhat) - 1] = 1.0
    return labels, space, cost


def mh_overdemand_loops(k, gamma, m):
    """Reference: the over-demand space built one prediction at a time."""
    n = round((1.0 / k + gamma) * m)
    labels = [(i % k) + 1 for i in range(m)]
    counters = [0] * m
    space = []
    for subset in itertools.combinations(range(m), n):
        chosen = set(subset)
        preds = []
        for i in range(m):
            if i in chosen:
                preds.append(labels[i])
            else:
                offset = counters[i] % (k - 1)
                counters[i] += 1
                preds.append(((labels[i] - 1 + 1 + offset) % k) + 1)
        space.append(preds)
    return labels, space


class TestFixturesAgainstLoops:
    @pytest.mark.parametrize("m, gamma_prime", [
        (11, 0.1), (12, 0.1), (30, 0.05), (7, 0.3), (100, 0.02),
        (50, 0.3), (21, 0.2), (40, 0.13), (9, 0.25), (16, 0.07)])
    def test_window_fixture(self, m, gamma_prime):
        d, space, cost = cnd.window_fixture(m, gamma_prime)
        labels, preds, want = window_fixture_loops(m, gamma_prime)
        assert d.labels.tolist() == labels
        assert [h.predictions.tolist() for h in space] == preds
        assert np.array_equal(cost.entries, want)

    @pytest.mark.parametrize("k, gamma, m", [
        (3, 0.0, 3), (2, 0.0, 2), (3, 0.0, 6), (4, 0.0, 8),
        (3, 1 / 3 - 1 / 9, 9), (4, 0.25, 4), (5, 0.0, 10), (2, 0.25, 4),
        (3, 0.0, 9), (4, 0.05, 20)])
    def test_mh_overdemand_fixture(self, k, gamma, m):
        d, space = cnd.mh_overdemand_fixture(k, gamma, m)
        labels, preds = mh_overdemand_loops(k, gamma, m)
        assert d.labels.tolist() == labels
        assert [h.predictions.tolist() for h in space] == preds


class TestEquivalences:
    def test_m1_iff_mh(self):
        rng = random.Random(17)
        for _ in range(20):
            d, space = random_dataset_space(rng, rng.randrange(2, 7),
                                            rng.randrange(2, 5),
                                            rng.randrange(2, 7))
            a = cnd.solve_game(space, cnd.make_condition("M1", 0.1, d), d)
            b = cnd.solve_game(space, cnd.make_condition("MH", 0.1, d), d)
            assert a.satisfied == b.satisfied

    def test_mr_iff_boostable(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(15):
            d, space = random_dataset_space(rng, rng.randrange(2, 7),
                                            rng.randrange(2, 5),
                                            rng.randrange(2, 7))
            rep = cnd.is_boostable(space, d)
            if rep.verdict == "yes" and rep.margin > 0.05:
                g = cnd.solve_game(
                    space, cnd.make_condition("MR", rep.margin / 2, d), d)
                assert g.satisfied
                checked += 1
            elif rep.verdict == "no":
                g = cnd.solve_game(space,
                                   cnd.make_condition("MR", 0.01, d), d)
                assert not g.satisfied
                checked += 1
        assert checked >= 10


def capture_lps(monkeypatch):
    """Record the keyword arguments of every linprog call."""
    calls = []

    def spy(c, **kwargs):
        calls.append(dict(kwargs, c=np.array(c)))
        return real(c, **kwargs)

    real = cnd.linprog
    monkeypatch.setattr(cnd, "linprog", spy)
    return calls


def random_eor_rows(rng, labels, k, gamma):
    """Baseline rows in Delta_gamma^k: random wrong-label mass, then
    b(y) = max wrong + gamma and the row scaled to sum to 1."""
    rows = np.empty((len(labels), k))
    for i, y in enumerate(labels):
        wrong = rng.uniform(0.1, 1.0, k - 1)
        wrong *= (1.0 - gamma) / (wrong.sum() + wrong.max())
        rows[i] = np.insert(wrong, y - 1, wrong.max() + gamma)
    return rows


def family_rows(family, k, y):
    """The l1-normalized cost rows of one example with true label index y:
    EOR uses MH's rows -e_y and e_l; "EOR-all" adds the midpoints
    (e_l - e_y)/2."""
    e = np.eye(k)
    wrong = [e[l] for l in range(k) if l != y]
    if family == "SAM":
        return [np.where(np.arange(k) == y, 0.0, 1.0 / (k - 1))]
    if family == "M1":
        return [np.where(np.arange(k) == y, -1.0 / k, 1.0 / k)]
    if family == "MR":
        return [(w - e[y]) / 2.0 for w in wrong]
    if family in ("MH", "EOR"):
        return [-e[y]] + wrong
    if family == "EOR-all":
        return [-e[y]] + wrong + [(w - e[y]) / 2.0 for w in wrong]
    raise ValueError(family)


def game_lp_per_row(space, d, family, B):
    """The condition-game LP built one row at a time: a constraint per
    (example, vertex) with coefficients v . 1_h(x_i), one slack per
    example."""
    m, k, n = d.m, d.k, len(space)
    y = d.labels - 1
    preds = [h.predict_all(d) for h in space]
    rows, rhs = [], []
    for i in range(m):
        for v in family_rows(family, k, y[i]):
            coef = np.zeros(n + m)
            coef[:n] = [v @ np.eye(k)[p[i] - 1] for p in preds]
            coef[n + i] = -1.0
            rows.append(coef)
            rhs.append(v @ B[i])
    return (np.array(rows), np.array(rhs),
            np.concatenate([np.zeros(n), np.ones(m)]),
            [(0, None)] * (n + m))


def separation_lp_per_row(space, d):
    """The separation LP built one row at a time: a constraint per
    (example, wrong label l) with coefficients 1[h = l] - 1[h = y], one
    shared free slack."""
    m, k, n = d.m, d.k, len(space)
    preds = [h.predict_all(d) for h in space]
    rows = []
    for i, y in enumerate(d.labels):
        for l in range(1, k + 1):
            if l != y:
                coef = np.zeros(n + 1)
                coef[:n] = [float(p[i] == l) - float(p[i] == y)
                            for p in preds]
                coef[n] = -1.0
                rows.append(coef)
    return (np.array(rows), np.zeros(len(rows)),
            np.concatenate([np.zeros(n), [1.0]]),
            [(0, None)] * n + [(None, None)])


def simplex_optimum(lp):
    """Optimum of a row-by-row game LP over the simplex of its zero-cost
    columns, solved by HiGHS dual simplex."""
    A, b, c, bounds = lp
    res = linprog(c, A_ub=A, b_ub=b, A_eq=(c == 0.0).astype(float)[None, :],
                  b_eq=[1.0], bounds=bounds, method="highs")
    assert res.success
    return res.fun


class TestLpInputs:
    """The LPs handed to the solver equal their row-by-row definitions."""

    CASES = [(2, 2, 3), (5, 3, 4), (7, 4, 6), (8, 4, 8)]  # (m, k, n)
    NAMES = ("SAMME", "M1", "MH", "MR", "EOR-fixed")

    def check(self, got, want):
        A, b, c, bounds = want
        assert np.array_equal(got["A_ub"], A)
        assert np.array_equal(got["b_ub"], b)
        assert np.array_equal(got["c"], c)
        assert np.array_equal(got["A_eq"],
                              (c == 0.0).astype(float)[None, :])
        assert list(got["b_eq"]) == [1.0]
        assert list(got["bounds"]) == bounds

    @pytest.mark.parametrize("name", NAMES)
    def test_condition_games(self, name, monkeypatch):
        rng = random.Random(31)
        for m, k, n in self.CASES:
            d, space = random_dataset_space(rng, m, k, n)
            cond = cnd.make_condition(name, 0.1, d)
            calls = capture_lps(monkeypatch)
            cnd.solve_game(space, cond, d)
            (got,) = calls
            self.check(got, game_lp_per_row(space, d, cond.family,
                                             cond.baseline.entries))

    def test_eor_game_with_own_baseline(self, monkeypatch):
        rng = random.Random(37)
        nrng = np.random.default_rng(37)
        for m, k, n in self.CASES:
            d, space = random_dataset_space(rng, m, k, n)
            rows = random_eor_rows(nrng, d.labels, k, 0.1)
            cond = cnd.make_condition("EOR-fixed", 0.1, d,
                                      Baseline(rows, "EOR"))
            calls = capture_lps(monkeypatch)
            cnd.solve_game(space, cond, d)
            (got,) = calls
            self.check(got, game_lp_per_row(space, d, "EOR", rows))

    def test_separation_game(self, monkeypatch):
        rng = random.Random(41)
        for m, k, n in self.CASES:
            d, space = random_dataset_space(rng, m, k, n)
            calls = capture_lps(monkeypatch)
            cnd.is_boostable(space, d)
            (got,) = calls
            self.check(got, separation_lp_per_row(space, d))


class TestEorRows:
    """The EOR game keeps only MH's rows; its value is the optimum of the
    LP over all 2k - 1 rows, midpoints (e_l - e_y)/2 included."""

    def test_value_equals_all_rows_optimum(self):
        rng = random.Random(43)
        nrng = np.random.default_rng(43)
        for trial in range(40):
            m, k, n = rng.randint(1, 8), rng.randint(2, 5), rng.randint(1, 8)
            d, space = random_dataset_space(rng, m, k, n)
            baseline = None
            if trial % 2:
                baseline = Baseline(random_eor_rows(nrng, d.labels, k, 0.1),
                                    "EOR")
            cond = cnd.make_condition("EOR-fixed", 0.1, d, baseline)
            rep = cnd.solve_game(space, cond, d)
            lp = game_lp_per_row(space, d, "EOR-all", cond.baseline.entries)
            assert lp[0].shape[0] == m * (2 * k - 1)
            assert rep.value == pytest.approx(simplex_optimum(lp), abs=1e-7)
            assert rep.cost_matrix.validate(d.labels)


class TestIndependentSolve:
    """The reported values match a separate dual-simplex solve of the
    same LP, built row by row, and the recomputed gaps stay tiny."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_games_match_simplex(self, seed):
        rng = random.Random(seed)
        d, space = random_dataset_space(rng, 60, 5, 60)
        for name in ("EOR-fixed", "SAMME", "MR"):
            cond = cnd.make_condition(name, 0.1, d)
            rep = cnd.solve_game(space, cond, d)
            want = simplex_optimum(game_lp_per_row(
                space, d, cond.family, cond.baseline.entries))
            assert rep.value == pytest.approx(want, rel=0, abs=1e-7)
            assert rep.gap <= 1e-9
        rep = cnd.is_boostable(space, d)
        want = simplex_optimum(separation_lp_per_row(space, d))
        assert rep.margin == pytest.approx(-want, rel=0, abs=1e-7)
        assert rep.gap <= 1e-9

    def test_linprog_bound_by_name(self):
        # the benchmark wraps conditions.linprog to time the solver
        assert cnd.linprog is scipy.optimize.linprog
