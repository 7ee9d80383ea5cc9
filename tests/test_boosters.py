import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftboost import boosters as bst
from driftboost import conditions as cnd
from driftboost import harness as hz
from driftboost import potentials as pot
from driftboost import weaklearners as wl
from driftboost.core import (Baseline, Dataset, ScoringFunction,
                             TableClassifier, exp_risk, indexed_dataset,
                             prediction_matrix, training_error,
                             wrong_labels)
from driftboost.harness import random_dataset_space
from driftboost.weaklearners import (BestResponseLearner, TreeLearner,
                                     best_response)

import oracles
from oracles import FullSpaceBestResponse, plurality_predict

ZO = pot.LossSpec(pot.ZERO_ONE)


def window_eor_baseline(dataset, m, gamma_prime, k=3):
    """Baseline the window space meets with equality: w/m on the true
    label, (m-w)/m on the fallback wrong label."""
    w = math.floor(m * (0.5 + gamma_prime))
    y = dataset.labels - 1
    rows = np.zeros((m, k))
    rows[np.arange(m), y] = w / m
    for i in range(m):
        yh = min(l for l in range(k) if l != y[i])
        rows[i, yh] = (m - w) / m
    return cnd.eor_baseline(dataset, rows, (2 * w - m) / m)


class TestAdaBoostMM:
    def test_half_edge_weight(self):
        # 4 examples, classifier right on 3: at f=0, delta=1/2, alpha=.5ln3
        d = indexed_dataset([1, 1, 1, 2], 2)
        h = TableClassifier([1, 1, 1, 1])
        run = bst.adaboost_mm(d, 1, BestResponseLearner([h]), "APPROX")
        r = run.rounds[0]
        assert r.edge == pytest.approx(0.5)
        assert r.alpha == pytest.approx(0.5 * math.log(3))

    def test_nonpositive_edge_zero_weight(self):
        d = indexed_dataset([1, 2], 2)
        h = TableClassifier([2, 1])  # always wrong: delta < 0
        run = bst.adaboost_mm(d, 3, BestResponseLearner([h]), "APPROX")
        assert all(r.alpha == 0.0 for r in run.rounds)
        assert sum(r.edge <= 0 for r in run.rounds) == 3

    def test_separation_clamp(self):
        d = indexed_dataset([1, 2], 2)
        h = TableClassifier([1, 2])
        for rule in ("APPROX", "EXACT"):
            run = bst.adaboost_mm(d, 10, BestResponseLearner([h]), rule)
            assert run.separated
            assert len(run.rounds) == 1
            assert run.rounds[0].alpha == bst.ALPHA_MAX

    def test_exact_rule_equals_half_log_ratio(self):
        d, space, _ = hz.window_fixture(11, 0.1)
        run = bst.adaboost_mm(d, 40, BestResponseLearner(space), "EXACT")
        for r in run.rounds:
            if r.edge > 0 and r.A_minus > 0:
                assert r.alpha == pytest.approx(
                    0.5 * math.log(r.A_plus / r.A_minus), abs=1e-12)

    @pytest.mark.parametrize("rule", ["APPROX", "EXACT"])
    def test_z_contraction_every_round(self, rule):
        rng = random.Random(31)
        for _ in range(8):
            d, space = random_dataset_space(rng, rng.randrange(3, 12),
                                            rng.randrange(2, 5),
                                            rng.randrange(2, 7))
            run = bst.adaboost_mm(d, 30, BestResponseLearner(space), rule)
            for r in run.rounds:
                if r.edge >= 0:
                    bound = r.Z_prev * math.sqrt(1 - min(r.edge, 1.0) ** 2)
                    assert r.Z_after <= bound + 1e-9

    def test_cumulative_error_bound(self):
        # Z_t never grows, so every weight exp(f_il - f_iy) stays below
        # Z_0 = m(k - 1): the margins stay far from the exponent clamp
        d, space, _ = hz.window_fixture(21, 0.2)
        for rule in ("APPROX", "EXACT"):
            run = bst.adaboost_mm(d, 100, BestResponseLearner(space), rule)
            f = np.zeros((d.m, d.k))
            prod = 1.0
            for r in run.rounds:
                if r.edge >= 0:
                    prod *= math.sqrt(1 - min(r.edge, 1.0) ** 2)
                f[np.arange(d.m), r.classifier.predict_all(d) - 1] += r.alpha
                assert training_error(f, d) <= (d.k - 1) * prod + 1e-9
                margins = f - f[np.arange(d.m), d.labels - 1][:, None]
                assert margins.max() <= math.log(d.m * (d.k - 1)) + 1e-9

    def test_monotone_exp_risk(self):
        d, space, _ = hz.window_fixture(11, 0.1)
        run = bst.adaboost_mm(d, 50, BestResponseLearner(space), "APPROX")
        f = np.zeros((d.m, d.k))
        prev = exp_risk(f, d)
        for r in run.rounds:
            f[np.arange(d.m), r.classifier.predict_all(d) - 1] += r.alpha
            cur = exp_risk(f, d)
            if r.edge >= 0:
                assert cur <= prev + 1e-9
            prev = cur


class TestEdgeMinimal:
    """The edge delta_t = (-C_t.1_h)/Z_{t-1} that adaboost_mm records."""

    def test_always_correct_is_one(self):
        d = indexed_dataset([1, 2, 1], 2)
        run = bst.adaboost_mm(d, 1, lambda ds, C: TableClassifier(d.labels))
        assert run.rounds[0].edge == pytest.approx(1.0)

    def test_fixed_wrong_label(self):
        k, m = 4, 5
        d = indexed_dataset([1] * (m - 1) + [2], k)
        preds = np.where(d.labels == 3, 4, 3)  # always wrong
        run = bst.adaboost_mm(d, 1, lambda ds, C: TableClassifier(preds))
        assert run.rounds[0].edge == pytest.approx(-1.0 / (k - 1))

    def test_range(self):
        rng = np.random.default_rng(0)
        m, k = 6, 3

        def random_table(ds, C):
            return TableClassifier(rng.integers(1, k + 1, m))

        for _ in range(20):
            d = indexed_dataset(rng.integers(1, k + 1, m), k)
            for r in bst.adaboost_mm(d, 5, random_table).rounds:
                assert -1.0 - 1e-9 <= r.edge <= 1.0 + 1e-9


class TestDropFactor:
    def test_no_minus_mass(self):
        assert oracles.drop_factor_exact(0.4, 0.0, 1.0, 0.4) == \
            pytest.approx(0.6)

    def test_annihilation(self):
        assert oracles.drop_factor_exact(1.0, 0.0, 1.0, 1.0) == 0.0

    def test_bound_random_triples(self):
        rng = random.Random(77)
        for _ in range(2000):
            z = rng.uniform(0.1, 10.0)
            a_plus = rng.uniform(0, z)
            # A+ and A- are disjoint parts of Z's mass, so A+ + A- <= Z
            a_minus = rng.uniform(0, min(a_plus, z - a_plus))
            delta = (a_plus - a_minus) / z
            fac = oracles.drop_factor_exact(a_plus, a_minus, z, delta)
            assert 0.0 <= fac <= math.sqrt(1 - delta ** 2) + 1e-12

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            oracles.drop_factor_exact(0.2, 0.5, 1.0, -0.3)  # A- > A+
        with pytest.raises(ValueError):
            oracles.drop_factor_exact(2.0, 0.5, 1.0, 1.5)  # A+ > Z
        with pytest.raises(ValueError):
            oracles.drop_factor_exact(0.5, 0.2, 1.0, 0.0)  # inconsistent delta


class TestTransform:
    def test_columns_are_the_triples_in_order(self):
        d = indexed_dataset([2, 1, 4, 4, 3], 4)
        mis, _ = bst.transform_mislabel(d, [])
        want = [(i, y, l) for i, y in enumerate(d.labels.tolist())
                for l in range(1, d.k + 1) if l != y]
        assert list(zip(*(c.tolist() for c in mis))) == want

    def test_sizes_and_uniqueness(self):
        d = indexed_dataset([1, 3], 3)
        mis, _ = bst.transform_mislabel(d, [])
        assert len(mis[0]) == 4
        assert len(set(zip(*mis))) == 4
        for i, y, l in zip(*mis):
            assert l != y

    def test_classifier_values(self):
        d = indexed_dataset([1, 2], 3)
        h = TableClassifier([1, 1])
        mis, (v,) = bst.transform_mislabel(d, [h])
        vals = dict(zip(zip(*mis), v))
        assert vals[(0, 1, 2)] == -1.0  # h correct: -1
        assert vals[(1, 2, 1)] == 1.0   # h predicts the mislabel: +1
        assert vals[(1, 2, 3)] == 0.0   # neither

    def test_risk_identity(self):
        rng = np.random.default_rng(4)
        d = indexed_dataset(rng.integers(1, 4, 6), 3)
        space = [TableClassifier(rng.integers(1, 4, 6)) for _ in range(3)]
        _, V = bst.transform_mislabel(d, space)
        alphas = rng.uniform(0, 1, 3)
        F = ScoringFunction(tuple(zip(space, alphas)))
        ftab = F.score_table(d)
        f_tilde = sum(a * v for a, v in zip(alphas, V))
        # risk-hat(F) = (k-1) * mean over triples of e^{F~} (all labels -1)
        want = (d.k - 1) * float(np.mean(np.exp(f_tilde)))
        assert exp_risk(ftab, d) == pytest.approx(want, abs=1e-10)


class TestAdaBoostBinary:
    def test_empty_run(self):
        d = indexed_dataset([1, 2], 2)
        _, V = bst.transform_mislabel(d, [TableClassifier([1, 2])])
        run = bst.adaboost_binary(V, 0)
        assert run.rounds == []

    def test_perfect_hypothesis_clamps(self):
        d = indexed_dataset([1, 2], 2)
        _, V = bst.transform_mislabel(d, [TableClassifier([1, 2])])
        run = bst.adaboost_binary(V, 5)
        assert run.separated and run.rounds[0].edge == pytest.approx(1.0)


class TestRunEquivalence:
    def test_random_instances(self):
        rng = random.Random(6)
        for _ in range(12):
            d, space = random_dataset_space(rng, rng.randrange(2, 12),
                                            rng.randrange(2, 5),
                                            rng.randrange(2, 7))
            ok, why = bst.check_run_equivalence(d, space, 40)
            assert ok, why

    def test_one_prediction_matrix_per_call(self, monkeypatch):
        # the learner and the mislabel transform each built their own
        built = []

        def counted(Hspace, dataset):
            built.append(len(Hspace))
            return prediction_matrix(Hspace, dataset)

        monkeypatch.setattr(bst, "prediction_matrix", counted)
        monkeypatch.setattr(wl, "prediction_matrix", counted)
        d, space = random_dataset_space(random.Random(3), 9, 4, 6)
        assert bst.check_run_equivalence(d, space, 20) == (True, "ok")
        assert built == [6]


@st.composite
def finite_spaces(draw):
    """(dataset, space, cost matrix) with m, n <= 8 and k <= 4; integer
    costs keep every sum exact, so ties are exact ties."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, 4))
    label = st.integers(1, k)
    labels = draw(st.lists(label, min_size=m, max_size=m))
    preds = draw(st.lists(st.lists(label, min_size=m, max_size=m),
                          min_size=n, max_size=n))
    costs = draw(st.lists(st.integers(-3, 3), min_size=m * k,
                          max_size=m * k))
    return (indexed_dataset(labels, k), [TableClassifier(p) for p in preds],
            np.array(costs, dtype=float).reshape(m, k))


class TestFiniteSpaceProperty:
    @settings(max_examples=60, deadline=None)
    @given(finite_spaces())
    def test_matches_per_classifier_definitions(self, case):
        d, space, C = case
        ids = d.columns[0].tolist()  # a table classifier reads this column
        costs = [sum(C[i, h.predictions[x] - 1] for i, x in enumerate(ids))
                 for h in space]
        assert best_response(space, C, d) is space[costs.index(min(costs))]

        mis, V = bst.transform_mislabel(d, space)
        assert V.shape == (len(space), len(mis[0]))
        for h, row in zip(space, V):
            for (i, y, l), v in zip(zip(*mis), row):
                p = h.predictions[ids[i]]
                assert v == float(p == l) - float(p == y)

        assert bst.check_run_equivalence(d, space, 10) == (True, "ok")


def per_row_key(B, d, t, i, state):
    """(t, b_i, s - s_1) with b_i and the state reordered true-label-first."""
    y = d.labels[i] - 1
    order = [y] + [l for l in range(d.k) if l != y]
    s = np.asarray(state)[order]
    return t, tuple(B.entries[i][order]), tuple(s - s[0])


def table_row(B, d, loss):
    """The baseline row, true label first, when the OS booster reads its
    potentials from one zero-one table (ZERO_ONE, one shared row, equal
    wrong-label entries); None when it calls potential_fixed."""
    if loss.kind != pot.ZERO_ONE:
        return None
    zero = np.zeros(d.k, dtype=int)
    rows = {per_row_key(B, d, 0, i, zero)[1] for i in range(d.m)}
    row = rows.pop()
    return row if not rows and len(set(row[1:])) == 1 else None


def per_row_potential(B, d, loss, t, i, state, table):
    """Row i's potential at state after t more rounds: the table
    recursion if table, else potential_fixed."""
    t, b, s = per_row_key(B, d, t, i, state)
    if table:
        return oracles.table_potential(b, t, s)
    return pot.potential_fixed(np.array(b), loss, t, np.array(s))


def check_os_run(monkeypatch, d, B, loss, T, learner):
    """Run the OS booster with each C_t the learner receives, each
    potential_fixed call and each table build recorded; compare them with
    per-row references."""
    received, calls, builds = [], [], []

    def recording_learner(dataset, C):
        received.append(C.copy())
        return learner(dataset, C)

    def recording_potential(b, loss, t, s):
        calls.append(t)
        return pot.potential_fixed(b, loss, t, s)

    def recording_table(b1, bw, k, T):
        builds.append((b1, bw, k, T))
        return pot.zeroone_table(b1, bw, k, T)

    monkeypatch.setattr(bst, "potential_fixed", recording_potential)
    monkeypatch.setattr(bst, "zeroone_table", recording_table)
    run = bst.os_boost_fixed(d, B, loss, T, recording_learner)
    m, k = d.m, d.k
    row = table_row(B, d, loss)

    def ref(t, i, state):
        return per_row_potential(B, d, loss, t, i, state, row is not None)

    s = np.zeros((m, k), dtype=int)
    assert run.extra["initial_potential"] == oracles.sequential_sum(
        ref(T, i, s[i]) for i in range(m)) / m
    assert len(received) == len(run.rounds) == T
    for t, (C, r) in enumerate(zip(received, run.rounds)):
        rem = T - t - 1
        children = [[s[i] + np.eye(k, dtype=int)[l] for l in range(k)]
                    for i in range(m)]
        want = [[ref(rem, i, c) for c in children[i]] for i in range(m)]
        assert C.tolist() == want
        s[np.arange(m), r.classifier.predict_all(d) - 1] += 1
        assert r.extra["avg_potential"] == oracles.sequential_sum(
            ref(rem, i, s[i]) for i in range(m)) / m
    if row is None:
        # one batch for the initial average, then one per round
        assert calls == list(range(T, -1, -1)) and builds == []
    else:
        assert calls == [] and builds == [(row[0], row[1], k, T)]
    return run


def random_eor_baseline(d, gamma, rng):
    """Rows in Delta_gamma^k that differ even after the true-label-first
    reordering."""
    rows = rng.uniform(0.1, 1.0, (d.m, d.k))
    rows[np.arange(d.m), d.labels - 1] = 0.0
    top = rows.max(axis=1)
    scale = (1.0 - gamma) / (rows.sum(axis=1) + top)
    rows *= scale[:, None]
    rows[np.arange(d.m), d.labels - 1] = top * scale + gamma
    return cnd.eor_baseline(d, rows, gamma)


class TestSequentialSums:
    """Float sums add one value at a time, in order, whatever the Python
    version: from 3.12 on, sum() compensates. Each case holds values
    whose correctly rounded sum differs from the sequential one."""

    def test_exp_loss_adds_in_label_order(self):
        terms = [1.0, math.exp(-37.0), math.exp(-37.0)]
        assert math.fsum(terms) != oracles.sequential_sum(terms)
        got = oracles.loss_value(pot.LossSpec(pot.EXP, 1.0),
                                 [0, 0, -37, -37])
        assert got == oracles.sequential_sum(terms) == 1.0

    def test_os_averages_add_rows_in_order(self):
        m, T, loss = 10, 3, pot.LossSpec(pot.EXP, 0.2)
        d = indexed_dataset([i % 3 + 1 for i in range(m)], 3)
        B = pot.uniform_baseline(d, 0.1)
        received = []

        def learner(dataset, C):
            received.append(C.copy())
            return FullSpaceBestResponse()(dataset, C)

        run = bst.os_boost_fixed(d, B, loss, T, learner)
        # row 0 has label 1, so its baseline row is true label first
        phi = [float(pot.potential_fixed(B.entries[0], loss, T,
                                         np.zeros(3, dtype=int)))] * m
        assert math.fsum(phi) != oracles.sequential_sum(phi)
        assert run.extra["initial_potential"] == \
            oracles.sequential_sum(phi) / m
        differ = []
        for C, r in zip(received, run.rounds):
            chosen = C[np.arange(m), r.preds - 1].tolist()
            differ.append(math.fsum(chosen) != oracles.sequential_sum(chosen))
            assert r.extra["avg_potential"] == \
                oracles.sequential_sum(chosen) / m
        assert any(differ)


class TestOsBooster:
    @pytest.mark.parametrize("loss", [ZO, pot.LossSpec(pot.EXP, 0.2)],
                             ids=["zeroone", "exp"])
    @pytest.mark.parametrize("baseline", ["uniform", "window", "random"])
    def test_cost_matrices_match_per_row_potentials(self, monkeypatch,
                                                    baseline, loss):
        m, gp = 11, 0.15
        d, space, _ = hz.window_fixture(m, gp)
        B = {"uniform": lambda: pot.uniform_baseline(d, 0.1),
             "window": lambda: window_eor_baseline(d, m, gp),
             "random": lambda: random_eor_baseline(
                 d, 0.1, np.random.default_rng(5))}[baseline]()
        check_os_run(monkeypatch, d, B, loss, 6, BestResponseLearner(space))
        # k = 5 and 6, votes for labels 1..3 only: the other wrong labels
        # keep tied counts, and the voted ones tie and part round by round
        rng = np.random.default_rng(21)
        for k in (5, 6):
            d = indexed_dataset([i % k + 1 for i in range(m)], k)
            B = {"uniform": lambda: pot.uniform_baseline(d, 0.1),
                 "window": lambda: window_eor_baseline(d, m, gp, k),
                 "random": lambda: random_eor_baseline(d, 0.1, rng)
                 }[baseline]()
            votes = iter(rng.integers(1, 4, (6, m)))
            run = check_os_run(monkeypatch, d, B, loss, 6,
                               lambda dataset, C: TableClassifier(next(votes)))
            wrong = np.sort(run.f[~np.eye(k, dtype=bool)[d.labels - 1]]
                            .reshape(m, k - 1), axis=1)
            assert (np.diff(wrong, axis=1) == 0).any()
            assert (np.diff(wrong, axis=1) > 0).any()

    @pytest.mark.parametrize("loss", [ZO, pot.LossSpec(pot.EXP, 0.2)],
                             ids=["zeroone", "exp"])
    def test_one_row_run(self, monkeypatch, loss):
        d = indexed_dataset([2], 3)
        B = pot.uniform_baseline(d, 0.2)
        run = check_os_run(monkeypatch, d, B, loss, 4,
                           FullSpaceBestResponse())
        assert training_error(run.f, d) == 0.0

    def test_zero_rounds_trivial_error(self):
        d = indexed_dataset([1, 2, 3], 3)
        B = pot.uniform_baseline(d, 0.0)
        run = bst.os_boost_fixed(d, B, ZO, 0, FullSpaceBestResponse())
        assert training_error(run.f, d) == 1.0

    def test_zeroone_window_run(self):
        m, gp = 11, 0.15
        d, space, _ = hz.window_fixture(m, gp)
        B = window_eor_baseline(d, m, gp)
        run = bst.os_boost_fixed(d, B, ZO, 10, BestResponseLearner(space))
        assert run.extra["condition_satisfied"]
        assert training_error(run.f, d) <= \
            run.extra["initial_potential"] + 1e-9
        avgs = [run.extra["initial_potential"]] + \
            [r.extra["avg_potential"] for r in run.rounds]
        assert all(b <= a + 1e-9 for a, b in zip(avgs, avgs[1:]))

    def test_full_space_k6_bound(self):
        d = indexed_dataset([(i % 6) + 1 for i in range(12)], 6)
        B = pot.uniform_baseline(d, 0.0)
        run = bst.os_boost_fixed(d, B, ZO, 10, FullSpaceBestResponse())
        assert run.extra["initial_potential"] == pytest.approx(
            0.8848833106297312, abs=1e-10)
        assert training_error(run.f, d) <= \
            run.extra["initial_potential"] + 1e-9

    def test_exp_loss_exponential_bound(self):
        gamma = 0.3
        eta = math.log(1 + gamma)
        m, k, T = 9, 3, 12
        d = indexed_dataset([(i % k) + 1 for i in range(m)], k)
        B = pot.uniform_baseline(d, gamma)
        run = bst.os_boost_fixed(d, B, pot.LossSpec(pot.EXP, eta), T,
                                 FullSpaceBestResponse())
        assert run.extra["condition_satisfied"]
        err = training_error(run.f, d)
        assert err <= (k - 1) * math.exp(-T * gamma ** 2 / 2) + 1e-9

    def test_violating_learner_recorded_not_asserted(self):
        d = indexed_dataset([1, 2], 2)
        B = pot.uniform_baseline(d, 0.5)

        def worst(dataset, C):
            return TableClassifier(np.argmax(C, axis=1) + 1)

        run = bst.os_boost_fixed(d, B, ZO, 3, worst)
        assert not run.extra["condition_satisfied"]

    # the booster used to read a kind tag, not the rows: rows [2, -1] ran
    # with initial potential NaN, and [0.3, 0.3] ran as well
    @pytest.mark.parametrize("rows, why", [
        ([[2.0, -1.0], [0.5, 0.5]], "row 0 is not a probability vector"),
        ([[0.3, 0.3], [0.3, 0.3]], "row 0 is not a probability vector"),
        ([[0.3, 0.7], [0.5, 0.5]], "row 0 violates"),
        ([[0.6, 0.4], [np.nan, 0.5]], "row 1 is not a probability vector"),
        ([[0.6, 0.4], [0.7, 0.3]], "row 1 violates")])
    def test_rows_outside_eor_rejected(self, rows, why):
        d = indexed_dataset([1, 1], 2)
        with pytest.raises(ValueError, match=f"^{why}"):
            bst.os_boost_fixed(d, Baseline(np.array(rows)), ZO, 2,
                               FullSpaceBestResponse())

    @pytest.mark.parametrize("name", ["M1", "MH", "MR"])
    def test_other_condition_baselines_rejected(self, name):
        d = indexed_dataset([1, 2, 3], 3)
        B = cnd.make_condition(name, 0.1, d).baseline
        with pytest.raises(ValueError, match="^row 0 is not a probability"):
            bst.os_boost_fixed(d, B, ZO, 2, FullSpaceBestResponse())

    def test_rows_decide_not_the_condition(self):
        # for k = 2 the MH baseline is U_gamma up to rounding: it runs
        d = indexed_dataset([1, 2, 2], 2)
        mh = cnd.make_condition("MH", 0.2, d).baseline
        u = pot.uniform_baseline(d, 0.2)
        assert np.allclose(mh.entries, u.entries, rtol=0, atol=1e-15)
        runs = [bst.os_boost_fixed(d, B, ZO, 3, FullSpaceBestResponse())
                for B in (mh, u)]
        assert np.array_equal(runs[0].f, runs[1].f)
        assert runs[0].extra["initial_potential"] == pytest.approx(
            runs[1].extra["initial_potential"], rel=0, abs=1e-12)


class TestStateClasses:
    """A row's potentials depend only on its baseline row and its state,
    so the OS booster hands potential_fixed the k child states of one
    row per (baseline row, state) class, and the rows read them back.
    A zero-one run on U_gamma instead builds one table for the run."""

    def batch_sizes(self, monkeypatch, d, B, loss, T, learner):
        """The run, the number of (baseline row, state) pairs each
        potential_fixed call received, and the table builds' T."""
        sizes, builds = [], []

        def recording(b, loss, t, s):
            shape = np.broadcast_shapes(np.shape(b), np.shape(s))
            sizes.append(int(np.prod(shape[:-1])))
            return pot.potential_fixed(b, loss, t, s)

        def recording_table(b1, bw, k, T):
            builds.append(T)
            return pot.zeroone_table(b1, bw, k, T)

        monkeypatch.setattr(bst, "potential_fixed", recording)
        monkeypatch.setattr(bst, "zeroone_table", recording_table)
        return bst.os_boost_fixed(d, B, loss, T, learner), sizes, builds

    @pytest.mark.parametrize("loss", [ZO, pot.LossSpec(pot.EXP, 0.2)],
                             ids=["zeroone", "exp"])
    @pytest.mark.parametrize("baseline", ["uniform", "random"])
    def test_one_batch_row_per_class(self, monkeypatch, baseline, loss):
        rng = np.random.default_rng(6)
        m, k, T = 60, 3, 8
        d = Dataset((rng.integers(0, 4, m),), rng.integers(1, k + 1, m), k)
        B = (pot.uniform_baseline(d, 0.1) if baseline == "uniform"
             else random_eor_baseline(d, 0.1, rng))
        run, sizes, builds = self.batch_sizes(monkeypatch, d, B, loss, T,
                                              TreeLearner(3))
        if baseline == "uniform" and loss.kind == pot.ZERO_ONE:
            assert sizes == [] and builds == [T]
            return
        assert builds == []
        s = np.zeros((m, k), dtype=int)
        classes = []
        for t in range(T + 1):
            classes.append(len({per_row_key(B, d, t, i, s[i])[1:]
                                for i in range(m)}))
            if t < T:
                s[np.arange(m), run.rounds[t].preds - 1] += 1
        # the initial average takes one state per baseline row, then each
        # round the k children of one row per class
        assert sizes == [classes[0]] + [k * n for n in classes[:-1]]
        if baseline == "uniform":
            assert max(classes) < m // 4
        else:
            assert classes == [m] * (T + 1)

    @pytest.mark.parametrize("baseline", ["uniform", "alternating"])
    def test_wide_keys_are_exact(self, monkeypatch, baseline):
        """k = 12 and T = 60: from round 50 on, a class key of eleven
        state columns of up to 61 values passes 2^62 in mixed radix, so
        the packed prefix must be re-ranked on the way. Every int key that
        is ranked stays in [0, 2^62] (a wrapped int64 would rarely show as
        a collision), and every C_t equals the per-row reference."""
        k, T, m = 12, 60, 12
        d = indexed_dataset(np.arange(m) % k + 1, k)
        rng = np.random.default_rng(4)
        if baseline == "uniform":
            B = pot.uniform_baseline(d, 0.1)
        else:
            two = np.array([[0.3, 0.2] + [0.05] * 10,
                            [0.2] + [0.1] * 3 + [0.0625] * 8])
            order = np.concatenate((d.labels[:, None] - 1,
                                    wrong_labels(d.labels, k) - 1), axis=1)
            rows = np.empty((m, k))
            rows[np.arange(m)[:, None], order] = two[np.arange(m) % 2]
            B = cnd.eor_baseline(d, rows, 0.1)
        # half the votes go to the lowest wrong label, so the key's
        # leading state column grows to about t / 2
        lowest = wrong_labels(d.labels, k)[:, 0]

        def learner(dataset, C):
            return TableClassifier(np.where(rng.random(m) < 0.5, lowest,
                                            rng.integers(1, k + 1, m)))

        ranked = []
        unique = np.unique

        def recording(a, *args, **kwargs):
            if np.asarray(a).dtype.kind == "i":
                ranked.append((int(np.min(a)), int(np.max(a))))
            return unique(a, *args, **kwargs)

        monkeypatch.setattr(np, "unique", recording)
        check_os_run(monkeypatch, d, B, pot.LossSpec(pot.EXP, 0.05), T,
                     learner)
        assert ranked
        assert all(0 <= lo and hi <= 2 ** 62 for lo, hi in ranked)


def summed_table(run, d):
    """sum_t alpha_t 1[h_t(x) = l] over the run's rounds."""
    return ScoringFunction(tuple((r.classifier, r.alpha)
                                 for r in run.rounds)).score_table(d)


class TestRunScores:
    """Runs hand back their final training scores and each round's
    training predictions, so no caller predicts the training rows again."""

    @pytest.mark.parametrize("rule", ["APPROX", "EXACT"])
    def test_mm_scores_are_the_summed_table(self, rule):
        rng = random.Random(12)
        cases = [hz.window_fixture(21, 0.2)[:2]] + [
            random_dataset_space(rng, rng.randrange(3, 12),
                                 rng.randrange(2, 5), rng.randrange(2, 7))
            for _ in range(6)]
        for d, space in cases:
            run = bst.adaboost_mm(d, 30, BestResponseLearner(space), rule)
            assert np.array_equal(run.f, summed_table(run, d))
            for r in run.rounds:
                assert np.array_equal(r.preds, r.classifier.predict_all(d))

    @pytest.mark.parametrize("loss", [ZO] + [pot.LossSpec(pot.EXP, eta)
                                             for eta in (0.0, 1e-9, 0.1,
                                                         0.7)],
                             ids=["zeroone", "eta0", "eta1e-9", "eta0.1",
                                  "eta0.7"])
    def test_os_scores_rank_as_the_summed_table(self, loss):
        # alpha * s gives equal counts equal scores, as the summed table
        # does; at eta = 0 both are all ties
        rng = np.random.default_rng(9)
        for learner in (TreeLearner(5), FullSpaceBestResponse()):
            for _ in range(4):
                m, k = int(rng.integers(5, 30)), int(rng.integers(2, 5))
                d = Dataset((rng.integers(0, 6, m), rng.normal(size=m)),
                            rng.integers(1, k + 1, m), k)
                B = pot.uniform_baseline(d, 0.1)
                run = bst.os_boost_fixed(d, B, loss, 6, learner)
                summed = summed_table(run, d)
                assert training_error(run.f, d) == training_error(summed, d)
                assert np.array_equal(plurality_predict(run.f),
                                      plurality_predict(summed))
                for r in run.rounds:
                    assert np.array_equal(r.preds,
                                          r.classifier.predict_all(d))

    def test_binary_scores_are_f_tilde(self):
        rng = random.Random(8)
        for _ in range(6):
            d, space = random_dataset_space(rng, rng.randrange(2, 10),
                                            rng.randrange(2, 5),
                                            rng.randrange(2, 7))
            (i, y, l), V = bst.transform_mislabel(d, space)
            run = bst.adaboost_binary(V, 20)
            ft = np.zeros(V.shape[1])
            for r in run.rounds:
                ft = ft + r.alpha * V[r.classifier]
            assert np.array_equal(run.f, ft)
            mm = bst.adaboost_mm(d, 20, BestResponseLearner(space), "APPROX")
            assert np.allclose(run.f, mm.f[i, l - 1] - mm.f[i, y - 1],
                               rtol=0.0, atol=1e-8)
