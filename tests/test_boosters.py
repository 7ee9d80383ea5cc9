import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftboost import boosters as bst
from driftboost import conditions as cnd
from driftboost import potentials as pot
from driftboost import weaklearners as wl
from driftboost.core import (Dataset, ScoringFunction, TableClassifier,
                             exp_risk, indexed_dataset, plurality_predict,
                             prediction_matrix, training_error)
from driftboost.harness import random_dataset_space
from driftboost.weaklearners import (BestResponseLearner,
                                     FullSpaceBestResponse, TreeLearner,
                                     best_response)

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
        d, space, _ = cnd.window_fixture(11, 0.1)
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
        d, space, _ = cnd.window_fixture(21, 0.2)
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
        d, space, _ = cnd.window_fixture(11, 0.1)
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
        assert bst.drop_factor_exact(0.4, 0.0, 1.0, 0.4) == pytest.approx(0.6)

    def test_annihilation(self):
        assert bst.drop_factor_exact(1.0, 0.0, 1.0, 1.0) == 0.0

    def test_bound_random_triples(self):
        rng = random.Random(77)
        for _ in range(2000):
            z = rng.uniform(0.1, 10.0)
            a_plus = rng.uniform(0, z)
            # A+ and A- are disjoint parts of Z's mass, so A+ + A- <= Z
            a_minus = rng.uniform(0, min(a_plus, z - a_plus))
            delta = (a_plus - a_minus) / z
            fac = bst.drop_factor_exact(a_plus, a_minus, z, delta)
            assert 0.0 <= fac <= math.sqrt(1 - delta ** 2) + 1e-12

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            bst.drop_factor_exact(0.2, 0.5, 1.0, -0.3)  # A- > A+
        with pytest.raises(ValueError):
            bst.drop_factor_exact(2.0, 0.5, 1.0, 1.5)  # A+ > Z
        with pytest.raises(ValueError):
            bst.drop_factor_exact(0.5, 0.2, 1.0, 0.0)  # inconsistent delta


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


def per_row_potential(B, d, loss, t, i, state):
    t, b, s = per_row_key(B, d, t, i, state)
    return pot.potential_fixed(np.array(b), loss, t, np.array(s))


def check_os_run(monkeypatch, d, B, loss, T, learner):
    """Run the OS booster with each C_t the learner receives and each
    potential_fixed call recorded; compare them with per-row references."""
    received, calls = [], []

    def recording_learner(dataset, C):
        received.append(C.copy())
        return learner(dataset, C)

    def recording_potential(b, loss, t, s):
        calls.append(t)
        return pot.potential_fixed(b, loss, t, s)

    monkeypatch.setattr(bst, "potential_fixed", recording_potential)
    run = bst.os_boost_fixed(d, B, loss, T, recording_learner)
    m, k = d.m, d.k
    s = np.zeros((m, k), dtype=int)
    assert run.extra["initial_potential"] == sum(
        per_row_potential(B, d, loss, T, i, s[i]) for i in range(m)) / m
    assert len(received) == len(run.rounds) == T
    for t, (C, r) in enumerate(zip(received, run.rounds)):
        rem = T - t - 1
        children = [[s[i] + np.eye(k, dtype=int)[l] for l in range(k)]
                    for i in range(m)]
        want = [[per_row_potential(B, d, loss, rem, i, c)
                 for c in children[i]] for i in range(m)]
        assert C.tolist() == want
        s[np.arange(m), r.classifier.predict_all(d) - 1] += 1
        assert r.extra["avg_potential"] == sum(
            per_row_potential(B, d, loss, rem, i, s[i]) for i in range(m)) / m
    # one batch for the initial average, then one per round
    assert calls == list(range(T, -1, -1))
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


class TestOsBooster:
    @pytest.mark.parametrize("loss", [ZO, pot.LossSpec(pot.EXP, 0.2)],
                             ids=["zeroone", "exp"])
    @pytest.mark.parametrize("baseline", ["uniform", "window", "random"])
    def test_cost_matrices_match_per_row_potentials(self, monkeypatch,
                                                    baseline, loss):
        m, gp = 11, 0.15
        d, space, _ = cnd.window_fixture(m, gp)
        B = {"uniform": lambda: cnd.uniform_baseline(d, 0.1),
             "window": lambda: window_eor_baseline(d, m, gp),
             "random": lambda: random_eor_baseline(
                 d, 0.1, np.random.default_rng(5))}[baseline]()
        check_os_run(monkeypatch, d, B, loss, 6, BestResponseLearner(space))

    @pytest.mark.parametrize("loss", [ZO, pot.LossSpec(pot.EXP, 0.2)],
                             ids=["zeroone", "exp"])
    def test_one_row_run(self, monkeypatch, loss):
        d = indexed_dataset([2], 3)
        B = cnd.uniform_baseline(d, 0.2)
        run = check_os_run(monkeypatch, d, B, loss, 4,
                           FullSpaceBestResponse())
        assert training_error(run.f, d) == 0.0

    def test_zero_rounds_trivial_error(self):
        d = indexed_dataset([1, 2, 3], 3)
        B = cnd.uniform_baseline(d, 0.0)
        run = bst.os_boost_fixed(d, B, ZO, 0, FullSpaceBestResponse())
        assert training_error(run.f, d) == 1.0

    def test_zeroone_window_run(self):
        m, gp = 11, 0.15
        d, space, _ = cnd.window_fixture(m, gp)
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
        B = cnd.uniform_baseline(d, 0.0)
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
        B = cnd.uniform_baseline(d, gamma)
        run = bst.os_boost_fixed(d, B, pot.LossSpec(pot.EXP, eta), T,
                                 FullSpaceBestResponse())
        assert run.extra["condition_satisfied"]
        err = training_error(run.f, d)
        assert err <= (k - 1) * math.exp(-T * gamma ** 2 / 2) + 1e-9

    def test_violating_learner_recorded_not_asserted(self):
        d = indexed_dataset([1, 2], 2)
        B = cnd.uniform_baseline(d, 0.5)

        def worst(dataset, C):
            return TableClassifier(np.argmax(C, axis=1) + 1)

        run = bst.os_boost_fixed(d, B, ZO, 3, worst)
        assert not run.extra["condition_satisfied"]


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
        cases = [cnd.window_fixture(21, 0.2)[:2]] + [
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
                B = cnd.uniform_baseline(d, 0.1)
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
