"""Acceptance gate: one test per criterion, each printing a pass line.

Criterion 1 note: the target column's last entry is printed as 0.89 in
the reference table, but the exact T=10 value is 0.88488331..., which
rounds to 0.88 at two decimals. The printed 0.89 is a double-rounding
artifact (0.8849 -> 0.885 -> 0.89), so that entry is pinned to the exact
constant and the two-stage rounding is checked explicitly.

Criterion 5 note: the exact drop factor is (1 - c) + sqrt(c^2 - delta^2)
with c = (A+ + A-)/Z; the identity Z_t = Z - (1 - e^-a)A+ + (e^a - 1)A-
at a = (1/2)ln(A+/A-) gives Z_t/Z = 1 - c + 2 sqrt(A+ A-)/Z, and
2 sqrt(A+ A-)/Z = sqrt(c^2 - delta^2). A minus sign there would go
negative (e.g. A+ = 0.5, A- = 0.2, Z = 1).
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from driftboost import boosters as bst
from driftboost import conditions as cnd
from driftboost import harness as hz
from driftboost import potentials as pot
from driftboost.core import exp_risk, training_error
from driftboost.weaklearners import BestResponseLearner

import oracles

ZO = pot.LossSpec(pot.ZERO_ONE)


def report(n, note=""):
    print(f"criterion {n:02d}: PASS {note}")


def random_eor(rng, k):
    raw = sorted((rng.random() for _ in range(k)), reverse=True)
    total = sum(raw)
    b = [x / total for x in raw]
    wrong = b[1:]
    rng.shuffle(wrong)
    b = (b[0], *wrong)
    return pot.EorDistribution(b, b[0] - max(wrong))


def test_criterion_01_figure_table():
    t0 = time.monotonic()
    text = hz.emit_potential_table(6, 0.0, 10, ZO)
    vals = [float(l.split("\t")[1]) for l in text.splitlines()[2:]]
    want = [1.00, 0.83, 0.97, 0.93, 0.89, 0.89, 0.90, 0.91, 0.90, 0.89]
    for got, w in zip(vals[:10], want):
        assert round(got, 2) == w
    # last entry: exact value plus the two-stage rounding that yields the
    # printed 0.89 (see module docstring)
    assert vals[10] == pytest.approx(0.8848833106297312, abs=1e-12)
    assert round(vals[10], 3) == 0.885
    assert round(round(vals[10], 3) + 1e-12, 2) == 0.89
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"({elapsed:.2f}s)")


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for _ in range(100):
        k = rng.randrange(2, 5)
        t = rng.randrange(0, 7)
        b = random_eor(rng, k)
        s = tuple(rng.randrange(0, 4) for _ in range(k))
        loss = ZO if rng.random() < 0.5 else pot.LossSpec(
            pot.EXP, rng.uniform(0.05, 1.0))
        want = oracles.potential_oracle_bruteforce(b, loss, t, s)
        got = pot.potential_fixed(b, loss, t, s)
        assert got == pytest.approx(want, abs=1e-10)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, f"({elapsed:.2f}s)")


def test_criterion_03_kappa_grid_and_bound():
    k = 6
    gammas = np.linspace(0.01, 0.9, 20)
    etas = np.linspace(0.01, 1.2, 20)
    s = (1, 0, 2, 0, 0, 3)
    for gamma in gammas:
        b = pot.gamma_biased_uniform(k, gamma)
        for eta in etas:
            kap = oracles.kappa(gamma, eta, k)
            for t in (1, 4, 9):
                loss = pot.LossSpec(pot.EXP, eta)
                want = kap ** t * oracles.loss_value(loss, s)
                got = pot.potential_exp_closed(b, eta, t, s)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        kap = oracles.kappa(gamma, math.log(1 + gamma), k)
        for T in (1, 50, 200):
            lhs = (k - 1) * kap ** T
            rhs = (k - 1) * math.exp(-T * gamma ** 2 / 2)
            assert lhs <= rhs + 1e-12
    report(3)


def test_criterion_04_run_equivalence():
    t0 = time.monotonic()
    rng = random.Random(404)
    for _ in range(50):
        m = rng.randrange(2, 21)
        k = rng.randrange(2, 5)
        n = rng.randrange(2, 8)
        d, space = hz.random_dataset_space(rng, m, k, n)
        ok, why = bst.check_run_equivalence(d, space, 50)
        assert ok, why
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, f"({elapsed:.2f}s)")


def test_criterion_05_drop_factor_law():
    rng = random.Random(5)
    for _ in range(10_000):
        z = rng.uniform(0.05, 20.0)
        a_plus = rng.uniform(0, z)
        a_minus = rng.uniform(0, min(a_plus, z - a_plus))
        delta = (a_plus - a_minus) / z
        fac = oracles.drop_factor_exact(a_plus, a_minus, z, delta)
        assert fac <= math.sqrt(1 - delta ** 2) + 1e-9
    # every round of actual booster runs, both update rules
    runs = []
    for m, gp in ((11, 0.1), (21, 0.2)):
        d, space, _ = hz.window_fixture(m, gp)
        for rule in ("APPROX", "EXACT"):
            runs.append((rule, bst.adaboost_mm(
                d, 60, BestResponseLearner(space), rule)))
    rng2 = random.Random(55)
    for _ in range(10):
        d, space = hz.random_dataset_space(rng2, 8, 3, 4)
        for rule in ("APPROX", "EXACT"):
            runs.append((rule, bst.adaboost_mm(
                d, 30, BestResponseLearner(space), rule)))
    n_rounds = 0
    for rule, run in runs:
        for r in run.rounds:
            if r.edge < 0 or r.alpha >= bst.ALPHA_MAX:
                continue
            ratio = r.Z_after / r.Z_prev
            assert ratio <= math.sqrt(1 - min(r.edge, 1.0) ** 2) + 1e-9
            if rule == "EXACT" and r.A_minus > 0:
                want = oracles.drop_factor_exact(r.A_plus, r.A_minus,
                                                 r.Z_prev, r.edge)
                assert ratio == pytest.approx(want, abs=1e-9)
            n_rounds += 1
    assert n_rounds > 50
    report(5, f"({n_rounds} booster rounds checked)")


def test_criterion_06_window_error_decay():
    for m in (11, 21):
        for gp in (0.1, 0.2):
            d, space, _ = hz.window_fixture(m, gp)
            run = bst.adaboost_mm(d, 200, BestResponseLearner(space),
                                  "APPROX")
            f = np.zeros((d.m, d.k))
            prod = 1.0
            for r in run.rounds:
                if r.edge >= 0:
                    prod *= math.sqrt(1 - min(r.edge, 1.0) ** 2)
                preds = r.classifier.predict_all(d)
                f[np.arange(d.m), preds - 1] += r.alpha
                assert training_error(f, d) <= (d.k - 1) * prod + 1e-9
            assert training_error(f, d) == 0.0
    report(6)


def test_criterion_07_samme_dichotomy():
    d, space = hz.figure_one_fixture()
    gamma = (1 - 1 / d.k) * 0.05
    rep = cnd.solve_game(space, cnd.make_condition("SAMME", gamma, d), d)
    assert rep.satisfied and rep.value <= rep.gap + 1e-9
    boost = cnd.is_boostable(space, d)
    assert boost.verdict == "no"
    C = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    B = pot.uniform_baseline(d, 0.1)
    for h in space:  # C.B - C.1_h < 0: every h violates the constraint
        preds = h.predict_all(d)
        assert (C * B.entries).sum() - C[np.arange(d.m), preds - 1].sum() < 0
    report(7)


def test_criterion_08_small_eta_degeneracy():
    k, T, eta, gamma = 3, 10, 0.025, 0.1
    assert eta <= 0.25 * min(1 / (k - 1), 1 / T)
    loss = pot.LossSpec(pot.EXP, eta)
    rows = pot.degree_map(gamma, loss, T)
    assert {a for (_, _, _, a) in rows} == {3}
    b = pot.gamma_biased_uniform(k, gamma)
    reachable = [(T - steps, s) for steps in range(T + 1)
                 for s in itertools.product(range(steps + 1), repeat=k)
                 if sum(s) == steps]
    remaining, states = zip(*reachable)
    vals, degs = pot.minimal_sweep(gamma, loss, remaining, states)
    for (remaining, s), val, deg in zip(reachable, vals, degs):
        assert deg == k
        want = pot.potential_exp_closed(b, eta, remaining, s)
        assert val == pytest.approx(want, abs=1e-10)
    report(8, f"({len(reachable)} reachable states)")


def test_criterion_09_condition_equivalence_games():
    rng = random.Random(909)
    undetermined = 0
    trials = 30
    for _ in range(trials):
        m = rng.randrange(2, 7)
        k = rng.randrange(2, 5)
        n = rng.randrange(2, 7)
        d, space = hz.random_dataset_space(rng, m, k, n)
        a = cnd.solve_game(space, cnd.make_condition("M1", 0.1, d), d)
        b = cnd.solve_game(space, cnd.make_condition("MH", 0.1, d), d)
        if a.gap < 0.01 and b.gap < 0.01:
            assert a.satisfied == b.satisfied
        else:
            undetermined += 1
            continue
        boost = cnd.is_boostable(space, d)
        if boost.verdict == "undetermined":
            undetermined += 1
            continue
        if boost.verdict == "yes" and boost.margin > 1e-6:
            g = cnd.solve_game(
                space, cnd.make_condition("MR", boost.margin / 2, d), d)
            if g.gap < 0.01:
                assert g.satisfied
        elif boost.verdict == "no":
            g = cnd.solve_game(space, cnd.make_condition("MR", 0.01, d), d)
            if g.gap < 0.01:
                assert not g.satisfied
    assert undetermined < 0.2 * trials
    report(9, f"({undetermined}/{trials} undetermined)")


def test_criterion_10_risk_convergence_trend():
    for m, gp in ((11, 0.1), (21, 0.2)):
        d, space, _ = hz.window_fixture(m, gp)
        vals = []
        for T in (10, 50, 100, 500):
            run = bst.adaboost_mm(d, T, BestResponseLearner(space), "APPROX")
            vals.append(T * exp_risk(run.f, d))
        # bounded with no growth trend: T * risk may plateau while the
        # risk is O(1/T), but it must not scale with T and the largest
        # horizon must sit at or below the smallest
        assert max(vals) <= 5.0 * max(vals[0], 1.0)
        assert vals[-1] <= vals[0] + 1e-9
    report(10)


def test_smoke_train_monotone_in_tree_cap(tmp_path):
    rng = random.Random(7)
    data = tmp_path / "smoke.csv"
    with open(data, "w") as fh:
        fh.write("x1,x2,color,label\n")
        for _ in range(120):
            x1 = rng.gauss(0, 1)
            x2 = rng.gauss(0, 1)
            color = rng.choice("rgb")
            y = 1 if x1 + x2 > 0.3 else (2 if x1 - x2 > 0 else 3)
            if rng.random() < 0.05:
                y = rng.randrange(1, 4)
            fh.write(f"{x1:.6f},{x2:.6f},{color},{y}\n")
    errs = []
    for cap in (5, 10, 50):
        out = tmp_path / f"cap{cap}"
        metrics = hz.run_experiment({"data": str(data), "out": str(out),
                                     "rounds": 30, "learner": "greedy",
                                     "tree_size": cap, "split": 0.99,
                                     "seed": 0})
        errs.append(metrics["train_error"])
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    print(f"smoke: PASS (errors by cap {errs})")
