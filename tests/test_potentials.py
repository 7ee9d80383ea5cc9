import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftboost import potentials as pot
from driftboost.core import indexed_dataset
from driftboost.potentials import (EXP, ZERO_ONE, EorDistribution, LossSpec,
                                   check_eor_rows, degree_map,
                                   gamma_biased_uniform, minimal_sweep,
                                   potential_exp_closed, potential_fixed,
                                   potential_minimal, potential_zeroone_dp,
                                   zeroone_table)

from oracles import (MinimalRecursion, degree_map_recursion, kappa,
                     loss_value, minimal_vs_fixed_gap,
                     potential_oracle_bruteforce, table_potential)

ZO = LossSpec(ZERO_ONE)


def random_eor(rng, k):
    """Random member of Delta_gamma^k (gamma implied by the draw)."""
    raw = sorted((rng.random() for _ in range(k)), reverse=True)
    total = sum(raw)
    b = [x / total for x in raw]
    wrong = b[1:]
    rng.shuffle(wrong)
    b = (b[0], *wrong)
    return EorDistribution(b, b[0] - max(wrong))


class TestEorDistribution:
    def test_gamma_biased_uniform(self):
        b = gamma_biased_uniform(4, 0.2)
        assert b.b[0] == pytest.approx(0.2 + 0.8 / 4)
        assert sum(b.b) == pytest.approx(1.0)

    def test_violating_vector_rejected(self):
        with pytest.raises(ValueError):
            EorDistribution((0.6, 0.3, 0.1), 0.2)  # 0.6 - 0.2 != 0.3

    def test_non_distribution_rejected(self):
        with pytest.raises(ValueError):
            EorDistribution((0.9, 0.3, -0.2), 0.6)


class TestUniformBaseline:
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3])
    def test_entries(self, gamma):
        # the float expressions of U_gamma, placed by each example's label
        d = indexed_dataset([2, 1, 3, 3], 3)
        base = (1.0 - gamma) / 3
        want = np.full((4, 3), base)
        want[np.arange(4), d.labels - 1] = base + gamma
        assert np.array_equal(pot.uniform_baseline(d, gamma).entries, want)


def in_eor_per_row(row, gamma):
    """Reference membership test of Delta_gamma^k, one row at a time."""
    row = np.asarray(row, dtype=float)
    if row.min() < -1e-12 or abs(row.sum() - 1.0) > 1e-9:
        return False
    return abs((row[0] - gamma) - row[1:].max()) <= 1e-9


class TestEorCheck:
    """check_eor_rows against the per-row reference."""

    def random_rows(self, nrng, k, gamma, n):
        """n members of Delta_gamma^k, true label first: wrong entries
        s * d for a Dirichlet d, b(1) = s * max(d) + gamma, and s chosen
        so the row sums to 1."""
        d = nrng.dirichlet(np.ones(k - 1), size=n)
        s = (1.0 - gamma) / (1.0 + d.max(axis=1, keepdims=True))
        return np.concatenate((s * d.max(axis=1, keepdims=True) + gamma,
                               s * d), axis=1)

    def broken(self, nrng, row):
        kind = nrng.integers(3)
        row = row.copy()
        if kind == 0:      # the equality breaks, still a distribution
            row[0] -= 1e-3
            row[1] += 1e-3
        elif kind == 1:    # a negative entry
            row[-1] = -1e-3
        else:              # does not sum to 1
            row *= 1.01
        return row

    def test_matches_per_row_reference(self):
        nrng = np.random.default_rng(5)
        for _ in range(200):
            k = int(nrng.integers(2, 7))
            gamma = float(nrng.choice([0.0, nrng.uniform(0.0, 0.3)]))
            rows = self.random_rows(nrng, k, gamma, int(nrng.integers(1, 9)))
            for i in nrng.choice(len(rows), int(nrng.integers(0, 3))):
                rows[i] = self.broken(nrng, rows[i])
            ok = [in_eor_per_row(r, gamma) for r in rows]
            if all(ok):
                check_eor_rows(rows, gamma)
            else:
                with pytest.raises(ValueError,
                                   match=f"^row {ok.index(False)} "):
                    check_eor_rows(rows, gamma)

    def test_passing_rows_are_members(self):
        nrng = np.random.default_rng(6)
        for k in range(2, 7):
            for gamma in (0.0, 0.05, 0.2):
                rows = self.random_rows(nrng, k, gamma, 20)
                assert all(in_eor_per_row(r, gamma) for r in rows)
                check_eor_rows(rows, gamma)

    def test_nan_row_rejected(self):
        # NaN fails every comparison, so "a test fails" let it through
        with pytest.raises(ValueError, match="^row 1 is not a probability"):
            check_eor_rows([[0.6, 0.4], [np.nan, 0.5]], 0.2)

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError, match="need 0 <= gamma < 1"):
            check_eor_rows([[1.0, 0.0]], gamma)
        with pytest.raises(ValueError, match="need 0 <= gamma < 1"):
            potential_minimal(gamma, ZO, 0, (0, 0, 0))


class TestFixedPotential:
    def test_t0_is_loss(self):
        b = gamma_biased_uniform(3, 0.1)
        for s in ((0, 0, 0), (2, 1, 0), (0, 3, 1)):
            assert potential_fixed(b, ZO, 0, s) == loss_value(ZO, s)
            e = LossSpec(EXP, 0.3)
            assert potential_fixed(b, e, 0, s) == pytest.approx(
                loss_value(e, s))

    def test_figure_table_small_rows(self):
        b = gamma_biased_uniform(6, 0.0)
        z = np.zeros(6)
        assert potential_fixed(b, ZO, 1, z) == pytest.approx(5 / 6)
        assert potential_fixed(b, ZO, 2, z) == pytest.approx(35 / 36)

    def test_dp_rows_round_to_table(self):
        b = gamma_biased_uniform(6, 0.0)
        z = np.zeros(6)
        assert round(potential_zeroone_dp(b, 3, z), 2) == 0.93

    def test_unbeatable_lead_is_zero(self):
        b = gamma_biased_uniform(3, 0.0)
        assert potential_zeroone_dp(b, 2, (5, 0, 1)) == 0.0

    # a state some wrong label led by t or more summed its lost mass, so
    # it could read above 1 (1.0000000000000029 for the first one here)
    def test_lost_state_is_exactly_one(self):
        b = gamma_biased_uniform(4, 0.1)
        assert potential_zeroone_dp(b, 10, (0, 12, 3, 1)) == 1.0
        nrng = np.random.default_rng(3)
        for k in range(3, 7):
            for gamma in (0.0, 0.1, 0.3):
                for t in (1, 7, 20, 40):
                    s = nrng.integers(0, t + 4, (60, k))
                    s[:, 1] = s[:, 0] + t + nrng.integers(0, 4, 60)
                    got = potential_zeroone_dp(
                        gamma_biased_uniform(k, gamma), t, s)
                    assert got.tolist() == [1.0] * 60

    def test_zero_probability_entries_allowed(self):
        b = (0.5, 0.5, 0.0)
        got = potential_zeroone_dp(b, 4, (0, 0, 0))
        ref = potential_oracle_bruteforce(b, ZO, 4, (0, 0, 0))
        assert got == pytest.approx(ref, abs=1e-12)


def log_space_zeroone(b, t, s):
    """1 - Pr[win] for k = 3 as a sum over every multinomial outcome, each
    probability taken from lgamma and logs."""
    x1, x2 = np.meshgrid(np.arange(t + 1), np.arange(t + 1), indexing="ij")
    x3 = t - x1 - x2
    ok = x3 >= 0
    x1, x2, x3 = x1[ok], x2[ok], x3[ok]
    lg = np.vectorize(math.lgamma)
    log = (math.lgamma(t + 1) - lg(x1 + 1.0) - lg(x2 + 1.0) - lg(x3 + 1.0)
           + x1 * math.log(b[0]) + x2 * math.log(b[1]) + x3 * math.log(b[2]))
    lost = (s[0] + x1 <= s[1] + x2) | (s[0] + x1 <= s[2] + x3)
    return float(np.exp(log[lost]).sum())


def table_child(children, t, s, u, l):
    """State and table index after a vote for label l from state s with
    index u at level t: a vote for wrong label l follows column
    1 + (its count of smaller wrong labels)."""
    col = 0 if l == 0 else 1 + int((s[1:] < s[l]).sum())
    c = s.copy()
    c[l] += 1
    return c, int(children[t][u, col])


def table_states(k, T, table):
    """(t, s, u) for every state s reachable in t <= T rounds, one per
    sorted difference vector, u its index at level t of the table."""
    start, children, _ = table
    level = {(0,) * (k - 1): (np.zeros(k, dtype=int), start)}
    for t in range(T + 1):
        yield from ((t, s, u) for s, u in level.values())
        if t == T:
            return
        nxt = {}
        for s, u in level.values():
            for l in range(k):
                c, v = table_child(children, t, s, u, l)
                nxt.setdefault(tuple(sorted(c[1:] - c[0])), (c, v))
        level = nxt


def table_walks(k, T, table, nrng, walks):
    """(s, u) arrays per level t along random T-round walks from state 0,
    each walk voting by its own random label distribution, so that some
    walks end far ahead, some far behind and some undecided."""
    start, children, _ = table
    levels = [([], []) for _ in range(T + 1)]
    for p in nrng.dirichlet(np.full(k, 0.3), walks):
        s, u = np.zeros(k, dtype=int), start
        for t in range(T + 1):
            levels[t][0].append(s)
            levels[t][1].append(u)
            if t < T:
                s, u = table_child(children, t, s, u, nrng.choice(k, p=p))
    return [(np.array(s), np.array(u)) for s, u in levels]


class TestZeroOneTable:
    """zeroone_table's potentials for a shared baseline row against the
    path enumeration, the chain DP and the per-row recursion that
    reproduces its operation order."""

    def table(self, k, gamma, T):
        b = gamma_biased_uniform(k, gamma).b
        return b, zeroone_table(b[0], b[1], k, T)

    @pytest.mark.parametrize("k, T", [(2, 8), (3, 8), (4, 8), (5, 6)])
    def test_matches_path_enumeration(self, k, T):
        b, table = self.table(k, 0.2, T)
        for t, s, u in table_states(k, T, table):
            want = potential_oracle_bruteforce(b, ZO, T - t, s)
            assert table[2][t][u] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_chain_dp(self, k, gamma):
        """The states of 40 random walks through a T = 40 table against
        the chain DP; decided states read exactly 0.0 and 1.0."""
        T = 40
        b, table = self.table(k, gamma, T)
        walks = table_walks(k, T, table, np.random.default_rng(k), 40)
        seen = np.zeros(2, dtype=int)
        for t, (s, u) in enumerate(walks):
            got = table[2][t][u]
            np.testing.assert_allclose(got, potential_zeroone_dp(b, T - t, s),
                                       rtol=0, atol=1e-13)
            top = (s[:, 1:] - s[:, :1]).max(axis=1)
            lost, won = top >= T - t, top < t - T
            assert (got[lost] == 1.0).all() and (got[won] == 0.0).all()
            assert ((got > 0.0) & (got < 1.0))[~lost & ~won].all()
            seen += lost.sum(), won.sum()
        assert seen.min() > 0

    @pytest.mark.parametrize("k, T", [(2, 15), (3, 14), (4, 12), (5, 10)])
    def test_is_the_per_row_recursion(self, k, T):
        b, table = self.table(k, 0.1, T)
        got = [table[2][t][u] for t, s, u in table_states(k, T, table)]
        assert got == [table_potential(b, T - t, s)
                       for t, s, _ in table_states(k, T, table)]

    def test_no_rounds(self):
        start, children, values = zeroone_table(0.6, 0.4, 2, 0)
        assert (start, children) == (1, [])
        assert values[0][start] == 1.0

    def test_wide_codes_are_exact(self, monkeypatch):
        """k = 12, T = 30: eleven sorted differences in [-31, 29] pass
        2^62 in mixed radix, so the packed prefix must be re-ranked on
        the way; every int key that is ranked stays in [0, 2^62]."""
        ranked = []
        unique = np.unique

        def recording(a, *args, **kwargs):
            if np.asarray(a).dtype.kind == "i":
                ranked.append((int(np.min(a, initial=0)),
                               int(np.max(a, initial=0))))
            return unique(a, *args, **kwargs)

        monkeypatch.setattr(np, "unique", recording)
        b, table = self.table(12, 0.1, 30)
        monkeypatch.undo()
        # one final ranking per level, and re-ranks on top
        assert len(ranked) > 31
        assert all(0 <= lo and hi <= 2 ** 62 for lo, hi in ranked)
        walks = table_walks(12, 30, table, np.random.default_rng(12), 10)
        for t, (s, u) in enumerate(walks):
            np.testing.assert_allclose(table[2][t][u],
                                       potential_zeroone_dp(b, 30 - t, s),
                                       rtol=0, atol=1e-13)


class TestLongWalks:
    # the zero-one DP built float factorials and raised OverflowError for
    # every t >= 171
    @pytest.mark.parametrize("s", [(0, 0, 0), (4, 0, 9), (0, 6, 2)])
    def test_t300_matches_log_space_sum(self, s):
        b = gamma_biased_uniform(3, 0.05).b
        got = potential_zeroone_dp(b, 300, s)
        assert math.isfinite(got)
        assert got == pytest.approx(log_space_zeroone(b, 300, s), abs=1e-12)

    def test_k4_t300_is_a_probability(self):
        got = potential_zeroone_dp(gamma_biased_uniform(4, 0.1), 300,
                                   (0, 0, 0, 0))
        assert 0.0 < got < 1.0


class TestBatches:
    """potential_fixed on an (S, k) batch against one call per state."""

    def batch(self, seed, S, k):
        """States with repeated baseline rows and states that differ only
        by a shift, so several share a key (b, s - s_1)."""
        nrng = np.random.default_rng(seed)
        rows = TestEorCheck().random_rows(nrng, k, 0.1, 3)
        b = rows[nrng.integers(0, 3, S)]
        s = nrng.integers(0, 4, (S, k))
        s[S // 2:] = s[:S - S // 2] + nrng.integers(0, 3, (S - S // 2, 1))
        b[S // 2:] = b[:S - S // 2]
        return b, s

    @pytest.mark.parametrize("loss", [ZO, LossSpec(EXP, 0.3)])
    @pytest.mark.parametrize("k, t", [(2, 5), (3, 7), (4, 6), (5, 4)])
    def test_equals_per_row_calls_bit_for_bit(self, loss, k, t):
        b, s = self.batch(k * 10 + t, 24, k)
        got = potential_fixed(b, loss, t, s)
        assert got.shape == (24,)
        assert got.tolist() == [potential_fixed(bi, loss, t, si)
                                for bi, si in zip(b, s)]

    def test_broadcast_rows_keep_the_state_shape(self):
        b, s = self.batch(3, 12, 4)
        states = s.reshape(3, 4, 4)
        got = potential_fixed(b.reshape(3, 4, 4)[:, :1], ZO, 5, states)
        want = [[potential_fixed(b[4 * i], ZO, 5, c) for c in states[i]]
                for i in range(3)]
        assert got.tolist() == want

    @pytest.mark.parametrize("loss, inner", [
        (ZO, "potential_zeroone_dp"),
        (LossSpec(EXP, 0.3), "potential_exp_closed")])
    def test_each_distinct_key_evaluated_once(self, monkeypatch, loss,
                                              inner):
        b, s = self.batch(11, 40, 4)
        seen = []
        evaluate = getattr(pot, inner)

        def recording(rows, *args):
            seen.extend(zip(map(tuple, rows), map(tuple, args[-1])))
            return evaluate(rows, *args)

        monkeypatch.setattr(pot, inner, recording)
        potential_fixed(b, loss, 5, s)
        keys = {(tuple(bi), tuple(si - si[0])) for bi, si in zip(b, s)}
        assert len(keys) < len(s)
        assert len(seen) == len(keys) and set(seen) == keys


def canonical_state(b, s):
    """b_1 and the multiset of wrong-label pairs (b_l, s_l - s_1): all a
    potential reads, since the walk is exchangeable in the wrong labels."""
    return b[0], tuple(sorted(zip(b[1:].tolist(), (s[1:] - s[0]).tolist())))


def count_rows(inner, call):
    """(call(), row counts of the batches that call() hands inner)."""
    seen = []
    evaluate = getattr(pot, inner)

    def recording(rows, *args):
        seen.append(len(rows))
        return evaluate(rows, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pot, inner, recording)
        return call(), seen


class TestCanonicalKeys:
    """potential_fixed keys a state by its canonical form: the batch
    hands the inner potential one row per distinct canonical state, and
    every state gets its own potential."""

    def states(self, seed, k, spread, S=10):
        """S random states on per-row baselines (three random rows of
        Delta_gamma^k and U_gamma), then each again with its wrong labels
        permuted, baseline entries along, and shifted by a constant: a
        second key for the same canonical state."""
        nrng = np.random.default_rng(seed)
        gamma = float(nrng.uniform(0.0, 0.3))
        rows = np.concatenate((
            TestEorCheck().random_rows(nrng, k, gamma, 3),
            [gamma_biased_uniform(k, gamma).b]))
        b = rows[nrng.integers(0, len(rows), S)]
        s = nrng.integers(-spread, spread + 1, (S, k))
        perm = np.concatenate((np.zeros((S, 1), int), 1 + np.argsort(
            nrng.random((S, k - 1)), axis=1)), axis=1)
        b = np.concatenate((b, np.take_along_axis(b, perm, 1)))
        s = np.concatenate((s, np.take_along_axis(s, perm, 1)
                            + nrng.integers(-2, 3, (S, 1))))
        return b, s

    def check(self, loss, t, b, s):
        inner = "potential_exp_closed" if loss.kind == EXP \
            else "potential_zeroone_dp"
        got, seen = count_rows(inner, lambda: potential_fixed(b, loss, t, s))
        want = [potential_exp_closed(bi, loss.eta, t, si) if loss.kind == EXP
                else potential_zeroone_dp(bi, t, si) for bi, si in zip(b, s)]
        assert seen == [len({canonical_state(bi, si)
                             for bi, si in zip(b, s)})]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 7),
           t=st.integers(0, 25), exp=st.booleans())
    def test_property(self, seed, k, t, exp):
        loss = LossSpec(EXP, 0.3) if exp else ZO
        self.check(loss, t, *self.states(seed, k, 3))

    @pytest.mark.parametrize("loss", [ZO, LossSpec(EXP, 0.01)])
    def test_wide_keys_are_re_ranked(self, loss):
        """k = 12 and differences over +-150: eleven pair columns of
        38 baseline codes times about 530 differences pass 2^62 in the
        mixed radix, so the packed prefix is re-ranked on the way (an
        int64 that wrapped instead would rarely show as a collision)."""
        b, s = self.states(12, 12, 150)
        kinds = []
        unique = np.unique

        def recording(a, *args, **kwargs):
            kinds.append(np.asarray(a).dtype.kind)
            return unique(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "unique", recording)
            potential_fixed(b, loss, 3, s)
        # the final dedup and at least one re-rank rank int keys
        assert kinds.count("i") >= 2
        self.check(loss, 3, b, s)


class TestExpClosedForm:
    def test_t0_is_exp_loss(self):
        b = random_eor(random.Random(0), 4)
        e = LossSpec(EXP, 0.2)
        s = (1, 0, 2, 0)
        assert potential_exp_closed(b, 0.2, 0, s) == pytest.approx(
            loss_value(e, s))

    def test_uniform_b_reduces_to_kappa_power(self):
        for gamma in (0.0, 0.15, 0.4):
            for eta in (0.05, 0.3, 1.0):
                b = gamma_biased_uniform(5, gamma)
                kap = kappa(gamma, eta, 5)
                for t in (1, 3, 7):
                    s = (2, 0, 1, 0, 3)
                    want = kap ** t * loss_value(LossSpec(EXP, eta), s)
                    got = potential_exp_closed(b, eta, t, s)
                    assert got == pytest.approx(want, abs=1e-12 * max(1, want))

    def test_eta_zero_counts_wrong_labels(self):
        b = gamma_biased_uniform(4, 0.3)
        assert potential_exp_closed(b, 0.0, 9, (0, 0, 0, 0)) == pytest.approx(3.0)


class TestKappa:
    def test_eta_zero_is_one(self):
        assert kappa(0.37, 0.0, 5) == pytest.approx(1.0)

    def test_gamma_zero_form(self):
        eta, k = 0.4, 6
        want = 1 + (math.exp(eta) + math.exp(-eta) - 2) / k
        assert kappa(0.0, eta, k) == pytest.approx(want)
        assert kappa(0.0, eta, k) >= 1.0

    def test_tuned_eta_beats_hoeffding_style_bound(self):
        for k in (2, 3, 6):
            for gamma in np.linspace(0.02, 0.9, 15):
                kap = kappa(gamma, math.log(1 + gamma), k)
                assert kap <= math.exp(-gamma ** 2 / 2) + 1e-15


class TestBruteForceOracle:
    def test_single_step_zero_one(self):
        b = gamma_biased_uniform(3, 0.0)
        assert potential_oracle_bruteforce(b, ZO, 1, (0, 0, 0)) == \
            pytest.approx(2 / 3)

    def test_matches_closed_form(self):
        b = gamma_biased_uniform(3, 0.0)
        e = LossSpec(EXP, 0.1)
        got = potential_oracle_bruteforce(b, e, 2, (0, 0, 0))
        assert got == pytest.approx(potential_exp_closed(b, 0.1, 2, (0, 0, 0)),
                                    abs=1e-12)

    def test_t0(self):
        b = gamma_biased_uniform(4, 0.2)
        assert potential_oracle_bruteforce(b, ZO, 0, (0, 1, 0, 0)) == 1.0

    def test_cap_enforced(self):
        b = gamma_biased_uniform(3, 0.0)
        with pytest.raises(ValueError):
            potential_oracle_bruteforce(b, ZO, 9, (0, 0, 0))

    @pytest.mark.parametrize("loss", [ZO, LossSpec(EXP, 0.25)])
    def test_oracle_equivalence_sample(self, loss):
        rng = random.Random(42)
        for _ in range(20):
            k = rng.randrange(2, 5)
            t = rng.randrange(0, 7)
            b = random_eor(rng, k)
            s = tuple(rng.randrange(0, 4) for _ in range(k))
            want = potential_oracle_bruteforce(b, loss, t, s)
            got = potential_fixed(b, loss, t, s)
            assert got == pytest.approx(want, abs=1e-10)


class TestProperness:
    @pytest.mark.parametrize("loss", [ZO, LossSpec(EXP, 0.4)])
    def test_monotone_in_state(self, loss):
        rng = random.Random(5)
        for _ in range(25):
            k = rng.randrange(2, 5)
            t = rng.randrange(0, 5)
            b = random_eor(rng, k)
            s = [rng.randrange(0, 4) for _ in range(k)]
            base = potential_fixed(b, loss, t, s)
            up_true = list(s); up_true[0] += 1
            assert potential_fixed(b, loss, t, up_true) <= base + 1e-12
            l = rng.randrange(1, k)
            up_wrong = list(s); up_wrong[l] += 1
            assert potential_fixed(b, loss, t, up_wrong) >= base - 1e-12


class TestMinimalPotential:
    def test_t0(self):
        val, deg = potential_minimal(0.1, ZO, 0, (0, 0, 0))
        assert (val, deg) == (1.0, 3)

    def test_k2_matches_fixed(self):
        gamma = 0.3
        b = (0.5 + gamma / 2, 0.5 - gamma / 2)
        for t in range(5):
            for s in ((0, 0), (1, 3), (2, 0)):
                val, deg = potential_minimal(gamma, ZO, t, s)
                assert deg == 2
                assert val == pytest.approx(
                    potential_zeroone_dp(b, t, s), abs=1e-12)

    def test_small_eta_degenerates_to_uniform(self):
        eta = 0.02  # below (1/4) min(1/(k-1), 1/T) for k=3, T=10
        loss = LossSpec(EXP, eta)
        b = gamma_biased_uniform(3, 0.2)
        for s in ((0, 0, 0), (0, 3, 1), (2, 2, 2), (0, -1, 4)):
            for t in (1, 4, 10):
                val, deg = potential_minimal(0.2, loss, t, s)
                assert deg == 3
                assert val == pytest.approx(
                    potential_exp_closed(b, eta, t, s), abs=1e-10)

    def test_dominates_every_fixed_b(self):
        gamma = 0.1
        rng = random.Random(9)
        for _ in range(15):
            t = rng.randrange(0, 6)
            s = tuple(rng.randrange(0, 3) for _ in range(3))
            val, _ = potential_minimal(gamma, ZO, t, s)
            # gamma-biased uniform on random supports, plus full uniform
            for b in (gamma_biased_uniform(3, gamma),
                      ((1 - gamma) / 2 + gamma, (1 - gamma) / 2, 0.0)):
                assert val >= potential_zeroone_dp(b, t, s) - 1e-12

    def test_degree_range(self):
        rng = random.Random(11)
        for _ in range(20):
            t = rng.randrange(1, 5)
            s = tuple(rng.randrange(0, 3) for _ in range(4))
            _, deg = potential_minimal(0.0, ZO, t, s)
            assert 2 <= deg <= 4


class TestMinimalSweep:
    """The level sweep against the per-state recursion in
    tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("loss", [ZO, LossSpec(EXP, 0.1),
                                      LossSpec(EXP, 0.3)],
                             ids=["zeroone", "eta0.1", "eta0.3"])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_recursion(self, k, gamma, loss):
        rng = random.Random(100 * k + int(10 * gamma))
        queries = [(t, tuple(rng.randint(-3, 3) for _ in range(k)))
                   for t in range(7) for _ in range(8)]
        queries += [(t, (0,) * k) for t in range(7)]
        t, s = zip(*queries)
        values, degrees = minimal_sweep(gamma, loss, t, s)
        table = MinimalRecursion(gamma, loss, k)
        assert (list(zip(values.tolist(), degrees.tolist()))
                == [table.value_degree(*q) for q in queries])

    @pytest.mark.parametrize("loss", [ZO, LossSpec(EXP, 0.025),
                                      LossSpec(EXP, 0.1),
                                      LossSpec(EXP, 0.3)],
                             ids=["zeroone", "eta0.025", "eta0.1", "eta0.3"])
    @pytest.mark.parametrize("T", [0, 1, 5, 10])
    def test_degree_map_matches_recursion(self, T, loss):
        assert degree_map(0.1, loss, T) == degree_map_recursion(0.1, loss, T)

    def test_python_types(self):
        val, deg = potential_minimal(0.1, LossSpec(EXP, 0.1), 3, (0, 1, -1))
        assert type(val) is float and type(deg) is int
        assert {type(x) for row in degree_map(0.0, ZO, 2)
                for x in row} == {int}

    def test_negative_t_rejected(self):
        # the recursion ran away to a RecursionError
        with pytest.raises(ValueError, match="t must be >= 0"):
            potential_minimal(0.1, ZO, -1, (0, 0, 0))

    def test_negative_rounds_rejected(self):
        # the old map was silently empty
        with pytest.raises(ValueError, match="need rounds >= 0"):
            degree_map(0.1, ZO, -1)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="need k >= 2"):
            potential_minimal(0.1, ZO, 3, (0,))

    def test_long_run(self):
        # T deep enough that the recursion hit Python's recursion limit
        val, deg = potential_minimal(0.3, ZO, 1000, (0, 0))
        assert deg == 2
        assert val == pytest.approx(
            potential_zeroone_dp((0.65, 0.35), 1000, (0, 0)), rel=1e-9)


class TestDegreeMap:
    def test_small_eta_all_degree_three(self):
        rows = degree_map(0.0, LossSpec(EXP, 0.025), 6)
        assert {a for (_, _, _, a) in rows} == {3}

    def test_smaller_eta_more_degree_three(self):
        small = degree_map(0.1, LossSpec(EXP, 0.08), 12)
        large = degree_map(0.1, LossSpec(EXP, 0.3), 12)
        n_small = sum(1 for r in small if r[3] == 3)
        n_large = sum(1 for r in large if r[3] == 3)
        assert n_small > n_large

    def test_zero_one_mixed_pattern(self):
        rows = degree_map(0.0, ZO, 5)
        assert {a for (_, _, _, a) in rows} == {2, 3}


class TestMinimalVsFixed:
    def test_minimal_dominates(self):
        for gamma, T, k in ((0.0, 6, 3), (0.2, 6, 3), (0.1, 5, 4)):
            minimal, fixed = minimal_vs_fixed_gap(gamma, T, k)
            assert minimal >= fixed - 1e-12
            assert minimal <= 1.0 + 1e-12 and fixed <= 1.0 + 1e-12

    def test_fixed_value_k6(self):
        # exact value 0.884883... (printed in the source rounded up; see
        # the acceptance test for the boundary discussion)
        _, fixed = minimal_vs_fixed_gap(0.0, 10, 6)
        assert fixed == pytest.approx(0.8848833106297312, abs=1e-12)


class TestStateCap:
    def test_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(pot, "STATE_CAP", 5)
        with pytest.raises(RuntimeError):
            potential_minimal(0.0, ZO, 6, (0, 0, 0))

    def test_cap_bounds_memory_not_rows(self, monkeypatch):
        # a row of k = 12 states holds three times the ints of one of
        # k = 4, so under one cap the k = 12 sweep stops at fewer rows
        monkeypatch.setattr(pot, "STATE_CAP", 3000)
        checked = {4: [], 12: []}
        over = pot._over_cap
        monkeypatch.setattr(pot, "_over_cap",
                            lambda rows, k: checked[k].append(rows)
                            or over(rows, k))
        for k in checked:
            with pytest.raises(RuntimeError):
                for t in range(1, 60):
                    potential_minimal(0.0, ZO, t, (0,) * k)
        stop = checked[12][-1]
        assert over(stop, 12) and not over(stop, 4)
        assert any(not over(rows, 4) and rows >= stop for rows in checked[4])
        for k in (2, 3, 4):  # no limit at k <= 4 rises
            assert over(3001, k) and not over(3000, k)
