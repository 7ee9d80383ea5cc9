"""The benchmark's workloads: seeded inputs, the timed calls into the
program, the output checks and the known-defect probes.

Each workload turns a key (see `op_key`) into inputs with `prepare`
(untimed), runs the program on them in `run` (timed, one span per user
stage), then `check`s every call's output (untimed). A call whose output
is wrong, or that raises, counts as one failed operation.
"""

import hashlib
import json
import os
import statistics

import numpy as np

from driftboost import boosters, conditions, core, harness, potentials
from driftboost.potentials import EXP, ZERO_ONE, LossSpec

import gen
import oracle

# keys (p, 0) with p < REFERENCE_INPUTS have committed reference outputs;
# every run starts with one of them
REFERENCE_INPUTS = 4
TOL = 1e-9          # exact arithmetic paths, compared to the reference
LP_TOL = 1e-6       # LP results: HiGHS feasibility tolerance


def op_key(seed, j):
    """Input key of a run's j-th operation: a reference input first,
    then fresh inputs drawn from the workload seed."""
    return (seed % REFERENCE_INPUTS, 0) if j == 0 else (seed, j)


class Tally:
    """Checked program calls: how many were attempted, which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def compare(expected, actual, tol, path=""):
    """Differences between two JSON-like values, floats within tol."""
    if isinstance(expected, dict):
        out = []
        for key in expected:
            out += compare(expected[key], actual.get(key), tol,
                           f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, tol, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        ok = oracle.close(expected, actual, tol)
    else:
        ok = expected == actual
    return [] if ok else [f"{path}: {actual!r} != {expected!r}"]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------ train-*

class TrainWorkload:
    """`run_experiment` then `eval_model` on the same CSV, as the README
    documents; both run with the op directory as working directory, so
    the paths recorded in run.tsv do not depend on where it lives."""

    calls_per_op = 2
    stages = ("stage.train", "stage.eval")

    def __init__(self, name, write_csv, m, numeric_columns, cfg,
                 reversed_probe):
        self.name = name
        self.write_csv = write_csv
        self.m = m
        self.numeric_columns = numeric_columns
        self.cfg = cfg
        self.reversed_probe = reversed_probe

    @property
    def tree_size(self):
        return 3 if self.cfg["learner"] == "stump" else self.cfg["tree_size"]

    def prepare(self, workdir, key):
        opdir = os.path.join(workdir, f"{self.name}-{key[0]}-{key[1]}")
        os.makedirs(opdir, exist_ok=True)
        self.write_csv(os.path.join(opdir, "data.csv"), key, self.m)
        return {"key": key, "dir": opdir}

    def run(self, tracer, inp):
        cfg = dict(self.cfg, data="data.csv", out="out",
                   seed=inp["key"][0] * 1000 + inp["key"][1])
        cwd = os.getcwd()
        os.chdir(inp["dir"])
        try:
            with tracer.span("stage.train"):
                metrics = harness.run_experiment(cfg)
            with tracer.span("stage.eval"):
                evaluation = harness.eval_model("out/model.json", "data.csv")
        finally:
            os.chdir(cwd)
        return {"metrics": metrics, "eval": evaluation}

    def summary(self, inp, obs):
        """The outputs compared against the committed reference."""
        curves = oracle.read_run_tsv(os.path.join(inp["dir"], "out",
                                                  "run.tsv"))
        return {"run_tsv_sha256": sha256(os.path.join(inp["dir"], "out",
                                                      "run.tsv")),
                "model_json_sha256": sha256(os.path.join(inp["dir"], "out",
                                                         "model.json")),
                "train_error": curves["train_error"],
                "test_error": curves["test_error"],
                "metrics": dict(obs["metrics"]), "eval": dict(obs["eval"])}

    def check(self, tally, inp, obs, reference):
        """Returns (artifacts identical to the reference, test error)."""
        out = os.path.join(inp["dir"], "out")
        with open(os.path.join(out, "model.json")) as fh:
            model = json.load(fh)
        curves = oracle.read_run_tsv(os.path.join(out, "run.tsv"))
        rows, labels = oracle.read_csv(os.path.join(inp["dir"], "data.csv"),
                                       self.numeric_columns)
        counts, f, y = oracle.round_errors(model, rows, labels)
        m = len(rows)
        m_train = max(1, min(m - 1, int(round(m * self.cfg["split"]))))
        m_test = m - m_train
        metrics = obs["metrics"]
        alphas = [r["alpha"] for r in model["rounds"]]

        bad = []
        rounds = len(curves["t"])
        if not rounds == len(model["rounds"]) == metrics["rounds_run"]:
            bad.append("round counts disagree")
        # the full data's error count is the train split's plus the test
        # split's, round by round
        for t, (tr, te, n) in enumerate(zip(curves["train_error"],
                                            curves["test_error"], counts)):
            if abs(tr * m_train + te * m_test - n) > 1e-6:
                bad.append(f"round {t + 1}: curve errors != replayed {n}")
                break
        if rounds and (curves["train_error"][-1] != metrics["train_error"]
                       or curves["test_error"][-1] != metrics["test_error"]):
            bad.append("final metrics differ from the last run.tsv row")
        if any(oracle.tree_nodes(r["tree"]) > self.tree_size
               for r in model["rounds"]):
            bad.append("tree above the size cap")
        if self.cfg["algo"] == "os":
            if any(a != 1.0 for a in alphas):
                bad.append("OS zero-one weight is not 1")
        else:
            if not all(0.0 < a <= boosters.ALPHA_MAX for a in alphas):
                bad.append("AdaBoost.MM weight outside (0, alpha_max]")
            z = curves["Z"]
            if any(b > a * (1 + 1e-12) for a, b in zip(z, z[1:])):
                bad.append("Z increased")
        identical = 0
        if reference is not None:
            got = self.summary(inp, obs)
            identical = sum(got[h] == reference[h]
                            for h in ("run_tsv_sha256", "model_json_sha256"))
            for field in ("train_error", "test_error", "metrics"):
                bad += compare(reference[field], got[field], TOL, field)
        tally.record(f"{self.name} {inp['key']} run_experiment", bad)

        bad = []
        ev = obs["eval"]
        if ev["m"] != m:
            bad.append("eval row count")
        if counts and not oracle.close(ev["error"], counts[-1] / m, 1e-12):
            bad.append(f"eval error {ev['error']} != {counts[-1] / m}")
        if not oracle.close(ev["exp_risk"], oracle.exp_risk(f, y), TOL):
            bad.append("eval exp_risk")
        if reference is not None:
            bad += compare(reference["eval"], ev, TOL, "eval")
        tally.record(f"{self.name} {inp['key']} eval_model", bad)
        return identical, metrics["test_error"]

    def probe(self, probes, inp, obs):
        """Known defect: eval_model on the training CSV with its rows
        reversed fails with 'label map mismatch' because labels are
        numbered by first appearance. Passes once it returns the same
        error as the forward file."""
        if not self.reversed_probe:
            return
        gen.reverse_rows(os.path.join(inp["dir"], "data.csv"),
                         os.path.join(inp["dir"], "reversed.csv"))
        cwd = os.getcwd()
        os.chdir(inp["dir"])
        try:
            ev = harness.eval_model("out/model.json", "reversed.csv")
            bad = ([] if oracle.close(ev["error"], obs["eval"]["error"], 1e-12)
                   else ["reversed rows change the error"])
        except ValueError as exc:
            bad = [str(exc)]
        finally:
            os.chdir(cwd)
        probes.record("eval_model on reversed rows", bad)


# ------------------------------------------------------------ certify

GAMES = ("EOR-fixed", "SAMME", "MR")
FAMILY = {"EOR-fixed": "EOR", "SAMME": "SAM", "MR": "MR"}


class CertifyWorkload:
    """LP game certificates, the MM-vs-binary run equivalence and the
    potentials; no CSV and no learner."""

    name = "certify"
    stages = ("stage.game", "stage.equivalence", "stage.potentials")
    game_size = 200          # m = n
    equivalence_size = 300   # m = n
    classes = 5
    game_gamma = 0.1
    equivalence_rounds = 20
    dp_k = 4
    dp_rounds = (50, 100, 150, 170)
    probe_rounds = 200
    minimal_k, minimal_rounds = 6, 14
    degree_eta, degree_rounds = 0.1, 10
    # solve_game per game, is_boostable, the equivalence check, the DP per
    # T, the minimal table and the degree map
    calls_per_op = len(GAMES) + 2 + len(dp_rounds) + 2

    def prepare(self, workdir, key):
        k = self.classes
        labels, preds = gen.finite_space(key + (0,), self.game_size,
                                         self.game_size, k)
        eq_labels, eq_preds = gen.finite_space(key + (1,),
                                               self.equivalence_size,
                                               self.equivalence_size, k)
        return {"key": key, "labels": labels, "preds": preds,
                "dataset": core.indexed_dataset(labels, k),
                "space": [core.TableClassifier(p) for p in preds],
                "eq_dataset": core.indexed_dataset(eq_labels, k),
                "eq_space": [core.TableClassifier(p) for p in eq_preds],
                "gamma": gen.potential_gamma(key)}

    def run(self, tracer, inp):
        ds, space, gamma = inp["dataset"], inp["space"], inp["gamma"]
        obs = {}
        with tracer.span("stage.game"):
            obs["games"] = {
                name: conditions.solve_game(
                    space, conditions.make_condition(name, self.game_gamma,
                                                     ds), ds)
                for name in GAMES}
            obs["boostable"] = conditions.is_boostable(space, ds)
        with tracer.span("stage.equivalence"):
            obs["equivalence"] = boosters.check_run_equivalence(
                inp["eq_dataset"], inp["eq_space"], self.equivalence_rounds)
        with tracer.span("stage.potentials"):
            b = potentials.gamma_biased_uniform(self.dp_k, gamma)
            zero = np.zeros(self.dp_k, dtype=int)
            obs["dp"] = {T: potentials.potential_zeroone_dp(b, T, zero)
                         for T in self.dp_rounds}
            obs["minimal"] = potentials.potential_minimal(
                gamma, LossSpec(ZERO_ONE), self.minimal_rounds,
                np.zeros(self.minimal_k, dtype=int))
            obs["degree_map"] = potentials.degree_map(
                gamma, LossSpec(EXP, self.degree_eta), self.degree_rounds)
        return obs

    def summary(self, inp, obs):
        dmap = "\n".join(" ".join(map(str, r)) for r in obs["degree_map"])
        return {"games": {n: r.value for n, r in obs["games"].items()},
                "boostable": {"verdict": obs["boostable"].verdict,
                              "margin": obs["boostable"].margin},
                "equivalence": list(obs["equivalence"]),
                "dp": {str(T): v for T, v in obs["dp"].items()},
                "minimal": list(obs["minimal"]),
                "degree_map_sha256":
                    hashlib.sha256(dmap.encode()).hexdigest()}

    def check(self, tally, inp, obs, reference):
        key = inp["key"]
        k = self.classes
        y = np.asarray(inp["labels"]) - 1
        ind = oracle.one_hot(inp["preds"], k)
        got = self.summary(inp, obs)

        for name, rep in obs["games"].items():
            bad = []
            B = conditions.make_condition(name, self.game_gamma,
                                          inp["dataset"]).baseline.entries
            lam = rep.mixture
            if lam.min() < -1e-12 or not oracle.close(lam.sum(), 1.0, 1e-9):
                bad.append("mixture is not a distribution")
            upper = oracle.game_upper(FAMILY[name],
                                      np.tensordot(lam, ind, 1) - B, y)
            if not oracle.close(rep.value, upper, TOL):
                bad.append(f"value {rep.value} != recomputed {upper}")
            C = rep.cost_matrix.entries
            lower = float(np.einsum("nmk,mk->n", ind, C).min()
                          - (C * B).sum())
            if rep.gap > LP_TOL or not oracle.close(rep.gap, upper - lower,
                                                    LP_TOL):
                bad.append(f"gap {rep.gap}, recomputed {upper - lower}")
            if reference is not None:
                bad += compare(reference["games"][name], rep.value, LP_TOL,
                               name)
            tally.record(f"certify {key} solve_game {name}", bad)

        rep = obs["boostable"]
        bad = []
        margin = oracle.margin(np.tensordot(rep.mixture, ind, 1), y)
        if not oracle.close(rep.margin, margin, TOL):
            bad.append(f"margin {rep.margin} != recomputed {margin}")
        lower = float(np.einsum("nmk,mk->n", ind,
                                rep.certificate.entries).min())
        expected = ("yes" if margin > 1e-7 else
                    "no" if lower >= -1e-7 else "undetermined")
        if rep.verdict != expected or rep.gap > LP_TOL:
            bad.append(f"verdict {rep.verdict} (expected {expected}), "
                       f"gap {rep.gap}")
        if reference is not None:
            bad += compare(reference["boostable"], got["boostable"], LP_TOL,
                           "boostable")
        tally.record(f"certify {key} is_boostable", bad)

        ok, why = obs["equivalence"]
        tally.record(f"certify {key} check_run_equivalence",
                     [] if ok else [why])

        b = potentials.gamma_biased_uniform(self.dp_k, inp["gamma"]).b
        zero = np.zeros(self.dp_k, dtype=int)
        for T, value in obs["dp"].items():
            bad = []
            exact = oracle.zeroone_potential(b, T, zero)
            if abs(value - exact) > 1e-10:
                bad.append(f"{value} != {exact}")
            if reference is not None:
                bad += compare(reference["dp"][str(T)], value, TOL, "dp")
            tally.record(f"certify {key} potential_zeroone_dp T={T}", bad)

        value, degree = obs["minimal"]
        fixed = oracle.zeroone_potential(
            potentials.gamma_biased_uniform(self.minimal_k, inp["gamma"]).b,
            self.minimal_rounds, np.zeros(self.minimal_k, dtype=int))
        bad = []
        if not fixed - 1e-12 <= value <= 1.0 + 1e-12:
            bad.append(f"minimal {value} outside [fixed {fixed}, 1]")
        if not 2 <= degree <= self.minimal_k:
            bad.append(f"degree {degree}")
        if reference is not None:
            bad += compare(reference["minimal"], got["minimal"], TOL,
                           "minimal")
        tally.record(f"certify {key} potential_minimal", bad)

        T = self.degree_rounds
        rows = obs["degree_map"]
        bad = []
        if len(rows) != T * (2 * T + 1) ** 2:
            bad.append(f"{len(rows)} rows")
        if any(a not in (2, 3) for *_, a in rows):
            bad.append("degree outside 2..3")
        if reference is not None and (reference["degree_map_sha256"]
                                      != got["degree_map_sha256"]):
            bad.append("degree map differs from the reference")
        tally.record(f"certify {key} degree_map", bad)
        return 0, None

    def probe(self, probes, inp, obs):
        """Known defect: the zero-one DP raises OverflowError for t >= 171
        (float factorials). Passes once it returns the exact value."""
        b = potentials.gamma_biased_uniform(self.dp_k, inp["gamma"]).b
        zero = np.zeros(self.dp_k, dtype=int)
        try:
            value = potentials.potential_zeroone_dp(b, self.probe_rounds, zero)
            exact = oracle.zeroone_potential(b, self.probe_rounds, zero)
            bad = ([] if abs(value - exact) <= 1e-10
                   else [f"{value} != {exact}"])
        except OverflowError as exc:
            bad = [f"OverflowError: {exc}"]
        probes.record(f"potential_zeroone_dp T={self.probe_rounds}", bad)


NUMERIC_COLUMNS = tuple(f"x{j}" for j in range(gen.FEATURES))

WORKLOADS = {
    "train-numeric": TrainWorkload(
        "train-numeric", gen.numeric_csv, 500, NUMERIC_COLUMNS,
        {"algo": "mm-approx", "learner": "greedy", "tree_size": 10,
         "rounds": 4, "split": 0.8}, reversed_probe=True),
    "train-os-lowcard": TrainWorkload(
        "train-os-lowcard", gen.lowcard_csv, 2000, NUMERIC_COLUMNS,
        {"algo": "os", "loss": "zeroone", "gamma": 0.1, "learner": "stump",
         "rounds": 20, "split": 0.8}, reversed_probe=False),
    "certify": CertifyWorkload(),
}


def median(values):
    return statistics.median(values) if values else 0.0
