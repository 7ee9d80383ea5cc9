"""The program's layers as the traced run sees them: which public
functions get a span, under which name, and which counters are read
from their arguments and results.

A function imported by name into other modules is replaced in every
module of the package that binds it, so calls between layers are seen
wherever they are made. The span name's prefix before the first dot is
the layer that a span's self time is charged to.
"""

import driftboost
from driftboost import (boosters, conditions, core, harness, potentials,
                        weaklearners)

PACKAGE = (driftboost, core, potentials, conditions, boosters, weaklearners,
           harness)

LAYERS = ("harness", "boosters", "weaklearners", "core", "potentials",
          "conditions", "highs", "bench")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_nodes(counters, args, kwargs, tree):
    counters["weaklearners.tree_nodes"] += tree.size


def _rows(counters, args, kwargs, predictions):
    counters["core.predict_all_rows"] += len(predictions)


def _phi_lookups(counters, args, kwargs, run):
    # the OS booster looks up m(kT + T + 1) potentials: m for the initial
    # average, then per round m*k for C_t and m for the round average
    dataset = _arg(args, kwargs, 0, "dataset")
    T = _arg(args, kwargs, 3, "T")
    counters["boosters.os_phi_lookups"] += dataset.m * (dataset.k * T + T + 1)


def _phi_miss(counters, args, kwargs, value):
    counters["boosters.os_phi_misses"] += 1


def _gap(counters, args, kwargs, report):
    key = "conditions.game_gap_max"
    counters[key] = max(counters[key], report.gap)


def _lp(counters, args, kwargs, result):
    a = _arg(args, kwargs, 1, "A_ub")
    counters["conditions.lp_rows"] += a.shape[0]
    counters["conditions.lp_cols"] += a.shape[1]
    counters["conditions.lp_iterations"] += int(getattr(result, "nit", 0))


# (module, function, span name, observer)
FUNCTIONS = (
    (harness, "load_csv", "harness.load_csv", None),
    (harness, "split_dataset", "harness.split_dataset", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "eval_model", "harness.eval_model", None),
    (boosters, "adaboost_mm", "boosters.adaboost_mm", None),
    (boosters, "os_boost_fixed", "boosters.os_boost_fixed", _phi_lookups),
    (boosters, "transform_mislabel", "boosters.transform_mislabel", None),
    (boosters, "adaboost_binary", "boosters.adaboost_binary", None),
    (boosters, "check_run_equivalence", "boosters.check_run_equivalence",
     None),
    (weaklearners, "greedy_tree", "weaklearners.greedy_tree", _tree_nodes),
    (weaklearners, "best_response", "weaklearners.best_response", None),
    (core, "training_error", "core.training_error", None),
    (core, "exp_risk", "core.exp_risk", None),
    (potentials, "potential_fixed", "potentials.potential_fixed", None),
    (potentials, "potential_zeroone_dp", "potentials.potential_zeroone_dp",
     None),
    (potentials, "potential_minimal", "potentials.potential_minimal", None),
    (potentials, "degree_map", "potentials.degree_map", None),
    (conditions, "solve_game", "conditions.solve_game", _gap),
    (conditions, "is_boostable", "conditions.is_boostable", _gap),
)

# bindings that get their own wrapper: potential_fixed as called by the
# OS booster (each call is a miss of its potential cache), and the
# scipy LP solver as called by the condition games
SITES = (
    (boosters, "potential_fixed", "potentials.potential_fixed", _phi_miss),
    (conditions, "linprog", "highs.linprog", _lp),
)

# tree classifiers route rows through WeakClassifier.predict_all; table
# classifiers override it with an array lookup, which is left alone
METHODS = (
    (core.WeakClassifier, "predict_all", "core.predict_all", _rows),
    (core.ScoringFunction, "score_table", "core.score_table", None),
)


def install(tracer):
    """Wrap every target; returns the list of (owner, attr, original)
    that uninstall() puts back."""
    restore = []

    def put(owner, attr, wrapper):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for owner, attr, name, observe in SITES:
        put(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))
    for module, attr, name, observe in FUNCTIONS:
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, observe)
        for mod in PACKAGE:
            if mod.__dict__.get(attr) is original:
                put(mod, attr, wrapper)
    for cls, attr, name, observe in METHODS:
        put(cls, attr, tracer.wrap(cls.__dict__[attr], name, observe))
    return restore


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def layer_of(span_name):
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else "bench"
