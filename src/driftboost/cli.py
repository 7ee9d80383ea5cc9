"""Command-line interface.

Subcommands: train, eval, potentials, degree-map, equivalence-check,
fixtures. Output directory defaults to $DRIFTBOOST_OUT or the cwd.
"""

import argparse
import os
import sys

from . import harness


def _add_common(p):
    """The edge and loss options, and the output directory."""
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--loss", choices=("zeroone", "exp"), default="zeroone")
    p.add_argument("--out", default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="driftboost")
    sub = ap.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="boost on a CSV dataset")
    tr.add_argument("data")
    tr.add_argument("--label", default=None, help="label column (default: last)")
    tr.add_argument("--split", type=float, default=0.8)
    tr.add_argument("--algo", choices=("mm-approx", "mm-exact", "os"),
                    default="mm-approx")
    tr.add_argument("--rounds", type=int, default=10)
    tr.add_argument("--learner", choices=("greedy", "stump"),
                    default="greedy")
    tr.add_argument("--tree-size", type=int, default=None,
                    help="greedy tree node cap (default 5)")
    _add_common(tr)
    tr.add_argument("--seed", type=int, default=0)

    ev = sub.add_parser("eval", help="evaluate a saved model on a CSV")
    ev.add_argument("model")
    ev.add_argument("data")
    ev.add_argument("--label", default=None)

    po = sub.add_parser("potentials", help="emit a potential table")
    po.add_argument("--k", type=int, default=6)
    po.add_argument("--rounds", type=int, default=10)
    po.add_argument("--minimal", action="store_true")
    _add_common(po)

    dm = sub.add_parser("degree-map", help="emit a k=3 degree map")
    dm.add_argument("--rounds", type=int, default=10)
    _add_common(dm)

    eq = sub.add_parser("equivalence-check",
                        help="AdaBoost.MM vs binary AdaBoost on the transform")
    eq.add_argument("--trials", type=int, default=20)
    eq.add_argument("--rounds", type=int, default=20)
    eq.add_argument("--seed", type=int, default=0)

    fx = sub.add_parser("fixtures", help="write counterexample fixtures")
    fx.add_argument("--out", default=None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None) or os.environ.get("DRIFTBOOST_OUT", ".")
    try:
        loss = harness._loss_from_cfg(vars(args))
        if args.command == "train":
            cfg = {"data": args.data, "label": args.label,
                   "split": args.split, "algo": args.algo,
                   "rounds": args.rounds, "gamma": args.gamma,
                   "eta": args.eta, "loss": args.loss,
                   "learner": args.learner, "seed": args.seed, "out": out}
            if args.learner == "greedy" and args.tree_size is None:
                args.tree_size = 5
            if args.tree_size is not None:
                cfg["tree_size"] = args.tree_size
            metrics = harness.run_experiment(cfg)
            for key in sorted(metrics):
                print(f"{key}\t{metrics[key]}")
        elif args.command == "eval":
            metrics = harness.eval_model(args.model, args.data, args.label)
            for key in sorted(metrics):
                print(f"{key}\t{metrics[key]}")
        elif args.command == "potentials":
            text = harness.emit_potential_table(args.k, args.gamma,
                                                args.rounds, loss,
                                                args.minimal)
            _write_or_print(out, "potentials.tsv", text)
        elif args.command == "degree-map":
            text = harness.emit_degree_map(args.gamma, loss, args.rounds)
            _write_or_print(out, "degree_map.tsv", text)
        elif args.command == "equivalence-check":
            passed, total, details = harness.equivalence_check(
                args.trials, args.rounds, args.seed)
            for trial, ok, why in details:
                print(f"trial {trial}\t{'ok' if ok else 'FAIL: ' + why}")
            print(f"passed\t{passed}/{total}")
            return 0 if passed == total else 1
        elif args.command == "fixtures":
            for name in harness.write_fixture_files(out):
                print(name)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_or_print(out, name, text):
    if out == "-":
        sys.stdout.write(text)
    else:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)


if __name__ == "__main__":
    sys.exit(main())
