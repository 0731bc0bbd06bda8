"""Command-line front end: instance generation, seeded batch experiments with
JSON-lines output, and the verifier suite.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage/input error
(a file that cannot be read or written included), 141 (128 + SIGPIPE, as
the shell reports a process the closed pipe killed) when the reader closes
stdout early.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import instances, solver, verifiers
from .errors import QlllError
from .solver import SolverConfig


def _print_derived(instance):
    p = instance.params
    check = instances.check_qlll_condition(p)
    line = {"k": p.k, "r": p.r, "g": p.g, "m": p.m,
            "commuting": instance.commuting,
            "qlll_satisfied": check.satisfied, "qlll_margin": check.margin}
    print(json.dumps(line))
    return check


def cmd_gen(args) -> int:
    if args.rotate:
        instance = instances.load_instance(args.rotate)
        instance = instances.rotate_instance(instance, seed=args.seed)
    else:
        # refuse up front when the requested neighborhood cap already breaks
        # the condition, before any layout work
        cap_check = instances.check_qlll_condition(
            instances.InstanceParams(k=args.k, r=1, g=args.g, m=args.m))
        if args.m and not cap_check.satisfied and args.threshold is None:
            print(f"ConditionViolated: requested g={args.g} is not below "
                  f"2^k/(r e) for k={args.k} (margin {cap_check.margin:.4f}); "
                  "pass --threshold to generate anyway", file=sys.stderr)
            return 2
        instance = instances.generate_classical_instance(
            args.n, args.k, args.m, args.g, args.seed)
    check = _print_derived(instance)
    # a clause-free instance has nothing to violate, whatever its derived
    # k = g = 1 give
    if instance.m and not check.satisfied and args.threshold is None:
        print(f"ConditionViolated: g={instance.params.g} is not below "
              f"2^k/(r e) (margin {check.margin:.4f}); pass --threshold to "
              "generate anyway", file=sys.stderr)
        return 2
    if check.satisfied:
        derived = solver.derive_params(instance, SolverConfig(delta=args.delta))
        print(json.dumps({"delta": args.delta, "eta": derived.eta,
                          "T": derived.threshold_T}))
    instances.save_instance(instance, args.output)
    print(f"wrote {args.output}")
    return 0


def _trial_worker(instance, config, base_seed, no_timing, trial):
    seed = solver.derive_trial_seed(base_seed, trial)
    record = solver.run(instance, dataclasses.replace(config, seed=seed))
    line = solver.record_to_dict(record, trial=trial)
    if no_timing:
        line["elapsed_ns"] = 0
    return line


def cmd_run(args) -> int:
    instance = instances.load_instance(args.instance)
    config = SolverConfig(delta=args.delta, traversal=args.traversal,
                          threshold_override=args.threshold,
                          backend=args.backend)
    derived = solver.derive_params(instance, config)
    # the batch is bound once: a pool pickles it once per chunk of trials
    run_trial = functools.partial(_trial_worker, instance, config, args.seed,
                                  args.no_timing)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            lines = list(pool.map(run_trial, range(args.trials), chunksize=16))
    else:
        lines = [run_trial(trial) for trial in range(args.trials)]

    with open(args.output, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")

    successes = [ln for ln in lines if ln["result"] == "Success"]
    report = verifiers.check_failure_bound(
        lines, instance.params, args.delta, derived.threshold_T,
        min_trials=min(args.trials, 100))
    summary = {
        "trials": args.trials,
        "success_rate": len(successes) / args.trials,
        "t_histogram": report["t_histogram"],
        "mean_fix_calls": sum(ln["fix_calls"] for ln in lines) / args.trials,
        "max_fix_calls": max(ln["fix_calls"] for ln in lines),
        "T": derived.threshold_T,
        "analytic_bound": report["analytic_bound"],
        "delta": args.delta,
        "band": report["band"],
        "pass": report["empirical_within_band"]
                and (args.threshold is not None or report["bound_below_delta"]),
    }
    print(json.dumps(summary, sort_keys=True))
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
    if args.hist_csv:
        with open(args.hist_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "count"])
            writer.writerows(report["t_histogram"].items())
    return 0 if summary["pass"] else 1


def _random_tree_reports(args, check):
    reports = []
    for i in range(args.random):
        commuting = True if args.commuting else i % 2 == 0
        inst = instances.random_instance(args.n, args.k, args.m,
                                         rank=args.rank,
                                         seed=args.seed + i,
                                         commuting=commuting)
        config = SolverConfig(seed=0,
                              threshold_override=2 if args.T is None else args.T)
        tree = verifiers.enumerate_history_tree(inst, config)
        report = check(tree, inst.params)
        report["instance_seed"] = args.seed + i
        report["commuting"] = inst.commuting
        reports.append(report)
    return reports


def cmd_verify(args) -> int:
    if args.check == "binom":
        grid = (range(0, args.m_max + 1), range(args.g_min, args.g_max + 1),
                range(1, args.t_max + 1))
        if not all(grid):
            # an inequality checked over no points would hold vacuously
            print("binom needs a non-empty grid: --m-max >= 0, "
                  "--g-max >= --g-min and --t-max >= 1", file=sys.stderr)
            return 2
        report = verifiers.check_binomial_inequality(*grid)
    elif args.check == "threshold":
        lo, hi = args.m_span
        report = verifiers.check_threshold_inequality(
            args.k, args.g, args.rank, args.delta, range(lo, hi + 1))
    elif args.check in ("entropy", "counts"):
        if args.check == "entropy":
            reports = _random_tree_reports(
                args, lambda tree, _p: verifiers.check_entropy_claim(tree))
        else:
            reports = _random_tree_reports(
                args, verifiers.check_history_count_bound)
        report = {"claim": args.check, "trees": len(reports),
                  "holds": all(r["holds"] for r in reports),
                  "reports": reports}
    elif args.check == "failure-bound":
        if args.instance is None or args.results is None:
            print("failure-bound needs --instance and --results",
                  file=sys.stderr)
            return 2
        instance = instances.load_instance(args.instance)
        with open(args.results) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        config = SolverConfig(delta=args.delta, threshold_override=args.T)
        derived = solver.derive_params(instance, config)
        report = verifiers.check_failure_bound(
            records, instance.params, args.delta, derived.threshold_T)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.check)

    text = json.dumps(report, sort_keys=True, default=str, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text if args.output is None else f"wrote {args.output}")
    return 0 if report["holds"] else 1


def _span(text: str):
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if lo < 2:
        raise argparse.ArgumentTypeError(f"must start at 2 or above, got {text}")
    if hi < lo:
        # an inequality checked over no rows would hold vacuously
        raise argparse.ArgumentTypeError(f"must not be empty, got {text}")
    return (lo, hi)


def _at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _at_least(text, 0)


def open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must lie strictly between 0 and 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlll")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate or rotate an instance file")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--classical", action="store_true",
                        help="random diagonal clause instance")
    source.add_argument("--rotate", metavar="PATH",
                        help="conjugate an existing instance by random local "
                             "unitaries")
    gen.add_argument("-n", type=positive_int, default=20)
    gen.add_argument("-k", type=positive_int, default=3)
    gen.add_argument("-m", type=non_negative_int, default=12,
                     help="clause count")
    gen.add_argument("-g", type=positive_int, default=2,
                     help="neighborhood cap")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--delta", type=open_unit_float, default=0.25)
    gen.add_argument("--threshold", type=positive_int, default=None,
                     help="accept instances that fail the local-lemma condition")
    gen.add_argument("-o", "--output", default="instance.json")
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="seeded trial batch over one instance")
    runp.add_argument("instance")
    runp.add_argument("--delta", type=open_unit_float, default=0.25)
    runp.add_argument("--trials", type=positive_int, default=100)
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--backend", default="diagonal",
                      choices=["diagonal", "trajectory"])
    runp.add_argument("--traversal", default="ascending",
                      choices=["ascending", "random"])
    runp.add_argument("--threshold", type=positive_int, default=None)
    runp.add_argument("--workers", type=positive_int, default=1)
    runp.add_argument("--no-timing", action="store_true",
                      help="zero the elapsed_ns field for byte-stable outputs")
    runp.add_argument("-o", "--output", default="results.jsonl")
    runp.add_argument("--summary", default=None)
    runp.add_argument("--hist-csv", default=None)
    runp.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run one verifier and report JSON")
    ver.add_argument("check", choices=["entropy", "counts", "binom",
                                       "threshold", "failure-bound"])
    ver.add_argument("--n", type=positive_int, default=2)
    ver.add_argument("--k", type=positive_int, default=2)
    ver.add_argument("--m", type=positive_int, default=2)
    ver.add_argument("--g", type=positive_int, default=2)
    ver.add_argument("--r", "--rank", dest="rank", type=positive_int, default=1)
    ver.add_argument("--T", type=positive_int, default=None,
                     help="threshold override (entropy/counts default 2; "
                          "failure-bound defaults to the instance's own T)")
    ver.add_argument("--random", type=positive_int, default=100,
                     help="number of random trees for entropy/counts")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--commuting", action="store_true",
                     help="use commuting instances only (default alternates)")
    ver.add_argument("--delta", type=open_unit_float, default=0.5)
    ver.add_argument("--m-span", type=_span, default=(2, 50),
                     help="threshold check range, e.g. 2..50")
    ver.add_argument("--m-max", type=int, default=30)
    ver.add_argument("--g-min", type=positive_int, default=2)
    ver.add_argument("--g-max", type=int, default=6)
    ver.add_argument("--t-max", type=int, default=20)
    ver.add_argument("--results", default=None)
    ver.add_argument("--instance", default=None)
    ver.add_argument("-o", "--output", default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QlllError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): stop quietly, and point
        # stdout at devnull so the interpreter's final flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # a missing or unreadable input, or an unwritable output (a closed
        # stdout, BrokenPipeError, is an OSError too and is handled above)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
