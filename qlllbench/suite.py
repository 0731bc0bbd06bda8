#!/usr/bin/env python3
"""Run the qlll benchmark as a set of fresh processes, and compare two sets.

    python3 qlllbench/suite.py run --runs 10 --out .bench_work/set-a.json
    python3 qlllbench/suite.py run --runs 3 --trace 1 --out .bench_work/traced.json
    python3 qlllbench/suite.py compare .bench_work/set-a.json .bench_work/set-b.json

`run` starts run.py once per workload and seed (seeds first-seed,
first-seed+1, ...), each in its own process with one BLAS thread, and prints
for every metric its median and quartiles per workload with the attempted
and failed operation counts.  Without --trace it also checks each end-to-end
metric's spread (quartile distance over median) against its bound in
BENCHMARK.json, setup_s excepted.  `compare` checks that the second set's
median of every end-to-end metric is not worse than the first's by more than
its bound, and that the share of failed operations is the same.  Both exit 1
when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def one_run(workload, seed, seconds, trace):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    environment = json.loads(lines[0])["environment"] if lines else None
    raw = next((json.loads(line) for line in lines
                if line.startswith('{"raw_metrics"')), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}\n")
    return {"seed": seed, "exit": proc.returncode, "result": result,
            "raw": raw, "environment": environment}


def summarize(runs_by_workload, trace):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload, runs in runs_by_workload.items():
        results = [r["result"] for r in runs if r["result"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        bad = sum(1 for r in runs if r["exit"] != 0 or not r["result"]
                  or not r["result"]["correct"])
        ok &= bad == 0
        print(f"\n{workload}: {len(runs)} runs, {bad} failed runs, "
              f"{attempted} operations attempted, {failed} failed")
        print(f"  {'metric':<58} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        raws = [r["raw"] for r in runs if r.get("raw")]
        names = list(results[0]["metrics"]) if results else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name) if not trace else None
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s <= bound else "WIDE"
                ok &= s <= bound
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name + ' [' + unit + ']':<58} {q1:>12.6g} {med:>12.6g} "
                  f"{q3:>12.6g} {s:>8.3f} {'' if bound is None else bound:>6} {flag}")
            if raws:
                values = [r["raw_metrics"][name]["value"] for r in raws]
                q1, med, q3 = quartiles(values)
                print(f"  {'  unscaled':<58} {q1:>12.6g} {med:>12.6g} "
                      f"{q3:>12.6g} {spread(values):>8.3f}")
        if raws:
            q1, med, q3 = quartiles([r["host_speed"] for r in raws])
            print(f"  {'host slowdown (reference ms / REFERENCE_MS)':<58} "
                  f"{q1:>12.6g} {med:>12.6g} {q3:>12.6g}")
    return ok


def cmd_run(args):
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    seconds = args.seconds or SPEC["run_seconds"]
    out = {"seconds": seconds, "trace": args.trace, "runs": {}}
    for workload in workloads:
        out["runs"][workload] = [
            one_run(workload, args.first_seed + i, seconds, args.trace)
            for i in range(args.runs)]
    envs = [r["environment"] for runs in out["runs"].values() for r in runs
            if r["environment"]]
    if envs:
        out["environment"] = envs[0]
        print(json.dumps({"environment": envs[0]}))
    ok = summarize(out["runs"], args.trace)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


def cmd_compare(args):
    first = json.loads(Path(args.first).read_text())["runs"]
    second = json.loads(Path(args.second).read_text())["runs"]
    ok = True
    print(f"{'workload':<20} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in first:
        if workload not in second:
            print(f"{workload:<20} missing from the second set")
            ok = False
            continue
        a = [r["result"] for r in first[workload] if r["result"]]
        b = [r["result"] for r in second[workload] if r["result"]]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            good = worse <= metric["bound"]
            ok &= good
            print(f"{workload:<20} {name:<14} {ma:>12.6g} {mb:>12.6g} "
                  f"{worse:>9.3f} {metric['bound']:>6} {'ok' if good else 'WORSE'}")
        share_a = sum(r["failed"] for r in a) / max(1, sum(r["attempted"] for r in a))
        share_b = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        if share_a != share_b:
            print(f"{workload:<20} failed share {share_a} != {share_b}")
            ok = False
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload N times")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per run (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", default=None, help="write the runs as JSON here")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two sets of runs")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
