"""Per-layer tracing for the qlll benchmark, done from the benchmark's side.

The program is not edited: each public function is replaced, by attribute,
at the module or class where its callers look it up (``verifiers`` imports
``von_neumann_entropy`` by name, so that name is wrapped in ``verifiers`` as
well as in ``backends``).  Spans are kept in memory; every span feeds a
per-name aggregate, while full spans are kept only for the first few
operations and written as JSON lines at the end.  Self time is a span's time
minus the time of its child spans; it includes the tracer's own cost for
each child span, which calibrate_ns measures so that it can be reported.  A
target that no longer exists is listed as missing and the metrics that need
it are left out; it never stops a run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self, op_name: str, count_ops: int, span_ops: int):
        self.op_name = op_name      # span that starts one benchmark operation
        self.count_ops = count_ops  # exact counts cover the first count_ops ops
        self.span_ops = span_ops    # full spans are kept for the first span_ops ops
        self.active = False
        self.present = set()
        self.missing = []
        self.stack = []             # open frames: [name, start_ns, child_ns, id, children]
        self.agg = {}               # name -> [calls, incl_ns, self_ns, child spans]
        self.by_parent = Counter()  # (parent name, name) -> incl_ns
        self.counted = Counter()    # name -> calls inside the counted ops
        self.probe_sum = Counter()
        self.probe_max = {}
        self.spans = []
        self.op_index = -1
        self.in_op = 0
        self.next_id = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, key: str, probe=None, name_fn=None) -> None:
        """Replace owner.attr by a traced version whose spans are named key,
        or name_fn(args, kwargs) when given; probe(args, kwargs, result)
        returns {name: number}, summed and maxed over the counted ops."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(key)
            return
        self.present.add(key)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer._enter(key if name_fn is None else name_fn(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                counting = tracer._exit()
            if probe is not None and counting:
                for k, v in probe(args, kwargs, result).items():
                    tracer.probe_sum[k] += v
                    tracer.probe_max[k] = max(tracer.probe_max.get(k, v), v)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def _enter(self, name: str) -> None:
        if name == self.op_name:
            self.op_index += 1
            self.in_op += 1
        self.stack.append([name, time.perf_counter_ns(), 0, self.next_id, 0])
        self.next_id += 1

    def _exit(self) -> bool:
        end = time.perf_counter_ns()
        name, start, child, span_id, children = self.stack.pop()
        duration = end - start
        entry = self.agg.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        entry[3] += children
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
            parent[4] += 1
        self.by_parent[(parent[0] if parent else None, name)] += duration
        counting = self.in_op > 0 and self.op_index < self.count_ops
        if counting:
            self.counted[name] += 1
        if self.in_op > 0 and self.op_index < self.span_ops:
            self.spans.append((span_id, parent[3] if parent else None, name,
                               self.op_index, start, end))
        if name == self.op_name:
            self.in_op -= 1
        return counting

    # -- queries -----------------------------------------------------------

    def calls(self, name):
        return self.agg.get(name, (0, 0, 0, 0))[0]

    def incl_ns(self, name):
        return self.agg.get(name, (0, 0, 0, 0))[1]

    def self_ns(self, name):
        return self.agg.get(name, (0, 0, 0, 0))[2]

    def write(self, path, metrics: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", "op_span": self.op_name,
                                 "count_ops": self.count_ops,
                                 "span_ops": self.span_ops,
                                 "missing": self.missing}) + "\n")
            for name, (calls, incl, own, children) in sorted(self.agg.items()):
                fh.write(json.dumps({"type": "aggregate", "name": name,
                                     "calls": calls, "incl_ns": incl,
                                     "self_ns": own, "child_spans": children})
                         + "\n")
            for span_id, parent, name, op, start, end in self.spans:
                fh.write(json.dumps({"type": "span", "id": span_id,
                                     "parent": parent, "name": name, "op": op,
                                     "start_ns": start, "end_ns": end}) + "\n")
            fh.write(json.dumps({"type": "metrics", "metrics": metrics}) + "\n")


def calibrate_ns(rounds: int = 20000, repeats: int = 5) -> float:
    """Tracer cost that lands in a parent's self time per child span: a
    traced loop over a traced no-op against the same loop untraced, median of
    `repeats` after one warm-up."""
    costs = [_child_cost_ns(rounds) for _ in range(repeats + 1)]
    return statistics.median(costs[1:])


def _child_cost_ns(rounds: int) -> float:
    def noop():
        return None

    box = type("Box", (), {"child": staticmethod(noop)})

    def loop():
        for _ in range(rounds):
            box.child()

    start = time.perf_counter_ns()
    loop()
    plain = time.perf_counter_ns() - start
    tr = Tracer("loop", 0, 0)
    tr.wrap(box, "child", "child")
    tr.active = True
    tr._enter("loop")
    loop()
    tr._exit()
    return max(0.0, (tr.self_ns("loop") - plain) / rounds)


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0] if argv else '?'}"


def _violations(args, kwargs, result):
    return {"violations": int(result.violated)}


def _leaves_tree(args, kwargs, result):
    return {"leaves": len(result.leaves)}


def _leaves_law(args, kwargs, result):
    return {"leaves": len(result)}


def _branches(args, kwargs, result):
    return {"branches_kept": len(result)}


def _first_arg(key):
    def probe(args, kwargs, result):
        return {key: int(args[1] if len(args) > 1 else kwargs[key])}
    return probe


def install(tracer: Tracer, modules: dict, bench_module) -> None:
    """Wrap every traced target of the program.  modules maps qlll module
    names (cli, instances, solver, verifiers, backends) to the modules."""
    cli, inst, solver = modules["cli"], modules["instances"], modules["solver"]
    verifiers, backends = modules["verifiers"], modules["backends"]
    tracer.wrap(cli, "main", "cli.main", name_fn=_cli_name)
    tracer.wrap(cli, "cmd_run", "cli.run")
    tracer.wrap(cli, "cmd_gen", "cli.gen")
    for attr in ("generate_classical_instance", "rotate_instance",
                 "random_instance", "save_instance", "load_instance",
                 "build_instance"):
        tracer.wrap(inst, attr, f"instances.{attr}")
    for attr in ("run", "execute_fix_loop", "derive_params",
                 "neighborhood_orders", "record_to_dict", "derive_trial_seed"):
        tracer.wrap(solver, attr, f"solver.{attr}")
    tracer.wrap(solver, "init_fully_mixed", "backends.init_fully_mixed")
    tracer.wrap(verifiers, "derive_params", "solver.derive_params")
    tracer.wrap(verifiers, "enumerate_history_tree",
                "verifiers.enumerate_history_tree", _leaves_tree)
    tracer.wrap(verifiers, "enumerate_outcome_distribution",
                "verifiers.enumerate_outcome_distribution", _leaves_law)
    for attr in ("check_entropy_claim", "check_history_count_bound",
                 "check_failure_bound"):
        tracer.wrap(verifiers, attr, f"verifiers.{attr}")
    for owner in (verifiers, backends):
        tracer.wrap(owner, "von_neumann_entropy", "backends.von_neumann_entropy")
        tracer.wrap(owner, "shannon_entropy", "backends.shannon_entropy")
    diag = getattr(backends, "DiagonalState", None)
    traj = getattr(backends, "TrajectoryState", None)
    dens = getattr(backends, "DensityState", None)
    for cls, cls_name in ((diag, "DiagonalState"), (traj, "TrajectoryState")):
        if cls is None:
            tracer.missing.append(f"backends.{cls_name}")
            continue
        tracer.wrap(cls, "measure_projector",
                    f"backends.{cls_name}.measure_projector", _violations)
        tracer.wrap(cls, "expectation", f"backends.{cls_name}.expectation")
        tracer.wrap(cls, "replace_qubits", f"backends.{cls_name}.replace_qubits")
    if traj is not None:
        tracer.wrap(traj, "__init__", "backends.TrajectoryState.init",
                    _first_arg("n"))
    if dens is None:
        tracer.missing.append("backends.DensityState")
    else:
        tracer.wrap(dens, "__init__", "backends.DensityState.init",
                    _first_arg("d"))
        tracer.wrap(dens, "measure_branches",
                    "backends.DensityState.measure_branches", _branches)
        tracer.wrap(dens, "swap_qubits", "backends.DensityState.swap_qubits")
        tracer.wrap(dens, "replace_qubits", "backends.DensityState.replace_qubits")
    tracer.wrap(bench_module, "one_op", OP_SPAN)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, setups: int, overhead_pct: float,
                  per_child_ns: float) -> dict:
    """Per-layer metrics from a traced run; a metric whose target is missing
    is left out.  per_child_ns is the tracer's cost per child span that self
    times include (calibrate_ns)."""
    ops = tr.calls(tr.op_name)
    counted = min(ops, tr.count_ops)
    out = {}
    self_ns = tr.self_ns

    def put(name, value, unit, *needs):
        if all(n in tr.present for n in needs):
            out[name] = {"value": float(value), "unit": unit}

    put("cli.run.self_s",
        _ratio(self_ns("cli.run") + self_ns("cli.main.run"),
               tr.calls("cli.run")) / 1e9, "s", "cli.run", "cli.main")
    for metric, names in (("generate_s", ["generate_classical_instance"]),
                          ("rotate_s", ["rotate_instance"]),
                          ("io_s", ["save_instance", "load_instance"]),
                          ("random_instance_s", ["random_instance"])):
        full = [f"instances.{n}" for n in names]
        put(f"instances.{metric}",
            sum(tr.incl_ns(n) for n in full) / setups / 1e9, "s", *full)

    for fn in ("run", "execute_fix_loop"):
        put(f"solver.{fn}.self_us_per_op",
            _ratio(self_ns(f"solver.{fn}"), ops) / 1e3, "us", f"solver.{fn}")
    expect = [f"backends.{c}.expectation" for c in ("DiagonalState", "TrajectoryState")]
    put("solver.final_check_share",
        _ratio(sum(tr.by_parent[("solver.run", e)] for e in expect),
               tr.incl_ns("solver.run")), "ratio", "solver.run", *expect)
    measures = [f"backends.{c}.measure_projector" for c in ("DiagonalState", "TrajectoryState")]
    replaces = [f"backends.{c}.replace_qubits" for c in ("DiagonalState", "TrajectoryState")]
    put("solver.measurements_per_op",
        _ratio(sum(tr.counted[n] for n in measures), counted), "count", *measures)
    put("solver.violations_per_op",
        _ratio(tr.probe_sum["violations"], counted), "count", *measures)
    put("solver.replacements_per_op",
        _ratio(sum(tr.counted[n] for n in replaces), counted), "count", *replaces)

    kernels = [f"backends.{c}.{m}" for c in ("DiagonalState", "TrajectoryState")
               for m in ("measure_projector", "expectation", "replace_qubits")]
    kernels += [f"backends.DensityState.{m}"
                for m in ("measure_branches", "swap_qubits", "replace_qubits")]
    kernels.append("backends.von_neumann_entropy")
    for name in kernels:
        put(f"{name}.calls_per_op", _ratio(tr.counted[name], counted), "count", name)
        put(f"{name}.us_per_call",
            _ratio(self_ns(name), tr.calls(name)) / 1e3, "us", name)
    traj_n = tr.probe_max.get("n")
    put("backends.TrajectoryState.state_bytes",
        16 * 2 ** traj_n if traj_n is not None else 0, "B",
        "backends.TrajectoryState.init")
    register = tr.probe_max.get("d", 0)
    put("backends.DensityState.register_qubits", register, "count",
        "backends.DensityState.init")

    for fn in ("enumerate_history_tree", "enumerate_outcome_distribution",
               "check_entropy_claim", "check_history_count_bound"):
        put(f"verifiers.{fn}.self_ms_per_op",
            _ratio(self_ns(f"verifiers.{fn}"), ops) / 1e6, "ms",
            f"verifiers.{fn}")
    walkers = ("verifiers.enumerate_history_tree",
               "verifiers.enumerate_outcome_distribution")
    branch = "backends.DensityState.measure_branches"
    leaves = tr.probe_sum["leaves"]
    put("verifiers.nodes_per_op", _ratio(tr.counted[branch], counted), "count", branch)
    put("verifiers.leaves_per_op", _ratio(leaves, counted), "count", *walkers)
    put("verifiers.branches_kept_per_node",
        _ratio(tr.probe_sum["branches_kept"], tr.counted[branch]), "ratio", branch)
    put("verifiers.entropy_evals_per_leaf",
        _ratio(tr.counted["backends.von_neumann_entropy"], leaves), "ratio",
        "backends.von_neumann_entropy", *walkers)
    put("verifiers.leaf_state_bytes",
        _ratio(leaves, counted) * 16 * 4 ** register, "B",
        "backends.DensityState.init", *walkers)
    put("trace.overhead_pct", overhead_pct, "%")
    put("trace.us_per_child_span", per_child_ns / 1e3, "us")
    put("trace.spans_per_op", _ratio(sum(entry[0] for entry in tr.agg.values()), ops),
        "count")
    return out
