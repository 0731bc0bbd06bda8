import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlll
from qlll.backends import SAMPLING
from qlll.cli import build_parser, main
from qlll.instances import load_instance


def test_gen_classical(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["gen", "--classical", "-n", "20", "-k", "3", "-m", "12",
                 "-g", "2", "--seed", "7", "-o", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    derived = json.loads(lines[0])
    assert derived["k"] == 3 and derived["m"] == 12 and derived["g"] <= 2
    params = json.loads(lines[1])
    assert params["T"] == 1102
    inst = load_instance(out)
    assert inst.m == 12


def test_gen_refuses_bad_condition(tmp_path, capsys):
    code = main(["gen", "--classical", "-n", "6", "-k", "2", "-m", "2",
                 "-g", "2", "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert "ConditionViolated" in capsys.readouterr().err


def test_gen_clause_free_instance(tmp_path, capsys):
    # m = 0 derives k = g = 1, which fails the condition, but a clause-free
    # instance has nothing to violate: it is written, and rotates
    out = tmp_path / "empty.json"
    code = main(["gen", "--classical", "-n", "6", "-k", "3", "-m", "0",
                 "-g", "2", "-o", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["m"] == 0
    assert load_instance(out).m == 0
    assert main(["gen", "--rotate", str(out), "-o", str(tmp_path / "r.json")]) == 0
    assert load_instance(tmp_path / "r.json").m == 0


@pytest.mark.parametrize("source", [[], ["--classical", "--rotate", "x.json"]])
def test_gen_needs_one_source(tmp_path, source):
    with pytest.raises(SystemExit) as exc:
        main(["gen", *source, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_gen_rotate(tmp_path, capsys):
    src = tmp_path / "inst.json"
    main(["gen", "--classical", "-n", "9", "-k", "3", "-m", "3", "-g", "2",
          "--seed", "1", "-o", str(src)])
    code = main(["gen", "--rotate", str(src), "--seed", "3",
                 "-o", str(tmp_path / "rot.json")])
    assert code == 0
    rot = load_instance(tmp_path / "rot.json")
    assert rot.commuting
    assert not rot.is_diagonal()


def test_run_deterministic_output(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--classical", "-n", "12", "-k", "3", "-m", "6", "-g", "2",
          "--seed", "2", "-o", str(inst)])
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        out = tmp_path / name
        code = main(["run", str(inst), "--delta", "0.25", "--trials", "50",
                     "--seed", "11", "--backend", "diagonal", "--no-timing",
                     "-o", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = [json.loads(ln) for ln in outs[0].decode().splitlines()]
    assert len(lines) == 50
    assert set(lines[0]) == {"trial", "seed", "result", "t", "fix_calls",
                             "outcome_rle", "max_energy", "elapsed_ns"}


def test_run_summary_and_histogram(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--classical", "-n", "12", "-k", "3", "-m", "6", "-g", "2",
          "--seed", "2", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", str(inst), "--trials", "40", "--seed", "1",
                 "-o", str(tmp_path / "r.jsonl"),
                 "--summary", str(tmp_path / "summary.json"),
                 "--hist-csv", str(tmp_path / "hist.csv")])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["trials"] == 40
    assert 0.0 <= summary["success_rate"] <= 1.0
    hist = (tmp_path / "hist.csv").read_text().splitlines()
    assert hist[0] == "t,count"


def test_run_parallel_matches_serial(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--classical", "-n", "12", "-k", "3", "-m", "6", "-g", "2",
          "--seed", "2", "-o", str(inst)])
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    main(["run", str(inst), "--trials", "30", "--seed", "4", "--no-timing",
          "-o", str(serial)])
    main(["run", str(inst), "--trials", "30", "--seed", "4", "--no-timing",
          "--workers", "4", "-o", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("backend, instance", [("diagonal", "classical.json"),
                                               ("trajectory", "rotated.json")])
def test_run_parallel_matches_serial_per_backend(tmp_path, backend, instance):
    # the pool pickles each trial's instance, compiled diagonal clauses included
    inst = Path(__file__).parent / "data" / instance
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        main(["run", str(inst), "--backend", backend, "--trials", "24",
              "--seed", "4", "--threshold", "3", "--no-timing",
              "--workers", workers, "-o", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] and outs[0] == outs[1]


def test_run_trajectory_above_one_factor_cap(tmp_path, capsys):
    # the trajectory cap bounds a factor, not n: 30 qubits in components of
    # at most 6 run
    base, rotated = tmp_path / "c.json", tmp_path / "r.json"
    assert main(["gen", "--classical", "-n", "30", "-k", "3", "-m", "4",
                 "-g", "2", "--seed", "3", "-o", str(base)]) == 0
    assert main(["gen", "--rotate", str(base), "--seed", "4",
                 "-o", str(rotated)]) == 0
    assert load_instance(rotated).n == 30
    out = tmp_path / "run.jsonl"
    code = main(["run", str(rotated), "--backend", "trajectory", "--trials",
                 "20", "--seed", "1", "--no-timing", "-o", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 20
    assert all(r["max_energy"] <= 1e-8 for r in records if r["result"] == "Success")


@pytest.mark.parametrize("backend", ["diagonal", "trajectory"])
def test_run_clause_free_instance_passes(tmp_path, capsys, backend):
    # FIX measures nothing on m = 0, so every trial succeeds and the bound
    # on Pr(Failure) is 0, although the derived k = g = 1 fail the condition
    inst = tmp_path / "m0.json"
    assert main(["gen", "--classical", "-n", "6", "-k", "3", "-m", "0",
                 "-g", "2", "-o", str(inst)]) == 0
    if backend == "trajectory":
        assert main(["gen", "--rotate", str(inst), "-o", str(inst)]) == 0
    capsys.readouterr()
    code = main(["run", str(inst), "--trials", "5", "--backend", backend,
                 "-o", str(tmp_path / "r.jsonl")])
    summary = json.loads(capsys.readouterr().out)
    assert summary["success_rate"] == 1.0
    assert summary["analytic_bound"] == 0.0
    assert summary["pass"] is True
    assert code == 0


def test_run_backend_choices_are_the_sampling_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    backend, = (a for a in sub.choices["run"]._actions if a.dest == "backend")
    assert backend.choices == sorted(SAMPLING)


def test_verify_binom_exit_codes(tmp_path, capsys):
    assert main(["verify", "binom", "--m-max", "10", "--t-max", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"]


def test_verify_threshold(tmp_path):
    assert main(["verify", "threshold", "--k", "3", "--g", "2", "--r", "1",
                 "--delta", "0.5", "--m-span", "2..10",
                 "-o", str(tmp_path / "th.json")]) == 0
    report = json.loads((tmp_path / "th.json").read_text())
    assert report["holds"]


def test_verify_entropy_and_counts(tmp_path):
    for check in ("entropy", "counts"):
        out = tmp_path / f"{check}.json"
        code = main(["verify", check, "--n", "2", "--k", "2", "--m", "2",
                     "--T", "1", "--random", "6", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["trees"] == 6
        assert report["holds"]


def test_verify_failure_bound(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--classical", "-n", "12", "-k", "3", "-m", "6", "-g", "2",
          "--seed", "2", "-o", str(inst)])
    results = tmp_path / "r.jsonl"
    main(["run", str(inst), "--delta", "0.25", "--trials", "120", "--seed", "1",
          "-o", str(results)])
    capsys.readouterr()
    code = main(["verify", "failure-bound", "--results", str(results),
                 "--instance", str(inst), "--delta", "0.25"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 120


def test_no_failure_bound_when_condition_fails(tmp_path, capsys):
    # k=2, g=3: margin -1.03, so the paper gives no bound on Pr(Failure)
    inst = tmp_path / "inst.json"
    assert main(["gen", "--classical", "-n", "8", "-k", "2", "-m", "5",
                 "-g", "3", "--seed", "1", "--threshold", "3",
                 "-o", str(inst)]) == 0
    results = tmp_path / "r.jsonl"
    capsys.readouterr()
    code = main(["run", str(inst), "--threshold", "3", "--trials", "200",
                 "-o", str(results)])
    summary = json.loads(capsys.readouterr().out)
    assert summary["analytic_bound"] is None
    # a forced threshold keeps the band-only pass rule
    assert code == (0 if summary["pass"] else 1)
    assert summary["pass"] == (1 - summary["success_rate"] <= summary["band"])
    code = main(["verify", "failure-bound", "--results", str(results),
                 "--instance", str(inst), "--T", "3", "--delta", "0.25"])
    report = json.loads(capsys.readouterr().out)
    assert report["analytic_bound"] is None
    assert report["bound_below_delta"] is False
    assert report["holds"] is False
    assert code == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_run_needs_a_trial(tmp_path, capsys, trials):
    # a batch of no trials has no failure rate: a usage error, not a traceback
    inst = Path(__file__).parent / "data" / "classical.json"
    out = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(inst), "--trials", trials, "-o", str(out)])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_needs_a_worker(tmp_path, capsys, workers):
    # a pool of no workers is a usage error, not a silent serial run
    inst = Path(__file__).parent / "data" / "classical.json"
    out = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(inst), "--workers", workers, "-o", str(out)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("check", ["entropy", "counts"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_needs_a_tree(capsys, check, count):
    # a claim checked over no trees would hold vacuously
    with pytest.raises(SystemExit) as exc:
        main(["verify", check, "--random", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--random" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, option", [
    (["run", "{instance}", "--delta", "1.5"], "--delta"),
    (["run", "{instance}", "--delta", "0"], "--delta"),
    (["run", "{instance}", "--delta", "nan"], "--delta"),
    (["gen", "--classical", "--delta", "1"], "--delta"),
    (["verify", "threshold", "--delta", "-0.25"], "--delta"),
    (["verify", "failure-bound", "--instance", "{instance}",
      "--results", "{results}", "--delta", "1"], "--delta"),
    (["run", "{instance}", "--threshold", "0"], "--threshold"),
    (["verify", "failure-bound", "--instance", "{instance}",
      "--results", "{results}", "--T", "0"], "--T"),
    (["verify", "entropy", "--random", "1", "--T", "0"], "--T"),
    (["verify", "counts", "--random", "1", "--T", "-1"], "--T"),
    (["gen", "--classical", "-g", "0"], "-g"),
    (["gen", "--classical", "-m", "-2", "--threshold", "3"], "-m"),
    (["verify", "threshold", "--g", "0"], "--g"),
    (["verify", "threshold", "--r", "0"], "--r"),
    (["verify", "threshold", "--m-span", "0..3"], "--m-span"),
    (["verify", "binom", "--g-min", "0"], "--g-min"),
    (["gen", "--classical", "-n", "0", "--threshold", "3"], "-n"),
    (["gen", "--classical", "-k", "-1", "--threshold", "3"], "-k"),
    (["verify", "entropy", "--random", "1", "--n", "0"], "--n"),
    (["verify", "counts", "--random", "1", "--k", "0"], "--k"),
    (["verify", "entropy", "--random", "1", "--m", "-1"], "--m"),
    (["verify", "counts", "--random", "1", "--m", "0"], "--m"),
    (["gen", "--classical", "--threshold", "0"], "--threshold"),
], ids=["run-delta-above", "run-delta-zero", "run-delta-nan", "gen-delta",
        "threshold-delta", "failure-bound-delta", "run-threshold",
        "failure-bound-T", "entropy-T", "counts-T", "gen-g", "gen-m",
        "threshold-g", "threshold-r", "threshold-m-span", "binom-g-min",
        "gen-n", "gen-k", "entropy-n", "counts-k", "entropy-m", "counts-m",
        "gen-threshold"])
def test_out_of_range_parameter_is_a_usage_error(tmp_path, capsys, argv, option):
    # refused at parse time with exit 2 and one error line: exit 1 is
    # reserved for a failed check, T = 0 must not run as the default, and
    # g = 0 or r = 0 must not reach a logarithm
    results = tmp_path / "results.jsonl"
    results.write_text("")
    paths = {"results": results,
             "instance": Path(__file__).parent / "data" / "classical.json"}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*(a.format(**paths) for a in argv), "-o", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.endswith("\n") and option in captured.err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("check", ["entropy", "counts"])
def test_verify_refuses_clauses_wider_than_the_register(tmp_path, capsys, check):
    # k = 5 on n = 2 qubits must not be checked as 2-qubit clauses
    out = tmp_path / "out"
    code = main(["verify", check, "--n", "2", "--k", "5", "--random", "1",
                 "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "InfeasibleLayout: k=5 exceeds n=2\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["binom", "--t-max", "0"],
    ["binom", "--g-max", "1"],
    ["binom", "--m-max", "-1"],
    ["threshold", "--m-span", "5..3"],
], ids=["binom-t", "binom-g", "binom-m", "threshold-m-span"])
def test_empty_verification_grid_is_a_usage_error(tmp_path, capsys, argv):
    # an inequality checked over no points would hold vacuously
    out = tmp_path / "out"
    try:
        code = main(["verify", *argv, "-o", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.endswith("\n") and "empty" in captured.err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("given", [[], ["--instance", "x.json"],
                                   ["--results", "r.jsonl"]])
def test_verify_failure_bound_needs_its_inputs(tmp_path, capsys, given):
    # exit 1 is reserved for a failed check
    given = [str(tmp_path / a) if a.endswith(("json", "jsonl")) else a
             for a in given]
    code = main(["verify", "failure-bound", *given])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "failure-bound needs --instance and --results\n"


@pytest.mark.parametrize("argv", [
    ["run", "{missing}"],
    ["run", "{folder}"],
    ["gen", "--rotate", "{missing}"],
    ["verify", "failure-bound", "--instance", "{missing}", "--results", "{results}"],
    ["verify", "failure-bound", "--instance", "{instance}", "--results", "{missing}"],
], ids=["run", "run-folder", "gen-rotate", "failure-bound-instance",
        "failure-bound-results"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 is reserved for a failed check; no traceback, one line
    results = tmp_path / "results.jsonl"
    results.write_text("")
    paths = {"missing": tmp_path / "nope.json", "folder": tmp_path,
             "results": results,
             "instance": Path(__file__).parent / "data" / "classical.json"}
    argv = [a.format(**paths) for a in argv]
    code = main([*argv, "-o", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(("FileNotFoundError", "IsADirectoryError"))
    assert not (tmp_path / "out").exists()


def test_python_m_qlll(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(qlll.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlll", "verify", "binom", "--m-max", "3",
         "--g-max", "3", "--t-max", "3"],
        cwd=tmp_path, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["holds"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", str(bad)]) == 2


def test_run_rejects_a_body_that_is_not_a_projector(tmp_path, capsys):
    # [[1, 0.9], [0, 0]] is idempotent but not Hermitian: no run can pass on it
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "meta": {}, "projectors": [{
        "support": [0], "kind": "explicit",
        "matrix": [[[1, 0], [0.9, 0]], [[0, 0], [0, 0]]]}]}))
    out = tmp_path / "r.jsonl"
    assert main(["run", str(bad), "--threshold", "3", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("ParseError") and "not a projector" in captured.err


def test_closed_stdout_exits_quietly(tmp_path):
    # the report is about 1 MB, far more than a pipe buffers, so its writes
    # meet the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(qlll.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlll.cli", "verify", "threshold", "--k", "3",
         "--delta", "0.5", "--m-span", "2..3000"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
