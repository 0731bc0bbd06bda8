import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlll
from qlll.cli import main
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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", str(bad)]) == 2


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
