import filecmp
import json

import pytest

from actsched.cli import main
from actsched.experiment import verify_logdir
from actsched.instances import load_instance

LOG_FILES = (
    "instance.json",
    "meta.json",
    "steps.csv",
    "y.csv",
    "assignments.csv",
    "phases.csv",
    "report.csv",
)


def gen_file(tmp_path, name="inst.json", m=3, n=5, seed=7, model="uniform"):
    path = tmp_path / name
    code = main(
        [
            "gen",
            "--m",
            str(m),
            "--n",
            str(n),
            "--seed",
            str(seed),
            "--model",
            model,
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


def test_gen_writes_loadable_instance(tmp_path):
    path = gen_file(tmp_path)
    inst = load_instance(path)
    assert inst.m == 3 and inst.n == 5


def test_gen_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTSCHED_SEED", "99")
    a = tmp_path / "a.json"
    assert main(["gen", "--m", "2", "--n", "3", "--out", str(a)]) == 0
    monkeypatch.delenv("ACTSCHED_SEED")
    b = tmp_path / "b.json"
    assert main(["gen", "--m", "2", "--n", "3", "--seed", "99", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_prints_result(tmp_path, capsys):
    path = gen_file(tmp_path, m=2, n=4, seed=3)
    capsys.readouterr()
    assert main(["oracle", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"B", "witness_makespan", "nodes_explored", "exact"}
    assert doc["exact"] is True
    assert doc["witness_makespan"] <= 1.0


def test_oracle_methods_agree(tmp_path, capsys):
    path = gen_file(tmp_path, m=2, n=4, seed=5)
    capsys.readouterr()
    assert main(["oracle", "--in", str(path), "--method", "exhaustive"]) == 0
    exhaustive = json.loads(capsys.readouterr().out)
    assert main(["oracle", "--in", str(path), "--method", "bnb"]) == 0
    bnb = json.loads(capsys.readouterr().out)
    assert exhaustive["B"] == bnb["B"]


def test_oracle_infeasible_exit_code(tmp_path):
    doc = {
        "version": 1,
        "m": 1,
        "n": 1,
        "L": 1.0,
        "machines": [{"id": 0, "cost": 1.0}],
        "jobs": [{"id": 0, "p": [2.0]}],
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--in", str(path)]) == 4


def test_oracle_too_large_exit_code(tmp_path):
    path = gen_file(tmp_path, m=5, n=12, seed=1)
    assert main(["oracle", "--in", str(path), "--method", "exhaustive"]) == 4


def test_run_single_machine_cost_ratio_one(tmp_path, capsys):
    path = gen_file(tmp_path, m=1, n=4, seed=2)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "0",
                 "--logdir", str(logdir)]) == 0
    rows = (logdir / "report.csv").read_text().splitlines()
    assert rows[0] == (
        "seed,B,L,frac_cost,frac_makespan,int_cost,int_makespan,"
        "cost_ratio,makespan_ratio,clamp_count,fallback_count,invariant_violations"
    )
    values = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert float(values["cost_ratio"]) == 1.0
    assert values["invariant_violations"] == "0"
    steps_header = (logdir / "steps.csv").read_text().splitlines()[0]
    assert steps_header == "job,step_idx,type,delta_phi,delta_coverage,machines_touched"
    for name in LOG_FILES:
        assert (logdir / name).exists()


def test_run_twice_byte_identical(tmp_path):
    path = gen_file(tmp_path, m=4, n=8, seed=11)
    args = ["run", "--in", str(path), "--alpha", "oracle", "--seed", "5"]
    assert main(args + ["--logdir", str(tmp_path / "A")]) == 0
    assert main(args + ["--logdir", str(tmp_path / "B")]) == 0
    for name in LOG_FILES:
        assert filecmp.cmp(tmp_path / "A" / name, tmp_path / "B" / name, shallow=False), name


def test_run_doubling_mode(tmp_path):
    path = gen_file(tmp_path, m=3, n=4, seed=12)
    logdir = tmp_path / "dlogs"
    assert main(["run", "--in", str(path), "--alpha", "double", "--seed", "1",
                 "--logdir", str(logdir)]) == 0
    lines = (logdir / "phases.csv").read_text().splitlines()
    assert lines[0] == "phase,guess,jobs_processed,frac_cost,int_cost_delta"
    assert len(lines) - 1 == 2  # one all-discarded guess, then the real phase
    assert main(["verify", "--logdir", str(logdir)]) == 0


def _crossing_jump_run(tmp_path):
    # Uniform instance whose fractional run at alpha = largest machine cost
    # (below the optimum) has one step with delta_phi > 2/n: a machine turns
    # fully active while carrying load above 1.
    path = gen_file(tmp_path, m=9, n=13, seed=34, model="uniform")
    alpha = str(max(load_instance(path).costs()))
    return ["run", "--in", str(path), "--alpha", alpha, "--seed", "0"]


def test_run_detects_violation_exit_code(tmp_path):
    logdir = tmp_path / "viol"
    code = main(_crossing_jump_run(tmp_path) + ["--logdir", str(logdir)])
    assert code == 3
    report = (logdir / "report.csv").read_text().splitlines()[1]
    assert int(report.split(",")[-1]) > 0


def test_run_no_checks_suppresses_violations(tmp_path):
    assert main(_crossing_jump_run(tmp_path) + ["--no-checks", "--logdir", str(tmp_path / "nc")]) == 0


def test_run_and_verify_report_the_same_problems(tmp_path):
    logdir = tmp_path / "viol"
    assert main(_crossing_jump_run(tmp_path) + ["--logdir", str(logdir)]) == 3
    live = json.loads((logdir / "meta.json").read_text())["violations"]["messages"]
    assert len(live) == 1
    assert live[0].startswith("[potential] job 11, step 30: delta_phi ")
    assert live[0].endswith(" > 2/n")  # the suffix perfbench/checks.py matches
    assert verify_logdir(logdir) == [live[0].removeprefix("[potential] ")]


def _quarter_cost_run(tmp_path, m, n, seed, model):
    path = gen_file(tmp_path, m=m, n=n, seed=seed, model=model)
    alpha = repr(sum(load_instance(path).costs()) / 4)
    return ["run", "--in", str(path), "--alpha", alpha, "--seed", "0"]


def test_verify_accepts_coverage_rounded_above_one(tmp_path):
    # Job 9 re-sums to 1.0000000000000002 in machine order; the engine's own
    # running coverage is capped at 1.
    logdir = tmp_path / "logs"
    assert main(_quarter_cost_run(tmp_path, 4, 20, 6, "uniform") + ["--logdir", str(logdir)]) == 0
    assert main(["verify", "--logdir", str(logdir)]) == 0


def test_run_fixed_guess_too_small_exits_two_without_doubling(tmp_path, capsys):
    args = _quarter_cost_run(tmp_path, 4, 8, 7, "restricted_assignment")
    alpha = args[args.index("--alpha") + 1]
    capsys.readouterr()
    assert main(args + ["--logdir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"job 2: no kept machine with p_ij <= L at guess {alpha}" in err
    assert not (tmp_path / "x").exists()


def test_run_missing_input_exit_two(tmp_path):
    assert main(["run", "--in", str(tmp_path / "nope.json"), "--alpha", "oracle",
                 "--logdir", str(tmp_path / "x")]) == 2


def test_run_bad_alpha_exit_two(tmp_path):
    path = gen_file(tmp_path)
    assert main(["run", "--in", str(path), "--alpha", "bogus",
                 "--logdir", str(tmp_path / "x")]) == 2


def test_verify_clean_logs(tmp_path):
    path = gen_file(tmp_path, m=3, n=6, seed=13)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "2",
                 "--logdir", str(logdir)]) == 0
    assert main(["verify", "--logdir", str(logdir)]) == 0


@pytest.mark.parametrize("target,mutate", [
    ("y.csv", lambda lines: lines[:1] + [_bump_y(lines[1])] + lines[2:]),
    ("report.csv", lambda lines: [lines[0], lines[1].replace(lines[1].split(",")[3], "0.0", 1)]),
])
def test_verify_detects_tampering(tmp_path, target, mutate):
    path = gen_file(tmp_path, m=3, n=6, seed=13)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "2",
                 "--logdir", str(logdir)]) == 0
    victim = logdir / target
    lines = victim.read_text().splitlines()
    victim.write_text("\n".join(mutate(lines)) + "\n")
    assert main(["verify", "--logdir", str(logdir)]) == 3


def _bump_y(line: str) -> str:
    parts = line.split(",")
    parts[-1] = str(float(parts[-1]) + 0.1)
    return ",".join(parts)


def test_sweep_writes_rows_and_aggregate(tmp_path, capsys):
    config = {
        "cells": [
            {
                "m": 2,
                "n": 4,
                "model": "uniform",
                "instance_seeds": [0, 1],
                "rounding_seeds": [0, 1, 2],
            }
        ],
        "alpha_mode": "oracle",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("instance,seed,B,L,")
    assert len(rows) == 1 + 2 * 3
    agg = (tmp_path / "report_aggregate.csv").read_text().splitlines()
    assert agg[0] == "metric,mean,max,p95"
    assert any(line.startswith("cost_ratio,") for line in agg)


def test_sweep_deterministic(tmp_path):
    config = {
        "cells": [
            {"m": 2, "n": 4, "model": "power_law", "instance_seeds": [3],
             "rounding_seeds": [0, 1]}
        ],
        "alpha_mode": "oracle",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r1.csv")]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r2.csv")]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_sweep_missing_config_exit_two(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_verify_missing_logdir_exit_two(tmp_path):
    assert main(["verify", "--logdir", str(tmp_path / "absent")]) == 2
