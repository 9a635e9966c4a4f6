import filecmp
import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from actsched import experiment
from actsched.cli import main
from actsched.experiment import verify_logdir
from actsched.instances import GeneratorConfig, generate, load_instance
from actsched.oracle import optimal_exhaustive

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


def test_gen_seed_defaults_to_zero(tmp_path):
    a = tmp_path / "a.json"
    assert main(["gen", "--m", "2", "--n", "3", "--out", str(a)]) == 0
    b = tmp_path / "b.json"
    assert main(["gen", "--m", "2", "--n", "3", "--seed", "0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_prints_result(tmp_path, capsys):
    path = gen_file(tmp_path, m=2, n=4, seed=3)
    capsys.readouterr()
    assert main(["oracle", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"B", "witness_makespan", "nodes_explored", "exact"}
    assert doc["exact"] is True
    assert doc["witness_makespan"] <= 1.0
    # The set search is the only oracle route; there is no option to pick one.
    assert main(["oracle", "--in", str(path), "--method", "bnb"]) == 2


def test_oracle_methods_agree(tmp_path, capsys):
    # The CLI's set search and the exhaustive reference find the same B.
    path = gen_file(tmp_path, m=2, n=4, seed=5)
    capsys.readouterr()
    assert main(["oracle", "--in", str(path)]) == 0
    bnb = json.loads(capsys.readouterr().out)
    assert bnb["B"] == optimal_exhaustive(load_instance(path)).optimal_cost


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


def test_oracle_node_budget_exit_code(tmp_path, capsys):
    path = gen_file(tmp_path, m=3, n=6, seed=2)
    capsys.readouterr()
    assert main(["oracle", "--in", str(path), "--node-budget", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node budget (1)" in captured.err


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
    assert steps_header == "job,step_idx,type,delta_phi"
    for name in LOG_FILES:
        assert (logdir / name).exists()


def test_run_twice_byte_identical(tmp_path):
    path = gen_file(tmp_path, m=4, n=8, seed=11)
    args = ["run", "--in", str(path), "--alpha", "oracle", "--seed", "5"]
    assert main(args + ["--logdir", str(tmp_path / "A")]) == 0
    assert main(args + ["--logdir", str(tmp_path / "B")]) == 0
    for name in LOG_FILES:
        assert filecmp.cmp(tmp_path / "A" / name, tmp_path / "B" / name, shallow=False), name


# sha256 of the fractional logs of three benchmark-sized runs (seed 0,
# rounding seed 0). The uniform ones were taken before the engine's ranking
# became incremental, the restricted one before a step became one pass over
# its machines. A speed-up must leave them unchanged; a change that moves
# results on purpose updates them and says so in CHANGES.md.
PINNED_FRACTIONAL_LOGS = [
    (
        "fixed",
        "uniform",
        100,
        300,
        {
            "steps.csv": "0a4a519f98b709c6b71d9952568eb92ce875299b7a3d214355e2ca7ddc1544bf",
            "y.csv": "d3ecb488507fa5c3a9b9f15060cea4f9de52545f7ad66ebb2ca040ee22f0a0e2",
        },
    ),
    (
        "double",
        "uniform",
        20,
        100,
        {
            "steps.csv": "80c77db60bb2a29a27ef2ba8400ab755e4cff14c6def601b4f1a5bdee606538d",
            "y.csv": "65f308c3d0d225e4d7d28d81ec0b506f2ab37c5177aa97218ddde6e030601034",
        },
    ),
    # Three phases (the guess doubles twice) and 18,349 Type-A steps over
    # many kept machines, against one phase of the uniform double case.
    (
        "double",
        "restricted_assignment",
        20,
        100,
        {
            "steps.csv": "32de39a13a10f319307fbee7d28effa41cee97df013affa4682505f1f9758e3d",
            "y.csv": "b5a80003397e9c667461ef4619779161913716b0624933058e89eeedd2f94eab",
        },
    ),
]


@pytest.mark.parametrize(
    "mode, model, m, n, digests",
    PINNED_FRACTIONAL_LOGS,
    ids=["fixed", "double", "double-restricted"],
)
def test_fractional_logs_match_pinned_digests(tmp_path, mode, model, m, n, digests):
    # Fixed mode runs at a quarter of the total machine cost.
    instance = generate(GeneratorConfig(m=m, n=n, seed=0, ptime_model=model))
    alpha = sum(instance.costs()) / 4 if mode == "fixed" else None
    config = experiment.RunConfig(alpha_mode=mode, alpha_value=alpha, seed=0, checks=())
    experiment.write_run_logs(experiment.run_pipeline(instance, config), tmp_path)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the outputs of two sweeps over the three ptime models, taken
# before the rounding stage became one pass per job and the aggregates stopped
# calling numpy. The oracle sweep has 135 rows, past the 128 at which numpy's
# pairwise sum splits in halves; the double sweep's restricted cell runs three
# phases.
PINNED_SWEEPS = [
    (
        "oracle",
        6,
        12,
        [0, 1, 2],
        list(range(15)),
        {
            "report.csv": "8f7c64a716f6784f42c8939df84e5d08f77be49400e22b78047f8d5c89dddb03",
            "report_aggregate.csv": "b3b5e3bfe788b6d418b097724f98b49128e7f6b965bfedef07fed6d83b8d7811",
        },
    ),
    (
        "double",
        20,
        100,
        [0],
        [0, 1, 2, 3],
        {
            "report.csv": "68a10bddd6898714350d541c0cdd2868a01438be434609c3f1cbb59ad47affac",
            "report_aggregate.csv": "99f30a257ad64d6e4adc2e8fb3412aeb9a892d5533ffc43e23ea303dbd638b30",
        },
    ),
]


@pytest.mark.parametrize(
    "mode, m, n, instance_seeds, rounding_seeds, digests", PINNED_SWEEPS, ids=["oracle", "double"]
)
def test_sweep_outputs_match_pinned_digests(
    tmp_path, mode, m, n, instance_seeds, rounding_seeds, digests
):
    cells = [
        {"m": m, "n": n, "model": model, "instance_seeds": instance_seeds,
         "rounding_seeds": rounding_seeds}
        for model in ("uniform", "power_law", "restricted_assignment")
    ]
    experiment.run_sweep({"cells": cells, "alpha_mode": mode}, tmp_path / "report.csv")
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_aggregate_stats_match_numpy_bit_for_bit():
    gen = np.random.default_rng(16)
    for n in range(1, 601):
        spread = gen.random(n) * 10.0 ** gen.integers(-3, 3, n)
        ties = gen.choice([0.1, 0.25, 1.0 / 3.0], n)
        zeros = np.where(gen.random(n) < 0.5, 0.0, spread)
        counts = gen.integers(0, 50, n).astype(float)
        for arr in (spread, ties, zeros, counts):
            stats = experiment.aggregate_stats(arr.tolist())
            want = {"mean": arr.mean(), "max": arr.max(), "p95": np.percentile(arr, 95)}
            assert {k: v.hex() for k, v in stats.items()} == {
                k: float(v).hex() for k, v in want.items()
            }, n


def test_run_doubling_mode(tmp_path):
    path = gen_file(tmp_path, m=3, n=4, seed=12)
    logdir = tmp_path / "dlogs"
    assert main(["run", "--in", str(path), "--alpha", "double", "--seed", "1",
                 "--logdir", str(logdir)]) == 0
    lines = (logdir / "phases.csv").read_text().splitlines()
    assert lines[0] == "phase,guess,jobs_processed,frac_cost,int_cost_delta"
    # The default guess is machine 2's cost, and pre-processing keeps that
    # machine, so one phase covers every job.
    assert len(lines) - 1 == 1
    assert lines[1].startswith("0,2.7038834608578517,4,")
    meta = json.loads((logdir / "meta.json").read_text())
    assert meta["phases"][0]["discarded"] == [True, True, False]
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


def test_run_and_verify_report_the_same_consistency_problems(tmp_path, monkeypatch):
    # Tamper with one finished phase's phi and one load_final entry, once in
    # the PhaseTrace the run audits and once in a clean run's meta.json: both
    # audits must report the same consistency messages.
    phi_bump, load_bump, machine = 0.5, 0.25, 1
    inst = load_instance(gen_file(tmp_path, m=4, n=8, seed=5))
    config = experiment.RunConfig(alpha_mode="fixed", alpha_value=sum(inst.costs()) / 4)

    clean = tmp_path / "clean"
    experiment.write_run_logs(experiment.run_pipeline(inst, config), clean)
    assert verify_logdir(clean) == []
    meta = json.loads((clean / "meta.json").read_text())
    meta["phases"][0]["phi"] += phi_bump
    meta["phases"][0]["load_final"][machine] += load_bump
    (clean / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    from_log = verify_logdir(clean)

    run_with_doubling = experiment.run_with_doubling

    def tampered(*args, **kwargs):
        result = run_with_doubling(*args, **kwargs)
        trace = result.phases[0]
        trace.phi += phi_bump
        loads = list(trace.load_final)
        loads[machine] += load_bump
        trace.load_final = tuple(loads)
        return result

    monkeypatch.setattr(experiment, "run_with_doubling", tampered)
    artifacts = experiment.run_pipeline(inst, config)
    assert artifacts.violations.total() == artifacts.violations.counts["consistency"] == 2
    live = [msg.removeprefix("[consistency] ") for msg in artifacts.violations.messages]
    assert re.fullmatch(rf"phase 0, machine {machine}: load \S+ vs recomputed \S+", live[0])
    assert re.fullmatch(r"phase 0: phi \S+ vs recomputed \S+", live[1])
    assert from_log == live
    experiment.write_run_logs(artifacts, tmp_path / "tampered")
    assert verify_logdir(tmp_path / "tampered") == live


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


def _set_cost(doc):
    doc["machines"][0]["cost"] = "abc"


def _set_p(value):
    def mutate(doc):
        doc["jobs"][0]["p"] = value

    return mutate


def _set_job_ids(doc):
    for job in doc["jobs"]:
        job["id"] = 7


def _sweep_doc(second=None, **changes):
    """A sweep config whose one cell has ``changes``; ``second`` appends a
    second cell: the unchanged cell with ``second``'s changes."""
    cell = {"m": 2, "n": 4, "model": "uniform", "instance_seeds": [0], "rounding_seeds": [0]}
    cells = [{**cell, **changes}]
    if second is not None:
        cells.append({**cell, **second})
    return {"cells": cells}


@pytest.mark.parametrize("command,mutate,extra", [
    ("run", _set_cost, ["--alpha", "oracle"]),
    ("run", _set_p(None), ["--alpha", "oracle"]),
    ("run", _set_p([float("nan")] * 3), ["--alpha", "oracle"]),
    ("run", _set_job_ids, ["--alpha", "oracle"]),
    ("run", None, ["--alpha", "nan"]),
    ("run", None, ["--alpha", "inf"]),
    ("oracle", None, ["--node-budget", "0"]),
    ("oracle", None, ["--node-budget", "-5"]),
    ("sweep", [1, 2], []),
    ("sweep", _sweep_doc(instance_seeds=5), []),
    ("sweep", _sweep_doc(m="3"), []),
    ("sweep", {**_sweep_doc(), "a": "x"}, []),
    ("sweep", _sweep_doc(instance_seeds=["a"]), []),
    ("sweep", _sweep_doc(rounding_seeds=["a"]), []),
    ("sweep", _sweep_doc(rounding_seeds=[1.5]), []),
    ("sweep", _sweep_doc(instance_seeds=[]), []),
    ("sweep", _sweep_doc(rounding_seeds=[]), []),
    ("sweep", {**_sweep_doc(), "alpha_mode": "oracle", "alpha_value": 5}, []),
    ("sweep", {**_sweep_doc(), "alpha_mode": "double", "alpha_value": 5}, []),
    ("sweep", _sweep_doc(second={"m": 2.5}), []),
], ids=["cost-str", "p-null", "p-nan", "job-ids", "alpha-nan", "alpha-inf",
        "node-budget-0", "node-budget-neg", "sweep-not-object", "seeds-not-list", "m-str", "a-str", "instance-seed-str",
        "rounding-seed-str", "rounding-seed-float", "instance-seeds-empty", "rounding-seeds-empty",
        "oracle-alpha-value", "double-alpha-value", "bad-second-cell"])
def test_malformed_input_exits_two(tmp_path, capsys, monkeypatch, command, mutate, extra):
    if command == "sweep":
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(mutate))
        args = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
        # The whole config is checked before the first run.
        monkeypatch.setattr(experiment, "run_fractional", None)
    else:
        path = gen_file(tmp_path)
        if mutate is not None:
            doc = json.loads(path.read_text())
            mutate(doc)
            path.write_text(json.dumps(doc))
        args = [command, "--in", str(path), *extra]
        if command == "run":
            args += ["--logdir", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "p_ij <= L" not in err and "a must be a positive integer" not in err
    assert not (tmp_path / "r.csv").exists()


def test_verify_clean_logs(tmp_path):
    path = gen_file(tmp_path, m=3, n=6, seed=13)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "2",
                 "--logdir", str(logdir)]) == 0
    assert main(["verify", "--logdir", str(logdir)]) == 0


@pytest.mark.parametrize("target,mutate", [
    ("y.csv", lambda lines: lines[:1] + [_bump_y(lines[1])] + lines[2:]),
    ("report.csv", lambda lines: [lines[0], lines[1].replace(lines[1].split(",")[3], "0.0", 1)]),
    ("steps.csv", lambda lines: lines[:1] + [_raise_delta_phi(lines[1])] + lines[2:]),
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


def _raise_delta_phi(line: str) -> str:
    # n = 6 jobs, so 2/n = 0.333...; a rise of 1.0 breaks the step bound.
    job, idx, step_type, _ = line.split(",")
    return ",".join((job, idx, step_type, "1.0"))


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


@pytest.mark.parametrize("alpha_mode", ["oracle", "double"])
def test_sweep_rows_equal_single_runs(tmp_path, alpha_mode):
    # One fractional stage per instance, rounded once per rounding seed,
    # gives the rows that one run per seed gives. The double-mode cells
    # have multi-phase runs (restricted) and potential violations (uniform).
    cells = [
        {"m": 5, "n": 12, "model": "uniform", "instance_seeds": [0], "rounding_seeds": [0, 3, 7]},
        {"m": 5, "n": 12, "model": "restricted_assignment", "instance_seeds": [0, 2],
         "rounding_seeds": [1, 2]},
    ]
    out = tmp_path / "report.csv"
    experiment.run_sweep({"cells": cells, "alpha_mode": alpha_mode}, out)

    config = experiment.RunConfig(alpha_mode=alpha_mode)
    rows = []
    for cell in cells:
        for iseed in cell["instance_seeds"]:
            inst = generate(GeneratorConfig(m=5, n=12, seed=iseed, ptime_model=cell["model"]))
            label = experiment.sweep_cell_label(5, 12, iseed, cell["model"])
            for rseed in cell["rounding_seeds"]:
                row = experiment.run_pipeline(inst, replace(config, seed=rseed)).row
                rows.append({"instance": label, **row})
    expected = tmp_path / "expected.csv"
    experiment.write_report_csv(expected, rows, columns=experiment.SWEEP_COLUMNS)
    assert out.read_bytes() == expected.read_bytes()
    if alpha_mode == "double":
        assert any(row["invariant_violations"] > 0 for row in rows)


def test_sweep_missing_config_exit_two(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_verify_missing_logdir_exit_two(tmp_path):
    assert main(["verify", "--logdir", str(tmp_path / "absent")]) == 2
