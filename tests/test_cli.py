import csv
import filecmp
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actsched import experiment
from actsched.cli import main
from actsched.experiment import audit_rounding, verify_logdir
from actsched.fractional import TYPE_A, TYPE_B, StepLog, preprocess
from actsched.instances import GeneratorConfig, generate, load_instance, save_instance
from actsched.oracle import optimal_exhaustive

LOG_FILES = (
    "instance.json",
    "meta.json",
    "steps.csv",
    "y.csv",
    "assignments.csv",
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
    assert inst == generate(GeneratorConfig(m=3, n=5, seed=7))


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
    assert (logdir / "assignments.csv").read_text().splitlines()[0] == "job,machine,cum_cost"
    for name in LOG_FILES:
        assert (logdir / name).exists()


# Written by hand, as a user would: indented, integer costs and L, no final newline.
HAND_WRITTEN_INSTANCE = {
    "version": 1,
    "m": 2,
    "n": 3,
    "L": 2,
    "machines": [{"id": 0, "cost": 3}, {"id": 1, "cost": 5.5}],
    "jobs": [
        {"id": 0, "p": [1.0, 1.5]},
        {"id": 1, "p": [0.75, 0.5]},
        {"id": 2, "p": [3.0, 1.25]},
    ],
}


@pytest.mark.parametrize("source", ["gen", "hand-written"])
def test_run_logs_the_input_file_byte_for_byte(tmp_path, capsys, source):
    if source == "gen":
        path = gen_file(tmp_path, m=4, n=8, seed=1)
    else:
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(HAND_WRITTEN_INSTANCE, indent=2))
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "0",
                 "--logdir", str(logdir)]) == 0
    assert (logdir / "instance.json").read_bytes() == path.read_bytes()
    capsys.readouterr()
    assert main(["verify", "--logdir", str(logdir)]) == 0
    assert capsys.readouterr().out.startswith("ok")


def test_integer_costs_give_a_float_B_that_verifies(tmp_path, capsys):
    # Machine 0 (cost 3) holds both jobs: the optimum is the int cost 3, which
    # report.csv writes as the float 3.0, the value verify reads back.
    doc = {**HAND_WRITTEN_INSTANCE, "n": 2, "jobs": HAND_WRITTEN_INSTANCE["jobs"][:2]}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "0",
                 "--logdir", str(logdir)]) == 0
    rows = [line.split(",") for line in (logdir / "report.csv").read_text().splitlines()]
    assert dict(zip(*rows))["B"] == "3.0"
    assert verify_logdir(logdir) == []


def test_replaced_instance_is_saved_with_its_own_values(tmp_path):
    loaded = load_instance(gen_file(tmp_path))
    changed = replace(loaded, makespan_budget=2.0)
    save_instance(changed, tmp_path / "changed.json")
    assert json.loads((tmp_path / "changed.json").read_text())["L"] == 2.0
    assert load_instance(tmp_path / "changed.json") == changed


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
# its machines. The rounding log's (assignments.csv) were re-taken when it
# became job,machine,cum_cost: they are those three columns of the log pinned
# before the scores of a job were shared by its rounding seeds. A speed-up
# must leave them unchanged; a change that moves results on purpose updates
# them and says so in CHANGES.md.
PINNED_FRACTIONAL_LOGS = [
    (
        "fixed",
        "uniform",
        100,
        300,
        {
            "steps.csv": "0a4a519f98b709c6b71d9952568eb92ce875299b7a3d214355e2ca7ddc1544bf",
            "y.csv": "d3ecb488507fa5c3a9b9f15060cea4f9de52545f7ad66ebb2ca040ee22f0a0e2",
            "assignments.csv": "a0472942d2ea0a1cc7fd818d3a4ca5290221c0aa8254d8c0d9b487752d31bb56",
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
            "assignments.csv": "4a0e6ec2077c94bc24b78462fb1afae64e0084c071ab9bad3ee5acd7696cb78a",
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
            "assignments.csv": "05f650e8ba82099cfd1c07c95c187c0f4257d9f4deae48d1809d8702f3e710ae",
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


def _csv_writer_steps(phases) -> bytes:
    """steps.csv as csv.writer writes it: the reference for write_steps_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(experiment.STEP_COLUMNS)
    writer.writerows(
        (job, idx, o.step_type, o.delta_potential) for p in phases for job, idx, o in p.step_entries
    )
    return buf.getvalue().encode("utf-8")


EDGE_DELTA_PHI = [-0.0, 0.0, 5e-324, 1e-07, 1e16, sys.float_info.max, -sys.float_info.max]
BLOCK = experiment.STEP_WRITE_ROWS


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.sampled_from([0, 1, BLOCK, BLOCK + 1]), min_size=2, max_size=2),
    values=st.lists(st.sampled_from(EDGE_DELTA_PHI) | st.floats(), min_size=1, max_size=12),
    types=st.lists(st.sampled_from([TYPE_A, TYPE_B]), min_size=1, max_size=5),
    jobs_per_step=st.sampled_from([0.01, 0.5, 1.0]),
)
def test_steps_csv_writer_matches_csv_writer(counts, values, types, jobs_per_step):
    # Each phase restarts its step index at 0; entry counts of 0, 1, one
    # write block and one more row cover the block boundaries.
    phases = []
    for count in counts:
        log = StepLog()  # filled column by column, as the engine's steps fill it
        for idx in range(count):
            log.job.append(int(idx * jobs_per_step) + len(phases) * 1000)
            log.kind.append(ord(types[idx % len(types)]))
            log.delta.append(values[idx % len(values)])
        phases.append(SimpleNamespace(step_entries=log))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "steps.csv"
        experiment.write_steps_csv(path, phases)
        assert path.read_bytes() == _csv_writer_steps(phases)


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
    # The default guess is machine 2's cost, and pre-processing keeps that
    # machine, so one phase covers every job.
    meta = json.loads((logdir / "meta.json").read_text())
    assert len(meta["phases"]) == 1
    phase = meta["phases"][0]
    assert phase["guess"] == 2.7038834608578517
    y_rows = (logdir / "y.csv").read_text().splitlines()[1:]
    assert sorted({row.split(",")[1] for row in y_rows}) == ["0", "1", "2", "3"]
    discarded, _ = preprocess(load_instance(path).costs(), 3, phase["guess"])
    assert discarded == [True, True, False]
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
    # Tamper with one finished phase's phi and one load_final entry in the
    # PhaseTrace the run audits: the live consistency audit reports both.
    # The logs hold neither value (verify derives the loads from y.csv by the
    # audit's own rule and reads no potential), so the tampered run's logs
    # verify clean of them.
    phi_bump, load_bump, machine = 0.5, 0.25, 1
    inst = load_instance(gen_file(tmp_path, m=4, n=8, seed=5))
    config = experiment.RunConfig(alpha_mode="fixed", alpha_value=sum(inst.costs()) / 4)
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
    experiment.write_run_logs(artifacts, tmp_path / "tampered")
    assert verify_logdir(tmp_path / "tampered") == []


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


def _set_cost(value):
    def mutate(doc):
        doc["machines"][0]["cost"] = value

    return mutate


def _set_budget(value):
    def mutate(doc):
        doc["L"] = value

    return mutate


def _set_p(value):
    def mutate(doc):
        doc["jobs"][0]["p"] = value

    return mutate


def _set_job_ids(doc):
    for job in doc["jobs"]:
        job["id"] = 7


def _header_true(key):
    """One machine and one job, with header ``key`` set to true: True == 1,
    so only the header's type check rejects the file."""

    def mutate(doc):
        doc.update(m=1, n=1, machines=doc["machines"][:1], jobs=[{"id": 0, "p": [0.5]}])
        doc[key] = True

    return mutate


def _sweep_doc(second=None, **changes):
    """A sweep config whose one cell has ``changes``; ``second`` appends a
    second cell: the unchanged cell with ``second``'s changes."""
    cell = {"m": 2, "n": 4, "model": "uniform", "instance_seeds": [0], "rounding_seeds": [0]}
    cells = [{**cell, **changes}]
    if second is not None:
        cells.append({**cell, **second})
    return {"cells": cells}


@pytest.mark.parametrize("command,mutate,extra", [
    ("run", _set_cost("abc"), ["--alpha", "oracle"]),
    ("run", _set_cost(True), ["--alpha", "oracle"]),
    ("run", _set_budget(True), ["--alpha", "oracle"]),
    ("run", _set_p([True] * 3), ["--alpha", "oracle"]),
    ("run", _set_p(None), ["--alpha", "oracle"]),
    ("run", _set_p([float("nan")] * 3), ["--alpha", "oracle"]),
    # 401-digit integers: beyond float range, though Python compares them with inf exactly.
    ("run", _set_p([10**400] * 3), ["--alpha", "oracle"]),
    ("run", _set_p([10**400] * 3), ["--alpha", "double"]),
    ("run", _set_cost(10**400), ["--alpha", "oracle"]),
    ("run", _set_cost(10**400), ["--alpha", "double"]),
    ("run", _set_budget(10**400), ["--alpha", "oracle"]),
    ("run", _set_budget(10**400), ["--alpha", "double"]),
    ("run", _set_job_ids, ["--alpha", "oracle"]),
    ("run", _header_true("version"), ["--alpha", "oracle"]),
    ("run", _header_true("m"), ["--alpha", "oracle"]),
    ("run", _header_true("n"), ["--alpha", "oracle"]),
    ("run", None, ["--alpha", "nan"]),
    ("run", None, ["--alpha", "inf"]),
    ("oracle", None, ["--node-budget", "0"]),
    ("oracle", None, ["--node-budget", "-5"]),
    ("sweep", [1, 2], []),
    ("sweep", _sweep_doc(instance_seeds=5), []),
    ("sweep", _sweep_doc(m="3"), []),
    ("sweep", _sweep_doc(m=True), []),
    ("sweep", {**_sweep_doc(), "a": "x"}, []),
    ("sweep", {**_sweep_doc(), "a": 1.05}, []),
    ("sweep", {**_sweep_doc(), "C": 50.0}, []),
    ("sweep", _sweep_doc(cost_range=[1.0, 10.0]), []),
    ("sweep", _sweep_doc(instance_seed=[1]), []),
    ("sweep", _sweep_doc(instance_seeds=["a"]), []),
    ("sweep", _sweep_doc(rounding_seeds=["a"]), []),
    ("sweep", _sweep_doc(rounding_seeds=[1.5]), []),
    ("sweep", _sweep_doc(rounding_seeds=[True]), []),
    ("sweep", _sweep_doc(instance_seeds=[]), []),
    ("sweep", _sweep_doc(rounding_seeds=[]), []),
    ("sweep", {**_sweep_doc(), "alpha_mode": "oracle", "alpha_value": 5}, []),
    ("sweep", {**_sweep_doc(), "alpha_mode": "double", "alpha_value": 5}, []),
    ("sweep", _sweep_doc(second={"m": 2.5}), []),
], ids=["cost-str", "cost-true", "L-true", "p-true", "p-null", "p-nan", "p-huge-int",
        "p-huge-int-double", "cost-huge-int", "cost-huge-int-double", "L-huge-int",
        "L-huge-int-double", "job-ids",
        "version-true", "header-m-true", "header-n-true", "alpha-nan",
        "alpha-inf", "node-budget-0", "node-budget-neg", "sweep-not-object", "seeds-not-list", "m-str",
        "m-true", "a-str", "a-key", "C-key", "cell-cost-range", "misspelt-cell-key",
        "instance-seed-str", "rounding-seed-str", "rounding-seed-float", "rounding-seed-true",
        "instance-seeds-empty", "rounding-seeds-empty",
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


def test_removed_options_exit_two(tmp_path, capsys):
    # The growth base and the cost range are constants, not options, and no
    # option is matched by a prefix: --a is not read as --alpha.
    out = tmp_path / "g.json"
    path = gen_file(tmp_path)
    logdir = tmp_path / "x"
    for args in (
        ["gen", "--m", "2", "--n", "3", "--cost-low", "1", "--out", str(out)],
        ["gen", "--m", "2", "--n", "3", "--cost-high", "10", "--out", str(out)],
        ["run", "--in", str(path), "--a", "1.05", "--logdir", str(logdir)],
        ["run", "--in", str(path), "--alp", "oracle", "--logdir", str(logdir)],
    ):
        capsys.readouterr()
        assert main(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists() and not logdir.exists()


def test_checks_are_all_families_or_none():
    assert experiment.RunConfig(checks=()).checks == ()
    assert experiment.RunConfig().checks == experiment.CHECK_FAMILIES
    with pytest.raises(ValueError, match="all families"):
        experiment.RunConfig(checks=("feasibility", "potential", "consistency"))
    with pytest.raises(ValueError):
        experiment.RunConfig(checks=("rounding",))


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


REMOVED_META_KEYS = ("B", "m", "n", "L")
REMOVED_ROUNDING_META_KEYS = ("seed", "int_cost", "fallback_count", "assignment")


def _clean_run(tmp_path):
    # Machine 2 takes five of the eight jobs; all four machines open, none is discarded.
    path = gen_file(tmp_path, m=4, n=8, seed=1)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "1",
                 "--logdir", str(logdir)]) == 0
    return logdir


def test_meta_json_copies_no_other_log_file(tmp_path):
    # The report row is report.csv's alone, and the growth base a is a constant.
    meta = json.loads((_clean_run(tmp_path) / "meta.json").read_text())
    assert not set(REMOVED_META_KEYS) & set(meta)
    assert not set(REMOVED_ROUNDING_META_KEYS) & set(meta["rounding"])
    assert "report" not in meta
    assert "a" not in meta["config"]


def test_meta_phase_entries_hold_the_kept_keys_only(tmp_path):
    # The guess, x and the counters; a phase's index is its position, and
    # verify derives the rest of a phase.
    assert experiment.PHASE_META_KEYS == ("guess", "x_final", "fraction_clamps", "coverage_clamps")
    meta = json.loads((_clean_run(tmp_path) / "meta.json").read_text())
    assert [tuple(phase) for phase in meta["phases"]] == [experiment.PHASE_META_KEYS]


def test_run_writes_only_what_verify_reads(tmp_path):
    # The log files verify reads, and a meta.json without the values it
    # re-derives: alpha is the last phase's guess, the thresholds follow from
    # the seed, and the integer loads from assignments.csv.
    logdir = _clean_run(tmp_path)
    assert sorted(path.name for path in logdir.iterdir()) == sorted(LOG_FILES)
    meta = json.loads((logdir / "meta.json").read_text())
    assert "alpha" not in meta
    assert not {"thresholds", "int_load"} & set(meta["rounding"])


def test_rounding_audit_recomputes_the_integer_loads():
    # Job 0 on machine 0, job 1 on machine 1; p rows in units of L.
    kept = [(0, (0.5, 0.75), (True, True)), (1, (0.25, 0.5), (True, True))]
    assignment, active = {0: 0, 1: 1}, [True, True]
    assert audit_rounding(assignment, active, [0.5, 0.5], kept) == []
    assert audit_rounding(assignment, active, [0.5, 1.0], kept) == [
        "machine 1: integer load 1.0 vs recomputed 0.5"
    ]


def dense_phase_loads(covered_y, p, m):
    """``experiment.phase_loads`` as a pass over every machine of every row,
    zero y included."""
    loads = [0.0] * m
    for j, yrow in covered_y:
        prow = p[j]
        for i in range(m):
            loads[i] += prow[i] * yrow[i]
    return loads


def dense_audit_job(j, yrow, x, discarded):
    """``experiment.audit_job`` as a pass over every machine of the row that
    skips a zero y by comparison."""
    out = []
    cov = sum(yrow)
    if not (1.0 - experiment.TOL <= cov <= 1.0 + experiment.TOL):
        out.append(f"job {j}: coverage {cov!r} outside [1-1e-9, 1+1e-9]")
    for i, y in enumerate(yrow):
        if y == 0.0:
            continue
        if discarded[i]:
            out.append(f"job {j}: discarded machine {i} holds y={y!r}")
        elif y > 2.0 * x[i] + experiment.TOL:
            out.append(f"job {j}, machine {i}: y={y!r} > 2x={2*x[i]!r}")
    return out


def test_sparse_y_passes_match_the_dense_references():
    # Sparse y rows as a tampered y.csv may hold them: mostly zeros of either
    # sign, and any float else (negative, NaN, inf among them). A y on a
    # discarded machine and a y > 2x must each be drawn at least once.
    drawn = {"on_discarded": 0, "above_2x": 0}
    y_value = st.sampled_from([0.0, 0.0, 0.0, -0.0]) | st.floats(0.0, 2.0) | st.floats()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        m = data.draw(st.integers(1, 8), label="m")
        n = data.draw(st.integers(1, 4), label="n")
        p = [tuple(data.draw(st.lists(st.floats(1e-3, 1e6), min_size=m, max_size=m)))
             for _ in range(n)]
        x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m), label="x")
        discarded = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="discarded")
        jobs = data.draw(st.lists(st.integers(0, n - 1), max_size=5), label="jobs")
        covered_y = [(j, tuple(data.draw(st.lists(y_value, min_size=m, max_size=m)))) for j in jobs]
        got, want = experiment.phase_loads(covered_y, p, m), dense_phase_loads(covered_y, p, m)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        for j, yrow in covered_y:
            assert experiment.audit_job(j, yrow, x, discarded) == dense_audit_job(j, yrow, x, discarded)
            drawn["on_discarded"] += any(y != 0.0 and d for y, d in zip(yrow, discarded))
            drawn["above_2x"] += any(y > 2.0 * xi + 1e-9 for y, xi in zip(yrow, x))

    check()
    assert all(drawn.values()), drawn


def per_row_audit_steps(jobs, idxs, deltas, n):
    """``audit_steps`` as a per-row list comprehension: the reference."""
    cap = 2.0 / n + 1e-9 if n else math.inf
    rows = zip(jobs, idxs, deltas)
    return [f"job {job}, step {idx}: delta_phi {d!r} > 2/n" for job, idx, d in rows if d > cap]


def test_column_audit_steps_matches_the_per_row_reference():
    # Columns as the live run passes them (a StepLog's job and delta arrays
    # and its step_idx range) and as verify passes them (the label lists and
    # float list of a chunk, whose step_idx may start past 0), with delta phi
    # exactly at the cap 2/n + 1e-9, just above it, NaN, +-inf and -0.0 among
    # any float, and n = 0 (no cap). A step at the cap, a step over it and
    # n = 0 must each be drawn at least once.
    drawn = {"at_cap": 0, "over_cap": 0, "n_zero": 0}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(0, 40), label="n")
        cap = 2.0 / n + 1e-9 if n else math.inf
        above = math.nextafter(cap, math.inf)
        edge = st.sampled_from([cap, above, math.nan, math.inf, -math.inf, -0.0])
        deltas = data.draw(st.lists(edge | st.floats(), max_size=30), label="deltas")
        jobs = data.draw(st.lists(st.integers(0, 99), min_size=len(deltas), max_size=len(deltas)))
        log = StepLog()
        log.job.extend(jobs)
        log.delta.extend(deltas)
        want = per_row_audit_steps(jobs, range(len(deltas)), deltas, n)
        assert experiment.audit_steps(log.job, range(len(log)), log.delta, n) == want
        first = data.draw(st.integers(0, 5), label="first step_idx")
        labels = [str(j) for j in jobs], [str(first + k) for k in range(len(deltas))]
        want = per_row_audit_steps(*labels, deltas, n)
        assert experiment.audit_steps(*labels, [float(d) for d in deltas], n) == want
        drawn["at_cap"] += cap in deltas
        drawn["over_cap"] += bool(want)
        drawn["n_zero"] += n == 0

    check()
    assert all(drawn.values()), drawn


def _edit_rows(name, edit):
    """A tamper of the CSV log ``name``: ``edit`` changes its data rows,
    lists of strings, in place."""

    def tamper(logdir):
        path = logdir / name
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        edit(rows)
        path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))

    return tamper


def _set_cell(row, col, value):
    def edit(rows):
        rows[row][col] = value

    return edit


def _machine_two_as_minus_two(col):
    """Machine 2 written as 2 - m = -2 in every row: Python reads index -2
    as machine 2."""

    def edit(rows):
        for row in rows:
            if row[col] == "2":
                row[col] = "-2"

    return edit


# Rows of a steps.csv that spans more than one read chunk of verify: jobs 0..7
# in order, delta_phi 0.0 but for the last row's 1.0 (2/n = 0.25).
LONG_STEPS = experiment.READ_BYTES // 8


def _long_steps_csv(logdir):
    rows = [f"{idx * 8 // LONG_STEPS},{idx},A,0.0\n" for idx in range(LONG_STEPS - 1)]
    rows.append(f"7,{LONG_STEPS - 1},A,1.0\n")
    path = logdir / "steps.csv"
    path.write_text("job,step_idx,type,delta_phi\n" + "".join(rows))
    assert path.stat().st_size > experiment.READ_BYTES


def _relabel_phase(logdir):
    """Phase 0 written as phase 7 in every y.csv row and in its meta.json entry."""

    def edit(rows):
        for row in rows:
            row[0] = "7"

    _edit_rows("y.csv", edit)(logdir)
    _set_meta("phases", 0, "phase", value=7)(logdir)


def _onto_a_discarded_machine(logdir):
    """Rerun the instance at a fixed guess of 9.54, below machine 1's cost
    9.554..., so that its one phase discards machine 1; then move job 3 onto
    machine 1 in assignments.csv."""
    config = experiment.RunConfig(alpha_mode="fixed", alpha_value=9.54, seed=1)
    artifacts = experiment.run_pipeline(load_instance(logdir / "instance.json"), config)
    experiment.write_run_logs(artifacts, logdir)
    assert verify_logdir(logdir) == []
    _edit_rows("assignments.csv", _set_cell(3, 1, "1"))(logdir)


def _set_meta(*keys, value):
    """A tamper of meta.json: the entry at ``keys`` set to ``value``."""

    def tamper(logdir):
        path = logdir / "meta.json"
        meta = json.loads(path.read_text())
        doc = meta
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
        path.write_text(json.dumps(meta, indent=2) + "\n")

    return tamper


def _set_report(col, value):
    """A tamper of report.csv: column ``col`` of its row set to ``value``."""
    return _edit_rows("report.csv", _set_cell(0, experiment.REPORT_COLUMNS.index(col), str(value)))


def _swap_jobs(a, b):
    """An edit of assignments.csv that swaps the job and machine of the rows
    of jobs ``a`` and ``b``, leaving each cum_cost in its row."""

    def edit(rows):
        rows[a][:2], rows[b][:2] = rows[b][:2], rows[a][:2]

    return edit


def _swap_columns(name, a, b):
    """A tamper of the CSV log ``name``: columns ``a`` and ``b`` swapped in its
    header and in every row, a file that a reader by header names reads as
    it was."""

    def tamper(logdir):
        path = logdir / name
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows:
            row[a], row[b] = row[b], row[a]
        path.write_text("".join(",".join(row) + "\n" for row in rows))

    return tamper


def _raise_y(row, by):
    """An edit of y.csv that raises the y of data row ``row`` by ``by``."""

    def edit(rows):
        rows[row][3] = repr(float(rows[row][3]) + by)

    return edit


@pytest.mark.parametrize("tamper,message", [
    (_edit_rows("assignments.csv", _machine_two_as_minus_two(1)),
     "cannot load logs: assignments.csv machine id -2 outside 0..3"),
    (_edit_rows("y.csv", _machine_two_as_minus_two(2)),
     "cannot load logs: y.csv machine id -2 outside 0..3"),
    (_edit_rows("y.csv", _set_cell(-1, 1, "-1")), "cannot load logs: y.csv job id -1 outside 0..7"),
    (_edit_rows("steps.csv", _set_cell(0, 0, "99")),
     "cannot load logs: steps.csv job id 99 outside 0..7"),
    (_edit_rows("y.csv", lambda rows: rows.append(["7", "0", "0", "0.5"])),
     "cannot load logs: y.csv phase id 7 outside 0..0"),
    (_relabel_phase, "cannot load logs: y.csv phase id 7 outside 0..0"),
    # All four machines are open: a fifth entry is one more than m.
    (_set_meta("rounding", "active", value=[True] * 4 + [False]),
     "cannot load logs: meta.json rounding.active holds 5 values, not 4"),
    (_edit_rows("assignments.csv", list.pop), "job 7: never assigned"),
    (_set_meta("rounding", "active", 1, value=False), "job 3: assigned to inactive machine 1"),
    (_onto_a_discarded_machine, "job 3: assigned to ineligible machine 1"),
    # Jobs 5 and 7 both go to machine 0: swapped, they leave every load as it was.
    (_edit_rows("assignments.csv", _swap_jobs(5, 7)),
     "cannot load logs: assignments.csv row 5 holds job 7, not job 5"),
    (_set_report("int_cost", 1.0), "final cum_cost does not match reported int_cost"),
    (_set_meta("phases", 0, "guess", value=99.0), "phase 0: guess 99.0 is not 11.851609781410122"),
    (_set_report("B", 99.0), "phase 0: guess 11.851609781410122 is not 99.0"),
    (_set_meta("violations", "counts", "potential", value=5),
     "violation counts sum to 5, not the reported invariant_violations"),
    (_edit_rows("steps.csv", lambda rows: rows[1].pop()),
     "cannot load logs: steps.csv has a row without the header's 4 fields"),
    (_edit_rows("steps.csv", lambda rows: rows[0].append("x")),
     "cannot load logs: steps.csv has a row without the header's 4 fields"),
    (_edit_rows("steps.csv", lambda rows: rows[0].extend(["x"] * 5)),
     "cannot load logs: steps.csv has a row without the header's 4 fields"),
    (_edit_rows("steps.csv", lambda rows: rows[0].append(rows[1].pop())),
     "cannot load logs: steps.csv has a row without the header's 4 fields"),
    (_edit_rows("assignments.csv", lambda rows: rows[0].append("x")),
     "cannot load logs: assignments.csv has a row without the header's 3 fields"),
    (_edit_rows("assignments.csv", lambda rows: rows[1].pop()),
     "cannot load logs: assignments.csv has a row without the header's 3 fields"),
    (_edit_rows("report.csv", lambda rows: rows[0].append("x")),
     "cannot load logs: report.csv has a row without the header's 12 fields"),
    (_edit_rows("report.csv", lambda rows: rows[0].pop()),
     "cannot load logs: report.csv has a row without the header's 12 fields"),
    (_edit_rows("steps.csv", _set_cell(2, 3, "x")),
     "cannot load logs: could not convert string to float: 'x'"),
    (_edit_rows("steps.csv", _set_cell(0, 2, "Z")),
     "cannot load logs: steps.csv type 'Z' is not A or B"),
    (lambda logdir: [_long_steps_csv(logdir), _edit_rows("steps.csv", _set_cell(-1, 2, "b"))(logdir)],
     "cannot load logs: steps.csv type 'b' is not A or B"),
    (_edit_rows("steps.csv", lambda rows: rows.insert(3, [""])),
     "cannot load logs: steps.csv has a row without the header's 4 fields"),
    (_edit_rows("steps.csv", lambda rows: rows.insert(2, rows.pop(1))),
     "cannot load logs: steps.csv step_idx 2 follows 0"),
    (_long_steps_csv, f"job 7, step {LONG_STEPS - 1}: delta_phi 1.0 > 2/n"),
    # Each of the eight jobs takes one step: a row moved to another job or
    # dropped leaves a job of the phase without steps.
    (_edit_rows("steps.csv", _set_cell(0, 0, "5")),
     "cannot load logs: steps.csv steps of phase 0 do not run through its covered jobs"),
    (_edit_rows("steps.csv", list.pop),
     "cannot load logs: steps.csv steps of phase 0 do not run through its covered jobs"),
    (_edit_rows("steps.csv", list.clear),
     "cannot load logs: steps.csv has 0 blocks from step_idx 0, not 1"),
    (lambda logdir: (logdir / "steps.csv").write_text(""),
     "cannot load logs: steps.csv does not start with the header job,step_idx,type,delta_phi"),
    # Each log needs its exact header: swapped columns are not read by their names.
    (_swap_columns("steps.csv", 0, 1),
     "cannot load logs: steps.csv does not start with the header job,step_idx,type,delta_phi"),
    (_swap_columns("assignments.csv", 0, 1),
     "cannot load logs: assignments.csv does not start with the header job,machine,cum_cost"),
    (_swap_columns("report.csv", 3, 5),
     "cannot load logs: report.csv does not start with the header " + ",".join(experiment.REPORT_COLUMNS)),
    # Every cum_cost is 26.995849427947626: the active set opens on job 0.
    (_edit_rows("assignments.csv", _set_cell(2, 2, "1")),
     "assignments.csv row 2: cum_cost 1.0 falls below 26.995849427947626"),
    (lambda logdir: (logdir / "y.csv").write_text(""),
     "cannot load logs: y.csv does not start with the header phase,job,machine,y"),
    (_set_meta("config", "alpha_mode", value="bogus"), "cannot load logs: unknown alpha_mode 'bogus'"),
    (_set_meta("config", "seed", value=5), "report column seed: 1, derived 5"),
    # A config with a, as meta.json held it before a became a constant, does not load.
    (_set_meta("config", "a", value=1.05),
     "cannot load logs: RunConfig.__init__() got an unexpected keyword argument 'a'"),
    # A phase with jobs_processed, as meta.json held it before a phase's jobs
    # were its y.csv jobs alone, does not load.
    (_set_meta("phases", 0, "jobs_processed", value=8),
     "cannot load logs: PhaseTrace.__init__() got an unexpected keyword argument 'jobs_processed'"),
    (_set_report("L", 2.0), "report column L: 2.0, derived 1.0"),
    (_set_report("frac_cost", 3.0), "report column frac_cost: 3.0, derived 3.2459666848343693"),
    (_set_report("frac_makespan", 1.9), "report column frac_makespan: 1.9, derived 1.9482782622732013"),
    (_set_report("int_makespan", 1.5), "report column int_makespan: 1.5, derived 1.8321966676215378"),
    (_set_report("cost_ratio", 2.0), "report column cost_ratio: 2.0, derived 2.277821319285423"),
    (_set_report("makespan_ratio", 1.5),
     "report column makespan_ratio: 1.5, derived 1.8321966676215378"),
    (_set_report("clamp_count", 15), "report column clamp_count: 15, derived 16"),
    (_set_meta("phases", 0, "coverage_clamps", value=9), "report column clamp_count: 16, derived 17"),
    (_set_meta("phases", 0, "x_final", 0, value=0.3),
     "report column frac_cost: 3.2459666848343693, derived 3.2760121270658233"),
    (_set_meta("phases", 0, "x_final", value=[1.0] * 5),
     "cannot load logs: meta.json phase 0: 5 x_final values, not 4"),
    (_set_meta("phases", 0, "guess", value=0), "cannot load logs: division by zero"),
    (_edit_rows("y.csv", _set_cell(1, 3, "1e9")),
     "phase 0, job 0: coverage 1000000000.4189864 outside [1-1e-9, 1+1e-9]"),
    # Job 0's coverage still sums to 1: machine 1's y is raised by what machine 3's takes.
    (_edit_rows("y.csv", lambda rows: [_raise_y(0, 0.1)(rows), rows.append(["0", "0", "3", "-0.1"])]),
     "cannot load logs: y.csv phase 0, job 0, machine 3: y -0.1 is not > 0"),
    # Job 0's real machine-1 row follows the inserted one: the last value would win.
    (_edit_rows("y.csv", lambda rows: rows.insert(0, ["0", "0", "1", "0.9"])),
     "cannot load logs: y.csv repeats phase 0, job 0, machine 1"),
], ids=["assignment-machine-minus-m", "y-machine-minus-m", "y-job-minus-one", "steps-job-99",
        "y-unknown-phase", "y-and-meta-phase-7", "active-fifth-entry",
        "never-assigned", "inactive-machine", "ineligible-machine", "assignments-rows-swapped",
        "final-cum-cost", "first-guess", "report-B", "meta-violation-counts",
        "steps-short-row", "steps-extra-field", "steps-nine-fields", "steps-field-moved-up",
        "assignments-extra-field", "assignments-short-row", "report-extra-field", "report-short-row",
        "steps-delta-phi-not-a-number", "steps-type-Z", "steps-type-in-a-later-chunk",
        "steps-blank-line", "steps-idx-swapped", "steps-long-file", "steps-job-moved",
        "steps-last-row-dropped", "steps-header-only", "steps-empty", "steps-columns-swapped",
        "assignments-columns-swapped", "report-columns-swapped", "cum-cost-falls", "y-empty",
        "config-mode", "config-seed", "config-a", "phase-jobs-processed", "report-L", "report-frac_cost",
        "report-frac_makespan", "report-int_makespan", "report-cost_ratio", "report-makespan_ratio",
        "report-clamp_count", "phase-clamps", "phase-x_final", "phase-x_final-too-long",
        "phase-guess-zero", "y-overflows-the-potential", "y-not-positive", "y-repeated"])
def test_verify_reports_tampered_ids_and_rounding_logs(tmp_path, tamper, message):
    logdir = _clean_run(tmp_path)
    assert verify_logdir(logdir) == []
    tamper(logdir)
    assert message in verify_logdir(logdir)
    assert main(["verify", "--logdir", str(logdir)]) == 3


@pytest.mark.parametrize("alpha, model, keys, value, message", [
    ("12.5", "uniform", ("config", "alpha_value"), 3.0, "phase 0: guess 12.5 is not 3.0"),
    # The default guess is 2.2974365144767037; four phases double it three times.
    ("double", "restricted_assignment", ("phases", 0, "guess"), 1.0,
     "phase 0: guess 1.0 is not 2.2974365144767037"),
    ("double", "restricted_assignment", ("phases", 2, "guess"), 9.0,
     "phase 2: guess 9.0 is not 9.189746057906815"),
], ids=["fixed-alpha-value", "double-first-guess", "double-later-guess"])
def test_verify_rederives_each_phase_guess(tmp_path, alpha, model, keys, value, message):
    path = gen_file(tmp_path, m=4, n=8, seed=1, model=model)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", alpha, "--seed", "1",
                 "--logdir", str(logdir)]) == 0
    phases = json.loads((logdir / "meta.json").read_text())["phases"]
    assert len(phases) == (4 if alpha == "double" else 1)
    assert verify_logdir(logdir) == []
    _set_meta(*keys, value=value)(logdir)
    assert verify_logdir(logdir) == [message]
    assert main(["verify", "--logdir", str(logdir)]) == 3


def test_verify_ties_the_active_set_to_int_cost(tmp_path):
    # Restricted m=4, n=8, seed 2 opens machines 0 and 3; opening machine 1
    # in meta.json leaves the reported int_cost short of the active set's cost.
    path = gen_file(tmp_path, m=4, n=8, seed=2, model="restricted_assignment")
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "double", "--seed", "1",
                 "--logdir", str(logdir)]) == 0
    meta = json.loads((logdir / "meta.json").read_text())
    assert meta["rounding"]["active"] == [True, False, False, True]
    assert verify_logdir(logdir) == []
    _set_meta("rounding", "active", 1, value=True)(logdir)
    assert verify_logdir(logdir) == [
        "active machines cost 8.868172978186829, not the reported int_cost 5.18175268745972"
    ]
    assert main(["verify", "--logdir", str(logdir)]) == 3


def _drop_rows(col, value):
    """An edit that drops every row whose column ``col`` holds ``value``."""

    def edit(rows):
        rows[:] = [row for row in rows if row[col] != value]

    return edit


def _drop_job(job, *names):
    """A tamper that drops every row of ``job`` from the logs ``names``."""
    col = {"y.csv": 1, "steps.csv": 0, "assignments.csv": 0}

    def tamper(logdir):
        for name in names:
            _edit_rows(name, _drop_rows(col[name], str(job)))(logdir)

    return tamper


@pytest.mark.parametrize("tamper,message", [
    (_drop_job(7, "y.csv", "steps.csv", "assignments.csv"),
     "cannot load logs: y.csv phases keep 7 jobs, not 8"),
    (_drop_job(3, "y.csv", "steps.csv"),
     "cannot load logs: y.csv jobs of phase 0 do not follow the jobs of the phases before it"),
], ids=["job-7-dropped", "job-3-dropped"])
def test_verify_requires_the_phases_to_cover_the_jobs_they_kept(tmp_path, tamper, message):
    # Uniform m=4, n=8, seed 5 in oracle mode: one phase keeps all eight jobs,
    # those of its y.csv rows. Dropping the last job everywhere leaves seven;
    # dropping a job mid-phase leaves the jobs after it out of sequence.
    path = gen_file(tmp_path, m=4, n=8, seed=5)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "oracle", "--seed", "0",
                 "--logdir", str(logdir)]) == 0
    assert verify_logdir(logdir) == []
    tamper(logdir)
    assert verify_logdir(logdir) == [message]
    assert main(["verify", "--logdir", str(logdir)]) == 3


def test_verify_rejects_a_B_outside_oracle_mode(tmp_path):
    # Only the oracle computes B; a fixed run reports none, and so no cost_ratio.
    path = gen_file(tmp_path, m=4, n=8, seed=1)
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "9.6", "--seed", "1",
                 "--logdir", str(logdir)]) == 0
    assert verify_logdir(logdir) == []
    _set_report("B", 5.0)(logdir)
    assert verify_logdir(logdir) == ["report column B: 5.0, derived None"]


# Read sizes of verify's chunks: 1 byte makes each row a chunk of its own.
READ_SIZES = [1, 64, experiment.READ_BYTES]


@pytest.mark.parametrize("read_bytes", READ_SIZES)
def test_verify_reads_every_log_in_chunks_of_any_size(tmp_path, monkeypatch, read_bytes):
    # Below the default size y.csv, steps.csv and assignments.csv span several
    # chunks; at 1 byte each data row is one.
    logdir = _clean_run(tmp_path)
    monkeypatch.setattr(experiment, "READ_BYTES", read_bytes)
    chunks, columns = Counter(), experiment._columns

    def counted(path, header):
        for cols in columns(path, header):
            chunks[path.name] += 1
            yield cols

    monkeypatch.setattr(experiment, "_columns", counted)
    assert verify_logdir(logdir) == []
    rows = {name: len((logdir / name).read_text().splitlines()) - 1 for name in chunks}
    assert set(rows) == {"y.csv", "steps.csv", "assignments.csv", "report.csv"}
    if read_bytes == 1:
        assert chunks == rows
    elif read_bytes == 64:
        assert min(chunks[name] for name in ("y.csv", "steps.csv", "assignments.csv")) > 1
    else:
        assert set(chunks.values()) == {1}


@pytest.mark.parametrize("read_bytes", READ_SIZES)
def test_verify_rejects_a_phase_steps_relabelled_as_the_phase_before(tmp_path, monkeypatch, read_bytes):
    # Restricted m=3, n=6, seed 2 doubles twice; its three phases cover 3, 2
    # and 1 jobs. Phase 1's steps numbered on from phase 0's read as one block.
    monkeypatch.setattr(experiment, "READ_BYTES", read_bytes)
    path = gen_file(tmp_path, m=3, n=6, seed=2, model="restricted_assignment")
    logdir = tmp_path / "logs"
    assert main(["run", "--in", str(path), "--alpha", "double", "--seed", "0",
                 "--logdir", str(logdir)]) == 0
    assert verify_logdir(logdir) == []

    def relabel(rows):
        starts = [k for k, row in enumerate(rows) if row[1] == "0"]
        assert len(starts) == 3
        for k in range(starts[1], starts[2]):
            rows[k][1] = str(k)

    _edit_rows("steps.csv", relabel)(logdir)
    assert verify_logdir(logdir) == ["cannot load logs: steps.csv has 2 blocks from step_idx 0, not 3"]
    assert main(["verify", "--logdir", str(logdir)]) == 3


def test_verify_reads_a_crlf_steps_csv(tmp_path):
    logdir = _clean_run(tmp_path)
    path = logdir / "steps.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert verify_logdir(logdir) == []


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
