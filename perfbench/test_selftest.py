"""Fast self-test of the benchmark: every workload at tiny sizes, the traced
run, and the checks' power to catch a wrong output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    out = workloads.run_workload(name, seed=3, seconds=0, trace=False, workdir=tmp_path, tiny=True)
    assert out.problems == []
    assert out.attempted > 0
    assert len(out.wall_s) == 1 and len(out.setup_s) == workloads.SETUP_REPEATS + 1
    # Only the faults named in README.md can fail an operation today.
    assert set(out.failed_by_kind) <= {"verify", "run"}
    assert all(value > 0 for value, _ in workloads.end_to_end(out).values())


def test_traced_run_reports_every_layer_and_unwraps(tmp_path):
    out = workloads.run_workload("double-default", seed=1, seconds=0, trace=True, workdir=tmp_path, tiny=True)
    layers = workloads.per_layer(out)
    assert set(layers) == {name for name, _, _ in PER_LAYER}
    assert layers["fractional.order_and_split.calls"] > 0
    assert layers["doubling.phases"] >= 3  # one controller run per double-default instance
    assert layers["experiment.audit_consistency.s"] > 0
    assert layers["experiment.verify_logdir.s"] > 0
    import actsched.experiment as experiment

    assert not hasattr(experiment.run_pipeline, "__wrapped__")


def _tiny_run(seed=5):
    pkg = workloads.import_actsched()
    inst = pkg.generate(pkg.GeneratorConfig(m=4, n=9, seed=seed, ptime_model="uniform"))
    cfg = pkg.experiment.RunConfig(alpha_mode="fixed", alpha_value=sum(inst.costs()) / 4, seed=seed)
    return pkg, inst, pkg.experiment.run_pipeline(inst, cfg)


def test_checks_pass_on_a_correct_run(tmp_path):
    pkg, inst, art = _tiny_run()
    assert checks.check_run(inst, art) == []
    pkg.experiment.write_run_logs(art, tmp_path)
    assert checks.check_logs(art, tmp_path) == []


def test_log_check_catches_a_dropped_row(tmp_path):
    pkg, _, art = _tiny_run()
    pkg.experiment.write_run_logs(art, tmp_path)
    for name in ("steps.csv", "y.csv"):
        path = tmp_path / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: text.rstrip("\n").rfind("\n") + 1], encoding="utf-8")
    problems = checks.check_logs(art, tmp_path)
    assert any("steps.csv" in p for p in problems)
    assert any("y.csv" in p for p in problems)


def test_potential_and_audit_checks_catch_a_wrong_phi_and_a_violation():
    _, inst, art = _tiny_run()
    trace = art.phases[0]
    trace.phi += 1e-3
    assert any("potential" in p for p in checks.check_potential(inst, art))
    art.violations.add("potential", "phase 0, job 1, step 0: delta_phi 0.9 > 2/n=0.2")
    assert checks.check_live_audits(art) == []
    art.violations.add("feasibility", "job 2: coverage 0.5 outside [1-1e-9, 1]")
    assert checks.check_live_audits(art) != []


def test_only_the_known_verify_problems_are_let_through():
    known = "phase 0, job 3: coverage 1.0000000000000002 outside [1-1e-9, 1]"
    step = "job 4 step 2: delta_phi 0.5 > 2/n"
    wrong = "phase 0, job 5: coverage 1.01 outside [1-1e-9, 1]"
    other = "final cum_cost does not match reported int_cost"
    assert checks.unexpected_verify_problems([known, step]) == []
    assert checks.unexpected_verify_problems([wrong, other]) == [wrong, other]


def test_integer_check_catches_a_wrong_assignment():
    _, inst, art = _tiny_run()
    inactive = [i for i in range(inst.m) if not art.rounding.active[i]]
    if not inactive:
        pytest.skip("every machine is active on this instance")
    art.rounding.assignment[0] = inactive[0]
    assert any("inactive machine" in p for p in checks.check_integer_schedule(inst, art))


def test_integer_check_catches_a_wrong_cost():
    _, inst, art = _tiny_run()
    art.row["int_cost"] += 1.0
    assert any("int_cost" in p for p in checks.check_integer_schedule(inst, art))


def test_fractional_check_catches_excess_coverage_and_load():
    _, inst, art = _tiny_run()
    frac = art.records[0]
    art.records[0] = dataclasses.replace(frac, y=tuple(1.01 * y for y in frac.y))
    trace = art.phases[0]
    trace.load_final = (trace.load_final[0] + 1e-6,) + trace.load_final[1:]
    problems = checks.check_fractional(inst, art)
    assert any("coverage" in p for p in problems)
    assert any("machine 0: load" in p for p in problems)


def test_milp_reference_matches_exhaustive_oracle():
    pkg = workloads.import_actsched()
    for seed, model in ((0, "uniform"), (1, "restricted_assignment"), (2, "power_law")):
        inst = pkg.generate(pkg.GeneratorConfig(m=3, n=6, seed=seed, ptime_model=model))
        exact = pkg.optimal_exhaustive(inst)
        assert checks.milp_optimum(inst) == pytest.approx(exact.optimal_cost, rel=1e-9)
        assert checks.check_oracle_witness(inst, exact.optimal_cost, exact.witness) == []
        assert checks.check_oracle_witness(inst, exact.optimal_cost + 1.0, exact.witness) != []


def test_sweep_aggregate_check_catches_a_wrong_mean(tmp_path):
    pkg = workloads.import_actsched()
    w = workloads.WORKLOADS["oracle-sweep"]
    report = tmp_path / "report.csv"
    aggregate = pkg.experiment.run_sweep(workloads.sweep_docs(w, 0, tiny=True)["power_law-s1"], report)
    rows = checks.read_csv(report)
    agg_rows = checks.read_csv(tmp_path / "report_aggregate.csv")
    assert checks.check_sweep_aggregate(rows, agg_rows, aggregate) == []
    aggregate["int_cost"]["mean"] *= 1.001
    assert checks.check_sweep_aggregate(rows, agg_rows, aggregate) != []
