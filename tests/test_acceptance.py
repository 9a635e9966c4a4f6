"""Acceptance suite.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines on success). Suites are shared through module-scoped fixtures so the
feasibility and potential criteria observe the same 100 runs.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from actsched.cli import main as cli_main
from actsched.doubling import run_with_doubling
from actsched.experiment import (
    RunConfig,
    oracle_solve,
    replay_rounding,
    run_pipeline,
)
from actsched.fractional import FractionalState, fractional_cost
from actsched.instances import PTIME_MODELS, GeneratorConfig, generate, save_instance
from actsched.oracle import optimal_bnb, optimal_exhaustive
from actsched.rounding import score_job

EXHAUSTIVE_GUARD = 10**7


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


# -- shared suites ------------------------------------------------------------


@pytest.fixture(scope="module")
def feasibility_suite():
    """100 seeded runs, m in [2,10], n in [5,50], all audits on, alpha from
    the oracle where the exhaustive guard permits, else the total machine
    cost."""
    runs = []
    t0 = time.perf_counter()
    for s in range(100):
        m = 2 + s % 9
        n = 5 + (7 * s) % 46
        model = PTIME_MODELS[s % 3]
        inst = generate(GeneratorConfig(m=m, n=n, seed=s, ptime_model=model))
        if m**n <= EXHAUSTIVE_GUARD:
            cfg = RunConfig(alpha_mode="oracle", seed=s)
        else:
            cfg = RunConfig(alpha_mode="fixed", alpha_value=sum(inst.costs()), seed=s)
        runs.append((s, m, n, model, run_pipeline(inst, cfg)))
    elapsed = time.perf_counter() - t0
    return {"elapsed": elapsed, "runs": runs}


@pytest.fixture(scope="module")
def rounding_sweep():
    """20 instances (m=n=10), alpha = exact optimum, 200 rounding seeds each."""
    m = n = 10
    out = []
    for s in range(20):
        model = PTIME_MODELS[s % 3]
        inst = generate(GeneratorConfig(m=m, n=n, seed=2000 + s, ptime_model=model))
        B = oracle_solve(inst).optimal_cost
        fs = FractionalState(inst, B)
        jobs = []
        for j in range(n):
            fs.process_job(j)
            jobs.append(score_job(inst, fs.job_fraction(j)))
        # rescaled -> original units
        frac_cost_original = fractional_cost(fs.x, fs.scaled_costs, fs.discarded) * B / m
        int_costs = []
        makespan_ratios = []
        fallbacks = 0
        for rseed in range(200):
            rs = replay_rounding(inst, jobs, rseed)
            int_costs.append(rs.int_cost)
            makespan_ratios.append(rs.int_makespan() / inst.makespan_budget)
            fallbacks += rs.fallback_count
        out.append(
            {
                "seed": 2000 + s,
                "frac_cost_original": frac_cost_original,
                "int_costs": int_costs,
                "makespan_ratios": makespan_ratios,
                "fallbacks": fallbacks,
            }
        )
    return out


# -- criteria -------------------------------------------------------------------


def test_criterion_1_feasibility(feasibility_suite):
    violations = sum(art.violations.counts["feasibility"] for *_, art in feasibility_suite["runs"])
    elapsed = feasibility_suite["elapsed"]
    ok = violations == 0 and elapsed < 60.0
    _report(
        "1 (feasibility suite)",
        ok,
        f"{violations} violations over 100 runs, {elapsed:.1f}s (< 60s)",
    )
    assert ok


def test_criterion_2_potential_bound(feasibility_suite):
    total = 0
    samples = []
    for s, m, n, model, art in feasibility_suite["runs"]:
        # The potential right after pre-processing is at most m (each kept
        # machine starts at phi_i <= 1); no log keeps it, so it is
        # recomputed here.
        start = FractionalState(art.instance, art.alpha).phi
        if start > m + 1e-9:
            total += 1
            samples.append(f"seed {s} (m={m}, n={n}, {model}): starting potential {start!r} > m")
        count = art.violations.counts["potential"]
        total += count
        if count:
            samples.extend(
                f"seed {s} (m={m}, n={n}, {model}): {msg}"
                for msg in art.violations.messages
                if msg.startswith("[potential]")
            )
    ok = total == 0
    _report(
        "2 (potential-step bound)",
        ok,
        f"{total} violating steps or starting potentials over 100 runs",
    )
    for line in samples[:5]:
        print("  " + line)
    assert ok, (
        f"{total} starting potentials exceeded m or steps exceeded "
        "delta_phi <= 2/n + 1e-9. A jump occurs when a "
        "machine becomes fully active while its load exceeds 1: the potential "
        "switches from c*x to c*a^(load-1) in that single step. It happens at "
        "a guess equal to the optimum too (power_law m=13, n=91, seed 17; see "
        "test_full_activation_under_load_can_jump_potential), so a guess from "
        "the oracle does not rule it out."
    )


def test_criterion_3_fractional_bounds():
    worst_cost = 0.0
    worst_load = 0.0
    for s in range(100):
        m = 2 + s % 3
        n = 5 + s % 4
        model = PTIME_MODELS[s % 3]
        inst = generate(GeneratorConfig(m=m, n=n, seed=1000 + s, ptime_model=model))
        B = oracle_solve(inst).optimal_cost
        fs = FractionalState(inst, B)
        for j in range(n):
            fs.process_job(j)
        denom = m * (1.0 + math.log(m))
        worst_cost = max(worst_cost, fractional_cost(fs.x, fs.scaled_costs, fs.discarded) / denom)
        makespan = max(load for load, d in zip(fs.load, fs.discarded) if not d)
        worst_load = max(worst_load, makespan / (1.0 + math.log(m)))
    ok = worst_cost <= 50.0 and worst_load <= 20.0
    _report(
        "3 (fractional bounds)",
        ok,
        f"max frac_cost/(m(1+ln m)) = {worst_cost:.3f} (<= 50), "
        f"max load/(1+ln m) = {worst_load:.3f} (<= 20)",
    )
    assert ok


def test_criterion_4_rounding_cost(rounding_sweep):
    ln_mn = math.log(100)
    worst = 0.0
    fallbacks = 0
    jobs = 0
    for entry in rounding_sweep:
        mean_int = sum(entry["int_costs"]) / len(entry["int_costs"])
        # both sides in original cost units
        bound = 10.0 * ln_mn * entry["frac_cost_original"]
        worst = max(worst, mean_int / bound)
        fallbacks += entry["fallbacks"]
        jobs += 200 * 10
    fallback_share = fallbacks / jobs
    ok = worst <= 1.0 and fallback_share <= 0.05
    _report(
        "4 (rounding cost)",
        ok,
        f"max mean int_cost / (10 ln(mn) frac_cost) = {worst:.3f} (<= 1), "
        f"fallbacks = {fallback_share:.4%} of jobs (<= 5%)",
    )
    assert ok


def test_criterion_5_rounding_makespan(rounding_sweep):
    limit = 30.0 * (1.0 + math.log(10))
    ratios = [r for entry in rounding_sweep for r in entry["makespan_ratios"]]
    within = sum(1 for r in ratios if r <= limit) / len(ratios)
    p95 = float(np.percentile(ratios, 95))
    ok = within >= 0.95
    _report(
        "5 (rounding makespan)",
        ok,
        f"{within:.2%} of seeds within 30(1+ln m)L = {limit:.1f}; observed p95 ratio = {p95:.2f}",
    )
    assert ok


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for s in range(50):
        m = 2 + s % 2
        n = 3 + s % 4
        model = PTIME_MODELS[s % 3]
        inst = generate(GeneratorConfig(m=m, n=n, seed=4000 + s, ptime_model=model))
        a = optimal_exhaustive(inst)
        b = optimal_bnb(inst)
        if b.optimal_cost != a.optimal_cost:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        "6 (oracle equivalence)",
        ok,
        f"{mismatches} mismatches over 50 instances, {elapsed:.1f}s (< 30s)",
    )
    assert ok


def test_criterion_7_determinism(tmp_path):
    inst = generate(GeneratorConfig(m=4, n=8, seed=7))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    args = ["run", "--in", str(path), "--alpha", "oracle", "--seed", "5"]
    assert cli_main(args + ["--logdir", str(tmp_path / "A")]) == 0
    assert cli_main(args + ["--logdir", str(tmp_path / "B")]) == 0
    files = (
        "instance.json",
        "meta.json",
        "steps.csv",
        "y.csv",
        "assignments.csv",
        "report.csv",
    )
    identical = all(
        filecmp.cmp(tmp_path / "A" / f, tmp_path / "B" / f, shallow=False) for f in files
    )
    _report("7 (determinism)", identical, "two identical runs produce byte-identical logs")
    assert identical


def test_criterion_8_doubling_sanity():
    # Models without sentinel entries. A lamed guess on a restricted
    # instance can discard every machine a job fits on, which trips a
    # doubling; that case is covered in test_doubling.py.
    worst_phases = 0
    worst_ratio = 0.0
    for s in range(20):
        m = 2 + s % 3
        n = 5 + s % 4
        model = ("uniform", "power_law")[s % 2]
        inst = generate(GeneratorConfig(m=m, n=n, seed=3000 + s, ptime_model=model))
        B = oracle_solve(inst).optimal_cost
        fixed = run_pipeline(
            inst, RunConfig(alpha_mode="fixed", alpha_value=B, seed=s, checks=())
        )
        doubled = run_with_doubling(inst, initial_guess=B / 8.0)
        worst_phases = max(worst_phases, len(doubled.phases))
        jobs = [score_job(inst, frac) for frac in doubled.records]
        doubled_cost = replay_rounding(inst, jobs, s).int_cost
        worst_ratio = max(worst_ratio, doubled_cost / fixed.rounding.int_cost)
    ok = worst_phases <= 5 and worst_ratio <= 4.0
    _report(
        "8 (doubling sanity)",
        ok,
        f"max phases = {worst_phases} (<= 5), max int_cost ratio vs alpha=B = "
        f"{worst_ratio:.3f} (<= 4)",
    )
    assert ok
