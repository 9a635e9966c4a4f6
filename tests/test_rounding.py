import math

import pytest

from actsched.fractional import JobFraction, preprocess
from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate
from actsched.rounding import (
    RoundingInvariantError,
    RoundingState,
    draw_thresholds,
    process_job_rounded,
)


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget, n_declared=len(jobs))


def uniform_instance(m, n, seed):
    return generate(GeneratorConfig(m=m, n=n, seed=seed, ptime_model="uniform"))


def frac_of(m, job=0, x=None, y=None, p=None, eligible=None):
    return JobFraction(
        job=job,
        x=tuple(x if x is not None else [0.5] * m),
        y=tuple(y if y is not None else [0.0] * m),
        p_scaled=tuple(p if p is not None else [0.5] * m),
        eligible=tuple(eligible if eligible is not None else [True] * m),
    )


# -- thresholds -----------------------------------------------------------------


def test_thresholds_deterministic():
    assert draw_thresholds(10, 42) == draw_thresholds(10, 42)
    assert draw_thresholds(10, 42) != draw_thresholds(10, 43)


def test_thresholds_single_machine_in_unit_interval():
    (r,) = draw_thresholds(1, 7)
    assert 0.0 <= r <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 999])
def test_thresholds_empirical_mean(seed):
    values = draw_thresholds(10**4, seed)
    mean = sum(values) / len(values)
    assert 0.48 <= mean <= 0.52


# -- activation ------------------------------------------------------------------


def test_activation_threshold_formula():
    inst = uniform_instance(10, 10, 0)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.2] + [1.0] * 9
    newly = rs.activation_step(frac_of(10, x=[0.05] + [0.0] * 9))
    # 5 * 0.05 * ln(100) = 1.151 >= 0.2
    assert newly == [0]
    assert rs.int_cost == inst.costs()[0]


def test_activation_below_threshold_stays_inactive():
    inst = uniform_instance(50, 2, 1)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.999] * 50
    x = [1.0 / 50] * 50
    assert 5 * (1 / 50) * math.log(100) < 0.999
    assert rs.activation_step(frac_of(50, x=x, p=[0.5] * 50)) == []
    assert rs.int_cost == 0.0


def test_activation_idempotent_no_double_charge():
    inst = uniform_instance(3, 4, 2)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.0, 1.0, 1.0]
    frac = frac_of(3, x=[0.9, 0.0, 0.0])
    rs.activation_step(frac)
    cost_after_first = rs.int_cost
    assert rs.activation_step(frac) == []
    assert rs.int_cost == cost_after_first


def test_discarded_machines_never_activate():
    inst = uniform_instance(3, 4, 3)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.0, 0.0, 0.0]
    frac = frac_of(3, x=[1.0, 1.0, 1.0], eligible=[True, False, True])
    assert rs.activation_step(frac) == [0, 2]


# -- scores ------------------------------------------------------------------------


def test_score_branches_at_cut():
    inst = uniform_instance(10, 10, 4)
    rs = RoundingState(inst, seed=0)
    cut = 1.0 / (5.0 * math.log(100))
    assert 0.0434 < cut < 0.0435
    high = frac_of(10, y=[0.4] + [0.0] * 9, x=[0.5] * 10)
    assert rs.scores(high)[0] == pytest.approx(0.4, rel=1e-12)
    low = frac_of(10, y=[0.03] + [0.0] * 9, x=[0.02] + [0.5] * 9)
    assert rs.scores(low)[0] == pytest.approx(0.75, rel=1e-12)


def test_score_above_one_rejected():
    inst = uniform_instance(10, 10, 5)
    rs = RoundingState(inst, seed=0)
    bad = frac_of(10, y=[0.05] + [0.0] * 9, x=[0.02] + [0.5] * 9)  # y > 2x
    with pytest.raises(RoundingInvariantError):
        rs.scores(bad)


# -- assignment ----------------------------------------------------------------------


def test_single_positive_score_machine_always_chosen():
    inst = uniform_instance(4, 6, 6)
    for seed in range(10):
        rs = RoundingState(inst, seed=seed)
        rs.active = [True, True, False, False]
        frac = frac_of(4, y=[0.0, 0.8, 0.0, 0.0], x=[0.5] * 4)
        assert rs.assignment_step(frac) == 1
        assert rs.int_load[1] == frac.p_scaled[1]


def test_fallback_activates_best_scoring_machine():
    inst = uniform_instance(3, 5, 7)
    rs = RoundingState(inst, seed=0)
    frac = frac_of(3, y=[0.2, 0.8, 0.2], x=[0.5] * 3)
    chosen = rs.assignment_step(frac)  # nothing active: forced activation
    assert chosen == 1
    assert rs.active[1] and rs.fallback_count == 1


def test_fallback_all_zero_scores_uses_cost_weighted_ptime():
    inst = make_instance([4.0, 1.0, 2.0], [[0.5, 0.9, 0.1]])
    rs = RoundingState(inst, seed=0)
    frac = frac_of(3, y=[0.0, 0.0, 0.0], x=[0.5] * 3, p=[0.5, 0.9, 0.1])
    chosen = rs.assignment_step(frac)  # c*p = [2.0, 0.9, 0.2] -> machine 2
    assert chosen == 2
    assert rs.active == [False, False, True]
    assert rs.fallback_count == 1


# -- full rounding over the pipeline ---------------------------------------------------


def run_rounded(inst, alpha, seed):
    fs = preprocess(inst, alpha)
    rs = RoundingState(inst, seed=seed)
    for j in range(inst.n_declared):
        process_job_rounded(rs, fs, j)
    return fs, rs


def test_every_job_assigned_to_active_machine():
    for seed in range(10):
        inst = uniform_instance(4, 8, 20 + seed)
        _, rs = run_rounded(inst, sum(inst.costs()), seed)
        assert set(rs.assignment) == set(range(8))
        for j, i in rs.assignment.items():
            assert rs.active[i]


def test_end_to_end_determinism():
    inst = uniform_instance(5, 9, 31)
    _, rs1 = run_rounded(inst, sum(inst.costs()), 12)
    _, rs2 = run_rounded(inst, sum(inst.costs()), 12)
    assert rs1.assignment == rs2.assignment
    assert rs1.active == rs2.active
    assert rs1.int_load == rs2.int_load
    _, rs3 = run_rounded(inst, sum(inst.costs()), 13)
    assert rs3.r != rs1.r


def test_int_cost_is_exact_sum_of_active_costs():
    inst = uniform_instance(6, 10, 44)
    _, rs = run_rounded(inst, sum(inst.costs()), 5)
    costs = inst.costs()
    assert rs.int_cost == sum(costs[i] for i in range(6) if rs.active[i])


def test_activation_is_monotone_and_snapshots_recorded():
    inst = uniform_instance(4, 6, 51)
    fs = preprocess(inst, sum(inst.costs()))
    rs = RoundingState(inst, seed=2)
    active_before = list(rs.active)
    for j in range(6):
        process_job_rounded(rs, fs, j)
        assert all(b or not a for a, b in zip(active_before, rs.active))
        active_before = list(rs.active)
        assert fs.job_fraction(j).x == tuple(fs.x)


def test_assignment_log_columns():
    inst = uniform_instance(3, 5, 60)
    _, rs = run_rounded(inst, sum(inst.costs()), 1)
    assert len(rs.log) == 5
    cum = 0.0
    for rec in rs.log:
        cum += rec.newly_activated_cost
        assert rec.cum_cost == pytest.approx(cum, abs=1e-12)
    assert rs.log[-1].int_makespan == rs.int_makespan()


def test_deficit_fraction_small_monte_carlo():
    # Across 500 rounding seeds on 10x10 instances, the active score mass
    # at assignment time dips below 1 for at most 5% of jobs.
    from actsched.experiment import oracle_solve, replay_rounding

    deficits = 0
    jobs = 0
    for iseed in range(3):
        inst = uniform_instance(10, 10, 70 + iseed)
        alpha = oracle_solve(inst).optimal_cost
        fs = preprocess(inst, alpha)
        records = []
        for j in range(10):
            fs.process_job(j)
            records.append(fs.job_fraction(j))
        for rseed in range(500):
            rs = replay_rounding(inst, records, rseed)
            deficits += rs.deficit_jobs
            jobs += 10
    assert deficits / jobs <= 0.05
