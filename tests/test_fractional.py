import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actsched.experiment import oracle_solve
from actsched.fractional import (
    COVERAGE_TOL,
    GuessTooSmallError,
    StepCapError,
    TYPE_A,
    TYPE_B,
    effective_capacity,
    preprocess,
)
from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget, n_declared=len(jobs))


# -- pre-processing ------------------------------------------------------------


def test_preprocess_three_rules():
    inst = make_instance([0.5, 1.0, 3.0, 10.0], [[0.5] * 4])
    fs = preprocess(inst, alpha=4.0)  # rescale factor m/alpha = 1
    assert fs.discarded == [False, False, False, True]
    assert fs.scaled_costs[:3] == [1.0, 1.0, 3.0]
    assert fs.x == [1.0, 1.0, 0.25, 0.0]
    assert fs.fully_active == [True, True, False, False]


def test_preprocess_all_discarded_signals_small_guess():
    inst = make_instance([100.0, 200.0], [[0.5, 0.5]])
    with pytest.raises(GuessTooSmallError):
        preprocess(inst, alpha=2.0)


def test_preprocess_potential_at_most_m():
    for seed in range(30):
        inst = generate(GeneratorConfig(m=2 + seed % 6, n=4, seed=seed))
        alpha = sum(inst.costs()) if seed % 2 else max(inst.costs())
        fs = preprocess(inst, alpha)
        assert fs.phi <= fs.m + 1e-9


def test_parameter_validation():
    inst = make_instance([1.0], [[0.5]])
    with pytest.raises(ValueError):
        preprocess(inst, alpha=0.0)
    with pytest.raises(ValueError):
        preprocess(inst, alpha=1.0, a=1.0)
    with pytest.raises(ValueError):
        preprocess(inst, alpha=1.0, a=13.0 / 12.0)


# -- virtual cost ---------------------------------------------------------------


def test_virtual_cost_partially_active():
    inst = make_instance([0.5, 1.0, 3.0, 10.0], [[0.9, 0.9, 0.5, 0.9]])
    fs = preprocess(inst, alpha=4.0)
    assert fs.virtual_cost(2, 0) == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("a", [1.01, 1.05, 1.08])
def test_virtual_cost_fully_active_unit_load(a):
    inst = make_instance([2.0, 2.0], [[0.5, 0.9]])
    fs = preprocess(inst, alpha=2.0, a=a)
    fs.x[0] = 1.0
    fs.fully_active[0] = True
    fs.load[0] = 1.0
    assert fs.virtual_cost(0, 0) == pytest.approx(1.0, rel=1e-12)


def test_virtual_cost_fully_active_load_two():
    inst = make_instance([1.0], [[1.0]])
    fs = preprocess(inst, alpha=1.0, a=1.05)
    fs.load[0] = 2.0
    assert fs.virtual_cost(0, 0) == pytest.approx(1.05, rel=1e-12)


def test_virtual_cost_rejects_discarded():
    inst = make_instance([0.5, 10.0], [[0.5, 0.5]])
    fs = preprocess(inst, alpha=2.0)
    with pytest.raises(ValueError):
        fs.virtual_cost(1, 0)


# -- ordering and split -----------------------------------------------------------


def test_order_and_split_prefix_rule():
    inst = make_instance([2.0, 2.0, 2.0], [[0.1, 0.2, 0.3]])
    fs = preprocess(inst, alpha=3.0)
    fs.x = [0.3, 0.4, 0.5]
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [0, 1]  # 0.3 + 0.4 < 1, adding 0.5 would reach 1.2
    assert pivot == 2


def test_order_and_split_strict_inequality():
    inst = make_instance([1.0], [[0.5]])
    fs = preprocess(inst, alpha=1.0)
    assert fs.x == [1.0]
    prefix, pivot = fs.order_and_split(0)
    assert prefix == []  # a sum of exactly 1 is not < 1
    assert pivot == 0


def test_order_and_split_prefix_covers_everything():
    inst = make_instance([2.0, 2.0], [[0.1, 0.2]])
    fs = preprocess(inst, alpha=2.0)
    fs.x = [0.2, 0.3]
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [0, 1]
    assert pivot is None


def test_order_breaks_ties_by_id():
    inst = make_instance([2.0, 2.0], [[0.5, 0.5]])
    fs = preprocess(inst, alpha=2.0)
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [0]
    assert pivot == 1


# -- effective capacity ------------------------------------------------------------


def test_effective_capacity_values():
    assert effective_capacity(0.1, 0.01, 0.5) == pytest.approx(0.12, rel=1e-12)
    assert effective_capacity(0.1, 0.01, 1.0) == pytest.approx(0.06, rel=1e-12)
    assert effective_capacity(0.1, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        effective_capacity(0.1, -0.1, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    dx=st.floats(0.0, 1.0),
    p=st.floats(1e-6, 1e7),
)
def test_effective_capacity_properties(x, dx, p):
    cap = effective_capacity(x, dx, p)
    assert 0.0 <= cap <= 2.0 * x
    assert cap * p <= 6.0 * dx * (1 + 1e-12)  # load gain never beats 6*dx
    assert effective_capacity(x, dx * 2, p) >= cap


# -- steps --------------------------------------------------------------------------


def test_type_b_grant_size():
    # Single machine, fully active, virtual cost 2, 10 declared jobs:
    # the pivot grant is 6 / (2 * 10) = 0.3 before clamping.
    a = 1.05
    rows = [[1.0] for _ in range(10)]
    inst = make_instance([1.0], rows)
    fs = preprocess(inst, alpha=1.0, a=a)
    fs.load[0] = 1.0 + math.log(2.0) / math.log(a)  # eta = 1 * a^(load-1) * 1 = 2
    fs.y[0] = [0.0]
    fs.coverage[0] = 0.0
    outcome = fs.execute_step(0)
    assert outcome.step_type == TYPE_B
    assert outcome.machines_touched == (0,)
    assert fs.y[0][0] == pytest.approx(0.3, rel=1e-12)
    assert outcome.delta_coverage == pytest.approx(0.3, rel=1e-12)


def test_type_a_multiplicative_x_update():
    # x = 0.25, scaled cost 2, n = 10: x moves to 0.25 * (1 + 1/20) = 0.2625.
    rows = [[0.1, 0.2, 0.3, 0.4] for _ in range(10)]
    inst = make_instance([2.0, 2.0, 2.0, 2.0], rows)
    fs = preprocess(inst, alpha=4.0)
    assert fs.x == [0.25] * 4
    fs.y[0] = [0.0] * 4
    fs.coverage[0] = 0.0
    outcome = fs.execute_step(0)
    assert outcome.step_type == TYPE_A
    assert outcome.machines_touched == (0, 1, 2, 3)
    for x in fs.x:
        assert x == pytest.approx(0.2625, rel=1e-12)


def test_single_machine_job_covered_in_one_clamped_grant():
    inst = make_instance([5.0], [[0.5]])
    fs = preprocess(inst, alpha=5.0)
    outcomes = fs.process_job(0)
    assert len(outcomes) == 1
    assert fs.y[0][0] == 1.0
    assert fs.coverage[0] == 1.0
    assert fs.load[0] == pytest.approx(0.5, rel=1e-12)


def test_process_job_rejects_repeat_and_out_of_range():
    inst = make_instance([1.0], [[0.5]])
    fs = preprocess(inst, alpha=1.0)
    fs.process_job(0)
    with pytest.raises(ValueError):
        fs.process_job(0)
    with pytest.raises(ValueError):
        fs.process_job(1)


def test_order_and_split_skips_pairs_over_budget():
    inst = make_instance([2.0, 2.0, 2.0], [[1.5, 0.2, 1.0]])
    fs = preprocess(inst, alpha=3.0)
    assert fs.usable_machines(0) == [1, 2]  # p = L still fits
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [1, 2] and pivot is None


def test_job_without_usable_machine_signals_small_guess():
    # Machine 1 is discarded at this guess; job 0 fits only on machine 1.
    inst = make_instance([1.0, 10.0], [[2.0, 0.5], [0.5, 0.5]])
    fs = preprocess(inst, alpha=2.0)
    assert fs.discarded == [False, True]
    with pytest.raises(GuessTooSmallError, match="job 0"):
        fs.process_job(0)
    assert 0 not in fs.y and fs.steps_total == 0
    fs.process_job(1)
    assert fs.y[1] == [1.0, 0.0]


def test_step_cap_aborts_with_diagnostics():
    rows = [[1.0, 1.0] for _ in range(10)]
    inst = make_instance([2.0, 2.0], rows)
    fs = preprocess(inst, alpha=2.0, step_cap=2)
    with pytest.raises(StepCapError, match="coverage"):
        fs.process_job(0)


# -- per-job feasibility and bookkeeping over seeded sweeps ---------------------------


def run_all(inst, alpha, a=1.05):
    fs = preprocess(inst, alpha, a=a)
    for j in range(inst.n_declared):
        fs.process_job(j)
    return fs


def sweep_instances(count=25):
    for seed in range(count):
        m = 2 + seed % 5
        n = 4 + seed % 8
        model = ("uniform", "restricted_assignment", "power_law")[seed % 3]
        inst = generate(GeneratorConfig(m=m, n=n, seed=seed, ptime_model=model))
        yield inst, sum(inst.costs())


def test_coverage_lands_in_window():
    for inst, alpha in sweep_instances():
        fs = run_all(inst, alpha)
        for j in range(inst.n_declared):
            assert 1.0 - COVERAGE_TOL <= fs.coverage[j] <= 1.0


def test_relaxed_constraints_hold():
    for inst, alpha in sweep_instances():
        fs = run_all(inst, alpha)
        for j in range(inst.n_declared):
            for i in range(fs.m):
                assert fs.y[j][i] <= 2.0 * fs.x[i] + 1e-9
        for i in range(fs.m):
            if not fs.discarded[i] and not fs.fully_active[i]:
                assert fs.load[i] <= 6.0 * fs.x[i] + 1e-9


def test_x_monotone_and_y_frozen():
    inst = generate(GeneratorConfig(m=4, n=10, seed=3))
    fs = preprocess(inst, sum(inst.costs()))
    x_prev = list(fs.x)
    frozen = {}
    for j in range(inst.n_declared):
        fs.process_job(j)
        assert all(b >= a for a, b in zip(x_prev, fs.x))
        x_prev = list(fs.x)
        for jj, row in frozen.items():
            assert fs.y[jj] == row
        frozen[j] = list(fs.y[j])


def test_incremental_bookkeeping_matches_recompute():
    for inst, alpha in sweep_instances(12):
        fs = run_all(inst, alpha)
        recomputed = [0.0] * fs.m
        for j, yrow in fs.y.items():
            for i in range(fs.m):
                recomputed[i] += fs.p[j][i] * yrow[i]
        for i in range(fs.m):
            assert abs(recomputed[i] - fs.load[i]) <= 1e-9
            assert fs.fully_active[i] == (fs.x[i] == 1.0)
        assert abs(fs.phi - fs.potential()) <= 1e-9


def test_engine_is_deterministic():
    inst = generate(GeneratorConfig(m=5, n=12, seed=8))
    a = run_all(inst, sum(inst.costs()))
    b = run_all(inst, sum(inst.costs()))
    assert a.x == b.x and a.load == b.load and a.y == b.y
    assert [entry[2] for entry in a.step_log] == [entry[2] for entry in b.step_log]


def test_every_step_makes_progress():
    for inst, alpha in sweep_instances(12):
        fs = run_all(inst, alpha)
        assert all(o.delta_coverage > 0 for (_, _, o) in fs.step_log)
        assert fs.steps_total == len(fs.step_log)


def test_potential_step_bound_on_uniform_instances():
    # On uniform instances the per-step potential increase stays within 2/n.
    for seed in range(30):
        inst = generate(GeneratorConfig(m=2 + seed % 6, n=5 + seed % 10, seed=seed))
        fs = run_all(inst, sum(inst.costs()))
        cap = 2.0 / fs.n + 1e-9
        assert all(o.delta_potential <= cap for (_, _, o) in fs.step_log)


def test_full_activation_under_load_can_jump_potential():
    # The crossing jump: a machine may become fully active while carrying
    # load above 1 (the relaxed packing cap allows up to 6x). The potential
    # then switches from c*x to c*a^(load-1) and jumps by more than 2/n in
    # that single step. Pairs with p_ij > L get no fractional mass, so at a
    # guess of at least the optimum no sentinel load can build up to it.
    inst = generate(GeneratorConfig(m=3, n=39, seed=64, ptime_model="restricted_assignment"))
    fs = run_all(inst, sum(inst.costs()))
    assert all(fs.y[j][i] == 0.0 for j in fs.y for i in range(fs.m) if fs.p[j][i] > 1.0)
    assert fs.fractional_makespan() <= 1.0
    cap = 2.0 / fs.n + 1e-9
    assert all(o.delta_potential <= cap for (_, _, o) in fs.step_log)

    # Below the optimum (alpha = largest machine cost < B) the jump is still
    # real, with load on legal pairs only; doubling is what handles it.
    inst = generate(GeneratorConfig(m=9, n=13, seed=34))
    alpha = max(inst.costs())
    assert alpha < oracle_solve(inst).optimal_cost
    fs = preprocess(inst, alpha)
    cap = 2.0 / fs.n + 1e-9
    jumps = []
    for j in range(inst.n_declared):
        was_full = list(fs.fully_active)
        load_before = list(fs.load)
        start = len(fs.step_log)
        fs.process_job(j)
        for _, _, o in fs.step_log[start:]:
            if o.delta_potential > cap:
                crossed = [i for i in o.machines_touched if fs.fully_active[i] and not was_full[i]]
                jumps.append((o, crossed, load_before))
    assert jumps, "expected the crossing jump on this instance"
    for o, crossed, load_before in jumps:
        assert o.step_type == TYPE_A
        assert crossed
        for i in crossed:
            assert load_before[i] > 1.0
            assert all(fs.p[j][i] <= 1.0 for j in fs.y if fs.y[j][i] > 0.0)


# -- observables -----------------------------------------------------------------------


def test_fractional_cost_fresh_state():
    inst = make_instance([0.5, 1.0, 3.0, 3.0], [[0.5] * 4])
    fs = preprocess(inst, alpha=4.0)
    # two cost-1 machines fully active + two climbers at x = 1/4, cost 3
    assert fs.fractional_cost() == pytest.approx(2.0 + 2 * 3.0 / 4.0, rel=1e-12)


def test_makespan_of_empty_instance_is_zero():
    inst = make_instance([1.0, 2.0], [])
    fs = preprocess(inst, alpha=1.0)
    assert fs.fractional_makespan() == 0.0


def test_potential_examples():
    big = 1.0e6
    inst = make_instance([5.0, big, big, big, big], [[0.5] * 5])
    fs = preprocess(inst, alpha=5.0)
    assert fs.discarded == [False, True, True, True, True]
    assert fs.potential() == pytest.approx(1.0, rel=1e-12)  # 5 * (1/5)

    inst2 = make_instance([1.0], [[0.5]])
    fs2 = preprocess(inst2, alpha=1.0)
    fs2.load[0] = 1.0
    assert fs2.potential() == pytest.approx(1.0, rel=1e-12)  # 1 * a^0


def test_job_fraction_snapshot():
    inst = generate(GeneratorConfig(m=3, n=4, seed=17))
    fs = run_all(inst, sum(inst.costs()))
    frac = fs.job_fraction(2)
    assert frac.job == 2
    assert frac.x == tuple(fs.x)
    assert frac.y == tuple(fs.y[2])
    assert frac.eligible == tuple(not d for d in fs.discarded)
    with pytest.raises(ValueError):
        run_all(inst, sum(inst.costs()), a=1.05).job_fraction(99)
