import pytest

from actsched.doubling import (
    GuessBoundExceededError,
    cost_bound,
    default_initial_guess,
    run_with_doubling,
)
from actsched.experiment import oracle_solve
from actsched.fractional import GuessTooSmallError
from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget, n_declared=len(jobs))


def test_default_initial_guess_is_cheapest_feasible_cost():
    inst = make_instance([5.0, 2.0], [[0.5, 2.0], [0.5, 0.5]])
    # job 0 can only run on machine 0 (cost 5); job 1 on either (cheapest 2)
    assert default_initial_guess(inst) == 2.0


def test_oracle_guess_runs_single_phase():
    for seed in range(15):
        m = 2 + seed % 3
        n = 5 + seed % 4
        inst = generate(GeneratorConfig(m=m, n=n, seed=200 + seed))
        B = oracle_solve(inst).optimal_cost
        result = run_with_doubling(inst, initial_guess=B, C=50.0, seed=seed)
        assert len(result.phases) == 1
        assert result.final_guess == B
        assert len(result.records) == n


def test_zero_jobs_zero_phases_zero_cost():
    inst = make_instance([1.0, 2.0], [])
    result = run_with_doubling(inst, seed=0)
    assert result.phases == []
    assert result.rounding.int_cost == 0.0


def test_undersized_guess_doubles_through_empty_phases():
    inst = make_instance([100.0, 200.0], [[0.5, 0.5], [0.5, 0.5]])
    result = run_with_doubling(inst, initial_guess=1.0, C=50.0, seed=0)
    # guesses 1, 2, ..., 64 discard everything; 128 keeps machine 0
    empty = [p for p in result.phases if p.jobs_processed == 0]
    assert len(empty) == 7
    assert all(all(p.discarded) for p in empty)
    assert result.final_guess == 128.0
    assert result.phases[-1].jobs_processed == 2


def test_cost_trigger_doubles_and_reprocesses_job():
    # Two unit-cost machines: at guess 1 they are climbers whose total
    # rescaled cost approaches 4 > bound(C=0.8, m=2) = 2.71, tripping the
    # doubling; at guess 2 both pin to cost 1 and the phase finishes.
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    assert cost_bound(0.8, 2) < 4.0
    result = run_with_doubling(inst, initial_guess=1.0, C=0.8, seed=0)
    assert len(result.phases) == 2
    assert [p.guess for p in result.phases] == [1.0, 2.0]
    covered = [frac.job for frac in result.records]
    assert sorted(covered) == [0, 1, 2, 3]  # each job kept exactly once
    assert sum(p.jobs_processed for p in result.phases) == 4


def test_abort_when_guess_exceeds_total_cost():
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    with pytest.raises(GuessBoundExceededError):
        run_with_doubling(inst, initial_guess=1.0, C=0.1, seed=0)


def test_phase_int_cost_deltas_sum_to_total():
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    result = run_with_doubling(inst, initial_guess=1.0, C=0.8, seed=3)
    assert sum(p.int_cost_delta for p in result.phases) == pytest.approx(
        result.rounding.int_cost, abs=1e-12
    )


def test_recover_all_replays_previous_jobs():
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    result = run_with_doubling(inst, initial_guess=1.0, C=0.8, seed=0, recover_all=True)
    assert len(result.phases) == 2
    # final phase re-covered every job fractionally
    assert [j for j, _ in result.phases[-1].covered_y] == [0, 1, 2, 3]
    assert sorted(frac.job for frac in result.records) == [0, 1, 2, 3]


def test_doubling_from_eighth_of_optimum_uniform():
    for seed in range(8):
        inst = generate(GeneratorConfig(m=3, n=6, seed=300 + seed))
        B = oracle_solve(inst).optimal_cost
        result = run_with_doubling(inst, initial_guess=B / 8.0, C=50.0, seed=seed)
        assert len(result.phases) <= 5
        assert len(result.records) == 6


def test_lamed_guess_on_restricted_instance_hits_step_cap():
    # Guards against the old step-cap grind: with a deliberately small guess,
    # pre-processing can discard every machine a job fits on within the
    # budget. That job must trip the phase so the guess doubles, instead of
    # grinding on sentinel processing times into the per-job step cap.
    inst = generate(
        GeneratorConfig(m=2, n=5, seed=3000, ptime_model="restricted_assignment")
    )
    B = oracle_solve(inst).optimal_cost
    result = run_with_doubling(inst, initial_guess=B / 8.0, C=50.0, seed=0, step_cap=50_000)
    assert len(result.phases) <= 5
    assert result.final_guess >= B
    assert sorted(frac.job for frac in result.records) == [0, 1, 2, 3, 4]
    # at least one phase kept a machine yet tripped on a job with none usable
    assert any(p.jobs_processed == 0 and not all(p.discarded) for p in result.phases)


def test_job_fitting_nowhere_aborts_past_total_cost():
    inst = make_instance([1.0, 1.0], [[2.0, 2.0]])
    with pytest.raises(GuessBoundExceededError, match="p_ij <= L"):
        run_with_doubling(inst, initial_guess=1.0, C=50.0, seed=0)


def test_known_guess_runs_one_phase_and_never_doubles():
    # C=None is a known guess: no cost bound, and a guess found too small
    # raises instead of doubling, whether pre-processing discards every
    # machine or a job fits on no kept one; both surface at the first job.
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    result = run_with_doubling(inst, initial_guess=1.0, C=None, seed=0)
    assert [p.guess for p in result.phases] == [1.0]
    assert result.phases[0].jobs_processed == 4
    with pytest.raises(GuessTooSmallError, match=r"job 0: .* \(0 of 2 machines kept\)"):
        run_with_doubling(make_instance([100.0, 200.0], [[0.5, 0.5]]), initial_guess=1.0, C=None)
    with pytest.raises(GuessTooSmallError, match=r"job 0: no kept machine .* \(2 of 2 machines kept\)"):
        run_with_doubling(make_instance([1.0, 1.0], [[2.0, 2.0]]), initial_guess=1.0, C=None)
