import csv
import math

import pytest

from actsched import doubling, fractional
from actsched.doubling import cost_bound, default_initial_guess, run_with_doubling
from actsched.experiment import RunConfig, oracle_solve, run_pipeline, write_run_logs
from actsched.fractional import FractionalState, GuessTooSmallError
from actsched.instances import PTIME_MODELS, GeneratorConfig, Instance, Job, Machine, generate
from actsched.rounding import RoundingState


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget)


def test_default_initial_guess_is_cheapest_feasible_cost():
    inst = make_instance([5.0, 2.0], [[0.5, 2.0], [0.5, 0.5]])
    # job 0 can only run on machine 0 (cost 5); job 1 on either (cheapest 2)
    assert default_initial_guess(inst) == 2.0


def test_default_guess_keeps_the_machine_it_names():
    # The default guess is some machine's cost c; pre-processing must keep
    # that machine. Uniform m=3, n=4, seed 12: the guess is machine 2's
    # cost, whose rescaled cost c * (m / c) rounds to 3.0000000000000004 > m.
    inst = generate(GeneratorConfig(m=3, n=4, seed=12))
    guess = default_initial_guess(inst)
    assert guess == inst.costs()[2] == 2.7038834608578517
    assert guess * (inst.m / guess) > inst.m
    assert FractionalState(inst, guess).discarded == [True, True, False]
    result = run_with_doubling(inst)
    assert [p.guess for p in result.phases] == [guess]
    assert result.phases[0].jobs_processed == 4


def test_oracle_guess_runs_single_phase():
    for seed in range(15):
        m = 2 + seed % 3
        n = 5 + seed % 4
        inst = generate(GeneratorConfig(m=m, n=n, seed=200 + seed))
        B = oracle_solve(inst).optimal_cost
        result = run_with_doubling(inst, initial_guess=B)
        assert len(result.phases) == 1
        assert result.final_guess == B
        assert len(result.records) == n


def test_zero_jobs_zero_phases_zero_cost():
    inst = make_instance([1.0, 2.0], [])
    result = run_with_doubling(inst)
    assert result.phases == [] and result.records == []
    for mode in ("double", "oracle"):
        artifacts = run_pipeline(inst, RunConfig(alpha_mode=mode))
        assert artifacts.phases == []
        assert artifacts.row["int_cost"] == 0.0
        assert isinstance(artifacts.row["int_cost"], float)
    assert artifacts.row["B"] == 0.0  # the oracle proves B = 0 with no jobs


def test_undersized_guess_doubles_through_empty_phases():
    inst = make_instance([100.0, 200.0], [[0.5, 0.5], [0.5, 0.5]])
    result = run_with_doubling(inst, initial_guess=1.0)
    # guesses 1, 2, ..., 64 discard everything; 128 keeps machine 0
    empty = [p for p in result.phases if p.jobs_processed == 0]
    assert len(empty) == 7
    assert all(all(p.discarded) for p in empty)
    assert result.final_guess == 128.0
    assert result.phases[-1].jobs_processed == 2


def test_cost_trigger_doubles_and_reprocesses_job(monkeypatch):
    # Two unit-cost machines: at guess 1 they are climbers whose total
    # rescaled cost approaches 4 > bound(m=2) = 2.71 at constant 0.8,
    # tripping the doubling; at guess 2 both pin to cost 1 and the phase
    # finishes.
    monkeypatch.setattr(doubling, "BOUND_CONSTANT", 0.8)
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    assert cost_bound(2) < 4.0
    result = run_with_doubling(inst, initial_guess=1.0)
    assert len(result.phases) == 2
    assert [p.guess for p in result.phases] == [1.0, 2.0]
    covered = [frac.job for frac in result.records]
    assert sorted(covered) == [0, 1, 2, 3]  # each job kept exactly once
    assert sum(p.jobs_processed for p in result.phases) == 4


def test_phase_int_cost_deltas_sum_to_total(tmp_path, monkeypatch):
    monkeypatch.setattr(doubling, "BOUND_CONSTANT", 0.8)  # two phases, as above
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    config = RunConfig(alpha_mode="double", seed=3)
    artifacts = run_pipeline(inst, config)
    assert len(artifacts.phases) == 2
    write_run_logs(artifacts, tmp_path)
    with open(tmp_path / "phases.csv", newline="") as fh:
        deltas = [float(row["int_cost_delta"]) for row in csv.DictReader(fh)]
    assert len(deltas) == 2
    assert sum(deltas) == pytest.approx(artifacts.rounding.int_cost, abs=1e-12)


def test_doubling_from_eighth_of_optimum_uniform():
    for seed in range(8):
        inst = generate(GeneratorConfig(m=3, n=6, seed=300 + seed))
        B = oracle_solve(inst).optimal_cost
        result = run_with_doubling(inst, initial_guess=B / 8.0)
        assert len(result.phases) <= 5
        assert len(result.records) == 6


def test_lamed_guess_on_restricted_instance_hits_step_cap(monkeypatch):
    # Guards against the old step-cap grind: with a deliberately small guess,
    # pre-processing can discard every machine a job fits on within the
    # budget. That job must trip the phase so the guess doubles, instead of
    # grinding on sentinel processing times into the per-job step cap.
    inst = generate(
        GeneratorConfig(m=2, n=5, seed=3000, ptime_model="restricted_assignment")
    )
    B = oracle_solve(inst).optimal_cost
    monkeypatch.setattr(fractional, "STEP_CAP", 50_000)
    result = run_with_doubling(inst, initial_guess=B / 8.0)
    assert len(result.phases) <= 5
    assert result.final_guess >= B
    assert sorted(frac.job for frac in result.records) == [0, 1, 2, 3, 4]
    # at least one phase kept a machine yet tripped on a job with none usable
    assert any(p.jobs_processed == 0 and not all(p.discarded) for p in result.phases)


def test_job_fitting_nowhere_raises_once_every_machine_is_kept():
    # Guesses 1 and 2 keep machine 0 only; 4 keeps both, and a job that fits
    # on no kept machine then fits on none at all.
    inst = make_instance([1.0, 4.0], [[2.0, 2.0]])
    kept_all = r"job 0: no kept machine .* at guess 4\.0 \(2 of 2 machines kept\)"
    with pytest.raises(GuessTooSmallError, match=kept_all):
        run_with_doubling(inst, initial_guess=1.0)


@pytest.mark.parametrize("model", PTIME_MODELS)
def test_cost_trip_cannot_fire_at_a_guess_of_total_cost(model):
    # The controller's termination argument: at guess = sum(c), with every
    # job covered, the fractional cost is at most 2m, below the cost bound.
    for seed in range(4):
        m = 2 + 2 * seed
        inst = generate(GeneratorConfig(m=m, n=2 * m, seed=seed, ptime_model=model))
        fs = FractionalState(inst, sum(inst.costs()))
        for j in range(inst.n):
            fs.process_job(j)
        assert fs.fractional_cost() <= 2 * m < cost_bound(m)


def test_known_guess_runs_one_phase_and_never_doubles():
    # double=False is a known guess: no cost bound, and a guess found too small
    # raises instead of doubling, whether pre-processing discards every
    # machine or a job fits on no kept one; both surface at the first job.
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    result = run_with_doubling(inst, initial_guess=1.0, double=False)
    assert [p.guess for p in result.phases] == [1.0]
    assert result.phases[0].jobs_processed == 4
    with pytest.raises(GuessTooSmallError, match=r"job 0: .* \(0 of 2 machines kept\)"):
        run_with_doubling(make_instance([100.0, 200.0], [[0.5, 0.5]]), initial_guess=1.0, double=False)
    with pytest.raises(GuessTooSmallError, match=r"job 0: no kept machine .* \(2 of 2 machines kept\)"):
        run_with_doubling(make_instance([1.0, 1.0], [[2.0, 2.0]]), initial_guess=1.0, double=False)


def _round_online(inst, guess, double, seed):
    """Guess-and-double with each kept job rounded right after its
    fractional update, interleaved job by job as an online run goes."""
    rounding = RoundingState(inst, seed)
    bound = cost_bound(inst.m) if double else math.inf
    j = 0
    while j < inst.n:
        fs = FractionalState(inst, guess)
        try:
            while j < inst.n:
                fs.process_job(j)
                if fs.fractional_cost() > bound:
                    break
                rounding.process_job(fs.job_fraction(j))
                j += 1
        except GuessTooSmallError:
            if not double or not any(fs.discarded):
                raise
        guess *= 2.0
    return rounding.log


@pytest.mark.parametrize("mode", ["fixed", "double"])
def test_rounding_the_kept_records_equals_online_rounding(mode):
    phase_counts = []
    for s in range(6):
        model = PTIME_MODELS[s % 3]
        inst = generate(GeneratorConfig(m=5, n=12, seed=s, ptime_model=model))
        if mode == "fixed":
            config = RunConfig(alpha_mode="fixed", alpha_value=sum(inst.costs()) / 2, seed=s)
            guess = config.alpha_value
        else:
            config = RunConfig(alpha_mode="double", seed=s)
            guess = default_initial_guess(inst)
        artifacts = run_pipeline(inst, config)
        assert _round_online(inst, guess, mode == "double", s) == artifacts.rounding.log
        phase_counts.append(len(artifacts.phases))
    if mode == "double":
        assert max(phase_counts) >= 3  # jobs kept in several phases
