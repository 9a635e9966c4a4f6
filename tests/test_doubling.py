import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actsched import doubling, fractional
from actsched.doubling import cost_bound, run_with_doubling
from actsched.experiment import RunConfig, oracle_solve, run_pipeline, verify_logdir, write_run_logs
from actsched.fractional import FractionalState, GuessTooSmallError, fractional_cost
from actsched.instances import PTIME_MODELS, GeneratorConfig, Instance, Job, Machine, generate
from actsched.rounding import RoundingState, score_job


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget)


# Three machines at L = 1: job 0 fits machine 2 only, job 1 machines 1 and 2,
# and job 2 fits machine 0 in one stream and machine 1 only in the other.
ONLINE_COSTS = (1.0, 5.0, 9.0)
ONLINE_HEAD = ((2.0, 2.0, 0.5), (2.0, 0.5, 0.5))
ONLINE_TAILS = (((0.5, 2.0, 2.0),), ((2.0, 0.5, 2.0),))


def test_double_mode_first_phase_runs_at_the_cheapest_cost():
    # The first guess reads no job: it is the cheapest startup cost whatever
    # job 2 is. A guess from each job's cheapest fitting machine would be 1 in
    # one stream and 5 in the other, and so change how job 0 is covered.
    for tail in ONLINE_TAILS:
        inst = make_instance(ONLINE_COSTS, ONLINE_HEAD + tail)
        artifacts = run_pipeline(inst, RunConfig(alpha_mode="double"))
        assert [p.guess for p in artifacts.phases] == [1.0, 2.0, 4.0, 8.0, 16.0]
        assert [p.jobs_processed for p in artifacts.phases] == [0, 0, 0, 0, 3]


P_TIMES = st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0]) | st.floats(0.01, 3.0)


@st.composite
def streams_sharing_a_prefix(draw):
    """Costs, jobs 0..t and two streams of the jobs after t, with L = 1. Every
    job fits (p <= L) on at least one machine."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    t = draw(st.integers(0, n - 2))
    costs = tuple(draw(st.lists(st.floats(1.0, 10.0), min_size=m, max_size=m)))

    def job():
        row = draw(st.lists(P_TIMES, min_size=m, max_size=m))
        fits = draw(st.integers(0, m - 1))
        row[fits] = min(row[fits], 1.0)
        return tuple(row)

    head = tuple(job() for _ in range(t + 1))
    return costs, head, tuple(tuple(job() for _ in range(n - t - 1)) for _ in range(2))


def _left_for_jobs_up_to(artifacts, t):
    """What a run leaves for jobs 0..t: their records, their steps and y rows
    by phase, and their rows of the rounding log."""
    steps = [(p.phase, *entry) for p in artifacts.phases for entry in p.step_entries if entry[0] <= t]
    ys = [(p.phase, j, yrow) for p in artifacts.phases for j, yrow in p.covered_y if j <= t]
    return artifacts.records[: t + 1], steps, ys, artifacts.rounding.log[: t + 1]


@settings(max_examples=100, deadline=None)
@given(case=streams_sharing_a_prefix())
@example(case=(ONLINE_COSTS, ONLINE_HEAD, ONLINE_TAILS))
def test_jobs_up_to_t_are_run_alike_whatever_jobs_follow(case):
    # The online contract: a job is covered and rounded on arrival, so two
    # streams that share jobs 0..t leave the same for those jobs. Oracle mode
    # solves the whole instance first and is offline by design.
    costs, head, tails = case
    t = len(head) - 1
    for config in (RunConfig(alpha_mode="fixed", alpha_value=sum(costs)), RunConfig(alpha_mode="double")):
        a, b = (run_pipeline(make_instance(costs, head + tail), config) for tail in tails)
        assert _left_for_jobs_up_to(a, t) == _left_for_jobs_up_to(b, t), config.alpha_mode
        for run in (a, b):  # each job is covered by one phase, which keeps it
            assert [j for p in run.phases for j, _ in p.covered_y] == list(range(run.instance.n))


def test_default_guess_keeps_the_machine_it_names():
    # Double mode's first guess is the cheapest cost c; pre-processing must
    # keep that machine. Uniform m=3, n=4, seed 12: the guess is machine 2's
    # cost, whose rescaled cost c * (m / c) rounds to 3.0000000000000004 > m.
    inst = generate(GeneratorConfig(m=3, n=4, seed=12))
    guess = min(inst.costs())
    assert guess == inst.costs()[2] == 2.7038834608578517
    assert guess * (inst.m / guess) > inst.m
    assert FractionalState(inst, guess).discarded == [True, True, False]
    result = run_with_doubling(inst, guess)
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
    result = run_with_doubling(inst, min(inst.costs()))
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


def test_cost_tripped_phase_keeps_every_job_it_covers(monkeypatch, tmp_path):
    # The cost trip above, checked before each job on the cost of the jobs
    # before it: phase 0 covers and keeps jobs 0..2, whose cost passes the
    # bound, and phase 1 covers and keeps job 3.
    monkeypatch.setattr(doubling, "BOUND_CONSTANT", 0.8)
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 4)
    artifacts = run_pipeline(inst, RunConfig(alpha_mode="double"))
    assert [p.guess for p in artifacts.phases] == [1.0, 2.0]
    assert [[j for j, _ in p.covered_y] for p in artifacts.phases] == [[0, 1, 2], [3]]
    assert [p.jobs_processed for p in artifacts.phases] == [3, 1]
    assert verify_logdir(write_run_logs(artifacts, tmp_path / "logs")) == []


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
        assert fractional_cost(fs.x, fs.scaled_costs, fs.discarded) <= 2 * m < cost_bound(m)


def test_cost_trip_cannot_fire_below_342_machines():
    # Each kept machine has a scaled cost of at most m and x <= 1, so a
    # phase's fractional cost is at most m^2, which stays below the cost
    # bound up to m = 341: there the trip never fires, and a double run
    # doubles on jobs that fit no kept machine only.
    assert all(m * m < cost_bound(m) for m in range(1, 342))
    assert not 342 * 342 < cost_bound(342)


@pytest.mark.parametrize("double", [True, False])
def test_a_guess_of_at_most_zero_is_rejected_by_the_engine(double):
    inst = make_instance([1.0, 1.0], [[0.6, 0.6]] * 2)
    for guess in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            run_with_doubling(inst, initial_guess=guess, double=double)


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
                if fractional_cost(fs.x, fs.scaled_costs, fs.discarded) > bound:
                    break
                fs.process_job(j)
                rounding.process_job(score_job(inst, fs.job_fraction(j)))
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
            guess = min(inst.costs())
        artifacts = run_pipeline(inst, config)
        assert _round_online(inst, guess, mode == "double", s) == artifacts.rounding.log
        phase_counts.append(len(artifacts.phases))
    if mode == "double":
        assert max(phase_counts) >= 3  # jobs kept in several phases
