import bisect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actsched import rounding
from actsched.fractional import FractionalState, JobFraction
from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate
from actsched.rounding import (
    ACTIVATION_FACTOR,
    AssignmentRecord,
    RoundingInvariantError,
    RoundingState,
    ScoredJob,
    cdf_of,
    pairwise_sum,
    score_job,
)


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget)


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


def draw_thresholds(m: int, seed: int) -> list[float]:
    """The m activation thresholds of a seed: m uniform draws on [0, 1] from
    the first of the two streams ``SeedSequence(seed).spawn(2)`` gives."""
    first, _ = np.random.SeedSequence(seed).spawn(2)
    return np.random.Generator(np.random.PCG64(first)).random(m).tolist()


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


def test_streams_are_the_spawned_children_of_the_seed():
    for seed in (0, 1, 2**32 - 1):
        children = np.random.SeedSequence(seed).spawn(2)
        for rng, child in zip(rounding._streams(seed), children):
            assert rng.random(4).tolist() == np.random.Generator(np.random.PCG64(child)).random(4).tolist()


def test_rounding_state_uses_the_drawn_thresholds():
    for m, seed in ((7, 11), (1, 7), (10, 42), (10, 43)):
        inst = uniform_instance(m, 5, 0)
        assert RoundingState(inst, seed=seed).r == draw_thresholds(m, seed)


# -- activation ------------------------------------------------------------------


def test_activation_threshold_formula():
    inst = uniform_instance(10, 10, 0)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.2] + [1.0] * 9
    record = rs.process_job(score_job(inst, frac_of(10, x=[0.05] + [0.0] * 9, y=[0.1] + [0.0] * 9)))
    # 5 * 0.05 * ln(100) = 1.151 >= 0.2
    assert rs.active == [True] + [False] * 9
    assert record.machine == 0 and rs.fallback_count == 0
    assert rs.int_cost == inst.costs()[0] == record.cum_cost


def test_activation_below_threshold_stays_inactive():
    inst = uniform_instance(50, 2, 1)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.999] * 50
    x = [1.0 / 50] * 50
    assert 5 * (1 / 50) * math.log(100) < 0.999
    rs.process_job(score_job(inst, frac_of(50, x=x, y=[0.01] + [0.0] * 49, p=[0.5] * 50)))
    # No threshold is cleared: the only open machine is the fallback's.
    assert rs.fallback_count == 1
    assert rs.active == [True] + [False] * 49
    assert rs.int_cost == inst.costs()[0]


def test_activation_idempotent_no_double_charge():
    inst = uniform_instance(3, 4, 2)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.0, 1.0, 1.0]
    first = rs.process_job(score_job(inst, frac_of(3, job=0, x=[0.9, 0.0, 0.0], y=[0.5, 0.0, 0.0])))
    cost_after_first = rs.int_cost
    assert first.cum_cost == cost_after_first == inst.costs()[0]
    second = rs.process_job(score_job(inst, frac_of(3, job=1, x=[0.9, 0.0, 0.0], y=[0.5, 0.0, 0.0])))
    assert second.cum_cost - first.cum_cost == 0.0  # the newly activated cost
    assert rs.active == [True, False, False]
    assert rs.int_cost == cost_after_first == second.cum_cost


def test_discarded_machines_never_activate():
    inst = uniform_instance(3, 4, 3)
    rs = RoundingState(inst, seed=0)
    rs.r = [0.0, 0.0, 0.0]
    frac = frac_of(3, x=[1.0, 1.0, 1.0], y=[0.5, 0.0, 0.5], eligible=[True, False, True])
    assert rs.process_job(score_job(inst, frac)).machine in (0, 2)
    assert rs.active == [True, False, True]


# -- scores ------------------------------------------------------------------------


def drawn_weights(monkeypatch, rs, job):
    """The sampling weights from which process_job builds the cdf it draws
    job's machine by."""
    seen = []

    def spy(weights):
        seen.append(list(weights))
        return cdf_of(weights)

    monkeypatch.setattr(rounding, "cdf_of", spy)
    rs.process_job(job)
    (probs,) = seen
    return probs


def test_score_branches_at_cut(monkeypatch):
    # Machine 1 sits above the cut with y = 0.5, so its score is 0.5, and
    # machine 0's score is 0.5 times the ratio of the two drawn weights.
    inst = uniform_instance(10, 10, 4)
    cut = 1.0 / (5.0 * math.log(100))
    assert 0.0434 < cut < 0.0435
    rs = RoundingState(inst, seed=0)
    rs.r = [0.0] * 10  # every machine opens
    high = frac_of(10, y=[0.4, 0.5] + [0.0] * 8, x=[0.5] * 10)
    p0, p1 = drawn_weights(monkeypatch, rs, score_job(inst, high))
    assert 0.5 * p0 / p1 == pytest.approx(0.4, rel=1e-12)
    low = frac_of(10, y=[0.03, 0.5] + [0.0] * 8, x=[0.02] + [0.5] * 9)
    p0, p1 = drawn_weights(monkeypatch, rs, score_job(inst, low))
    assert 0.5 * p0 / p1 == pytest.approx(0.75, rel=1e-12)


def test_score_above_one_rejected():
    inst = uniform_instance(10, 10, 5)
    rs = RoundingState(inst, seed=0)
    bad = frac_of(10, y=[0.05] + [0.0] * 9, x=[0.02] + [0.5] * 9)  # y > 2x
    with pytest.raises(RoundingInvariantError, match="machine 0"):
        rs.process_job(score_job(inst, bad))


# -- assignment ----------------------------------------------------------------------


def sample_index(rng: np.random.Generator, probs) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws, without its checks,
    as process_job draws: one ``random()`` draw bisected into ``cdf_of(probs)``."""
    return bisect.bisect_right(cdf_of(probs), rng.random())


def test_sample_index_draws_what_generator_choice_draws():
    # Same seed, same stream: the check-free draw must pick the index
    # Generator.choice picks, draw for draw, including one-entry vectors,
    # zeros, and weights spread over many orders of magnitude.
    vectors = np.random.default_rng(2024)
    by_choice = np.random.default_rng(7)
    by_sample = np.random.default_rng(7)
    for _ in range(20_000):
        k = int(vectors.integers(1, 13))
        z = vectors.random(k) ** int(vectors.integers(1, 8))
        z[vectors.random(k) < 0.2] = 0.0
        if z.sum() <= 0.0:
            continue
        probs = z / z.sum()
        probs /= probs.sum()
        assert sample_index(by_sample, probs) == int(by_choice.choice(k, p=probs))


class FixedDraw:
    """A stand-in generator whose random() returns one given value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def test_sample_index_takes_the_right_side_at_a_boundary():
    # The cdf is [0.25, 0.5, 1.0]: a draw equal to an entry picks the next
    # index, as searchsorted's side="right" does.
    probs = [0.25, 0.25, 0.5]
    for u, want in ((0.0, 0), (0.25, 1), (0.5, 2), (0.75, 2)):
        assert sample_index(FixedDraw(u), probs) == want
        assert reference_sample_index(FixedDraw(u), np.array(probs)) == want


def test_single_positive_score_machine_always_chosen():
    inst = uniform_instance(4, 6, 6)
    for seed in range(10):
        rs = RoundingState(inst, seed=seed)
        rs.r = [0.0, 0.0, 1.0, 1.0]  # machines 0 and 1 open
        frac = frac_of(4, y=[0.0, 0.8, 0.0, 0.0], x=[0.5, 0.5, 0.0, 0.0])
        assert rs.process_job(score_job(inst, frac)).machine == 1
        assert rs.active == [True, True, False, False]
        assert rs.int_load[1] == frac.p_scaled[1]


def test_fallback_activates_best_scoring_machine():
    inst = uniform_instance(3, 5, 7)
    rs = RoundingState(inst, seed=0)
    rs.r = [math.inf] * 3  # no threshold is cleared
    frac = frac_of(3, y=[0.2, 0.8, 0.2], x=[0.5] * 3)
    chosen = rs.process_job(score_job(inst, frac)).machine  # nothing active: forced activation
    assert chosen == 1
    assert rs.active[1] and rs.fallback_count == 1
    assert rs.int_makespan() == max(rs.int_load) * inst.makespan_budget


def test_fallback_all_zero_scores_uses_cost_weighted_ptime():
    inst = make_instance([4.0, 1.0, 2.0], [[0.5, 0.9, 0.1]])
    rs = RoundingState(inst, seed=0)
    rs.r = [math.inf] * 3  # no threshold is cleared
    frac = frac_of(3, y=[0.0, 0.0, 0.0], x=[0.5] * 3, p=[0.5, 0.9, 0.1])
    chosen = rs.process_job(score_job(inst, frac)).machine  # c*p = [2.0, 0.9, 0.2] -> machine 2
    assert chosen == 2
    assert rs.active == [False, False, True]
    assert rs.fallback_count == 1
    assert rs.int_makespan() == max(rs.int_load) * inst.makespan_budget


# -- full rounding over the pipeline ---------------------------------------------------


def run_rounded(inst, alpha, seed):
    fs = FractionalState(inst, alpha)
    rs = RoundingState(inst, seed=seed)
    for j in range(inst.n):
        fs.process_job(j)
        rs.process_job(score_job(inst, fs.job_fraction(j)))
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
    fs = FractionalState(inst, sum(inst.costs()))
    rs = RoundingState(inst, seed=2)
    active_before = list(rs.active)
    for j in range(6):
        fs.process_job(j)
        rs.process_job(score_job(inst, fs.job_fraction(j)))
        assert all(b or not a for a, b in zip(active_before, rs.active))
        active_before = list(rs.active)
        assert fs.job_fraction(j).x == tuple(fs.x)


def test_assignment_log_columns():
    # A record holds the job, its machine and int_cost after it; the newly
    # activated cost is the difference of consecutive cum_cost values.
    inst = uniform_instance(3, 5, 60)
    _, rs = run_rounded(inst, sum(inst.costs()), 1)
    assert AssignmentRecord._fields == ("job", "machine", "cum_cost")
    assert [rec.job for rec in rs.log] == list(range(5))
    assert all(rs.assignment[rec.job] == rec.machine for rec in rs.log)
    cums = [0.0] + [rec.cum_cost for rec in rs.log]
    assert all(b - a >= 0.0 for a, b in zip(cums, cums[1:]))
    assert rs.log[-1].cum_cost == rs.int_cost
    assert rs.int_makespan() == max(rs.int_load) * inst.makespan_budget


def test_deficit_fraction_small_monte_carlo():
    # Across 500 rounding seeds on 10x10 instances, the active score mass
    # at assignment time dips below 1 for at most 5% of jobs.
    from actsched.experiment import oracle_solve, replay_rounding

    deficits = 0
    jobs = 0
    for iseed in range(3):
        inst = uniform_instance(10, 10, 70 + iseed)
        alpha = oracle_solve(inst).optimal_cost
        fs = FractionalState(inst, alpha)
        scored = []
        for j in range(10):
            fs.process_job(j)
            scored.append(score_job(inst, fs.job_fraction(j)))
        for rseed in range(500):
            rs = replay_rounding(inst, scored, rseed)
            deficits += rs.deficit_jobs
            jobs += 10
    assert deficits / jobs <= 0.05


# -- the one-pass rounding against the per-step reference ----------------------------


def reference_sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws, without its checks."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class PerStepRoundingState:
    """The rounding state as it was before ``process_job`` became one pass:
    an activation pass, a score pass, and an assignment step that samples
    through numpy arrays, with ``int_cost`` re-summed on every read. The
    reference for ``test_one_pass_rounding_matches_the_per_step_reference``."""

    def __init__(self, instance: Instance, seed: int) -> None:
        self.seed = seed
        self.m = instance.m
        self.n = instance.n
        self.budget = instance.makespan_budget
        self.costs = instance.costs()
        thr_rng, self._pick_rng = rounding._streams(seed)
        self.r = thr_rng.random(self.m).tolist()
        self._ln_mn = math.log(self.m * self.n) if self.m * self.n > 1 else 0.0
        self._z_cut = (
            1.0 / (ACTIVATION_FACTOR * self._ln_mn) if self._ln_mn > 0 else math.inf
        )
        self.active = [False] * self.m
        self.assignment: dict[int, int] = {}
        self.int_load = [0.0] * self.m
        self._max_int_load = 0.0
        self.fallback_count = 0
        self.deficit_jobs = 0
        self.log: list[AssignmentRecord] = []

    @property
    def int_cost(self) -> float:
        return sum((self.costs[i] for i in range(self.m) if self.active[i]), 0.0)

    def int_makespan(self) -> float:
        return self._max_int_load * self.budget

    def activation_step(self, frac: JobFraction) -> list[int]:
        newly: list[int] = []
        for i in range(self.m):
            if self.active[i] or not frac.eligible[i]:
                continue
            if self.r[i] <= ACTIVATION_FACTOR * frac.x[i] * self._ln_mn:
                self.active[i] = True
                newly.append(i)
        return newly

    def scores(self, frac: JobFraction) -> list[float]:
        z = [0.0] * self.m
        for i in range(self.m):
            if not frac.eligible[i] or frac.y[i] <= 0.0:
                continue
            if frac.x[i] < self._z_cut:
                z[i] = frac.y[i] / (2.0 * frac.x[i])
                if z[i] > 1.0 + 1e-9:
                    raise RoundingInvariantError(
                        f"job {frac.job}, machine {i}: score {z[i]!r} exceeds 1"
                    )
            else:
                z[i] = frac.y[i]
        return z

    def assignment_step(self, frac: JobFraction) -> int:
        z = self.scores(frac)
        active_mass = sum(z[i] for i in range(self.m) if self.active[i])
        if active_mass < 1.0 - 1e-9:
            self.deficit_jobs += 1
        if active_mass <= 0.0:
            self.fallback_count += 1
            best = max(
                (i for i in range(self.m) if frac.eligible[i]),
                key=lambda i: (z[i], -i),
            )
            if z[best] <= 0.0:
                best = min(
                    (i for i in range(self.m) if frac.eligible[i]),
                    key=lambda i: (self.costs[i] * frac.p_scaled[i], i),
                )
                self.active[best] = True
                return self._assign(frac, best)
            self.active[best] = True
        ids = [i for i in range(self.m) if self.active[i] and z[i] > 0.0]
        mass = sum(z[i] for i in ids)
        probs = np.array([z[i] / mass for i in ids])
        probs /= probs.sum()
        return self._assign(frac, ids[reference_sample_index(self._pick_rng, probs)])

    def _assign(self, frac: JobFraction, i: int) -> int:
        self.assignment[frac.job] = i
        self.int_load[i] += frac.p_scaled[i]
        self._max_int_load = max(self._max_int_load, self.int_load[i])
        return i

    def process_job(self, frac: JobFraction) -> AssignmentRecord:
        self.activation_step(frac)
        i = self.assignment_step(frac)
        record = AssignmentRecord(job=frac.job, machine=i, cum_cost=self.int_cost)
        self.log.append(record)
        return record


def record_bits(record: AssignmentRecord) -> tuple:
    """An assignment record with its floats as exact hex strings."""
    return tuple(v if isinstance(v, int) else float(v).hex() for v in tuple(record))


# How a drawn job's activation levels and fractional assignment are made:
# "full" opens every eligible machine and scores each one (up to 140 scored
# active machines, past both cuts of the pairwise sum); "spread" draws levels
# on both sides of the score cut; "cold" keeps x too low for most thresholds,
# so that no active machine may score (the best-score fallback, with tied
# best scores); "unscored"
# has y = 0 everywhere (the cost-weighted fallback); "bad" puts y above 2x on
# one machine below the cut, which both sides must reject at the same machine
# and with the same machines open.
JOB_KINDS = ("full", "spread", "cold", "unscored", "bad")


def drawn_job(gen: np.random.Generator, kind: str, j: int, inst: Instance, eligible) -> JobFraction:
    m = inst.m
    if kind == "full":
        x = np.ones(m)
        y = gen.uniform(0.01, 1.0, m)
    elif kind == "spread":
        x = gen.uniform(0.001, 1.0, m) ** gen.integers(1, 4)
        y = np.minimum(2.0 * x, 1.0) * gen.random(m)
        y[gen.random(m) < 0.4] = 0.0
    elif kind == "cold":
        x = gen.uniform(1e-5, 1e-3, m)
        y = 2.0 * x * gen.choice([0.25, 0.5], m)  # exact scores 1/4 and 1/2, tied
        y[gen.random(m) < 0.5] = 0.0
    elif kind == "unscored":
        x = gen.uniform(0.0, 1.0, m)
        y = np.zeros(m)
    else:
        # Levels just below the cut open most machines, so that machines past
        # the rejected one open before the error too.
        x = gen.uniform(0.5, 1.0, m) / (ACTIVATION_FACTOR * math.log(max(m * inst.n, 2)))
        y = 2.0 * x * gen.random(m)
        y[int(gen.integers(max(m // 2, 1)))] = 2.5 * x.max()
    p = gen.uniform(0.01, 1.0, m)
    y = np.where(eligible, y, 0.0)
    return JobFraction(j, tuple(x.tolist()), tuple(y.tolist()), tuple(p.tolist()), eligible)


def recorded(sampler, weights: list):
    """sampler, appending the weights of each draw to weights as hex strings."""

    def record(rng, probs):
        weights.append([float(q).hex() for q in probs])
        return sampler(rng, probs)

    return record


class TaggedCdf(list):
    """A cdf that carries the weights it was built from, as hex strings."""

    weights: list[str]


def recorded_draws(weights: list, counts: dict):
    """cdf_of and bisect_right as process_job calls them: each cdf carries
    its weights, and each draw appends the weights of the cdf it bisects to
    ``weights``, also when that cdf comes from a memo that an earlier seed
    filled. Counts the cdfs built and the draws into ``counts``."""

    def tagged_cdf_of(ws):
        counts["built"] += 1
        cdf = TaggedCdf(cdf_of(ws))
        cdf.weights = [float(q).hex() for q in ws]
        return cdf

    def draw(cdf, u):
        counts["drawn"] += 1
        weights.append(cdf.weights)
        return bisect.bisect_right(cdf, u)

    return tagged_cdf_of, draw


def record_both_samplers(monkeypatch) -> tuple[dict, dict]:
    """Patch both sides to record each draw's weights; returns the weights
    by side and the one-pass side's counts of cdfs built and draws."""
    weights: dict[str, list] = {"one_pass": [], "reference": []}
    counts = {"built": 0, "drawn": 0}
    tagged_cdf_of, draw = recorded_draws(weights["one_pass"], counts)
    monkeypatch.setattr(rounding, "cdf_of", tagged_cdf_of)
    monkeypatch.setattr(rounding, "bisect_right", draw)
    monkeypatch.setattr(
        sys.modules[__name__],
        "reference_sample_index",
        recorded(reference_sample_index, weights["reference"]),
    )
    return weights, counts


def run_both(inst: Instance, seed: int, jobs: list[ScoredJob], weights: dict, drawn: dict) -> None:
    """Round jobs on RoundingState and their records on PerStepRoundingState
    side by side and assert that every job leaves the same floats to the bit,
    the weights each sampler drew with (recorded into ``weights``) included.
    Counts the fallback kinds, the deficit jobs and the sizes of the sampled
    sets into ``drawn``."""
    rs, ref = RoundingState(inst, seed), PerStepRoundingState(inst, seed)
    for job in jobs:
        frac = job.frac
        weights["one_pass"].clear()
        weights["reference"].clear()
        try:
            expected = ref.process_job(frac)
        except RoundingInvariantError as exc:
            with pytest.raises(RoundingInvariantError) as raised:
                rs.process_job(job)
            assert str(raised.value) == str(exc)
            assert rs.active == ref.active
            drawn["rejected"] += 1
            return
        fallbacks, deficits = rs.fallback_count, rs.deficit_jobs
        record = rs.process_job(job)
        assert record_bits(record) == record_bits(expected)
        assert weights["one_pass"] == weights["reference"]
        assert [v.hex() for v in rs.int_load] == [v.hex() for v in ref.int_load]
        assert rs.int_makespan().hex() == ref.int_makespan().hex()
        assert rs.int_cost.hex() == ref.int_cost.hex()
        assert rs.assignment == ref.assignment and rs.active == ref.active
        assert (rs.deficit_jobs, rs.fallback_count) == (ref.deficit_jobs, ref.fallback_count)
        scored = [i for i in range(inst.m) if frac.eligible[i] and frac.y[i] > 0.0]
        if rs.fallback_count > fallbacks:
            drawn["fallback_best" if scored else "fallback_cheapest"] += 1
        else:
            k = sum(rs.active[i] for i in scored)
            drawn["sampled_8_to_128" if 8 <= k <= 128 else "sampled_over_128" if k > 128 else "sampled_under_8"] += 1
        drawn["deficit"] += rs.deficit_jobs > deficits


DRAWN_CASES = (
    "fallback_best",
    "fallback_cheapest",
    "deficit",
    "sampled_under_8",
    "sampled_8_to_128",
    "sampled_over_128",
    "rejected",
)


def drawn_jobs(data) -> tuple[Instance, list[ScoredJob]]:
    """An instance and its scored jobs, drawn over JOB_KINDS, with the last
    job rejected in some examples."""
    m = data.draw(st.integers(1, 12) | st.integers(140, 160), label="m")
    n = data.draw(st.integers(1, 8), label="n")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="value seed"))
    costs = gen.uniform(0.5, 10.0, m).tolist()
    inst = make_instance(costs, gen.uniform(0.01, 1.0, (n, m)).tolist())
    discarded = data.draw(st.sampled_from([0.0, 0.05, 0.3]), label="discarded share")
    eligible = (gen.random(m) >= discarded).tolist()
    eligible[int(gen.integers(m))] = True
    kinds = data.draw(st.lists(st.sampled_from(JOB_KINDS[:-1]), min_size=n, max_size=n))
    if data.draw(st.booleans(), label="last job rejected"):
        kinds[-1] = "bad"
    records = [drawn_job(gen, kind, j, inst, tuple(eligible)) for j, kind in enumerate(kinds)]
    return inst, [score_job(inst, frac) for frac in records]


def test_one_pass_rounding_matches_the_per_step_reference(monkeypatch):
    weights, _ = record_both_samplers(monkeypatch)
    drawn = dict.fromkeys(DRAWN_CASES, 0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def check(data):
        inst, jobs = drawn_jobs(data)
        seed = data.draw(st.integers(0, 2**32 - 1), label="rounding seed")
        run_both(inst, seed, jobs, weights, drawn)

    check()
    assert all(drawn.values()), drawn


def test_shared_jobs_match_the_per_step_reference_under_each_seed(monkeypatch):
    # One scored job list rounded under 2 to 5 seeds in turn, as a sweep
    # rounds one fractional stage: later seeds draw by cdfs that earlier
    # seeds left in the jobs' memos.
    weights, counts = record_both_samplers(monkeypatch)
    drawn = dict.fromkeys(DRAWN_CASES, 0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        inst, jobs = drawn_jobs(data)
        seeds = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=5, unique=True),
            label="rounding seeds",
        )
        for seed in seeds:
            run_both(inst, seed, jobs, weights, drawn)

    check()
    assert all(drawn.values()), drawn
    # Each cdf built is drawn by once on the spot; the other draws hit a memo.
    assert counts["drawn"] > counts["built"] > 0, counts


def test_pairwise_sum_matches_numpy_bit_for_bit():
    gen = np.random.default_rng(16)
    for n in range(1, 601):
        spread = gen.random(n) * 10.0 ** gen.integers(-3, 3, n)
        ties = gen.choice([0.1, 0.25, 1.0 / 3.0], n)
        zeros = np.where(gen.random(n) < 0.5, 0.0, spread)
        counts = gen.integers(0, 50, n).astype(float)
        for arr in (spread, ties, zeros, counts):
            assert pairwise_sum(arr.tolist()).hex() == float(np.add.reduce(arr)).hex(), n
