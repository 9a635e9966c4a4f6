import gc
import math
import sys
import tracemalloc
from bisect import insort

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actsched import fractional
from actsched.doubling import default_initial_guess, snapshot_phase
from actsched.experiment import oracle_solve
from actsched.fractional import (
    COVERAGE_TOL,
    GROWTH_BASE,
    GuessTooSmallError,
    StepCapError,
    TYPE_A,
    TYPE_B,
    FractionalState,
    StalledStepError,
    StepOutcome,
    potential,
)
from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget)


# -- pre-processing ------------------------------------------------------------


def test_preprocess_three_rules():
    inst = make_instance([0.5, 1.0, 3.0, 10.0], [[0.5] * 4])
    fs = FractionalState(inst, alpha=4.0)  # rescale factor m/alpha = 1
    assert fs.discarded == [False, False, False, True]
    assert fs.scaled_costs[:3] == [1.0, 1.0, 3.0]
    assert fs.x == [1.0, 1.0, 0.25, 0.0]
    assert [x == 1.0 for x in fs.x] == [True, True, False, False]  # fully active


def test_preprocess_all_discarded_signals_small_guess():
    # Pre-processing keeps no machine; the first job then fits on none.
    inst = make_instance([100.0, 200.0], [[0.5, 0.5]])
    fs = FractionalState(inst, alpha=2.0)
    assert fs.discarded == [True, True]
    with pytest.raises(GuessTooSmallError, match=r"job 0: .* \(0 of 2 machines kept\)"):
        fs.process_job(0)


def test_preprocess_potential_at_most_m():
    for seed in range(30):
        inst = generate(GeneratorConfig(m=2 + seed % 6, n=4, seed=seed))
        alpha = sum(inst.costs()) if seed % 2 else max(inst.costs())
        fs = FractionalState(inst, alpha)
        assert fs.phi <= fs.m + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    costs=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
    alpha=st.floats(1e-3, 1e4),
    alpha_is_a_cost=st.booleans(),
)
@example(costs=[4.5, 8.0, 2.7038834608578517], alpha=1.0, alpha_is_a_cost=True)
def test_preprocess_potential_at_most_m_property(costs, alpha, alpha_is_a_cost):
    # Every kept machine starts at phi_i <= 1: scaled cost 1 at x = 1, or
    # scaled cost c <= m at x = 1/m. A machine whose cost is the guess is kept.
    if alpha_is_a_cost:
        alpha = costs[-1]
    fs = FractionalState(make_instance(costs, [[0.5] * len(costs)]), alpha)
    assert fs.phi <= fs.m + 1e-9
    if alpha_is_a_cost:
        assert not fs.discarded[-1]


def test_parameter_validation():
    inst = make_instance([1.0], [[0.5]])
    with pytest.raises(ValueError):
        FractionalState(inst, alpha=0.0)


# -- virtual cost ---------------------------------------------------------------


def virtual_cost(fs, i: int, j: int) -> float:
    """Machine i's virtual cost for job j: c * p_ij, times a^(load - 1) once
    the machine is fully active. The engine's ranking keys are this
    expression, written out."""
    if fs.discarded[i]:
        raise ValueError(f"machine {i} was discarded by pre-processing")
    c = fs.scaled_costs[i]
    p_ij = fs.p[j][i]
    if fs.x[i] == 1.0:
        return c * GROWTH_BASE ** (fs.load[i] - 1.0) * p_ij
    return c * p_ij


def test_virtual_cost_partially_active():
    inst = make_instance([0.5, 1.0, 3.0, 10.0], [[0.9, 0.9, 0.5, 0.9]])
    fs = FractionalState(inst, alpha=4.0)
    assert virtual_cost(fs, 2, 0) == pytest.approx(1.5, rel=1e-12)


def test_virtual_cost_fully_active_unit_load():
    inst = make_instance([2.0, 2.0], [[0.5, 0.9]])
    fs = FractionalState(inst, alpha=2.0)
    fs.x[0] = 1.0
    fs.load[0] = 1.0
    assert virtual_cost(fs, 0, 0) == pytest.approx(1.0, rel=1e-12)


def test_virtual_cost_fully_active_load_two():
    inst = make_instance([1.0], [[1.0]])
    fs = FractionalState(inst, alpha=1.0)
    fs.load[0] = 2.0
    assert virtual_cost(fs, 0, 0) == pytest.approx(1.05, rel=1e-12)


def test_virtual_cost_rejects_discarded():
    inst = make_instance([0.5, 10.0], [[0.5, 0.5]])
    fs = FractionalState(inst, alpha=2.0)
    with pytest.raises(ValueError):
        virtual_cost(fs, 1, 0)


# -- ordering and split -----------------------------------------------------------


def test_order_and_split_prefix_rule():
    inst = make_instance([2.0, 2.0, 2.0], [[0.1, 0.2, 0.3]])
    fs = FractionalState(inst, alpha=3.0)
    fs.x = [0.3, 0.4, 0.5]
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [0, 1]  # 0.3 + 0.4 < 1, adding 0.5 would reach 1.2
    assert pivot == 2


def test_order_and_split_strict_inequality():
    inst = make_instance([1.0], [[0.5]])
    fs = FractionalState(inst, alpha=1.0)
    assert fs.x == [1.0]
    prefix, pivot = fs.order_and_split(0)
    assert prefix == []  # a sum of exactly 1 is not < 1
    assert pivot == 0


def test_order_and_split_prefix_covers_everything():
    inst = make_instance([2.0, 2.0], [[0.1, 0.2]])
    fs = FractionalState(inst, alpha=2.0)
    fs.x = [0.2, 0.3]
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [0, 1]
    assert pivot is None


def test_order_breaks_ties_by_id():
    inst = make_instance([2.0, 2.0], [[0.5, 0.5]])
    fs = FractionalState(inst, alpha=2.0)
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [0]
    assert pivot == 1


def usable_machines(fs, j: int) -> list[int]:
    """Kept machines on which job j fits within the budget (p_ij <= L): the
    machines the engine ranks job j over, as a list built first."""
    prow = fs.p[j]
    return [i for i in range(fs.m) if not fs.discarded[i] and prow[i] <= 1.0]


def reference_split(fs, j):
    """The prefix/pivot split of a from-scratch sort of job j's usable machines."""
    prefix, total = [], 0.0
    for i in sorted(usable_machines(fs, j), key=lambda i: virtual_cost(fs, i, j)):
        if total + fs.x[i] >= 1.0:
            return prefix, i
        prefix.append(i)
        total += fs.x[i]
    return prefix, None


def process_by_steps(fs, j):
    """``fs.process_job(j)`` taken one ``fs.execute_step(j)`` call at a time,
    so that a wrapper on ``fs.execute_step`` sees every step; process_job
    itself covers the job in runs of steps. A job with no usable machine
    goes to process_job, which raises GuessTooSmallError."""
    if not usable_machines(fs, j):
        return fs.process_job(j)
    start = len(fs.step_log)
    fs.y[j] = [0.0] * fs.m
    fs.coverage[j] = 0.0
    while fs.coverage[j] < 1.0 - COVERAGE_TOL:
        fs.execute_step(j)
    return fs.step_log[start:]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_incremental_ranking_matches_a_fresh_sort(data):
    # Costs in {1, 2, 4} and times in {1/4, 1/2, 1, 2}*L make equal virtual
    # costs common (1*1 == 2*0.5 == 4*0.25 exactly), so ties are exercised;
    # 2*L pairs are over the budget, and a small guess discards machines.
    m = data.draw(st.integers(1, 8), label="m")
    n = data.draw(st.integers(1, 10), label="n")
    budget = data.draw(st.sampled_from([1.0, 2.5]), label="L")
    costs = data.draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=m, max_size=m))
    factor = st.sampled_from([0.25, 0.5, 1.0, 2.0])
    ptimes = [
        [f * budget for f in data.draw(st.lists(factor, min_size=m, max_size=m))]
        for _ in range(n)
    ]
    alpha = data.draw(st.floats(0.5, 40.0), label="alpha")
    fs = FractionalState(make_instance(costs, ptimes, budget), alpha)
    step = fs.execute_step

    def checked(j):
        assert fs.order_and_split(j) == reference_split(fs, j)
        return step(j)

    fs.execute_step = checked
    for j in range(n):
        # The one-pass ranking over the kept machines, against a fresh sort
        # of the list usable_machines builds, keys to the bit.
        want = sorted((virtual_cost(fs, i, j), i) for i in usable_machines(fs, j))
        assert rank_bits(fs._rank(j)) == rank_bits(want)
        if want:
            process_by_steps(fs, j)
        else:
            with pytest.raises(GuessTooSmallError):
                process_by_steps(fs, j)


def test_ranking_moves_a_machine_whose_key_fell():
    # Machine 1 ties machine 0 at virtual cost 1 and ranks after it. It turns
    # fully active at load 0.24 < 1, so its key falls to 1.05^-0.76 and it
    # must move ahead of machine 0: the next step is Type B on machine 1.
    inst = make_instance([2.0, 2.0], [[0.5, 0.5]])
    fs = FractionalState(inst, alpha=2.0)
    fs.x = [0.05, 0.96]  # set before job 0 is first ranked
    fs.y[0] = [0.0, 0.0]
    fs.coverage[0] = 0.0
    assert fs.order_and_split(0) == ([0], 1)
    assert fs.execute_step(0).step_type == TYPE_A
    assert fs.x[1] == 1.0 and fs.load[1] == pytest.approx(0.24, rel=1e-12)
    assert fs.order_and_split(0) == reference_split(fs, 0) == ([], 1)
    assert fs.execute_step(0).step_type == TYPE_B


# -- steps --------------------------------------------------------------------------


def test_type_b_grant_size():
    # Single machine, fully active, virtual cost 2, 10 declared jobs:
    # the pivot grant is 6 / (2 * 10) = 0.3 before clamping.
    a = GROWTH_BASE
    rows = [[1.0] for _ in range(10)]
    inst = make_instance([1.0], rows)
    fs = FractionalState(inst, alpha=1.0)
    fs.load[0] = 1.0 + math.log(2.0) / math.log(a)  # eta = 1 * a^(load-1) * 1 = 2
    fs.y[0] = [0.0]
    fs.coverage[0] = 0.0
    outcome = fs.execute_step(0)
    assert outcome.step_type == TYPE_B
    assert fs.y[0][0] == pytest.approx(0.3, rel=1e-12)
    assert fs.coverage[0] == pytest.approx(0.3, rel=1e-12)


def test_type_a_multiplicative_x_update():
    # x = 0.25, scaled cost 2, n = 10: x moves to 0.25 * (1 + 1/20) = 0.2625.
    rows = [[0.1, 0.2, 0.3, 0.4] for _ in range(10)]
    inst = make_instance([2.0, 2.0, 2.0, 2.0], rows)
    fs = FractionalState(inst, alpha=4.0)
    assert fs.x == [0.25] * 4
    fs.y[0] = [0.0] * 4
    fs.coverage[0] = 0.0
    outcome = fs.execute_step(0)
    assert outcome.step_type == TYPE_A
    for x in fs.x:
        assert x == pytest.approx(0.2625, rel=1e-12)


def test_single_machine_job_covered_in_one_clamped_grant():
    inst = make_instance([5.0], [[0.5]])
    fs = FractionalState(inst, alpha=5.0)
    outcomes = fs.process_job(0)
    assert len(outcomes) == 1
    assert fs.y[0][0] == 1.0
    assert fs.coverage[0] == 1.0
    assert fs.load[0] == pytest.approx(0.5, rel=1e-12)


def test_process_job_rejects_repeat_and_out_of_range():
    inst = make_instance([1.0], [[0.5]])
    fs = FractionalState(inst, alpha=1.0)
    fs.process_job(0)
    with pytest.raises(ValueError):
        fs.process_job(0)
    with pytest.raises(ValueError):
        fs.process_job(1)


def test_order_and_split_skips_pairs_over_budget():
    inst = make_instance([2.0, 2.0, 2.0], [[1.5, 0.2, 1.0]])
    fs = FractionalState(inst, alpha=3.0)
    assert usable_machines(fs, 0) == [1, 2]  # p = L still fits
    prefix, pivot = fs.order_and_split(0)
    assert prefix == [1, 2] and pivot is None


def test_job_without_usable_machine_signals_small_guess():
    # Machine 1 is discarded at this guess; job 0 fits only on machine 1.
    inst = make_instance([1.0, 10.0], [[2.0, 0.5], [0.5, 0.5]])
    fs = FractionalState(inst, alpha=2.0)
    assert fs.discarded == [False, True]
    with pytest.raises(GuessTooSmallError, match="job 0"):
        fs.process_job(0)
    assert 0 not in fs.y and len(fs.step_log) == 0
    fs.process_job(1)
    assert fs.y[1] == [1.0, 0.0]


def test_step_cap_aborts_with_diagnostics(monkeypatch):
    rows = [[1.0, 1.0] for _ in range(10)]
    inst = make_instance([2.0, 2.0], rows)
    fs = FractionalState(inst, alpha=2.0)
    monkeypatch.setattr(fractional, "STEP_CAP", 2)
    with pytest.raises(StepCapError, match="step cap 2 .*coverage"):
        fs.process_job(0)


# -- effective capacity ------------------------------------------------------------


def effective_capacity(x_before: float, delta_x: float, p_ij: float) -> float:
    """Assignment capacity unlocked by raising x from x_before by delta_x:
    min(2x, 6*dx/p), the engine's capacity written as a function, for
    ``PerMachineState``.

    A capacity below the smallest normal float is given as 0: in the
    subnormal range 6*dx/p keeps too few bits to stay within 6*dx once
    multiplied back by p, and no real step reaches it.
    """
    if delta_x < 0:
        raise ValueError("delta_x must be >= 0")
    cap = 6.0 * delta_x / p_ij
    if cap < sys.float_info.min:
        return 0.0
    return min(2.0 * x_before, cap)


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
@example(x=1.0, dx=2.2250738585072014e-308, p=112490.0)  # 6*dx/p is subnormal
def test_effective_capacity_properties(x, dx, p):
    cap = effective_capacity(x, dx, p)
    assert 0.0 <= cap <= 2.0 * x
    assert cap * p <= 6.0 * dx * (1 + 1e-12)  # load gain never beats 6*dx
    assert effective_capacity(x, dx * 2, p) >= cap


class PerMachineState(FractionalState):
    """The engine's step as it was before it became one pass: per-machine
    helpers for the x-bump and the grant, each recomputing phi_i before and
    after, a ranking keyed through ``virtual_cost``, and a list step log of
    its own. The reference for
    ``test_one_pass_step_matches_the_per_machine_reference``."""

    def __init__(self, instance, alpha):
        super().__init__(instance, alpha)
        self.step_log = []  # (job, step_idx, StepOutcome) tuples, as the engine's log reads

    def _phi_i(self, i: int) -> float:
        c = self.scaled_costs[i]
        if self.x[i] == 1.0:
            return c * GROWTH_BASE ** (self.load[i] - 1.0)
        return c * self.x[i]

    def _rank(self, j: int) -> list[tuple[float, int]]:
        self._ranked = sorted((virtual_cost(self, i, j), i) for i in usable_machines(self, j))
        self._ranked_job = j
        return self._ranked

    def _grant(self, i: int, j: int, raw_inc: float) -> tuple[float, float]:
        yrow = self.y[j]
        room_frac = min(2.0 * self.x[i], 1.0) - yrow[i]
        room_cov = 1.0 - self.coverage[j]
        inc = min(raw_inc, room_frac, room_cov)
        if inc < 0.0:
            inc = 0.0
        if room_frac < raw_inc:
            self.fraction_clamps += 1
        if room_cov < raw_inc:
            self.coverage_clamps += 1
        if inc == 0.0:
            return 0.0, 0.0
        phi_before = self._phi_i(i)
        yrow[i] += inc
        self.load[i] += self.p[j][i] * inc
        self.coverage[j] += inc
        return self._phi_i(i) - phi_before, inc

    def _raise_activation(self, i: int, j: int) -> tuple[float, float]:
        x_old = self.x[i]
        x_new = min(x_old * (1.0 + self._inv_cn[i]), 1.0)
        dx = x_new - x_old
        cap = effective_capacity(x_old, dx, self.p[j][i])
        phi_before = self._phi_i(i)
        self.x[i] = x_new
        d_phi = self._phi_i(i) - phi_before
        d_phi2, d_cov = self._grant(i, j, cap)
        return d_phi + d_phi2, d_cov

    def execute_step(self, j: int) -> StepOutcome:
        prefix, pivot = self.order_and_split(j)
        type_b = pivot is not None and self.x[pivot] == 1.0
        d_phi = 0.0
        d_cov = 0.0
        for i in prefix:
            dp, dc = self._raise_activation(i, j)
            d_phi += dp
            d_cov += dc
        if pivot is not None:
            if type_b:
                eta = virtual_cost(self, pivot, j)
                dp, dc = self._grant(pivot, j, 6.0 / (eta * self.n))
            else:
                dp, dc = self._raise_activation(pivot, j)
            d_phi += dp
            d_cov += dc
        ranked = self._ranked
        touched = len(prefix) + (pivot is not None)
        head = [
            (virtual_cost(self, i, j), i) if self.x[i] == 1.0 else (key, i)
            for key, i in ranked[:touched]
        ]
        if head != ranked[:touched]:
            del ranked[:touched]
            for entry in head:
                insort(ranked, entry)
        outcome = StepOutcome(TYPE_B if type_b else TYPE_A, d_phi)
        self.step_log.append((j, len(self.step_log), outcome))
        self.phi += d_phi
        if d_cov <= 0.0:
            raise StalledStepError(f"job {j}: step produced no coverage")
        return outcome


def bits(values):
    """Floats as exact hex strings, so that -0.0 and 0.0 differ too."""
    return [float(v).hex() for v in values]


def fs_potential(fs):
    return potential(fs.x, fs.load, fs.scaled_costs, fs.discarded)


def rank_bits(ranked):
    """(virtual cost, id) pairs with the cost as an exact hex string."""
    return [(key.hex(), i) for key, i in ranked]


def log_bits(entries):
    """Step-log entries with Delta phi as an exact hex string."""
    return [(j, idx, o.step_type, o.delta_potential.hex()) for j, idx, o in entries]


def start_at(state, x):
    """Replace the starting activation levels of the kept machines by x."""
    state.x = [0.0 if d else v for d, v in zip(state.discarded, x)]
    state.phi = fs_potential(state)


def draw_case(data):
    """An instance, a guess and optional starting levels x. Low guesses make
    cheap machines start fully active, so Type-B pivots and both clamps
    occur; drawn levels close to 1 make bumps that reach x = 1 common."""
    m = data.draw(st.integers(1, 6), label="m")
    n = data.draw(st.integers(4, 16), label="n")
    costs = data.draw(st.lists(st.floats(0.5, 10.0), min_size=m, max_size=m))
    row = st.lists(st.floats(0.25, 1.25), min_size=m, max_size=m)
    ptimes = data.draw(st.lists(row, min_size=n, max_size=n))
    alpha = sum(costs) * data.draw(st.floats(0.05, 1.0), label="guess / sum(c)")
    level = st.one_of(st.just(1.0), st.floats(0.5, 1.0), st.floats(0.01, 0.5))
    x = data.draw(st.none() | st.lists(level, min_size=m, max_size=m), label="x")
    return make_instance(costs, ptimes), alpha, x


def run_in_lockstep(inst, alpha, drawn, x=None):
    """Run every job of inst at guess alpha on the engine and on
    ``PerMachineState`` side by side, and after every step assert that both
    hold the same floats to the bit. ``x``, if given, replaces the starting
    activation levels of the kept machines. Counts Type-B steps, crossings
    to x = 1 and clamps into ``drawn``."""
    fs, ref = FractionalState(inst, alpha), PerMachineState(inst, alpha)
    if x is not None:
        for state in (fs, ref):
            start_at(state, x)
    step = fs.execute_step

    def lockstep(j):
        if j not in ref.y:
            ref.y[j] = [0.0] * ref.m
            ref.coverage[j] = 0.0
        x_before = list(fs.x)
        outcome = step(j)
        expected = ref.execute_step(j)
        assert outcome.step_type == expected.step_type
        assert bits([outcome.delta_potential, fs.phi]) == bits([expected.delta_potential, ref.phi])
        assert bits(fs.x) == bits(ref.x) and bits(fs.load) == bits(ref.load)
        assert bits(fs.y[j]) == bits(ref.y[j])
        assert bits([fs.coverage[j]]) == bits([ref.coverage[j]])
        assert (fs.fraction_clamps, fs.coverage_clamps) == (
            ref.fraction_clamps,
            ref.coverage_clamps,
        )
        drawn["type_b"] += outcome.step_type == TYPE_B
        drawn["crossing"] += any(a < 1.0 and b == 1.0 for a, b in zip(x_before, fs.x))
        return outcome

    fs.execute_step = lockstep
    for j in range(inst.n):
        # Each job's first ranking: the one pass against the reference's sort.
        assert rank_bits(fs._rank(j)) == rank_bits(ref._rank(j))
        if usable_machines(fs, j):
            process_by_steps(fs, j)
        else:
            with pytest.raises(GuessTooSmallError):
                process_by_steps(fs, j)
    drawn["fraction_clamp"] += fs.fraction_clamps
    drawn["coverage_clamp"] += fs.coverage_clamps


def test_one_pass_step_matches_the_per_machine_reference():
    # Type-B steps, crossings to x = 1 and both clamps must each be drawn at
    # least once.
    drawn = dict.fromkeys(("type_b", "crossing", "fraction_clamp", "coverage_clamp"), 0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def check(data):
        inst, alpha, x = draw_case(data)
        run_in_lockstep(inst, alpha, drawn, x)

    check()
    assert all(drawn.values()), drawn


def test_runs_match_the_one_step_path():
    # process_job covers a job in runs of steps that share one split; a twin
    # takes the same steps one execute_step call at a time. After every job
    # both must hold the same floats to the bit. Type-B steps, crossings to
    # x = 1, both clamps, a split with no pivot and a run of more than one
    # step must each be drawn at least once.
    drawn = dict.fromkeys(
        ("type_b", "crossing", "fraction_clamp", "coverage_clamp", "no_pivot", "long_run"), 0
    )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def check(data):
        inst, alpha, x = draw_case(data)
        fs, twin = FractionalState(inst, alpha), FractionalState(inst, alpha)
        if x is not None:
            start_at(fs, x)
            start_at(twin, x)
        splits = {"runs": 0}
        split, twin_split, twin_step = fs.order_and_split, twin.order_and_split, twin.execute_step

        def counted_split(j):
            splits["runs"] += 1
            return split(j)

        def recorded_split(j):
            prefix, pivot = twin_split(j)
            drawn["no_pivot"] += pivot is None
            return prefix, pivot

        def recorded_step(j):
            x_before = list(twin.x)
            outcome = twin_step(j)
            drawn["type_b"] += outcome.step_type == TYPE_B
            drawn["crossing"] += any(a < 1.0 and b == 1.0 for a, b in zip(x_before, twin.x))
            return outcome

        fs.order_and_split = counted_split
        twin.order_and_split, twin.execute_step = recorded_split, recorded_step
        for j in range(inst.n):
            if not usable_machines(fs, j):
                for state in (fs, twin):
                    with pytest.raises(GuessTooSmallError):
                        process_by_steps(state, j)
                continue
            splits["runs"] = 0
            steps = fs.process_job(j)
            assert log_bits(steps) == log_bits(process_by_steps(twin, j))
            assert log_bits(fs.step_log) == log_bits(twin.step_log)
            drawn["long_run"] += splits["runs"] < len(steps)
            assert bits(fs.x) == bits(twin.x) and bits(fs.load) == bits(twin.load)
            assert bits(fs.y[j]) == bits(twin.y[j])
            assert bits([fs.coverage[j], fs.phi]) == bits([twin.coverage[j], twin.phi])
            assert (fs.fraction_clamps, fs.coverage_clamps) == (
                twin.fraction_clamps,
                twin.coverage_clamps,
            )
            assert [(bits([key]), i) for key, i in fs._ranked] == [
                (bits([key]), i) for key, i in twin._ranked
            ]
        drawn["fraction_clamp"] += fs.fraction_clamps
        drawn["coverage_clamp"] += fs.coverage_clamps

    check()
    assert all(drawn.values()), drawn


def test_one_pass_step_matches_the_reference_across_crossings():
    # Crossings to x = 1 reached by the engine's own growth from x = 1/m,
    # not from drawn starting levels: the two runs of the crossing jump
    # (test_full_activation_under_load_can_jump_potential) each have one.
    drawn = dict.fromkeys(("type_b", "crossing", "fraction_clamp", "coverage_clamp"), 0)
    below = generate(GeneratorConfig(m=9, n=13, seed=34))
    run_in_lockstep(below, max(below.costs()), drawn)
    at_b = generate(GeneratorConfig(m=13, n=91, seed=17, ptime_model="power_law"))
    run_in_lockstep(at_b, 12.746888992435357, drawn)
    assert drawn["crossing"] == 2 and drawn["type_b"], drawn


# -- per-job feasibility and bookkeeping over seeded sweeps ---------------------------


def run_all(inst, alpha):
    fs = FractionalState(inst, alpha)
    for j in range(inst.n):
        fs.process_job(j)
    return fs


def record_steps(fs):
    """Wrap ``fs.execute_step`` on this instance so that each step appends
    (coverage before, coverage after, x before, x after, load before) to the
    returned list, in step order; drive the jobs with ``process_by_steps``."""
    step = fs.execute_step
    records = []

    def recorded(j):
        cov, x, load = fs.coverage[j], list(fs.x), list(fs.load)
        outcome = step(j)
        records.append((cov, fs.coverage[j], x, list(fs.x), load))
        return outcome

    fs.execute_step = recorded
    return records


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
        for j in range(inst.n):
            assert 1.0 - COVERAGE_TOL <= fs.coverage[j] <= 1.0


def test_relaxed_constraints_hold():
    for inst, alpha in sweep_instances():
        fs = run_all(inst, alpha)
        for j in range(inst.n):
            for i in range(fs.m):
                assert fs.y[j][i] <= 2.0 * fs.x[i] + 1e-9
        for i in range(fs.m):
            if not fs.discarded[i] and fs.x[i] < 1.0:
                assert fs.load[i] <= 6.0 * fs.x[i] + 1e-9


def test_x_monotone_and_y_frozen():
    inst = generate(GeneratorConfig(m=4, n=10, seed=3))
    fs = FractionalState(inst, sum(inst.costs()))
    x_prev = list(fs.x)
    frozen = {}
    for j in range(inst.n):
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
        assert abs(fs.phi - fs_potential(fs)) <= 1e-9


def test_engine_is_deterministic():
    inst = generate(GeneratorConfig(m=5, n=12, seed=8))
    a = run_all(inst, sum(inst.costs()))
    b = run_all(inst, sum(inst.costs()))
    assert a.x == b.x and a.load == b.load and a.y == b.y
    assert [entry[2] for entry in a.step_log] == [entry[2] for entry in b.step_log]


def test_step_log_keeps_no_python_object_per_step():
    # One phase of 11,257 steps: uniform m=20, n=100, seed 0 at its default
    # guess. The step log keeps typed columns, so the cyclic collector gets
    # no object per step to rescan, and a step retains a few bytes of them.
    inst = generate(GeneratorConfig(m=20, n=100, seed=0))
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        fs = run_all(inst, default_initial_guess(inst))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    steps = len(fs.step_log)
    assert steps >= 5000
    assert len(gc.get_objects()) - tracked < 0.1 * steps
    assert retained < 64 * steps


def test_step_log_reads_alike_by_iteration_index_and_slice():
    inst = generate(GeneratorConfig(m=5, n=12, seed=8))
    log = run_all(inst, sum(inst.costs())).step_log
    entries = list(log)
    k = len(entries)
    assert k > 10 and [e[1] for e in entries] == list(range(k))
    assert [log[i] for i in range(-k, k)] == entries + entries
    span = log[3:-2]
    assert len(span) == k - 5 and list(span) == entries[3:-2] and span[-1] == entries[-3]
    assert list(span[1::2]) == entries[4:-2:2] and list(log[::3]) == entries[::3]


def test_every_step_makes_progress():
    for inst, alpha in sweep_instances(12):
        fs = FractionalState(inst, alpha)
        steps = record_steps(fs)
        for j in range(inst.n):
            process_by_steps(fs, j)
        assert len(steps) == len(fs.step_log)
        assert all(after > before for before, after, *_ in steps)
        assert [idx for _, idx, _ in fs.step_log] == list(range(len(fs.step_log)))


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
    # that single step. Pairs with p_ij > L get no fractional mass, so no
    # sentinel load builds up on a restricted instance.
    inst = generate(GeneratorConfig(m=3, n=39, seed=64, ptime_model="restricted_assignment"))
    fs = run_all(inst, sum(inst.costs()))
    assert all(fs.y[j][i] == 0.0 for j in fs.y for i in range(fs.m) if fs.p[j][i] > 1.0)
    assert max(load for load, d in zip(fs.load, fs.discarded) if not d) <= 1.0
    cap = 2.0 / fs.n + 1e-9
    assert all(o.delta_potential <= cap for (_, _, o) in fs.step_log)

    # The jump is real with load on legal pairs only, below the optimum and
    # at it alike. Below: alpha is the largest machine cost, asserted < B.
    # At: power_law m=13, n=91, seed 17 at alpha = B = 12.746888992435357
    # (proved with a MILP solver), where job 83, step 277 has
    # delta_phi = 0.2088 against 2/n = 0.022.
    below = generate(GeneratorConfig(m=9, n=13, seed=34))
    assert max(below.costs()) < oracle_solve(below).optimal_cost
    at_b = generate(GeneratorConfig(m=13, n=91, seed=17, ptime_model="power_law"))
    for inst, alpha, expected in [
        (below, max(below.costs()), None),
        (at_b, 12.746888992435357, (83, 277)),
    ]:
        fs = FractionalState(inst, alpha)
        steps = record_steps(fs)
        for j in range(inst.n):
            process_by_steps(fs, j)
        cap = 2.0 / fs.n + 1e-9
        job_start_load = {}
        jumps = []
        for (j, idx, o), (_, _, x_before, x_after, load_before) in zip(fs.step_log, steps):
            job_start_load.setdefault(j, load_before)
            if o.delta_potential > cap:
                jumps.append((j, idx, o, x_before, x_after))
        assert jumps, "expected the crossing jump on this instance"
        if expected is not None:
            assert expected in [(j, idx) for j, idx, *_ in jumps]
        for j, idx, o, x_before, x_after in jumps:
            assert o.step_type == TYPE_A
            crossed = [i for i in range(fs.m) if x_before[i] < 1.0 and x_after[i] == 1.0]
            assert crossed
            for i in crossed:
                assert job_start_load[j][i] > 1.0
                assert all(fs.p[jj][i] <= 1.0 for jj in fs.y if fs.y[jj][i] > 0.0)


# -- observables -----------------------------------------------------------------------


def test_fractional_cost_fresh_state():
    inst = make_instance([0.5, 1.0, 3.0, 3.0], [[0.5] * 4])
    fs = FractionalState(inst, alpha=4.0)
    # two cost-1 machines fully active + two climbers at x = 1/4, cost 3
    assert fs.fractional_cost() == pytest.approx(2.0 + 2 * 3.0 / 4.0, rel=1e-12)


def test_makespan_of_empty_instance_is_zero():
    inst = make_instance([1.0, 2.0], [])
    fs = FractionalState(inst, alpha=1.0)
    assert snapshot_phase(fs, 0, 1.0, 0).frac_makespan == 0.0


def test_potential_examples():
    big = 1.0e6
    inst = make_instance([5.0, big, big, big, big], [[0.5] * 5])
    fs = FractionalState(inst, alpha=5.0)
    assert fs.discarded == [False, True, True, True, True]
    assert fs_potential(fs) == pytest.approx(1.0, rel=1e-12)  # 5 * (1/5)

    inst2 = make_instance([1.0], [[0.5]])
    fs2 = FractionalState(inst2, alpha=1.0)
    fs2.load[0] = 1.0
    assert fs_potential(fs2) == pytest.approx(1.0, rel=1e-12)  # 1 * a^0


def test_job_fraction_snapshot():
    inst = generate(GeneratorConfig(m=3, n=4, seed=17))
    fs = run_all(inst, sum(inst.costs()))
    frac = fs.job_fraction(2)
    assert frac.job == 2
    assert frac.x == tuple(fs.x)
    assert frac.y == tuple(fs.y[2])
    assert frac.eligible == tuple(not d for d in fs.discarded)
    with pytest.raises(ValueError):
        run_all(inst, sum(inst.costs())).job_fraction(99)
