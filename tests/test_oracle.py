import heapq
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate
from actsched.oracle import (
    SET_SLACK,
    InfeasibleInstanceError,
    OracleResult,
    OracleTooLargeError,
    _activation_cost,
    feasible,
    machine_loads,
    optimal_bnb,
    optimal_exhaustive,
)


def make_instance(costs, ptimes, budget=1.0):
    machines = tuple(Machine(i, c) for i, c in enumerate(costs))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes))
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget)


def test_feasible_basic():
    inst = make_instance([1.0, 2.0], [[0.5, 0.5]])
    assert feasible(inst, (0,))
    assert feasible(inst, (1,))


def test_feasible_overload():
    inst = make_instance([1.0, 2.0], [[2.0, 0.5]])
    assert not feasible(inst, (0,))
    assert feasible(inst, (1,))


def test_feasible_empty_assignment():
    inst = make_instance([1.0], [])
    assert feasible(inst, ())


def test_exhaustive_picks_cheaper_machine():
    inst = make_instance([1.0, 2.0], [[0.5, 0.5]])
    result = optimal_exhaustive(inst)
    assert result.optimal_cost == 1.0
    assert result.witness == (0,)


def test_exhaustive_forced_machine():
    inst = make_instance([1.0, 2.0], [[2.0, 0.5]])
    assert optimal_exhaustive(inst).optimal_cost == 2.0


def test_exhaustive_capacity_forces_both():
    inst = make_instance([1.0, 2.0], [[0.6, 0.6], [0.6, 0.6]])
    assert optimal_exhaustive(inst).optimal_cost == 3.0


def test_exhaustive_guard():
    inst = generate(GeneratorConfig(m=5, n=11, seed=0))
    with pytest.raises(OracleTooLargeError):
        optimal_exhaustive(inst, guard=10**6)


def test_exhaustive_infeasible():
    inst = make_instance([1.0], [[2.0]])
    with pytest.raises(InfeasibleInstanceError):
        optimal_exhaustive(inst)


def test_bnb_infeasible():
    inst = make_instance([1.0, 1.0], [[2.0, 3.0]])
    with pytest.raises(InfeasibleInstanceError):
        optimal_bnb(inst)


def test_bnb_single_machine_fits_all():
    inst = make_instance([3.0, 50.0], [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]])
    result = optimal_bnb(inst)
    assert result.optimal_cost == 3.0
    assert result.witness == (0, 0, 0)


def test_bnb_matches_exhaustive_on_seeded_instances():
    models = ("uniform", "restricted_assignment", "power_law")
    cases = [(2 + seed % 2, 3 + seed % 4, seed, models[seed % 3]) for seed in range(50)]
    cases += [(4, 5 + seed % 3, 200 + seed, models[seed % 3]) for seed in range(20)]
    for m, n, seed, model in cases:
        inst = generate(GeneratorConfig(m=m, n=n, seed=seed, ptime_model=model))
        a = optimal_exhaustive(inst)
        b = optimal_bnb(inst)
        assert b.optimal_cost == a.optimal_cost, f"m={m} seed {seed}"
        assert feasible(inst, b.witness)


# B of the benchmark's oracle-sweep instances (m=6, n=12, seeds 0-11 per
# model), as the job-by-job branch-and-bound computed them.
SWEEP_GRID_B = {
    "uniform": (
        5.945590859057347, 14.222815731149861, 8.868172978186829, 6.749294843821109,
        12.58210596241114, 13.302615055936604, 18.624993040016882, 13.354220473558357,
        15.908088458199957, 19.24810931666662, 13.051193382564147, 5.7466676614674,
    ),
    "restricted_assignment": (
        5.945590859057347, 20.468030890257673, 8.868172978186829, 11.647437305949374,
        17.681231653166996, 13.302615055936604, 20.949328603190253, 21.3353916857651,
        16.640216641085644, 23.111426101310713, 15.89195580210584, 5.7466676614674,
    ),
    "power_law": (
        5.945590859057347, 10.913857623324255, 8.868172978186829, 6.749294843821109,
        11.717851449785128, 14.180722562212994, 12.781513876769392, 14.709532486323099,
        12.330911294672443, 18.841931067982816, 13.051193382564147, 5.7466676614674,
    ),
}


def test_bnb_search_on_oracle_sweep_grid():
    # The instances of the benchmark's oracle sweep. Set order, packing order
    # and pruning decide the node count, so this pins the search itself; B
    # must equal the earlier search's to the bit.
    nodes = 0
    for model, optima in SWEEP_GRID_B.items():
        for seed, B in enumerate(optima):
            inst = generate(GeneratorConfig(m=6, n=12, seed=seed, ptime_model=model))
            result = optimal_bnb(inst)
            nodes += result.nodes_explored
            assert result.optimal_cost == B, f"{model} seed {seed}"
            assert feasible(inst, result.witness), f"{model} seed {seed}"
            costs = inst.costs()
            assert sum(costs[i] for i in sorted(set(result.witness))) == result.optimal_cost
    assert nodes == 5_558


def test_bnb_restores_loads_exactly_on_backtrack():
    # Backtracking by subtracting p from a load left float drift that
    # rejected this packing, which feasible() accepts; B = 4.0 + 0.3.
    inst = make_instance(
        [4.0, 0.3],
        [[1.5, 0.5], [0.2, 0.3], [0.3, 0.1], [0.1, 1.0], [1.5, 0.2], [1.0, 0.3]],
    )
    exact = optimal_exhaustive(inst)
    assert exact.optimal_cost == 4.3
    result = optimal_bnb(inst)
    assert result.optimal_cost == exact.optimal_cost
    assert feasible(inst, result.witness)


def test_bnb_stops_only_past_the_float_slack():
    # Machine 1 is forced; {1, 3} costs 0.2 + 0.7 = 0.8999999999999999 but
    # its heap key, built by adding and swapping costs, is 0.9, the cost of
    # {0, 1, 2} that the first packing finds. Stopping at a key equal to the
    # incumbent's cost would miss the optimum.
    inst = make_instance(
        [0.1, 0.2, 0.6, 0.7],
        [[1.5, 1.0, 1.5, 1.5], [0.5, 1.5, 1.5, 0.5], [1.5, 1.5, 0.5, 0.5]],
    )
    exact = optimal_exhaustive(inst)
    assert exact.optimal_cost == 0.2 + 0.7 < 0.1 + 0.2 + 0.6
    result = optimal_bnb(inst)
    assert result.optimal_cost == exact.optimal_cost
    assert set(result.witness) == {1, 3}


@settings(max_examples=300, deadline=None)
@given(
    costs=st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0, 4.0]), min_size=1, max_size=4),
    rows=st.lists(
        st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5]), min_size=4, max_size=4),
        min_size=1,
        max_size=7,
    ),
)
def test_bnb_matches_exhaustive_on_ties(costs, rows):
    # Few distinct costs and times: equal-cost sets, float-tied sums and
    # loads landing exactly on L are common.
    inst = make_instance(costs, [row[: len(costs)] for row in rows])
    try:
        exact = optimal_exhaustive(inst)
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            optimal_bnb(inst)
        return
    result = optimal_bnb(inst)
    assert result.optimal_cost == exact.optimal_cost
    assert feasible(inst, result.witness)
    assert result.optimal_cost == _activation_cost(inst.costs(), result.witness)


def per_set_sort_bnb(instance: Instance, node_budget: int) -> OracleResult:
    """``optimal_bnb`` as it was before the per-job orders: every packing
    sorts each job's fitting machines of the set, and the root's volume cut
    runs inside ``place(0)``. The reference for
    ``test_set_search_matches_the_per_set_sort``."""
    m, n = instance.m, instance.n
    if n == 0:
        return OracleResult(0.0, (), 0.0, 1)
    budget = instance.makespan_budget
    costs = instance.costs()
    ptimes = instance.ptimes()
    for j, p in enumerate(ptimes):
        if all(p_i > budget for p_i in p):
            raise InfeasibleInstanceError(f"job {j} does not fit on any machine")
    nodes = 0

    def count() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise OracleTooLargeError(f"set search hit its node budget ({node_budget}) without proof")

    def pack(members) -> list[int] | None:
        fits = [sorted((i for i in members if p[i] <= budget), key=lambda i: p[i]) for p in ptimes]
        if not all(fits):
            return None
        rem = [0.0] * (n + 1)  # rem[t]: least volume jobs t.. need in the set
        for t in range(n - 1, -1, -1):
            rem[t] = rem[t + 1] + ptimes[t][fits[t][0]]
        capacity = len(members) * budget * (1.0 + SET_SLACK)
        loads = [0.0] * m
        assign = [0] * n

        def place(t: int, placed: float) -> bool:
            count()
            if t == n:
                return True
            if placed + rem[t] > capacity:
                return False
            p = ptimes[t]
            for i in fits[t]:
                saved = loads[i]
                loads[i] = saved + p[i]
                if loads[i] <= budget:
                    assign[t] = i
                    if place(t + 1, placed + p[i]):
                        return True
                loads[i] = saved
            return False

        return assign if place(0, 0.0) else None

    order = sorted(range(m), key=lambda i: (costs[i], i))
    best_assign = pack(order)
    if best_assign is None:
        raise InfeasibleInstanceError("no assignment meets the makespan budget")
    best_cost = _activation_cost(costs, best_assign)
    heap = [(costs[order[0]], 0, (order[0],))]  # (cost key, last sorted position, machines)
    while heap and heap[0][0] <= best_cost * (1.0 + SET_SLACK):
        key, k, members = heapq.heappop(heap)
        count()
        if k + 1 < m:
            nxt = order[k + 1]
            heapq.heappush(heap, (key + costs[nxt], k + 1, members + (nxt,)))
            heapq.heappush(heap, (key - costs[order[k]] + costs[nxt], k + 1, members[:-1] + (nxt,)))
        if _activation_cost(costs, members) < best_cost:
            found = pack(members)
            if found is not None:
                best_cost, best_assign = _activation_cost(costs, found), found
    return OracleResult(
        optimal_cost=best_cost,
        witness=tuple(best_assign),
        witness_makespan=max(machine_loads(instance, best_assign)),
        nodes_explored=nodes,
    )


@settings(max_examples=300, deadline=None)
@given(
    costs=st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0]), min_size=1, max_size=6),
    rows=st.lists(
        st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5]), min_size=6, max_size=6),
        min_size=1,
        max_size=8,
    ),
    node_budget=st.sampled_from([1, 5, 20, 100, 10**7]),
)
def test_set_search_matches_the_per_set_sort(costs, rows, node_budget):
    # Tied processing times and costs make the order within a set matter:
    # nodes, witness and B, or the error and the node at which it is raised,
    # must be the reference's.
    inst = make_instance(costs, [row[: len(costs)] for row in rows])

    def outcome(search):
        try:
            return search(inst, node_budget=node_budget)
        except (InfeasibleInstanceError, OracleTooLargeError) as exc:
            return type(exc), str(exc)

    assert outcome(optimal_bnb) == outcome(per_set_sort_bnb)


def milp_optimum(inst):
    """Minimum activation cost by HiGHS, through the benchmark's MILP model."""
    pytest.importorskip("scipy.optimize")
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.milp_optimum(inst)


@pytest.mark.parametrize(
    "model, seed, B",
    [("uniform", 1, 16.84468186983432), ("power_law", 2, 11.228358805268003)],
)
def test_bnb_proves_m10_n20_within_default_budget(model, seed, B):
    inst = generate(GeneratorConfig(m=10, n=20, seed=seed, ptime_model=model))
    result = optimal_bnb(inst)
    assert result.optimal_cost == B
    assert feasible(inst, result.witness)
    assert result.optimal_cost == _activation_cost(inst.costs(), result.witness)
    assert milp_optimum(inst) == pytest.approx(B, rel=1e-9)


def test_bnb_node_budget_is_exact():
    inst = generate(GeneratorConfig(m=6, n=12, seed=3, ptime_model="uniform"))
    result = optimal_bnb(inst)
    assert optimal_bnb(inst, node_budget=result.nodes_explored) == result
    with pytest.raises(OracleTooLargeError, match="node budget"):
        optimal_bnb(inst, node_budget=result.nodes_explored - 1)


def test_oracle_is_arrival_order_independent():
    inst = generate(GeneratorConfig(m=3, n=5, seed=77))
    cost = optimal_bnb(inst).optimal_cost
    reversed_jobs = tuple(
        Job(k, inst.jobs[len(inst.jobs) - 1 - k].processing_times)
        for k in range(len(inst.jobs))
    )
    flipped = Instance(
        machines=inst.machines,
        jobs=reversed_jobs,
        makespan_budget=inst.makespan_budget,
    )
    assert optimal_bnb(flipped).optimal_cost == cost


def test_bnb_node_budget_returns_incumbent_flagged():
    # The id is older than the contract: a search that cannot prove an optimum raises.
    inst = generate(GeneratorConfig(m=4, n=10, seed=13))
    with pytest.raises(OracleTooLargeError, match="node budget"):
        optimal_bnb(inst, node_budget=3)


def test_witness_consistency():
    for seed in range(10):
        inst = generate(GeneratorConfig(m=3, n=5, seed=100 + seed))
        result = optimal_bnb(inst)
        loads = machine_loads(inst, result.witness)
        assert max(loads) == result.witness_makespan
        assert result.witness_makespan <= inst.makespan_budget
        costs = inst.costs()
        assert sum(costs[i] for i in sorted(set(result.witness))) == result.optimal_cost


def test_rescaled_optimum_lands_in_window():
    # After scaling costs so the optimum maps to m (and raising sub-1 costs
    # to 1), the optimum of the modified instance sits in [m, 2m].
    for seed in range(20):
        inst = generate(GeneratorConfig(m=3, n=6, seed=500 + seed))
        base = optimal_bnb(inst).optimal_cost
        m = inst.m
        modified = Instance(
            machines=tuple(
                Machine(mc.id, max(1.0, mc.startup_cost * m / base)) for mc in inst.machines
            ),
            jobs=inst.jobs,
            makespan_budget=inst.makespan_budget,
        )
        value = optimal_bnb(modified).optimal_cost
        assert m - 1e-9 <= value <= 2 * m + 1e-9


def test_zero_jobs():
    inst = make_instance([1.0, 2.0], [])
    result = optimal_exhaustive(inst)
    assert result.optimal_cost == 0.0
    assert optimal_bnb(inst).optimal_cost == 0.0
