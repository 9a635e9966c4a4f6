import pytest

from actsched import experiment
from actsched.instances import GeneratorConfig, Instance, Job, Machine, generate
from actsched.oracle import (
    InfeasibleInstanceError,
    OracleTooLargeError,
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


def test_bnb_search_on_oracle_sweep_grid():
    # The instances of the benchmark's oracle sweep. Child order and pruning
    # decide the node count, so this pins the search itself, not only B.
    nodes = 0
    for model in ("uniform", "restricted_assignment", "power_law"):
        for seed in range(12):
            inst = generate(GeneratorConfig(m=6, n=12, seed=seed, ptime_model=model))
            result = optimal_bnb(inst)
            nodes += result.nodes_explored
            assert feasible(inst, result.witness), f"{model} seed {seed}"
            costs = inst.costs()
            assert sum(costs[i] for i in sorted(set(result.witness))) == result.optimal_cost
    assert nodes == 147_701


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


def test_oracle_solve_rejects_unknown_method_before_searching(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "optimal_bnb", lambda *args, **kwargs: calls.append(args))
    inst = make_instance([1.0, 2.0], [[0.5, 0.5]])
    with pytest.raises(ValueError, match="unknown oracle method 'foo'"):
        experiment.oracle_solve(inst, method="foo")
    assert calls == []
