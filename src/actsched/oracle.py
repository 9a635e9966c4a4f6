"""Exact offline optimum: minimum total startup cost of a schedule whose
makespan stays within the budget L.

Two routes are provided. ``optimal_exhaustive`` enumerates every assignment
and is the ground truth on tiny instances; ``optimal_bnb`` is a
branch-and-bound over job-to-machine choices that scales to desk-size
instances and must agree with the exhaustive route wherever both run.
Both follow one contract: an ``OracleResult`` is always a proved optimum, and
a route that cannot prove one within its limit (the exhaustive guard or the
node budget) raises ``OracleTooLargeError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .instances import Instance

EXHAUSTIVE_GUARD = 10**7
DEFAULT_NODE_BUDGET = 10**7


class InfeasibleInstanceError(Exception):
    """No assignment of all jobs meets the makespan budget."""


class OracleTooLargeError(Exception):
    """The search would pass its limit (the exhaustive guard or the
    branch-and-bound node budget) before proving an optimum."""


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: float
    witness: tuple[int, ...]
    witness_makespan: float
    nodes_explored: int


def machine_loads(instance: Instance, assignment: tuple[int, ...] | list[int]) -> list[float]:
    loads = [0.0] * instance.m
    for j, i in enumerate(assignment):
        loads[i] += instance.jobs[j].processing_times[i]
    return loads


def feasible(instance: Instance, assignment: tuple[int, ...] | list[int]) -> bool:
    """True iff every machine load under the assignment is <= L."""
    budget = instance.makespan_budget
    return all(load <= budget for load in machine_loads(instance, assignment))


def _activation_cost(instance: Instance, assignment) -> float:
    # Canonical ascending-id summation so both oracle routes report
    # bitwise-identical costs for the same activated set.
    costs = instance.costs()
    return sum(costs[i] for i in sorted(set(assignment)))


def optimal_exhaustive(instance: Instance, guard: int = EXHAUSTIVE_GUARD) -> OracleResult:
    m, n = instance.m, instance.n
    if n == 0:
        return OracleResult(0.0, (), 0.0, 1)
    if m**n > guard:
        raise OracleTooLargeError(f"m^n = {m}**{n} exceeds guard {guard}")
    budget = instance.makespan_budget
    ptimes = instance.ptimes()

    best_cost = None
    best_assign: tuple[int, ...] = ()
    explored = 0
    for assign in itertools.product(range(m), repeat=n):
        explored += 1
        loads = [0.0] * m
        ok = True
        for j, i in enumerate(assign):
            loads[i] += ptimes[j][i]
            if loads[i] > budget:
                ok = False
                break
        if not ok:
            continue
        cost = _activation_cost(instance, assign)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_assign = assign
    if best_cost is None:
        raise InfeasibleInstanceError("no assignment meets the makespan budget")
    return OracleResult(
        optimal_cost=best_cost,
        witness=best_assign,
        witness_makespan=max(machine_loads(instance, best_assign)),
        nodes_explored=explored,
    )


def optimal_bnb(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Branch-and-bound over job-to-machine choices.

    Before the search, each job gets the machines it fits on (p_ij <= L) in
    two orders: ``by_p`` by (p_ij, id) and ``by_cost`` by (cost, p_ij, id).

    Lower bound at a node: cost of machines already activated, plus (for
    jobs that no activated machine can still take) the single cheapest extra
    activation any of them would force, the first inactive machine of the
    job's ``by_cost``. Taking the max over such jobs keeps the bound
    admissible even when one new machine could serve them all. The search
    only asks whether the bound reaches the incumbent's cost, so the scan
    stops as soon as it does; the prune decisions, and so the nodes, are
    those of the full bound.

    Children are tried cheapest first: an active machine before a fresh one,
    then by fresh cost, processing time and id. That is the active machines
    of ``by_p`` followed by the inactive ones of ``by_cost``, since every
    cost is > 0. The first leaf reached is therefore the greedy
    cheapest-feasible-first assignment, the first incumbent.
    """
    m, n = instance.m, instance.n
    if n == 0:
        return OracleResult(0.0, (), 0.0, 1)
    budget = instance.makespan_budget
    costs = instance.costs()
    ptimes = instance.ptimes()

    by_p: list[list[tuple[int, float]]] = []
    by_cost: list[list[tuple[int, float]]] = []
    for j, p in enumerate(ptimes):
        fits = [i for i in range(m) if p[i] <= budget]
        if not fits:
            raise InfeasibleInstanceError(f"job {j} does not fit on any machine")
        by_p.append([(i, p[i]) for i in sorted(fits, key=lambda i: (p[i], i))])
        by_cost.append([(i, costs[i]) for i in sorted(fits, key=lambda i: (costs[i], p[i], i))])

    loads = [0.0] * m
    active = [False] * m
    assign: list[int] = []
    nodes = 0
    best_cost = math.inf
    best_assign: tuple[int, ...] = ()

    def bound_reaches_best(t: int, cost: float) -> bool:
        extra = 0.0
        for j in range(t, n):
            for i, p_i in by_p[j]:
                if active[i] and loads[i] + p_i <= budget:
                    break
            else:
                for i, c_i in by_cost[j]:
                    if not active[i]:
                        break
                else:
                    return True  # job j cannot be placed anywhere from here
                if c_i > extra:
                    extra = c_i
                    if cost + extra >= best_cost:
                        return True
        return cost + extra >= best_cost

    def visit(t: int, cost: float) -> None:
        nonlocal nodes, best_cost, best_assign
        nodes += 1
        if nodes > node_budget:
            raise OracleTooLargeError(
                f"branch-and-bound hit its node budget ({node_budget}) without proof"
            )
        if t == n:
            if cost < best_cost:
                best_cost = _activation_cost(instance, assign)
                best_assign = tuple(assign)
            return
        if bound_reaches_best(t, cost):
            return
        p = ptimes[t]
        order = [i for i, _ in by_p[t] if active[i]] + [i for i, _ in by_cost[t] if not active[i]]
        for i in order:
            if loads[i] + p[i] > budget:
                continue
            was_active = active[i]
            loads[i] += p[i]
            active[i] = True
            assign.append(i)
            visit(t + 1, cost if was_active else cost + costs[i])
            assign.pop()
            active[i] = was_active
            loads[i] -= p[i]

    visit(0, 0.0)

    if not best_assign:
        raise InfeasibleInstanceError("no assignment meets the makespan budget")
    return OracleResult(
        optimal_cost=best_cost,
        witness=best_assign,
        witness_makespan=max(machine_loads(instance, best_assign)),
        nodes_explored=nodes,
    )
