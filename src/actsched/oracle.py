"""Exact offline optimum: minimum total startup cost of a schedule whose
makespan stays within the budget L.

``optimal_bnb`` is the program's oracle: it tries machine sets in
nondecreasing cost, packing the jobs onto each, which scales to desk-size
instances. ``optimal_exhaustive`` enumerates every assignment; it is the
reference that the tests hold the set search to on tiny instances. Both
follow one contract: an ``OracleResult`` is always a proved optimum, and a
search that cannot prove one within its limit (the exhaustive guard or the
node budget) raises ``OracleTooLargeError``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .instances import Instance

EXHAUSTIVE_GUARD = 10**7
DEFAULT_NODE_BUDGET = 10**7
# Relative float slack of the set search's volume test and of its heap keys
# (built as key + c and key - c_k + c_(k+1)) against the canonical cost. Each
# side is a float sum of at most 2(m + n) roundings of relative size 2**-53 at
# values no larger than itself, so both errors together stay below
# 4 (m + n) 2**-53, under this slack while m + n <= 10**6.
SET_SLACK = 1e-9


class InfeasibleInstanceError(Exception):
    """No assignment of all jobs meets the makespan budget."""


class OracleTooLargeError(Exception):
    """The search would pass its limit (the exhaustive guard or the
    set search's node budget) before proving an optimum."""


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


def _activation_cost(costs: list[float], assignment) -> float:
    # Canonical ascending-id summation so both oracle routes report
    # bitwise-identical costs for the same activated set.
    return sum(costs[i] for i in sorted(set(assignment)))


def optimal_exhaustive(instance: Instance, guard: int = EXHAUSTIVE_GUARD) -> OracleResult:
    m, n = instance.m, instance.n
    if n == 0:
        return OracleResult(0.0, (), 0.0, 1)
    if m**n > guard:
        raise OracleTooLargeError(f"m^n = {m}**{n} exceeds guard {guard}")
    budget = instance.makespan_budget
    costs = instance.costs()
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
        cost = _activation_cost(costs, assign)
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
    """Best-first search over machine sets in nondecreasing cost.

    With the machines sorted by (cost, id), a lazy heap pops sets by cost:
    the set ending at sorted position k has the children "add machine k + 1"
    and "swap machine k for k + 1", so each set is reached once and no child
    costs less than its parent. A popped set whose canonical cost
    (``_activation_cost``) reaches the incumbent's is skipped. Any other gets
    a depth-first packing of the jobs in arrival order, each job trying the
    set's machines by processing time (its fitting machines are sorted once
    and filtered to each set); a backtrack restores the saved load, so every
    load is the float sum ``feasible()`` computes. A packing node is pruned
    when its placed volume plus the least volume the remaining jobs need in
    the set passes the set's capacity; a set cut at the root costs its one
    node and no per-job lists. The search stops once the smallest key passes
    the incumbent's cost by ``SET_SLACK``.

    The packing of the full machine set is the first incumbent; if it fails,
    or a job fits on no machine, ``InfeasibleInstanceError`` is raised.
    ``nodes_explored`` counts every popped set plus every packing node, and
    ``node_budget`` bounds that sum; a budget below 1 is a ``ValueError``.
    """
    if node_budget < 1:
        raise ValueError(f"node budget must be >= 1, got {node_budget}")
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
        inset = set(members)
        rem = [0.0] * (n + 1)  # rem[t]: least volume jobs t.. need in the set
        for t in range(n - 1, -1, -1):
            for i in job_orders[t]:  # by p: the first in the set needs least
                if i in inset:
                    rem[t] = rem[t + 1] + ptimes[t][i]
                    break
            else:
                return None
        capacity = len(members) * budget * (1.0 + SET_SLACK)
        if rem[0] > capacity:  # the root node's volume cut, counted as place(0) counts it
            count()
            return None
        fits = [[i for i in job_order if i in inset] for job_order in job_orders]
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
    # Each job's fitting machines by processing time, ties in (cost, id)
    # order: filtered to a set, the order a stable sort of the set gives.
    job_orders = [sorted((i for i in order if p[i] <= budget), key=p.__getitem__) for p in ptimes]
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
