"""Guess-and-double controller for the fractional engine.

The fractional engine needs a guess for the offline optimum cost. The
controller starts from a cheap lower bound and runs covering phases: whenever
a phase's fractional cost outgrows its budget, or a job fits within the budget
on no machine that pre-processing kept (possibly none), the guess doubles and
a fresh fractional state takes over. The job that triggered a doubling is
covered again in the new phase. Every phase, a tripped one included, leaves
one ``PhaseTrace`` behind, and each kept job one ``JobFraction`` record, taken
right after its update; every check runs on those finished records.

The controller is purely fractional. Rounding job j reads only job j's record
and never feeds back into the engine, so the rounding stage scores the kept
records once and rounds them per seed afterwards (``experiment.round_run``),
with the same result as rounding each job as soon as it is kept.

A known guess (the oracle's optimum or a fixed value) is the one-phase case of
the same controller: with ``double=False`` nothing trips, and a guess that
proves too small raises ``GuessTooSmallError`` instead of doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fractional import FractionalState, GuessTooSmallError, JobFraction, StepLog, fractional_cost
from .instances import Instance

BOUND_CONSTANT = 50.0  # read at call time, so tests can patch it


@dataclass
class PhaseTrace:
    """Everything one covering phase leaves behind for reports and audits."""

    phase: int
    guess: float
    jobs_processed: int  # jobs whose coverage this phase kept
    x_final: tuple[float, ...]
    load_final: tuple[float, ...]
    scaled_costs: tuple[float, ...]
    discarded: tuple[bool, ...]
    fraction_clamps: int
    coverage_clamps: int
    phi: float | None = None  # the engine's potential; None in a phase verify rebuilds
    covered_y: list[tuple[int, tuple[float, ...]]] = field(default_factory=list)
    step_entries: StepLog = field(default_factory=StepLog)

    @property
    def frac_cost(self) -> float:
        return fractional_cost(self.x_final, self.scaled_costs, self.discarded)

    @property
    def frac_makespan(self) -> float:
        """The largest load of a kept machine, in units of L."""
        return max((load for load, d in zip(self.load_final, self.discarded) if not d), default=0.0)


def snapshot_phase(fstate: FractionalState, phase: int, guess: float, kept: int) -> PhaseTrace:
    return PhaseTrace(
        phase=phase,
        guess=guess,
        jobs_processed=kept,
        phi=fstate.phi,
        x_final=tuple(fstate.x),
        load_final=tuple(fstate.load),
        scaled_costs=tuple(fstate.scaled_costs),
        discarded=tuple(fstate.discarded),
        fraction_clamps=fstate.fraction_clamps,
        coverage_clamps=fstate.coverage_clamps,
        covered_y=[(j, tuple(yrow)) for j, yrow in sorted(fstate.y.items())],
        step_entries=fstate.step_log,  # no copy: the controller drops fstate next
    )


def default_initial_guess(instance: Instance) -> float:
    """Cheapest startup cost any single job could force: a trivial lower
    bound on the offline optimum."""
    budget = instance.makespan_budget
    costs = instance.costs()
    per_job = []
    for job in instance.jobs:
        options = [costs[i] for i, p in enumerate(job.processing_times) if p <= budget]
        if options:
            per_job.append(min(options))
    return min(per_job) if per_job else min(costs)


def cost_bound(m: int) -> float:
    return BOUND_CONSTANT * m * (1.0 + math.log(m))


@dataclass
class DoublingResult:
    phases: list[PhaseTrace]
    records: list[JobFraction]  # the kept jobs, in stream order
    final_guess: float


def run_with_doubling(
    instance: Instance, initial_guess: float | None = None, double: bool = True
) -> DoublingResult:
    """Cover all jobs fractionally under guess-and-double control.

    ``double=False`` runs the guess as known: one phase with no cost bound,
    in which a guess found too small raises ``GuessTooSmallError``.
    """
    m, n = instance.m, instance.n
    guess = initial_guess if initial_guess is not None else default_initial_guess(instance)
    if n == 0:
        return DoublingResult([], [], guess)
    if guess <= 0:
        raise ValueError("initial guess must be > 0")

    bound = cost_bound(m) if double else None
    phases: list[PhaseTrace] = []
    records: list[JobFraction] = []
    phase_idx = 0
    j = 0

    while True:
        fstate = FractionalState(instance, guess)
        kept = 0
        trip = False
        try:
            while j < n:
                fstate.process_job(j)
                if bound is not None and fstate.fractional_cost() > bound:
                    trip = True
                    break
                records.append(fstate.job_fraction(j))
                kept += 1
                j += 1
        except GuessTooSmallError:
            # Every machine kept and the job still fits on none: it fits no
            # machine at all, and no guess helps. So doubling ends: from the
            # dearest cost on, every machine is kept, and at a guess >= sum(c)
            # the fractional cost sum(max(c*m/guess, 1) * x) is at most
            # sum(c)*m/guess + m <= 2m < cost_bound(m), so the cost trip stops.
            if not double or not any(fstate.discarded):
                raise
            # The job fits on no kept machine: re-cover it at a larger guess.
            trip = True
        phases.append(snapshot_phase(fstate, phase_idx, guess, kept))
        if not trip:
            break
        guess *= 2.0
        phase_idx += 1

    return DoublingResult(phases, records, guess)
