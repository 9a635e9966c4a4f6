"""Guess-and-double wrapper around the fractional and rounding engines.

The fractional engine needs a guess for the offline optimum cost. The
controller starts from a cheap lower bound and runs covering phases: whenever
a phase's fractional cost outgrows its budget, or a job fits within the budget
on no machine that pre-processing kept (possibly none), the guess doubles and
a fresh fractional state takes over. Every phase, a tripped one included,
leaves one ``PhaseTrace`` behind, and every check runs on those finished
traces. Machines opened by the rounding stage stay open across phases; the
job that triggered a doubling is re-covered in the new phase before rounding
sees it.

A known guess (the oracle's optimum or a fixed value) is the one-phase case of
the same controller: with no cost bound (``C=None``) nothing trips, and a
guess that proves too small raises ``GuessTooSmallError`` instead of doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .fractional import (
    DEFAULT_STEP_CAP,
    FractionalState,
    GROWTH_BASE_DEFAULT,
    GuessTooSmallError,
    JobFraction,
    StepOutcome,
    preprocess,
)
from .instances import Instance
from .rounding import RoundingState

DEFAULT_BOUND_CONSTANT = 50.0


class GuessBoundExceededError(RuntimeError):
    """The guess outgrew the total machine cost but the cost bound still
    failed; the bound constant C is too small for this instance."""


@dataclass
class PhaseTrace:
    """Everything one covering phase leaves behind for reports and audits."""

    phase: int
    guess: float
    jobs_processed: int  # jobs whose coverage this phase kept
    frac_cost: float
    int_cost_delta: float
    frac_makespan: float
    phi: float
    x_final: tuple[float, ...]
    load_final: tuple[float, ...]
    scaled_costs: tuple[float, ...]
    discarded: tuple[bool, ...]
    fraction_clamps: int
    coverage_clamps: int
    covered_y: list[tuple[int, tuple[float, ...]]] = field(default_factory=list)
    step_entries: list[tuple[int, int, StepOutcome]] = field(default_factory=list)


def snapshot_phase(
    fstate: FractionalState, phase: int, guess: float, kept: int, int_delta: float
) -> PhaseTrace:
    return PhaseTrace(
        phase=phase,
        guess=guess,
        jobs_processed=kept,
        frac_cost=fstate.fractional_cost(),
        int_cost_delta=int_delta,
        frac_makespan=fstate.fractional_makespan(),
        phi=fstate.phi,
        x_final=tuple(fstate.x),
        load_final=tuple(fstate.load),
        scaled_costs=tuple(fstate.scaled_costs),
        discarded=tuple(fstate.discarded),
        fraction_clamps=fstate.fraction_clamps,
        coverage_clamps=fstate.coverage_clamps,
        covered_y=[(j, tuple(yrow)) for j, yrow in sorted(fstate.y.items())],
        step_entries=list(fstate.step_log),
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


def cost_bound(C: float, m: int) -> float:
    return C * m * (1.0 + math.log(m))


def _cost_trip(fstate: FractionalState, bound: float, C: float | None) -> str | None:
    """Why the phase must end at the current job, or None to go on."""
    cost = fstate.fractional_cost()
    if cost > bound:
        return f"fractional cost {cost!r} above bound {bound!r} (C={C})"
    return None


@dataclass
class DoublingResult:
    phases: list[PhaseTrace]
    records: list[JobFraction]
    rounding: RoundingState
    final_guess: float


def run_with_doubling(
    instance: Instance,
    initial_guess: float | None = None,
    C: float | None = DEFAULT_BOUND_CONSTANT,
    a: float = GROWTH_BASE_DEFAULT,
    seed: int = 0,
    step_cap: int = DEFAULT_STEP_CAP,
    recover_all: bool = False,
    on_phase: Callable[[FractionalState], None] | None = None,
) -> DoublingResult:
    """Run all jobs under guess-and-double control.

    ``C=None`` runs the guess as known: one phase with no cost bound, in
    which a guess found too small raises ``GuessTooSmallError``.
    ``recover_all`` switches the phase reset from re-covering only the
    triggering job to fractionally re-covering every job seen so far.
    ``on_phase`` fires after each pre-processing, before any job (an audit
    hook for the starting potential, which no trace keeps).
    """
    m, n = instance.m, instance.n_declared
    rstate = RoundingState(instance, seed)
    guess = initial_guess if initial_guess is not None else default_initial_guess(instance)
    if guess <= 0:
        raise ValueError("initial guess must be > 0")
    if n == 0:
        return DoublingResult([], [], rstate, guess)

    total_cost = sum(instance.costs())
    bound = math.inf if C is None else cost_bound(C, m)
    phases: list[PhaseTrace] = []
    records: list[JobFraction] = []
    phase_idx = 0
    j = 0

    while True:
        int_cost_before = rstate.int_cost
        fstate = preprocess(instance, guess, a=a, step_cap=step_cap)
        if on_phase is not None:
            on_phase(fstate)

        kept = 0
        trip: str | None = None
        try:
            if recover_all:
                # Replay coverage of already-finished jobs under the new
                # scaling; their integer assignments stand.
                for jj in range(j):
                    fstate.process_job(jj)
                    trip = _cost_trip(fstate, bound, C)
                    if trip is not None:
                        break
            while trip is None and j < n:
                fstate.process_job(j)
                trip = _cost_trip(fstate, bound, C)
                if trip is not None:
                    break
                frac = fstate.job_fraction(j)
                records.append(frac)
                rstate.process_job(frac)
                kept += 1
                j += 1
        except GuessTooSmallError as exc:
            if C is None:
                raise
            # The job fits on no kept machine: re-cover it at a larger guess.
            trip = str(exc)
        phases.append(
            snapshot_phase(fstate, phase_idx, guess, kept, rstate.int_cost - int_cost_before)
        )
        if trip is None:
            break
        if guess > total_cost:
            raise GuessBoundExceededError(
                f"guess {guess} exceeds total machine cost {total_cost}; {trip}"
            )
        guess *= 2.0
        phase_idx += 1

    return DoublingResult(phases, records, rstate, guess)
