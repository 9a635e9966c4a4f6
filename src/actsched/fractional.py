"""Online fractional engine for activation-cost scheduling.

The engine keeps a fractional activation level x_i per machine and fractional
assignments y_ij per (machine, job). Each arriving job is covered (its
fractions sum to 1) by small steps: machines are ranked by a virtual cost,
the cheapest prefix gets a multiplicative bump to x that also unlocks
assignment capacity, and when the ranking pivots on a fully active machine
that machine absorbs a slice of the job directly, sized inversely to its
exponential load penalty. Steps come in runs that share one split.

All processing times are divided by the makespan budget L on entry, so loads
are tracked in units of L; startup costs are rescaled so the offline optimum
lands near m. A job is only ever ranked over kept machines on which it fits
within the budget (p_ij <= L): the offline optimum never uses any other pair,
so such pairs (including the finite sentinel of restricted instances) get no
fractional mass. A machine is fully active exactly when x_i == 1; that test
switches its potential and virtual cost from linear in x to exponential in
load. A guess too small for a job (pre-processing may discard every machine)
surfaces as ``GuessTooSmallError`` from ``process_job``. The engine is fully
deterministic.
"""

from __future__ import annotations

import sys
from array import array
from bisect import insort
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .instances import Instance

# Base a of the load penalty c*a^(load-1); the analysis needs 1 < a < 13/12.
GROWTH_BASE = 1.05
COVERAGE_TOL = 1e-9
STEP_CAP = 10**7  # steps one job may take before StepCapError

TYPE_A = "A"
TYPE_B = "B"


class GuessTooSmallError(Exception):
    """A job fits within the budget on no kept machine. Either the optimum
    guess is too low (pre-processing discarded every machine the job fits
    on, possibly every machine), or the job fits on no machine at all, which
    no guess mends: a doubling run raises it once a phase keeps every
    machine."""


class StalledStepError(Exception):
    """A step made no coverage progress after clamping (engine bug guard)."""


class StepCapError(Exception):
    """A single job exceeded the per-job step cap."""


class StepOutcome(NamedTuple):
    step_type: str
    delta_potential: float


class StepLog:
    """A phase's steps in typed columns (C-int job ids, TYPE_A or TYPE_B as ASCII
    bytes, delta phi): no Python object per step for the cyclic collector to rescan
    as the log grows. Step k iterates as (job, k, StepOutcome), built on reading."""

    def __init__(self) -> None:
        self.job, self.kind, self.delta = array("i"), bytearray(), array("d")

    def __len__(self) -> int:
        return len(self.delta)

    def __iter__(self):
        return zip(self.job, range(len(self.delta)), map(StepOutcome, self.kind.decode(), self.delta))


@dataclass(frozen=True, slots=True)
class JobFraction:
    """Frozen per-job snapshot taken when a job's fractional update finishes.

    ``x`` holds the activation levels at the end of the job's update (the
    values the rounding stage conditions on); ``eligible`` masks machines
    discarded by pre-processing, which the rounding stage must never touch.
    """

    job: int
    x: tuple[float, ...]
    y: tuple[float, ...]
    p_scaled: tuple[float, ...]
    eligible: tuple[bool, ...]


def preprocess(costs: list[float], m: int, guess: float) -> tuple[list[bool], list[float]]:
    """A phase's pre-processing at an optimum guess: (discarded, scaled costs).

    With the guess equal to the offline optimum, the optimum of the rescaled
    costs c*m/guess sits in [m, 2m]. Machines dearer than m after rescaling
    (c > guess, compared unscaled so that the machine whose cost is the guess
    is never lost to rounding) cannot be part of such an optimum and are
    discarded; scaled costs below 1 are raised to 1, and such machines open
    outright. So every kept machine starts with a potential of at most 1."""
    scale = m / guess
    return [c > guess for c in costs], [max(c * scale, 1.0) for c in costs]


def potential(x, load, scaled_costs, discarded) -> float:
    """The potential over kept machines: c*x while a machine is partially
    active, c*a^(load - 1) once it is fully active (x == 1)."""
    return sum(
        (
            c * GROWTH_BASE ** (li - 1.0) if xi == 1.0 else c * xi
            for xi, li, c, d in zip(x, load, scaled_costs, discarded)
            if not d
        ),
        0.0,
    )


def fractional_cost(x, scaled_costs, discarded) -> float:
    """Activation cost of a fractional solution, in rescaled cost units."""
    return sum((c * xi for xi, c, d in zip(x, scaled_costs, discarded) if not d), 0.0)


class FractionalState:
    """Mutable state of one covering phase; confined to a single run."""

    def __init__(self, instance: Instance, alpha: float) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.m = instance.m
        self.n = instance.n
        self.alpha = alpha
        self.p = instance.scaled_ptimes()

        self.discarded, self.scaled_costs = preprocess(instance.costs(), self.m, alpha)
        self._eligible = tuple(not d for d in self.discarded)  # shared by every JobFraction
        # A kept machine at scaled cost 1 opens outright; any other starts at 1/m.
        self.x = [
            0.0 if d else 1.0 if c == 1.0 else 1.0 / self.m
            for d, c in zip(self.discarded, self.scaled_costs)
        ]

        self.load = [0.0] * self.m
        self.y: dict[int, list[float]] = {}
        self.coverage: dict[int, float] = {}
        self.phi = potential(self.x, self.load, self.scaled_costs, self.discarded)

        # Audit counters: how often the y <= min(2x, 1) cap or the
        # sum(y) <= 1 cap truncated a raw increment.
        self.fraction_clamps = 0
        self.coverage_clamps = 0
        self.step_log = StepLog()  # append-only

        self._inv_cn = [
            1.0 / (c * self.n) if self.n > 0 else 0.0 for c in self.scaled_costs
        ]
        # Ranking of the job last ranked: (virtual cost, id) pairs ascending.
        self._ranked_job: int | None = None
        self._ranked: list[tuple[float, int]] = []

    # -- ranking -------------------------------------------------------------

    def _rank(self, j: int) -> list[tuple[float, int]]:
        """Rank job j's usable machines (kept, with p_ij <= L) from scratch:
        (virtual cost, id) pairs ascending, the order of a stable sort by
        virtual cost over ascending ids. A machine's virtual cost is c * p_ij,
        times a^(load - 1) once it is fully active."""
        x, load, costs, a, prow = self.x, self.load, self.scaled_costs, GROWTH_BASE, self.p[j]
        self._ranked = sorted([
            (costs[i] * a ** (load[i] - 1.0) * prow[i] if x[i] == 1.0 else costs[i] * prow[i], i)
            for i in compress(range(self.m), self._eligible)
            if prow[i] <= 1.0
        ])
        self._ranked_job = j
        return self._ranked

    def order_and_split(self, j: int) -> tuple[list[int], int | None]:
        """Rank the usable machines of job j by virtual cost (ties: lower id)
        and split the list into the maximal prefix whose x-mass stays
        strictly below 1, plus the first machine after it (None if the prefix
        is everything).

        The ranking is sorted once per job and then kept up to date by the
        steps (``_advance``), which assume that x and load change only
        through steps and split once per run of steps, not once per step.
        """
        ranked = self._ranked if self._ranked_job == j else self._rank(j)
        prefix: list[int] = []
        total = 0.0
        for _, i in ranked:
            if total + self.x[i] < 1.0:
                prefix.append(i)
                total += self.x[i]
            else:
                return prefix, i
        return prefix, None

    # -- steps ---------------------------------------------------------------

    def _advance(self, j: int, limit: int) -> None:
        """Take steps of job j, at least one and at most ``limit``, until its
        coverage reaches 1 - COVERAGE_TOL (the state is written back also if
        a step stalls). A step is one pass over the prefix, then the pivot:
        an x-bump plus the capacity min(2x, 6*dx/p_ij) it unlocks, or for a
        fully active pivot (Type B) a slice 6/(c*a^(load-1)*p_ij*n); then a
        clamped grant, which moves phi_i = c*x of a partially active machine
        by exactly 0.0. Steps come in runs that share one split: the next
        step touches the same machines while none of them moved in the
        ranking and the prefix's running x-sum stays below 1 (a partially
        active pivot's x only grew, so it still ends the prefix). A Type-B
        pivot stays while its new key ranks between its neighbours; any other
        move is re-placed with ``insort`` and starts a new run."""
        x, load, costs, inv_cn, a = self.x, self.load, self.scaled_costs, self._inv_cn, GROWTH_BASE
        n, yrow, prow, log, tiny = self.n, self.y[j], self.p[j], self.step_log, sys.float_info.min
        log_job, log_kind, log_delta = log.job.append, log.kind.append, log.delta.append
        cov, phi_total = self.coverage[j], self.phi
        steps = 0
        try:
            while True:  # one run: split once, then step while the split holds
                prefix, pivot = self.order_and_split(j)
                ranked = self._ranked
                touched = prefix if pivot is None else prefix + [pivot]
                k = len(touched)
                kind = ord(TYPE_B if pivot is not None and x[pivot] == 1.0 else TYPE_A)
                holds = True
                while holds:
                    d_phi = d_cov = 0.0
                    moved = []  # (virtual cost, id) of the touched machines now fully active
                    for i in touched:
                        c, p_ij, x_old = costs[i], prow[i], x[i]
                        if x_old == 1.0:  # a Type-B pivot: the prefix's x-sum stays below 1
                            phi = c * a ** (load[i] - 1.0)
                            raw = 6.0 / (phi * p_ij * n)
                            x_new, dp = 1.0, 0.0
                        else:
                            x_new = x_old * (1.0 + inv_cn[i])
                            if x_new > 1.0:  # min(x*(1 + 1/(c*n)), 1)
                                x_new = 1.0
                            # min(2x, 6*dx/p), or 0 if 6*dx/p is subnormal: it then keeps
                            # too few bits to stay within 6*dx once multiplied back by p.
                            raw = 6.0 * (x_new - x_old) / p_ij
                            if raw < tiny:
                                raw = 0.0
                            elif 2.0 * x_old <= raw:
                                raw = 2.0 * x_old
                            x[i] = x_new
                            if x_new == 1.0:
                                phi = c * a ** (load[i] - 1.0)
                                dp = phi - c * x_old
                            else:
                                dp = c * x_new - c * x_old
                        # min(raw, min(2x, 1) - y_ij, 1 - coverage) as comparisons (2x < 1
                        # exactly when x < 0.5); each clamp that bites is counted.
                        room_frac = (2.0 * x_new if x_new < 0.5 else 1.0) - yrow[i]
                        room_cov = 1.0 - cov
                        inc = raw
                        if room_frac < raw:
                            self.fraction_clamps += 1
                            inc = room_frac
                        if room_cov < raw:
                            self.coverage_clamps += 1
                            if room_cov < inc:
                                inc = room_cov
                        if inc > 0.0:
                            yrow[i] += inc
                            load[i] += p_ij * inc
                            cov += inc
                            d_cov += inc
                            if x_new == 1.0:
                                phi_after = c * a ** (load[i] - 1.0)
                                dp += phi_after - phi
                                phi = phi_after
                        if x_new == 1.0:
                            moved.append((phi * p_ij, i))
                        d_phi += dp
                    log_job(j)
                    log_kind(kind)
                    log_delta(d_phi)
                    phi_total += d_phi
                    steps += 1
                    if moved:
                        # The touched machines head the ranking, and only the fully
                        # active ones move: a partially active key c*p_ij is fixed.
                        entry = moved[0]
                        lone_b = kind == ord(TYPE_B) and len(moved) == 1
                        if lone_b and (k == len(ranked) or entry < ranked[k]) and (
                            k == 1 or ranked[k - 2] < entry
                        ):
                            ranked[k - 1] = entry
                        else:
                            ranked[:k] = [e for e in ranked[:k] if x[e[1]] < 1.0]
                            for entry in moved:
                                insort(ranked, entry)
                            holds = False
                    if d_cov <= 0.0:
                        raise StalledStepError(
                            f"job {j}: step produced no coverage (coverage={cov!r})"
                        )
                    if cov >= 1.0 - COVERAGE_TOL or steps >= limit:
                        return
                    total = 0.0
                    for i in prefix if holds else ():  # order_and_split's test, in ranked order
                        if total + x[i] >= 1.0:
                            holds = False
                            break
                        total += x[i]
        finally:
            self.coverage[j] = cov
            self.phi = phi_total

    def process_job(self, j: int) -> range:
        """Run steps until job j is covered; returns the indices of its steps in ``step_log``.

        Jobs may start at any index (a phase can pick up mid-stream), but a
        job is covered at most once per state and its y row freezes after.
        Raises GuessTooSmallError, leaving the state untouched, when the job
        fits within the budget on no kept machine (pre-processing may have
        kept none): at a guess of at least the optimum, every machine the
        optimum uses is kept.
        """
        if j in self.y:
            raise ValueError(f"job {j} was already processed in this phase")
        if not 0 <= j < len(self.p):
            raise ValueError(f"no job {j} in instance")
        if not self._rank(j):
            kept = self.discarded.count(False)
            raise GuessTooSmallError(
                f"job {j}: no kept machine with p_ij <= L at guess {self.alpha} "
                f"({kept} of {self.m} machines kept)"
            )
        self.y[j] = [0.0] * self.m
        self.coverage[j] = 0.0
        start = len(self.step_log)
        self._advance(j, STEP_CAP)
        if self.coverage[j] < 1.0 - COVERAGE_TOL:
            raise StepCapError(
                f"job {j}: exceeded step cap {STEP_CAP} "
                f"(coverage={self.coverage[j]!r}, x={self.x!r}, load={self.load!r})"
            )
        return range(start, len(self.step_log))

    # -- observables ----------------------------------------------------------

    def job_fraction(self, j: int) -> JobFraction:
        if j not in self.y:
            raise ValueError(f"job {j} has not been processed")
        return JobFraction(
            job=j,
            x=tuple(self.x),
            y=tuple(self.y[j]),
            p_scaled=self.p[j],
            eligible=self._eligible,
        )

