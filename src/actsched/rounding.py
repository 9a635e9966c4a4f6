"""Online randomized rounding of the fractional schedule.

Each machine draws one activation threshold r_i up front. After a job's
fractional update, every inactive machine whose scaled activation level
clears its threshold is opened (paying its original startup cost), and the
job is then assigned to one open machine, sampled with probability
proportional to a per-machine score z derived from the fractional
assignment. Two independent RNG streams (thresholds, assignment sampling)
are derived from one master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Instance
from .fractional import JobFraction

ACTIVATION_FACTOR = 5.0


class RoundingInvariantError(Exception):
    """An internal rounding invariant failed (e.g. a score above 1)."""


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    thr_seq, pick_seq = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(thr_seq)),
        np.random.Generator(np.random.PCG64(pick_seq)),
    )


def draw_thresholds(m: int, seed: int) -> list[float]:
    """The m activation thresholds, uniform on [0, 1], deterministic in seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    thr_rng, _ = _streams(seed)
    return thr_rng.random(m).tolist()


def sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws, without its checks."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass(frozen=True, slots=True)
class AssignmentRecord:
    job: int
    machine: int
    p_original: float
    newly_activated_cost: float
    cum_cost: float
    int_makespan: float


class RoundingState:
    """Integer-schedule state for one run; one instance per (run, seed)."""

    def __init__(self, instance: Instance, seed: int) -> None:
        self.seed = seed
        self.m = instance.m
        self.n = instance.n
        self.budget = instance.makespan_budget
        self.costs = instance.costs()
        # The thresholds are those of draw_thresholds(m, seed).
        thr_rng, self._pick_rng = _streams(seed)
        self.r = thr_rng.random(self.m).tolist()
        # log(mn) uses the original machine count and the declared job count.
        self._ln_mn = math.log(self.m * self.n) if self.m * self.n > 1 else 0.0
        self._z_cut = (
            1.0 / (ACTIVATION_FACTOR * self._ln_mn) if self._ln_mn > 0 else math.inf
        )
        self.active = [False] * self.m
        self.assignment: dict[int, int] = {}
        self.int_load = [0.0] * self.m  # units of L
        self._max_int_load = 0.0  # max(int_load): loads only grow
        self.fallback_count = 0
        self.deficit_jobs = 0  # jobs whose active z-mass was below 1 pre-fallback
        self.log: list[AssignmentRecord] = []

    @property
    def int_cost(self) -> float:
        """Total original startup cost of the active set (derived, exact)."""
        return sum((self.costs[i] for i in range(self.m) if self.active[i]), 0.0)

    def int_makespan(self) -> float:
        """Integer makespan in original time units."""
        return self._max_int_load * self.budget

    def activation_step(self, frac: JobFraction) -> list[int]:
        """Open every eligible inactive machine whose threshold is cleared."""
        newly: list[int] = []
        for i in range(self.m):
            if self.active[i] or not frac.eligible[i]:
                continue
            if self.r[i] <= ACTIVATION_FACTOR * frac.x[i] * self._ln_mn:
                self.active[i] = True
                newly.append(i)
        return newly

    def scores(self, frac: JobFraction) -> list[float]:
        """Per-machine assignment scores z for a finished fractional job."""
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
        """Sample the machine for the job among active machines, proportional
        to z; falls back to a forced activation when no active machine has
        positive score (counted as an incident)."""
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
                # Nothing scored: open the machine with the cheapest
                # cost-weighted processing time and assign directly.
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
        probs /= probs.sum()  # exact renormalization for the sampler
        return self._assign(frac, ids[sample_index(self._pick_rng, probs)])

    def _assign(self, frac: JobFraction, i: int) -> int:
        """Put the job on machine i and keep the running max of the loads."""
        self.assignment[frac.job] = i
        self.int_load[i] += frac.p_scaled[i]
        self._max_int_load = max(self._max_int_load, self.int_load[i])
        return i

    def process_job(self, frac: JobFraction) -> AssignmentRecord:
        cost_before = self.int_cost
        opened = self.activation_step(frac)
        fallbacks = self.fallback_count
        i = self.assignment_step(frac)
        # Only an opened machine changes the sum; a fallback may open one.
        if opened or self.fallback_count != fallbacks:
            cost_after = self.int_cost
        else:
            cost_after = cost_before
        record = AssignmentRecord(
            job=frac.job,
            machine=i,
            p_original=frac.p_scaled[i] * self.budget,
            newly_activated_cost=cost_after - cost_before,
            cum_cost=cost_after,
            int_makespan=self.int_makespan(),
        )
        self.log.append(record)
        return record

