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

import bisect
import itertools
import math
from collections.abc import Sequence
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


def pairwise_sum(values: Sequence[float]) -> float:
    """The float64 sum ``np.add.reduce`` returns: a plain loop below 8
    entries, eight strided accumulators up to 128, and two halves, cut at a
    multiple of 8, above 128."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    tail = n - n % 8
    acc = []
    for k in range(8):
        total = values[k]
        for v in values[k + 8 : tail : 8]:
            total += v
        acc.append(total)
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[tail:]:
        total += v
    return total


def sample_index(rng: np.random.Generator, probs: Sequence[float]) -> int:
    """The index ``rng.choice(len(probs), p=probs)`` draws, without its checks."""
    cdf = list(itertools.accumulate(probs))
    last = cdf[-1]
    return bisect.bisect_right([c / last for c in cdf], rng.random())


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
        self.int_cost = 0.0  # original startup cost of the active set, in id order
        self.assignment: dict[int, int] = {}
        self.int_load = [0.0] * self.m  # units of L
        self._max_int_load = 0.0  # max(int_load): loads only grow
        self.fallback_count = 0
        self.deficit_jobs = 0  # jobs whose active z-mass was below 1 pre-fallback
        self.log: list[AssignmentRecord] = []

    def int_makespan(self) -> float:
        """Integer makespan in original time units."""
        return self._max_int_load * self.budget

    def process_job(self, frac: JobFraction) -> AssignmentRecord:
        """Round one finished fractional job in one pass over the machines.

        Each eligible machine is first opened if it is inactive and its
        threshold is cleared, then scored if it holds y > 0: z = y / (2x)
        below the cut, y above it. The job goes to an active machine sampled
        in proportion to z. When no active machine scores (counted as a
        fallback), the best-scoring eligible machine is opened first, or, if
        nothing scores, the one with the cheapest cost-weighted processing
        time is opened and takes the job without a draw.
        """
        x, y, p, eligible = frac.x, frac.y, frac.p_scaled, frac.eligible
        active, r, ln_mn, z_cut = self.active, self.r, self._ln_mn, self._z_cut
        cost_before = self.int_cost
        opened = False
        ids: list[int] = []  # active machines with z > 0, and their z
        zs: list[float] = []
        best, z_best, bad = -1, 0.0, None
        for i in range(self.m):
            if not eligible[i]:
                continue
            if not active[i] and r[i] <= ACTIVATION_FACTOR * x[i] * ln_mn:
                active[i] = opened = True
            y_i = y[i]
            if y_i <= 0.0:
                continue
            z = y_i / (2.0 * x[i]) if x[i] < z_cut else y_i
            if z > 1.0 + 1e-9 and bad is None:
                bad = f"job {frac.job}, machine {i}: score {z!r} exceeds 1"
            if z > z_best:
                best, z_best = i, z
            if active[i]:
                ids.append(i)
                zs.append(z)
        if bad is not None:
            raise RoundingInvariantError(bad)
        mass = sum(zs)
        if mass < 1.0 - 1e-9:
            self.deficit_jobs += 1
        if mass <= 0.0:
            self.fallback_count += 1
            if best < 0:
                # Nothing scored: open the machine with the cheapest
                # cost-weighted processing time and assign directly.
                i = min(
                    (k for k in range(self.m) if eligible[k]),
                    key=lambda k: (self.costs[k] * p[k], k),
                )
            else:
                i, ids, zs, mass = best, [best], [z_best], z_best
            active[i] = opened = True
        if zs:
            probs = [z / mass for z in zs]
            total = pairwise_sum(probs)  # exact renormalization for the sampler
            i = ids[sample_index(self._pick_rng, [q / total for q in probs])]
        if opened:
            self.int_cost = sum((self.costs[k] for k in range(self.m) if active[k]), 0.0)
        self.assignment[frac.job] = i
        self.int_load[i] += p[i]
        self._max_int_load = max(self._max_int_load, self.int_load[i])
        record = AssignmentRecord(
            job=frac.job,
            machine=i,
            p_original=p[i] * self.budget,
            newly_activated_cost=self.int_cost - cost_before,
            cum_cost=self.int_cost,
            int_makespan=self.int_makespan(),
        )
        self.log.append(record)
        return record
