"""Online randomized rounding of the fractional schedule.

Each machine draws one activation threshold r_i up front. After a job's
fractional update, every inactive machine whose scaled activation level
clears its threshold is opened (paying its original startup cost), and the
job is then assigned to one open machine, sampled with probability
proportional to a per-machine score z derived from the fractional
assignment. Two independent RNG streams (thresholds, assignment sampling)
are derived from one master seed.

``score_job`` scores a job once for all seeds, and its result memoises the
sampling cdf of each set of open scored machines; ``RoundingState`` opens
one seed's machines and draws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache
from collections.abc import Sequence
from itertools import accumulate, compress
from typing import NamedTuple

import numpy as np

from .instances import Instance
from .fractional import JobFraction

ACTIVATION_FACTOR = 5.0


class RoundingInvariantError(Exception):
    """An internal rounding invariant failed (e.g. a score above 1)."""


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    # The two children SeedSequence(seed).spawn(2) returns, built directly.
    return tuple(
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        for k in (0, 1)
    )


@cache
def _log_mn(m: int, n: int) -> tuple[float, float]:
    """log(mn) over the original machine count and the declared job count,
    and the cut 1 / (5 log(mn)): a score is y / (2x) below it, y above it."""
    ln_mn = math.log(m * n) if m * n > 1 else 0.0
    return ln_mn, 1.0 / (ACTIVATION_FACTOR * ln_mn) if ln_mn > 0 else math.inf


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


def cdf_of(weights: Sequence[float]) -> list[float]:
    """The running sum of weights over its last entry: ``bisect_right`` of a
    ``random()`` draw into it is the index ``Generator.choice`` draws."""
    cdf = list(accumulate(weights))
    last = cdf[-1]
    return [c / last for c in cdf]


def active_cost(costs: Sequence[float], active: Sequence[bool]) -> float:
    """The original startup cost of the active machines, summed in id order from 0.0."""
    return sum(compress(costs, active), 0.0)


class AssignmentRecord(NamedTuple):
    job: int
    machine: int
    cum_cost: float  # int_cost once the job is placed


class ScoredJob(NamedTuple):
    """The seed-independent half of rounding one kept job, shared by all
    rounding seeds of its fractional stage."""

    frac: JobFraction
    ids: tuple[int, ...]  # the eligible machines with y > 0, in id order
    zs: tuple[float, ...]  # their scores
    best: int  # the first machine of the highest score; -1 when nothing scores
    bad: str | None  # the first score above 1, which process_job raises
    cdfs: dict[tuple[int, ...], tuple[float, list[float]]]  # z-mass and cdf by active ids


def score_job(instance: Instance, frac: JobFraction) -> ScoredJob:
    """Score each eligible machine that holds y > 0: z = y / (2x) below the
    cut 1 / (5 ln(mn)), y above it."""
    _, z_cut = _log_mn(instance.m, instance.n)
    x, y, eligible = frac.x, frac.y, frac.eligible
    ids, zs = [], []
    best, z_best, bad = -1, 0.0, None
    for i in compress(range(len(y)), y):  # y is mostly zero: skip its zeros in C
        y_i = y[i]
        if y_i <= 0.0 or not eligible[i]:
            continue
        z = y_i / (2.0 * x[i]) if x[i] < z_cut else y_i
        if z > 1.0 + 1e-9 and bad is None:
            bad = f"job {frac.job}, machine {i}: score {z!r} exceeds 1"
        if z > z_best:
            best, z_best = i, z
        ids.append(i)
        zs.append(z)
    return ScoredJob(frac, tuple(ids), tuple(zs), best, bad, {})


class RoundingState:
    """Integer-schedule state for one run; one instance per (run, seed)."""

    def __init__(self, instance: Instance, seed: int) -> None:
        self.m = instance.m
        self.n = instance.n
        self.budget = instance.makespan_budget
        self.costs = instance.costs()
        thr_rng, pick_rng = _streams(seed)
        self.r = thr_rng.random(self.m).tolist()  # the activation thresholds, uniform on [0, 1]
        # One pick per job, drawn up front: the values of n random() calls.
        self._picks = iter(pick_rng.random(self.n).tolist())
        self._ln_mn, _ = _log_mn(self.m, self.n)
        self.active = [False] * self.m
        self._closed = set(range(self.m))  # the inactive machines
        self.int_cost = 0.0  # active_cost of the active set
        self.assignment: dict[int, int] = {}
        self.int_load = [0.0] * self.m  # units of L
        self._max_int_load = 0.0  # max(int_load): loads only grow
        self.fallback_count = 0
        self.deficit_jobs = 0  # jobs whose active z-mass was below 1 pre-fallback
        self.log: list[AssignmentRecord] = []

    def int_makespan(self) -> float:
        """Integer makespan in original time units."""
        return self._max_int_load * self.budget

    def process_job(self, job: ScoredJob) -> AssignmentRecord:
        """Round one kept job with this state's seed (at most n jobs).

        Each closed eligible machine whose threshold is cleared opens first;
        then a score above 1 raises. The job goes to an active scored machine
        drawn in proportion to z, by the job's cdf for that set of machines.
        When no active machine scores (counted as a fallback), the
        best-scoring machine is opened and drawn as a set of one, or, if
        nothing scores, the eligible machine with the cheapest cost-weighted
        processing time is opened and takes the job without a draw.
        """
        frac = job.frac
        x, p, eligible = frac.x, frac.p_scaled, frac.eligible
        active, closed, r, ln_mn = self.active, self._closed, self.r, self._ln_mn
        opened = [i for i in closed if eligible[i] and r[i] <= ACTIVATION_FACTOR * x[i] * ln_mn]
        for i in opened:
            active[i] = True
        closed.difference_update(opened)
        if job.bad is not None:
            raise RoundingInvariantError(job.bad)
        ids = job.ids
        key = ids if closed.isdisjoint(ids) else tuple(compress(ids, map(active.__getitem__, ids)))
        deficit = not key
        if deficit:
            self.fallback_count += 1
            i = job.best
            if i < 0:  # nothing scored: the cheapest cost-weighted processing time
                i = min(compress(range(self.m), eligible), key=lambda k: (self.costs[k] * p[k], k))
            else:
                key = (i,)
            active[i] = True
            closed.discard(i)
            opened.append(i)
        if key:
            entry = job.cdfs.get(key)
            if entry is None:  # the z-mass in id order, and the cdf of z / mass renormalised
                zs = job.zs if key is ids else list(compress(job.zs, map(active.__getitem__, ids)))
                mass = sum(zs)
                probs = [z / mass for z in zs]
                total = pairwise_sum(probs)  # exact renormalization for the sampler
                entry = job.cdfs[key] = mass, cdf_of([q / total for q in probs])
            mass, cdf = entry
            deficit = deficit or mass < 1.0 - 1e-9
            i = key[bisect_right(cdf, next(self._picks))]
        self.deficit_jobs += deficit
        if opened:
            self.int_cost = active_cost(self.costs, active)
        self.assignment[frac.job] = i
        self.int_load[i] += p[i]
        self._max_int_load = max(self._max_int_load, self.int_load[i])
        # Built as AssignmentRecord._make builds it, with no Python frame.
        record = tuple.__new__(AssignmentRecord, (frac.job, i, self.int_cost))
        self.log.append(record)
        return record
