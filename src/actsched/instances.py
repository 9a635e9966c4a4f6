"""Problem instances for activation-cost scheduling.

An instance bundles a fixed set of machines (each with a one-time startup
cost), an ordered stream of jobs (each with one processing time per machine),
and a makespan budget ``L``. The job order is the online arrival order.

Jobs that cannot run on a machine carry a large finite sentinel processing
time (``INFEASIBLE_FACTOR * L``) rather than infinity, so all arithmetic on
processing times stays total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

# Sentinel multiplier: p_ij = INFEASIBLE_FACTOR * L encodes "job j cannot
# run on machine i" while keeping p_ij finite and positive.
INFEASIBLE_FACTOR = 1.0e6

PTIME_MODELS = ("uniform", "restricted_assignment", "power_law")


class InstanceFormatError(ValueError):
    """An instance file does not match the expected schema."""


@dataclass(frozen=True)
class Machine:
    """A machine with a positive, finite one-time startup cost."""

    id: int
    startup_cost: float

    def __post_init__(self) -> None:
        if not 0 < self.startup_cost < math.inf:
            raise ValueError(f"machine {self.id}: startup_cost must be finite and > 0")


@dataclass(frozen=True)
class Job:
    """A job with one positive, finite processing time per machine, in machine order."""

    id: int
    processing_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(0 < p < math.inf for p in self.processing_times):
            raise ValueError(f"job {self.id}: processing times must be finite and > 0")


@dataclass(frozen=True)
class Instance:
    """A complete scheduling instance; immutable after construction."""

    machines: tuple[Machine, ...]
    jobs: tuple[Job, ...]
    makespan_budget: float

    def __post_init__(self) -> None:
        if not self.machines:
            raise ValueError("instance needs at least one machine")
        if not 0 < self.makespan_budget < math.inf:
            raise ValueError("makespan_budget must be finite and > 0")
        if [mc.id for mc in self.machines] != list(range(len(self.machines))):
            raise ValueError("machine ids must be 0..m-1 in order")
        if [job.id for job in self.jobs] != list(range(len(self.jobs))):
            raise ValueError("job ids must be 0..n-1 in order")
        m = len(self.machines)
        for job in self.jobs:
            if len(job.processing_times) != m:
                raise ValueError(f"job {job.id}: expected {m} processing times")

    @property
    def m(self) -> int:
        return len(self.machines)

    @property
    def n(self) -> int:
        return len(self.jobs)

    def costs(self) -> list[float]:
        return [mc.startup_cost for mc in self.machines]

    def ptimes(self) -> list[tuple[float, ...]]:
        """Processing times, job-major."""
        return [job.processing_times for job in self.jobs]

    def scaled_ptimes(self) -> list[tuple[float, ...]]:
        """Processing times in units of L, job-major."""
        budget = self.makespan_budget
        return [tuple(p / budget for p in job.processing_times) for job in self.jobs]


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded configuration for the random instance generator."""

    m: int
    n: int
    seed: int
    cost_range: tuple[float, float] = (1.0, 10.0)
    ptime_model: str = "uniform"

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) for v in (self.m, self.n, self.seed)):
            raise ValueError(
                f"m, n and seed must be ints, got {self.m!r}, {self.n!r}, {self.seed!r}"
            )
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        lo, hi = self.cost_range
        if not (0 < lo <= hi):
            raise ValueError("cost_range must satisfy 0 < low <= high")
        if self.ptime_model not in PTIME_MODELS:
            raise ValueError(f"unknown ptime_model {self.ptime_model!r}")


def generate(config: GeneratorConfig) -> Instance:
    """Generate a random instance; a pure, reproducible function of config.

    Every job is planted on one machine with a processing time small enough
    that the planted assignment has makespan <= L, so each generated instance
    admits a feasible offline schedule (and every job has at least one
    machine with p_ij <= L).
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    m, n = config.m, config.n
    budget = 1.0
    lo, hi = config.cost_range

    costs = rng.uniform(lo, hi, size=m)
    planted = rng.integers(0, m, size=n)
    counts = np.bincount(planted, minlength=m)

    # Typical processing time once load is spread across machines.
    base = budget * min(1.0, m / n)

    if config.ptime_model == "uniform":
        ptimes = rng.uniform(0.25, 1.25, size=(n, m)) * base
    elif config.ptime_model == "restricted_assignment":
        allowed = rng.random(size=(n, m)) < 0.5
        drawn = rng.uniform(0.25, 1.0, size=(n, m)) * base
        ptimes = np.where(allowed, drawn, INFEASIBLE_FACTOR * budget)
    else:  # power_law
        ptimes = (0.25 + rng.pareto(1.8, size=(n, m))) * base
        ptimes = np.minimum(ptimes, 1.0e3 * budget)

    # Planted entries are drawn last so every model shares the same feasibility
    # guarantee: the planted machine can hold all of its planted jobs within L.
    for j in range(n):
        h = int(planted[j])
        share = budget / counts[h]
        ptimes[j, h] = rng.uniform(0.3, 0.95) * share

    machines = tuple(Machine(i, float(costs[i])) for i in range(m))
    jobs = tuple(
        Job(j, tuple(float(p) for p in ptimes[j])) for j in range(n)
    )
    return Instance(machines=machines, jobs=jobs, makespan_budget=budget)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing key '{key}'")
    return doc[key]


def instance_to_dict(instance: Instance) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "m": instance.m,
        "n": instance.n,
        "L": instance.makespan_budget,
        "machines": [
            {"id": mc.id, "cost": mc.startup_cost} for mc in instance.machines
        ],
        "jobs": [
            {"id": job.id, "p": list(job.processing_times)} for job in instance.jobs
        ],
    }


def instance_from_dict(doc: dict, where: str = "instance") -> Instance:
    version = _require(doc, "version", where)
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"{where}: unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    m = _require(doc, "m", where)
    n = _require(doc, "n", where)
    budget = _require(doc, "L", where)
    raw_machines = _require(doc, "machines", where)
    raw_jobs = _require(doc, "jobs", where)
    try:
        if len(raw_machines) != m:
            raise ValueError(f"header m={m} but {len(raw_machines)} machines")
        if len(raw_jobs) != n:
            raise ValueError(f"header n={n} but {len(raw_jobs)} jobs")
        machines = tuple(
            Machine(_require(mc, "id", f"machine {k}"), _require(mc, "cost", f"machine {k}"))
            for k, mc in enumerate(raw_machines)
        )
        jobs = tuple(
            Job(_require(jb, "id", f"job {k}"), tuple(_require(jb, "p", f"job {k}")))
            for k, jb in enumerate(raw_jobs)
        )
        return Instance(machines=machines, jobs=jobs, makespan_budget=budget)
    except TypeError as exc:
        raise InstanceFormatError(f"{where}: a value has the wrong type ({exc})") from exc
    except ValueError as exc:  # _require raises InstanceFormatError, a ValueError
        raise InstanceFormatError(f"{where}: {exc}") from exc


def save_instance(instance: Instance, path: str | Path) -> None:
    text = json.dumps(instance_to_dict(instance))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    if not path.exists():
        raise InstanceFormatError(f"{path}: file not found")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    return instance_from_dict(doc, where=str(path))
