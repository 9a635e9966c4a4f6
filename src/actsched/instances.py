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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

# Sentinel multiplier: p_ij = INFEASIBLE_FACTOR * L encodes "job j cannot
# run on machine i" while keeping p_ij finite and positive.
INFEASIBLE_FACTOR = 1.0e6

PTIME_MODELS = ("uniform", "restricted_assignment", "power_law")
COST_RANGE = (1.0, 10.0)  # generated startup costs are drawn uniformly from [low, high)


class InstanceFormatError(ValueError):
    """An instance file does not match the expected schema."""


def _finite_positive(value) -> bool:
    """A number in (0, largest float]: an int beyond float range fails too. Not a bool."""
    return not isinstance(value, bool) and 0 < value <= sys.float_info.max


@dataclass(frozen=True)
class Machine:
    """A machine with a positive, finite one-time startup cost."""

    id: int
    startup_cost: float

    def __post_init__(self) -> None:
        if not _finite_positive(self.startup_cost):
            raise ValueError(f"machine {self.id}: startup_cost must be a finite number > 0")


@dataclass(frozen=True)
class Job:
    """A job with one positive, finite processing time per machine, in machine order."""

    id: int
    processing_times: tuple[float, ...]

    def __post_init__(self) -> None:
        ps = self.processing_times
        # A row of positive finite floats passes in builtins alone. The sum
        # is NaN or inf if any entry is (min and max can skip a NaN); every
        # other row takes the per-element check and its exception. _floats is
        # not a field, like load_instance's _source; scaled_ptimes reads it.
        object.__setattr__(self, "_floats", {*map(type, ps)} == {float})
        if self._floats and min(ps) > 0 and sum(ps) <= sys.float_info.max:
            return
        if not all(map(_finite_positive, ps)):
            raise ValueError(f"job {self.id}: processing times must be finite numbers > 0")


@dataclass(frozen=True)
class Instance:
    """A complete scheduling instance; immutable after construction."""

    machines: tuple[Machine, ...]
    jobs: tuple[Job, ...]
    makespan_budget: float

    def __post_init__(self) -> None:
        if not self.machines:
            raise ValueError("instance needs at least one machine")
        if not _finite_positive(self.makespan_budget):
            raise ValueError("makespan_budget must be a finite number > 0")
        for items, ids in ((self.machines, "machine ids"), (self.jobs, "job ids")):
            if any(isinstance(x.id, bool) or x.id != k for k, x in enumerate(items)):
                raise ValueError(f"{ids} must be 0..{len(items) - 1} in order")
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
        """Processing times in units of L, job-major; at L == 1 a row of
        floats is returned as stored, since x / 1.0 == x for every double."""
        budget = self.makespan_budget
        return [job.processing_times if budget == 1.0 and job._floats
                else tuple(p / budget for p in job.processing_times) for job in self.jobs]


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded configuration for the random instance generator."""

    m: int
    n: int
    seed: int
    ptime_model: str = "uniform"

    def __post_init__(self) -> None:
        values = (self.m, self.n, self.seed)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise ValueError(
                f"m, n and seed must be ints, got {self.m!r}, {self.n!r}, {self.seed!r}"
            )
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
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
    lo, hi = COST_RANGE

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

    machines = tuple(Machine(i, c) for i, c in enumerate(costs.tolist()))
    jobs = tuple(Job(j, tuple(row)) for j, row in enumerate(ptimes.tolist()))
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
    header = [_require(doc, key, where) for key in ("version", "m", "n")]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in header):
        raise InstanceFormatError(f"{where}: version, m and n must be integers, got {header}")
    version, m, n = header
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"{where}: unsupported schema version {version!r} (expected {SCHEMA_VERSION})"
        )
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
    """Write the bytes ``load_instance`` read the instance from, as they
    were; an instance built in memory (``generate``, ``instance_from_dict``,
    ``dataclasses.replace``) has none and is encoded afresh."""
    source = getattr(instance, "_source", None)
    if source is None:
        source = (json.dumps(instance_to_dict(instance)) + "\n").encode("utf-8")
    Path(path).write_bytes(source)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    if not path.exists():
        raise InstanceFormatError(f"{path}: file not found")
    source = path.read_bytes()
    try:
        doc = json.loads(source.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    instance = instance_from_dict(doc, where=str(path))
    # Not a field: ==, hash, repr, asdict and replace ignore it, so a
    # replaced instance is never written with its original's bytes.
    object.__setattr__(instance, "_source", source)
    return instance
