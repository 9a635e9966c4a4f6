"""Experiment pipeline: single runs, invariant audits, CSV logs, log
verification, and seed sweeps.

A run has two stages. The fractional stage (``run_fractional``) resolves
the optimum guess (exact oracle, fixed value, or guess-and-double), covers the
job stream fractionally through the guess-and-double controller (a known
guess is its one-phase case), and audits the finished phases and steps. The
rounding stage (``round_run``) scores the kept jobs once, then, per rounding
seed, rounds them, audits the integer schedule, and builds the report row. A
single run goes through both with one seed; a sweep runs both once per
instance, with all of its rounding seeds. A run leaves behind a
self-contained log directory: the instance, a metadata document, per-step and
per-job CSV logs, and a one-row report.

Each invariant is written once, over the records a run leaves behind
(``PhaseTrace``, the steps, the kept jobs and the integer schedule): the run
calls these checks on its finished records, and ``verify`` loads the same
records back from the log files alone and calls the same functions.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, replace
from itertools import compress, count, groupby, islice
from pathlib import Path

from .doubling import DoublingResult, PhaseTrace, default_initial_guess, run_with_doubling

# snapshot_phase is imported for perfbench/tracing.py, which patches it here by name.
from .doubling import snapshot_phase  # noqa: F401
from .fractional import GROWTH_BASE, TYPE_A, TYPE_B, JobFraction, potential, preprocess
from .instances import (
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    generate,
    load_instance,
    save_instance,
)
from .oracle import DEFAULT_NODE_BUDGET, OracleResult, optimal_bnb
from .rounding import RoundingState, ScoredJob, active_cost, pairwise_sum, score_job

CHECK_FAMILIES = ("feasibility", "potential", "consistency", "rounding")
TOL = 1e-9

REPORT_COLUMNS = (
    "seed",
    "B",
    "L",
    "frac_cost",
    "frac_makespan",
    "int_cost",
    "int_makespan",
    "cost_ratio",
    "makespan_ratio",
    "clamp_count",
    "fallback_count",
    "invariant_violations",
)

STEP_COLUMNS = ("job", "step_idx", "type", "delta_phi")
STEP_WRITE_ROWS = 4096  # steps.csv rows formatted into one string per write
STEP_READ_BYTES = 1 << 16  # the readlines hint by which verify streams steps.csv
ASSIGNMENT_COLUMNS = ("job", "machine", "cum_cost")
Y_COLUMNS = ("phase", "job", "machine", "y")
# The PhaseTrace fields a phase entry of meta.json holds. Its phase is its index;
# verify derives the rest from the instance, the guess and y.csv.
PHASE_META_KEYS = ("guess", "jobs_processed", "x_final", "fraction_clamps", "coverage_clamps")


@dataclass
class RunConfig:
    alpha_mode: str = "oracle"  # oracle | fixed | double
    alpha_value: float | None = None
    seed: int = 0
    a = GROWTH_BASE  # a constant: no field, so neither settable nor in meta.json
    checks: tuple[str, ...] = CHECK_FAMILIES  # CHECK_FAMILIES or ()

    def __post_init__(self) -> None:
        if self.alpha_mode not in ("oracle", "fixed", "double"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if (self.alpha_mode == "fixed") != (self.alpha_value is not None):
            raise ValueError(
                f"alpha_value must be given in fixed alpha_mode and only there, got "
                f"{self.alpha_value!r} in {self.alpha_mode!r} mode"
            )
        if self.alpha_value is not None and (
            isinstance(self.alpha_value, bool) or not 0 < self.alpha_value < math.inf
        ):
            raise ValueError(f"alpha_value must be finite and > 0, got {self.alpha_value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        if self.checks not in (CHECK_FAMILIES, ()):
            raise ValueError(
                f"checks must be all families {CHECK_FAMILIES} or none, got {self.checks!r}"
            )


class Violations:
    """Counted audit failures, grouped by check family."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {fam: 0 for fam in CHECK_FAMILIES}
        self.messages: list[str] = []

    def add(self, family: str, message: str) -> None:
        self.counts[family] += 1
        if len(self.messages) < 50:
            self.messages.append(f"[{family}] {message}")

    def extend(self, family: str, messages: list[str]) -> None:
        for msg in messages:
            self.add(family, msg)

    def total(self) -> int:
        return sum(self.counts.values())


# -- audits -------------------------------------------------------------------


def audit_job(j: int, yrow: tuple[float, ...], x, discarded) -> list[str]:
    """One covered job's y row against its phase's activation levels: the
    coverage re-summed in machine order, y <= 2x, and no y on discarded
    machines. The engine caps coverage at 1 in its own order of addition, so
    the re-summed value can pass 1 by rounding only."""
    out = []
    cov = sum(yrow)
    if not (1.0 - TOL <= cov <= 1.0 + TOL):
        out.append(f"job {j}: coverage {cov!r} outside [1-1e-9, 1+1e-9]")
    for i in compress(range(len(yrow)), yrow):  # y is mostly zero: skip its zeros in C
        y = yrow[i]
        if discarded[i]:
            out.append(f"job {j}: discarded machine {i} holds y={y!r}")
        elif y > 2.0 * x[i] + TOL:
            out.append(f"job {j}, machine {i}: y={y!r} > 2x={2*x[i]!r}")
    return out


def audit_phase(trace: PhaseTrace) -> list[str]:
    """Feasibility of one finished phase: ``audit_job`` for each covered job
    against ``x_final``, and load <= 6x on partially active machines."""
    where = f"phase {trace.phase}"
    out = []
    for j, yrow in trace.covered_y:
        out += [f"{where}, {msg}" for msg in audit_job(j, yrow, trace.x_final, trace.discarded)]
    for i, (load, x) in enumerate(zip(trace.load_final, trace.x_final)):
        if not trace.discarded[i] and x < 1.0 and load > 6.0 * x + TOL:
            out.append(f"{where}, machine {i}: load {load!r} > 6x={6*x!r} while partially active")
    return out


def phase_loads(covered_y: list[tuple[int, tuple[float, ...]]], p, m: int) -> list[float]:
    """Each machine's load summed from a phase's covered y rows (``p`` and
    the loads in units of L)."""
    loads = [0.0] * m
    for j, yrow in covered_y:
        prow = p[j]
        for i in compress(range(m), yrow):
            loads[i] += prow[i] * yrow[i]
    return loads


def audit_consistency(trace: PhaseTrace, p: list[tuple[float, ...]]) -> list[str]:
    """Bookkeeping of one finished phase: the engine's incremental loads
    against ``phase_loads`` and its incremental potential against
    ``potential``. A live check: the logs hold neither, and ``verify``
    derives both by these same rules."""
    where = f"phase {trace.phase}"
    loads = phase_loads(trace.covered_y, p, len(trace.x_final))
    out = [
        f"{where}, machine {i}: load {load!r} vs recomputed {loads[i]!r}"
        for i, load in enumerate(trace.load_final)
        if abs(loads[i] - load) > TOL
    ]
    phi = potential(trace.x_final, trace.load_final, trace.scaled_costs, trace.discarded)
    if abs(phi - trace.phi) > TOL:
        out.append(f"{where}: phi {trace.phi!r} vs recomputed {phi!r}")
    return out


def audit_steps(jobs: Sequence, idxs: Sequence, deltas: Sequence[float], n: int) -> list[str]:
    """Steps whose potential increase exceeds 2/n, given as three columns:
    job labels, step_idx labels and delta_phi. ``cap < d`` (which is ``d > cap``)
    runs over delta_phi at C level; only a step over the cap gets a message."""
    over = compress(count(), map((2.0 / n + TOL if n else math.inf).__lt__, deltas))
    return [f"job {jobs[k]}, step {idxs[k]}: delta_phi {deltas[k]!r} > 2/n" for k in over]


def audit_rounding(
    assignment: dict[int, int],
    active: list[bool],
    int_load: list[float],
    kept: Iterable[tuple[int, tuple[float, ...], tuple[bool, ...]]],
) -> list[str]:
    """The integer schedule against the kept jobs, given as (job, p row in
    units of L, eligible): every job assigned to an active machine its phase
    kept, and the integer loads recomputed."""
    out = []
    loads = [0.0] * len(active)
    for j, prow, eligible in kept:
        if j not in assignment:
            out.append(f"job {j}: never assigned")
            continue
        i = assignment[j]
        if not active[i]:
            out.append(f"job {j}: assigned to inactive machine {i}")
        if not eligible[i]:
            out.append(f"job {j}: assigned to ineligible machine {i}")
        loads[i] += prow[i]
    for i, load in enumerate(int_load):
        if abs(loads[i] - load) > TOL:
            out.append(f"machine {i}: integer load {load!r} vs recomputed {loads[i]!r}")
    return out


# -- oracle access --------------------------------------------------------------


# oracle_solve is the one oracle entry point; perfbench/tracing.py patches it here by name.
def oracle_solve(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact optimum by the set search."""
    return optimal_bnb(instance, node_budget=node_budget)


# -- pipeline -------------------------------------------------------------------


@dataclass
class RunArtifacts:
    instance: Instance
    config: RunConfig
    alpha: float
    B: float | None
    phases: list[PhaseTrace]
    records: list[JobFraction]
    rounding: RoundingState
    violations: Violations
    row: dict


def replay_rounding(instance: Instance, jobs: list[ScoredJob], seed: int) -> RoundingState:
    """Round the scored kept jobs in stream order with one seed. Rounding
    job j reads only its record, so this equals rounding each job as soon as
    the fractional stage keeps it."""
    rstate = RoundingState(instance, seed)
    for job in jobs:
        rstate.process_job(job)
    return rstate


def build_report_row(
    seed: int, B: float | None, budget: float, phases: list[PhaseTrace],
    int_cost: float, int_makespan: float, fallback_count: int, invariant_violations: int,
) -> dict:
    """The report row; ``verify`` rebuilds it from the logs by the same rules."""
    last = phases[-1] if phases else None
    return {
        "seed": seed,
        "B": B,
        "L": budget,
        "frac_cost": last.frac_cost if last else 0.0,
        "frac_makespan": (last.frac_makespan if last else 0.0) * budget,
        "int_cost": int_cost,
        "int_makespan": int_makespan,
        "cost_ratio": (int_cost / B) if B else None,
        "makespan_ratio": int_makespan / budget,
        "clamp_count": sum(p.fraction_clamps + p.coverage_clamps for p in phases),
        "fallback_count": fallback_count,
        "invariant_violations": invariant_violations,
    }


def first_guess(instance: Instance, config: RunConfig, B: float | None) -> float:
    if config.alpha_mode == "double":
        return default_initial_guess(instance)
    return B if config.alpha_mode == "oracle" else float(config.alpha_value)


def run_fractional(
    instance: Instance, config: RunConfig
) -> tuple[float | None, DoublingResult, list[tuple[str, list[str]]]]:
    """The fractional stage of a run: the guess-and-double controller, then,
    with audits on, the phase and step audits on its finished records: per
    phase, feasibility then consistency, then the potential bound over all
    steps.

    A known guess (oracle or fixed mode) is the controller's one-phase case:
    no cost bound, so nothing trips, and a guess found too small raises
    ``GuessTooSmallError``. Returns B (the exact optimum when the oracle ran),
    the controller's result, and the audit messages as (family, messages)
    pairs in report order.
    """
    B = oracle_solve(instance).optimal_cost if config.alpha_mode == "oracle" else None
    guess = first_guess(instance, config, B)
    result = run_with_doubling(instance, guess, double=config.alpha_mode == "double")

    if not config.checks:
        return B, result, []
    p, problems = instance.scaled_ptimes(), []
    for trace in result.phases:
        problems += [("feasibility", audit_phase(trace)), ("consistency", audit_consistency(trace, p))]
    logs = [t.step_entries for t in result.phases]
    over = [msg for log in logs for msg in audit_steps(log.job, range(len(log)), log.delta, instance.n)]
    return B, result, problems + [("potential", over)]


def round_run(
    instance: Instance,
    configs: list[RunConfig],
    B: float | None,
    result: DoublingResult,
    problems: list[tuple[str, list[str]]],
) -> Iterator[RunArtifacts]:
    """The rounding stage of one fractional stage, one run per config in
    turn: the kept records, scored once, rounded in stream order with the
    config's seed, the rounding audit, and the report row, which counts the
    fractional stage's ``problems`` too."""
    jobs = [score_job(instance, frac) for frac in result.records]
    for config in configs:
        rounding = replay_rounding(instance, jobs, config.seed)
        violations = Violations()
        for family, messages in problems:
            violations.extend(family, messages)
        if config.checks:
            kept = ((f.job, f.p_scaled, f.eligible) for f in result.records)
            found = audit_rounding(rounding.assignment, rounding.active, rounding.int_load, kept)
            violations.extend("rounding", found)
        yield RunArtifacts(
            instance=instance,
            config=config,
            alpha=result.final_guess,
            B=B,
            phases=result.phases,
            records=result.records,
            rounding=rounding,
            violations=violations,
            row=build_report_row(
                config.seed, B, instance.makespan_budget, result.phases, rounding.int_cost,
                rounding.int_makespan(), rounding.fallback_count, violations.total(),
            ),
        )


def run_pipeline(instance: Instance, config: RunConfig) -> RunArtifacts:
    """One run: the fractional stage, then the rounding stage with one seed."""
    (artifacts,) = round_run(instance, [config], *run_fractional(instance, config))
    return artifacts


# -- log output ------------------------------------------------------------------


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(path: Path, rows: list[dict], columns=REPORT_COLUMNS) -> None:
    _write_csv(path, tuple(columns), ([row.get(col) for col in columns] for row in rows))


def write_steps_csv(path: Path, phases: list[PhaseTrace]) -> None:
    """The phases' steps as ``csv.writer`` writes them: ints by ``str``, floats by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(STEP_COLUMNS) + "\n")
        rows = (f"{job},{idx},{t},{d!r}\n" for log in (p.step_entries for p in phases)
                for job, idx, t, d in zip(log.job, range(len(log)), log.kind.decode(), log.delta))
        while block := "".join(islice(rows, STEP_WRITE_ROWS)):
            fh.write(block)


def write_run_logs(artifacts: RunArtifacts, logdir: str | Path) -> Path:
    logdir = Path(logdir)
    logdir.mkdir(parents=True, exist_ok=True)
    save_instance(artifacts.instance, logdir / "instance.json")

    write_steps_csv(logdir / "steps.csv", artifacts.phases)
    _write_csv(
        logdir / "y.csv",
        Y_COLUMNS,
        (
            (trace.phase, job, i, yrow[i])
            for trace in artifacts.phases
            for job, yrow in trace.covered_y
            for i in compress(range(len(yrow)), yrow)
        ),
    )

    _write_csv(logdir / "assignments.csv", ASSIGNMENT_COLUMNS, artifacts.rounding.log)
    write_report_csv(logdir / "report.csv", [artifacts.row])

    meta = {
        "config": asdict(artifacts.config),
        "phases": [{k: getattr(p, k) for k in PHASE_META_KEYS} for p in artifacts.phases],
        "rounding": {
            "active": artifacts.rounding.active,
            "deficit_jobs": artifacts.rounding.deficit_jobs,
        },
        "violations": {
            "counts": artifacts.violations.counts,
            "messages": artifacts.violations.messages,
        },
    }
    (logdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return logdir


# -- log verification --------------------------------------------------------------


def _id(value: str, size: int, what: str) -> int:
    """A phase, job or machine id column, which must lie in 0..size-1."""
    k = int(value)
    if not 0 <= k < size:
        raise ValueError(f"{what} id {k} outside 0..{size - 1}")
    return k


def _load_phases(meta: dict, y_path: Path, instance: Instance, p) -> tuple[list[PhaseTrace], list]:
    """The phases of ``meta.json``, numbered by position, with their y rows from
    ``y.csv`` and what they derive by the engine's rules (pre-processing at the
    guess, the loads summed from the y rows once; no potential, no steps), and the
    kept jobs as ``audit_rounding`` takes them: a phase keeps ``jobs_processed`` jobs
    on from the previous phase's, n in all, and its y rows are those and at most the next."""
    m, n = instance.m, instance.n
    ys: list[dict[int, list[float]]] = [{} for _ in meta["phases"]]
    with open(y_path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != list(Y_COLUMNS):
            raise ValueError(f"y.csv does not start with the header {','.join(Y_COLUMNS)}")
        for ph, job, mach, y in rows:
            row = ys[_id(ph, len(ys), "y.csv phase")].setdefault(_id(job, n, "y.csv job"), [0.0] * m)
            if row[i := _id(mach, m, "y.csv machine")]:  # each y is > 0: a set one is a repeat
                raise ValueError(f"y.csv repeats phase {ph}, job {job}, machine {mach}")
            if not (value := float(y)) > 0.0:
                raise ValueError(f"y.csv phase {ph}, job {job}, machine {mach}: y {y} is not > 0")
            row[i] = value
    phases, kept = [], []
    for k, pmeta in enumerate(meta["phases"]):
        if len(x := pmeta["x_final"]) != m:
            raise ValueError(f"meta.json phase {k}: {len(x)} x_final values, not {m}")
        covered_y = [(j, tuple(row)) for j, row in sorted(ys[k].items())]
        jobs = range(len(kept), len(kept) + pmeta["jobs_processed"])
        if [j for j, _ in covered_y] not in (list(jobs), [*jobs, jobs.stop]):
            raise ValueError(f"y.csv jobs of phase {k} are not the jobs it kept")
        discarded, costs = map(tuple, preprocess(instance.costs(), m, pmeta["guess"]))
        eligible = tuple(not d for d in discarded)
        kept += [(j, p[j], eligible) for j in jobs]
        phases.append(PhaseTrace(phase=k, **pmeta, load_final=tuple(phase_loads(covered_y, p, m)),
                                 scaled_costs=costs, discarded=discarded, covered_y=covered_y))
    if len(kept) != n:
        raise ValueError(f"meta.json phases keep {len(kept)} jobs, not {n}")
    return phases, kept


def _csv_records(fh, name: str):
    """The data rows of a CSV log as dicts by header column. Each row must
    have the header's field count."""
    rows = csv.reader(fh)
    header = next(rows, [])
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{name} has a row without the header's {len(header)} fields")
        yield dict(zip(header, row))


def _step_rows(fh, blocks: list[list[str]]):
    """The (job, step_idx, delta_phi) columns of each ``readlines(STEP_READ_BYTES)``
    chunk of steps.csv. Each row must have the header's field count (no CSV quoting),
    a type of A or B, and a step_idx of 0 or the previous row's + 1. Each block of rows
    from a step_idx of 0 on goes to ``blocks`` as its job labels, one per run in a chunk."""
    header = fh.readline().rstrip("\n").split(",")
    job, idx, typ, dphi = (header.index(col) for col in ("job", "step_idx", "type", "delta_phi"))
    width, prev = len(header) + 1, -1  # width: a row's cells and its "\n"
    while lines := fh.readlines(STEP_READ_BYTES):
        text = "".join(lines)
        cells = (text if text[-1] == "\n" else text + "\n").replace("\n", ",\n,").split(",")[:-1]
        if cells[width - 1 :: width] != ["\n"] * len(lines):  # each row's "\n" after header-many cells
            raise ValueError(f"steps.csv has a row without the header's {width - 1} fields")
        jobs, labels = cells[job::width], cells[idx::width]
        steps, k, want = list(map(int, labels)), -1, []
        # The chunk's rows cut where a block starts; list.index finds each step_idx of 0.
        cuts = sorted({0, len(steps), *[k := steps.index(0, k + 1) for _ in range(steps.count(0))]})
        for start, stop in zip(cuts, cuts[1:]):  # the chunk's rows of one block
            first = 0 if steps[start] == 0 else prev + 1
            want += range(first, first + stop - start)
            if first == 0:
                blocks.append([])
            blocks[-1] += [label for label, _ in groupby(jobs[start:stop])]
        if steps != want:
            k = next(k for k, (i, w) in enumerate(zip(steps, want)) if i != w)
            raise ValueError(f"steps.csv step_idx {steps[k]} follows {steps[k - 1] if k else prev}")
        if bad := set(cells[typ::width]) - {TYPE_A, TYPE_B}:
            raise ValueError(f"steps.csv type {min(bad)!r} is not {TYPE_A} or {TYPE_B}")
        prev = steps[-1]
        yield jobs, labels, list(map(float, cells[dphi::width]))


def verify_logdir(logdir: str | Path) -> list[str]:
    """Re-run the live checks on the records loaded back from a run's logs.

    The feasibility, step and rounding checks are the functions the run
    itself calls, on phases rebuilt by the engine's rules (``_load_phases``)
    and integer loads summed from ``assignments.csv``; the consistency audit
    is live-only. Checked here only: ``config`` by ``RunConfig``'s rules, row k of
    ``assignments.csv`` placing job k, its last ``cum_cost`` and the active set's
    cost (``active_cost``) against the report's ``int_cost``, each phase's guess,
    and the report row, rebuilt by ``build_report_row`` with the running max of
    the integer loads as ``int_makespan``. Raises InstanceFormatError when the
    directory or a log file is missing (invalid input); content problems, a
    phase, job or machine id outside the run among them, come back as violation
    messages.
    """
    logdir = Path(logdir)
    expected = ("instance.json", "meta.json", "y.csv", "steps.csv", "assignments.csv", "report.csv")
    for name in expected:
        if not (logdir / name).exists():
            raise InstanceFormatError(f"{logdir}: missing log file '{name}'")
    try:
        return _verify_logs(logdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return [f"cannot load logs: {exc}"]


def _verify_logs(logdir: Path) -> list[str]:
    instance = load_instance(logdir / "instance.json")
    meta = json.loads((logdir / "meta.json").read_text(encoding="utf-8"))
    config = RunConfig(**{**meta["config"], "checks": tuple(meta["config"]["checks"])})
    budget = instance.makespan_budget
    p = instance.scaled_ptimes()
    phases, kept = _load_phases(meta, logdir / "y.csv", instance, p)
    with open(logdir / "report.csv", newline="", encoding="utf-8") as fh:
        report_rows = list(_csv_records(fh, "report.csv"))
    if len(report_rows) != 1:
        raise ValueError(f"report.csv has {len(report_rows)} rows (expected 1)")
    # The report cells with no other source: B in oracle mode, int_cost, fallback_count
    # and invariant_violations; the other columns are rebuilt from the other logs below.
    (report,) = report_rows
    B = float(report["B"]) if config.alpha_mode == "oracle" else None
    int_cost = float(report["int_cost"])

    problems = [msg for trace in phases for msg in audit_phase(trace)]
    blocks: list[list[str]] = []
    with open(logdir / "steps.csv", encoding="utf-8") as fh:  # universal newlines: CRLF reads as LF
        problems += [msg for cols in _step_rows(fh, blocks) for msg in audit_steps(*cols, instance.n)]
    for label in sorted({j for block in blocks for j in block}):  # sorted: the first bad id is fixed
        _id(label, instance.n, "steps.csv job")
    covering = [t for t in phases if t.covered_y]  # one block of steps each, through its jobs in order
    if len(blocks) != len(covering):
        raise ValueError(f"steps.csv has {len(blocks)} blocks from step_idx 0, not {len(covering)}")
    for block, t in zip(blocks, covering):
        if [label for label, _ in groupby(block)] != [str(j) for j, _ in t.covered_y]:
            raise ValueError(f"steps.csv steps of phase {t.phase} do not run through its covered jobs")

    assignment: dict[int, int] = {}
    int_load = [0.0] * instance.m
    cum = top = 0.0  # top: max(int_load), a running max as loads only grow
    with open(logdir / "assignments.csv", newline="", encoding="utf-8") as fh:
        for k, row in enumerate(_csv_records(fh, "assignments.csv")):  # row k places job k
            if (j := _id(row["job"], instance.n, "assignments.csv job")) != k:
                raise ValueError(f"assignments.csv row {k} holds job {j}, not job {k}")
            i = assignment[j] = _id(row["machine"], instance.m, "assignments.csv machine")
            int_load[i] += p[j][i]
            top = max(top, int_load[i])
            cum = float(row["cum_cost"])
    if assignment and abs(cum - int_cost) > TOL:
        problems.append("final cum_cost does not match reported int_cost")
    if len(active := meta["rounding"]["active"]) != instance.m:
        raise ValueError(f"meta.json rounding.active holds {len(active)} values, not {instance.m}")
    if (cost := active_cost(instance.costs(), active)) != int_cost:
        problems.append(f"active machines cost {cost!r}, not the reported int_cost {int_cost!r}")
    problems += audit_rounding(assignment, active, int_load, kept)
    # meta.json fields that follow from the other files: the guesses (the mode's first
    # guess, doubled per phase) and the violation counts (the report's total).
    guess = first_guess(instance, config, B)
    for trace in phases:
        if trace.guess != guess:
            problems.append(f"phase {trace.phase}: guess {trace.guess!r} is not {guess!r}")
        guess *= 2.0
    violations = int(report["invariant_violations"])
    if (counted := sum(meta["violations"]["counts"].values())) != violations:
        problems.append(f"violation counts sum to {counted}, not the reported invariant_violations")

    # The report row rebuilt by build_report_row, each cell as csv writes it.
    derived = build_report_row(config.seed, B, budget, phases, int_cost, top * budget,
                               int(report["fallback_count"]), violations)
    for col, want in derived.items():
        cell = report[col]
        if cell != ("" if want is None else str(want)) and not (
            col == "frac_makespan" and abs(float(cell) - want) <= TOL
        ):
            problems.append(f"report column {col}: {cell}, derived {want!r}")
    return problems


# -- sweeps -------------------------------------------------------------------------


SWEEP_COLUMNS = ("instance",) + REPORT_COLUMNS
AGGREGATE_METRICS = REPORT_COLUMNS[3:]  # every report column after seed, B and L
SWEEP_KEYS = ("cells", "alpha_mode", "alpha_value")
CELL_KEYS = ("m", "n", "model", "instance_seeds", "rounding_seeds")  # all required


def sweep_cell_label(m: int, n: int, seed: int, model: str) -> str:
    return f"m{m}-n{n}-s{seed}-{model}"


def _reject_unknown_keys(doc: dict, known: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}; known keys are {list(known)}")


def _sweep_plan(config_doc) -> tuple[RunConfig, list[tuple[str, GeneratorConfig, list[RunConfig]]]]:
    """The sweep's shared RunConfig and, per instance, its label, generator
    config and one RunConfig per rounding seed."""
    if not isinstance(config_doc, dict):
        raise ValueError("top level must be an object")
    _reject_unknown_keys(config_doc, SWEEP_KEYS, "top level")
    cells = config_doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("'cells' must be a non-empty list")
    config = RunConfig(
        alpha_mode=config_doc.get("alpha_mode", "oracle"),
        alpha_value=config_doc.get("alpha_value"),
    )
    plan = []
    for cell in cells:
        if not isinstance(cell, dict):
            raise ValueError("each cell must be an object")
        _reject_unknown_keys(cell, CELL_KEYS, "cell")
        for key in CELL_KEYS:
            if key not in cell:
                raise ValueError(f"cell missing key '{key}'")
        for key in ("instance_seeds", "rounding_seeds"):
            if not isinstance(cell[key], list) or not cell[key]:
                raise ValueError(f"cell '{key}' must be a non-empty list")
        run_configs = [replace(config, seed=rseed) for rseed in cell["rounding_seeds"]]
        for iseed in cell["instance_seeds"]:
            gen_config = GeneratorConfig(
                m=cell["m"], n=cell["n"], seed=iseed, ptime_model=cell["model"]
            )
            label = sweep_cell_label(cell["m"], cell["n"], iseed, cell["model"])
            plan.append((label, gen_config, run_configs))
    return config, plan


def aggregate_stats(values: list[float]) -> dict[str, float]:
    """Mean, max and 95th percentile of a non-empty column, each the float
    numpy returns (``arr.mean()``, ``arr.max()``, ``np.percentile(arr, 95)``
    by its default linear rule)."""
    ordered = sorted(values)
    v = (len(ordered) - 1) * 0.95
    lo = math.floor(v)
    a, b, g = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)], v - lo
    d = b - a
    return {
        "mean": pairwise_sum(values) / len(values),
        "max": ordered[-1],
        "p95": b - d * (1.0 - g) if g >= 0.5 else a + d * g,
    }


def run_sweep(config_doc: dict, out_path: str | Path) -> dict:
    """Run a seed grid and write per-run rows plus an aggregate table.

    Config document shape::

        {"cells": [{"m": 4, "n": 8, "model": "uniform",
                    "instance_seeds": [0, 1], "rounding_seeds": [0, 1, 2]}],
         "alpha_mode": "oracle"}

    ``alpha_value`` goes with ``"alpha_mode": "fixed"`` only. Every run's
    configuration is built before the first run, so a malformed config, a
    key the sweep does not read among them, raises ``ValueError`` and runs
    nothing.
    """
    try:
        config, plan = _sweep_plan(config_doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sweep config: {exc}") from exc

    rows: list[dict] = []
    for label, gen_config, run_configs in plan:
        instance = generate(gen_config)
        for artifacts in round_run(instance, run_configs, *run_fractional(instance, config)):
            rows.append({"instance": label, **artifacts.row})

    out_path = Path(out_path)
    write_report_csv(out_path, rows, columns=SWEEP_COLUMNS)

    aggregate: dict[str, dict[str, float]] = {}
    for metric in AGGREGATE_METRICS:
        values = [float(row[metric]) for row in rows if row.get(metric) is not None]
        if values:
            aggregate[metric] = aggregate_stats(values)
    agg_path = out_path.with_name(out_path.stem + "_aggregate.csv")
    _write_csv(
        agg_path,
        ("metric", "mean", "max", "p95"),
        (
            (metric, stats["mean"], stats["max"], stats["p95"])
            for metric, stats in aggregate.items()
        ),
    )
    return aggregate
