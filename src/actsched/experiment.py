"""Experiment pipeline: single runs, invariant audits, CSV logs, log
verification, and seed sweeps.

A run has two stages. The fractional stage (``run_fractional``) resolves
the optimum guess (exact oracle, fixed value, or guess-and-double), covers the
job stream fractionally through the guess-and-double controller (a known
guess is its one-phase case), and audits the finished phases and steps. The
rounding stage (``round_run``) rounds the kept jobs' records with one seed,
audits the integer schedule, and builds the report row. A single run goes
through both once; a sweep runs the fractional stage once per instance and
the rounding stage once per rounding seed. A run leaves behind a
self-contained log directory: the instance, a metadata document, per-step and
per-job CSV logs, and a one-row report.

Each invariant is written once, over the records a run leaves behind
(``PhaseTrace``, ``JobFraction``, the steps and the integer schedule): the run
calls these checks on its finished records, and ``verify`` loads the same
records back from the log files alone and calls the same functions.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .doubling import DoublingResult, PhaseTrace, run_with_doubling

# snapshot_phase is imported for perfbench/tracing.py, which patches it here by name.
from .doubling import snapshot_phase  # noqa: F401
from .fractional import GROWTH_BASE_DEFAULT, JobFraction, check_growth_base
from .instances import (
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    generate,
    load_instance,
    save_instance,
)
from .oracle import DEFAULT_NODE_BUDGET, OracleResult, optimal_bnb
from .rounding import RoundingState, pairwise_sum

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
ASSIGNMENT_COLUMNS = ("job", "machine", "p_ij", "newly_activated_cost", "cum_cost", "int_makespan")
PHASE_COLUMNS = ("phase", "guess", "jobs_processed", "frac_cost", "int_cost_delta")
Y_COLUMNS = ("phase", "job", "machine", "y")
# PhaseTrace fields that meta.json leaves out: the y rows go to y.csv and
# the steps to steps.csv.
PHASE_FIELDS_NOT_IN_META = ("covered_y", "step_entries")


@dataclass
class RunConfig:
    alpha_mode: str = "oracle"  # oracle | fixed | double
    alpha_value: float | None = None
    seed: int = 0
    a: float = GROWTH_BASE_DEFAULT
    checks: tuple[str, ...] = CHECK_FAMILIES

    def __post_init__(self) -> None:
        if self.alpha_mode not in ("oracle", "fixed", "double"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if (self.alpha_mode == "fixed") != (self.alpha_value is not None):
            raise ValueError(
                f"alpha_value must be given in fixed alpha_mode and only there, got "
                f"{self.alpha_value!r} in {self.alpha_mode!r} mode"
            )
        if self.alpha_value is not None and not 0 < self.alpha_value < math.inf:
            raise ValueError(f"alpha_value must be finite and > 0, got {self.alpha_value!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        check_growth_base(self.a)
        unknown = set(self.checks) - set(CHECK_FAMILIES)
        if unknown:
            raise ValueError(f"unknown check families: {sorted(unknown)}")


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
    for i, y in enumerate(yrow):
        if y == 0.0:
            continue
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


def audit_consistency(trace: PhaseTrace, p: list[tuple[float, ...]], a: float) -> list[str]:
    """Bookkeeping of one finished phase: loads recomputed from the y rows
    (``p`` in units of L) against ``load_final``, and the potential
    recomputed with growth base ``a`` against ``phi``."""
    where = f"phase {trace.phase}"
    out = []
    m = len(trace.x_final)
    loads = [0.0] * m
    for j, yrow in trace.covered_y:
        prow = p[j]
        for i in range(m):
            loads[i] += prow[i] * yrow[i]
    phi = 0.0
    for i in range(m):
        load, x = trace.load_final[i], trace.x_final[i]
        if abs(loads[i] - load) > TOL:
            out.append(f"{where}, machine {i}: load {load!r} vs recomputed {loads[i]!r}")
        if not trace.discarded[i]:
            c = trace.scaled_costs[i]
            phi += c * a ** (load - 1.0) if x == 1.0 else c * x
    if abs(phi - trace.phi) > TOL:
        out.append(f"{where}: phi {trace.phi!r} vs recomputed {phi!r}")
    return out


def audit_steps(steps: Iterable[tuple[object, object, float]], n: int) -> list[str]:
    """Steps, given as (job, step_idx, delta_phi), whose potential increase
    exceeds 2/n."""
    if n == 0:
        return []
    cap = 2.0 / n + TOL
    return [f"job {job}, step {idx}: delta_phi {d!r} > 2/n" for job, idx, d in steps if d > cap]


def audit_rounding(
    assignment: dict[int, int],
    active: list[bool],
    int_load: list[float],
    records: list[JobFraction],
) -> list[str]:
    """The integer schedule against the kept jobs' records: every job assigned
    to an active machine its phase kept, and the integer loads recomputed."""
    out = []
    loads = [0.0] * len(active)
    for frac in records:
        j = frac.job
        if j not in assignment:
            out.append(f"job {j}: never assigned")
            continue
        i = assignment[j]
        if not active[i]:
            out.append(f"job {j}: assigned to inactive machine {i}")
        if not frac.eligible[i]:
            out.append(f"job {j}: assigned to ineligible machine {i}")
        loads[i] += frac.p_scaled[i]
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


def replay_rounding(
    instance: Instance, records: list[JobFraction], seed: int
) -> RoundingState:
    """Round the kept jobs' records in stream order. Rounding job j reads
    only its record, so this equals rounding each job as soon as the
    fractional stage keeps it."""
    rstate = RoundingState(instance, seed)
    for frac in records:
        rstate.process_job(frac)
    return rstate


def build_report_row(
    config: RunConfig,
    instance: Instance,
    B: float | None,
    phases: list[PhaseTrace],
    rounding: RoundingState,
    violations: Violations,
) -> dict:
    budget = instance.makespan_budget
    last = phases[-1] if phases else None
    frac_cost = last.frac_cost if last else 0.0
    frac_makespan = (last.frac_makespan if last else 0.0) * budget
    int_cost = rounding.int_cost
    int_makespan = rounding.int_makespan()
    clamp_count = sum(p.fraction_clamps + p.coverage_clamps for p in phases)
    return {
        "seed": config.seed,
        "B": B,
        "L": budget,
        "frac_cost": frac_cost,
        "frac_makespan": frac_makespan,
        "int_cost": int_cost,
        "int_makespan": int_makespan,
        "cost_ratio": (int_cost / B) if B else None,
        "makespan_ratio": int_makespan / budget,
        "clamp_count": clamp_count,
        "fallback_count": rounding.fallback_count,
        "invariant_violations": violations.total(),
    }


def run_fractional(
    instance: Instance, config: RunConfig
) -> tuple[float | None, DoublingResult, list[tuple[str, list[str]]]]:
    """The fractional stage of a run: the guess-and-double controller, then
    the phase and step audits of ``config.checks`` on its finished records.

    A known guess (oracle or fixed mode) is the controller's one-phase case:
    no cost bound, so nothing trips, and a guess found too small raises
    ``GuessTooSmallError``. Returns B (the exact optimum when the oracle ran),
    the controller's result, and the audit messages as (family, messages)
    pairs in report order.
    """
    B = oracle_solve(instance).optimal_cost if config.alpha_mode == "oracle" else None
    guess = float(config.alpha_value) if config.alpha_mode == "fixed" else B
    result = run_with_doubling(
        instance, initial_guess=guess, double=config.alpha_mode == "double", a=config.a
    )

    check = config.checks.__contains__
    problems: list[tuple[str, list[str]]] = []
    p = instance.scaled_ptimes() if check("consistency") else None
    for trace in result.phases:
        if check("feasibility"):
            problems.append(("feasibility", audit_phase(trace)))
        if check("consistency"):
            problems.append(("consistency", audit_consistency(trace, p, config.a)))
    if check("potential"):
        steps = (
            (job, idx, o.delta_potential) for t in result.phases for job, idx, o in t.step_entries
        )
        problems.append(("potential", audit_steps(steps, instance.n)))
    return B, result, problems


def round_run(
    instance: Instance,
    config: RunConfig,
    B: float | None,
    result: DoublingResult,
    problems: list[tuple[str, list[str]]],
) -> RunArtifacts:
    """The rounding stage of a run with seed ``config.seed``: the kept
    records of a fractional stage rounded in stream order, the rounding
    audit, and the report row, which counts the fractional stage's
    ``problems`` too."""
    rounding = replay_rounding(instance, result.records, config.seed)
    violations = Violations()
    for family, messages in problems:
        violations.extend(family, messages)
    if "rounding" in config.checks:
        violations.extend(
            "rounding",
            audit_rounding(rounding.assignment, rounding.active, rounding.int_load, result.records),
        )
    return RunArtifacts(
        instance=instance,
        config=config,
        alpha=result.final_guess,
        B=B,
        phases=result.phases,
        records=result.records,
        rounding=rounding,
        violations=violations,
        row=build_report_row(config, instance, B, result.phases, rounding, violations),
    )


def run_pipeline(instance: Instance, config: RunConfig) -> RunArtifacts:
    """One run: the fractional stage, then the rounding stage once."""
    return round_run(instance, config, *run_fractional(instance, config))


# -- log output ------------------------------------------------------------------


def _fmt(value) -> str:
    """A value as ``csv`` writes it: None as "", everything else as str()."""
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(path: Path, rows: list[dict], columns=REPORT_COLUMNS) -> None:
    _write_csv(path, tuple(columns), ([row.get(col) for col in columns] for row in rows))


def write_run_logs(artifacts: RunArtifacts, logdir: str | Path) -> Path:
    logdir = Path(logdir)
    logdir.mkdir(parents=True, exist_ok=True)
    save_instance(artifacts.instance, logdir / "instance.json")

    _write_csv(
        logdir / "steps.csv",
        STEP_COLUMNS,
        (
            (job, idx, o.step_type, o.delta_potential)
            for trace in artifacts.phases
            for job, idx, o in trace.step_entries
        ),
    )
    _write_csv(
        logdir / "y.csv",
        Y_COLUMNS,
        (
            (trace.phase, job, i, val)
            for trace in artifacts.phases
            for job, yrow in trace.covered_y
            for i, val in enumerate(yrow)
            if val != 0.0
        ),
    )

    _write_csv(
        logdir / "assignments.csv",
        ASSIGNMENT_COLUMNS,
        (
            (r.job, r.machine, r.p_original, r.newly_activated_cost, r.cum_cost, r.int_makespan)
            for r in artifacts.rounding.log
        ),
    )

    # A phase's integer cost delta is the rounding log's cum_cost across the
    # phase's kept jobs (phases keep jobs in stream order).
    cum = [0.0] + [r.cum_cost for r in artifacts.rounding.log]
    phase_rows = []
    start = 0
    for p in artifacts.phases:
        end = start + p.jobs_processed
        phase_rows.append((p.phase, p.guess, p.jobs_processed, p.frac_cost, cum[end] - cum[start]))
        start = end
    _write_csv(logdir / "phases.csv", PHASE_COLUMNS, phase_rows)

    write_report_csv(logdir / "report.csv", [artifacts.row])

    meta = {
        "config": asdict(artifacts.config),
        "alpha": artifacts.alpha,
        "B": artifacts.B,
        "m": artifacts.instance.m,
        "n": artifacts.instance.n,
        "L": artifacts.instance.makespan_budget,
        "phases": [
            {k: v for k, v in vars(p).items() if k not in PHASE_FIELDS_NOT_IN_META}
            for p in artifacts.phases
        ],
        "rounding": {
            "seed": artifacts.rounding.seed,
            "thresholds": artifacts.rounding.r,
            "active": artifacts.rounding.active,
            "int_load": artifacts.rounding.int_load,
            "int_cost": artifacts.rounding.int_cost,
            "fallback_count": artifacts.rounding.fallback_count,
            "deficit_jobs": artifacts.rounding.deficit_jobs,
            "assignment": {str(j): i for j, i in sorted(artifacts.rounding.assignment.items())},
        },
        "violations": {
            "counts": artifacts.violations.counts,
            "messages": artifacts.violations.messages,
        },
        "report": {k: artifacts.row[k] for k in REPORT_COLUMNS},
    }
    (logdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return logdir


# -- log verification --------------------------------------------------------------


def _load_phases(meta: dict, y_path: Path, m: int) -> list[PhaseTrace]:
    """The phases of ``meta.json`` with their covered y rows from ``y.csv``;
    the steps, which no phase check reads, stay out."""
    ys: dict[int, dict[int, list[float]]] = {}
    with open(y_path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for ph, job, mach, y in rows:
            row = ys.setdefault(int(ph), {}).setdefault(int(job), [0.0] * m)
            row[int(mach)] = float(y)
    return [
        PhaseTrace(
            **pmeta,
            covered_y=[(j, tuple(row)) for j, row in sorted(ys.get(pmeta["phase"], {}).items())],
        )
        for pmeta in meta["phases"]
    ]


def _kept_records(phases: list[PhaseTrace], p: list[tuple[float, ...]]) -> list[JobFraction]:
    """The kept jobs' records as far as the logs hold them. Phases keep jobs
    in stream order, ``jobs_processed`` each; a log keeps only the phase's
    final x, which stands in for the x at the end of each job."""
    records = []
    for trace in phases:
        eligible = tuple(not d for d in trace.discarded)
        ys = dict(trace.covered_y)
        for j in range(len(records), len(records) + trace.jobs_processed):
            records.append(JobFraction(j, trace.x_final, ys[j], p[j], eligible))
    return records


def _step_rows(fh):
    """(job, step_idx, delta_phi) of each steps.csv row; other columns stay unparsed."""
    rows = csv.reader(fh)
    header = next(rows)
    job, idx, dphi = (header.index(col) for col in ("job", "step_idx", "delta_phi"))
    for row in rows:
        yield row[job], row[idx], float(row[dphi])


def verify_logdir(logdir: str | Path) -> list[str]:
    """Re-run the live checks on the records loaded back from a run's logs.

    The phase, step and rounding checks are the functions the run itself
    calls; only the columns that exist in the logs alone (the ``cum_cost``
    running sum, the ``int_makespan`` and ``p_ij`` columns, and the report
    row against ``meta.json``) are checked here. Raises InstanceFormatError
    when the directory or a log file is missing (invalid input); content
    problems come back as violation messages.
    """
    logdir = Path(logdir)
    expected = ("instance.json", "meta.json", "y.csv", "steps.csv", "assignments.csv", "report.csv")
    for name in expected:
        if not (logdir / name).exists():
            raise InstanceFormatError(f"{logdir}: missing log file '{name}'")
    try:
        return _verify_logs(logdir)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"cannot load logs: {exc}"]


def _verify_logs(logdir: Path) -> list[str]:
    instance = load_instance(logdir / "instance.json")
    meta = json.loads((logdir / "meta.json").read_text(encoding="utf-8"))
    budget = instance.makespan_budget
    p = instance.scaled_ptimes()
    phases = _load_phases(meta, logdir / "y.csv", instance.m)
    rmeta = meta["rounding"]

    problems = []
    for trace in phases:
        problems += audit_phase(trace) + audit_consistency(trace, p, meta["config"]["a"])
    with open(logdir / "steps.csv", newline="", encoding="utf-8") as fh:
        problems += audit_steps(_step_rows(fh), instance.n)

    assignment: dict[int, int] = {}
    int_load = [0.0] * instance.m
    cum = 0.0
    with open(logdir / "assignments.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            j, i = int(row["job"]), int(row["machine"])
            assignment[j] = i
            int_load[i] += p[j][i]
            if abs(float(row["p_ij"]) - p[j][i] * budget) > TOL:
                problems.append(f"job {j}: p_ij column {row['p_ij']} does not match the instance")
            prev, cum = cum, float(row["cum_cost"])
            if abs(cum - (prev + float(row["newly_activated_cost"]))) > TOL:
                problems.append(f"job {j}: cum_cost {cum!r} breaks the running sum")
            if abs(float(row["int_makespan"]) - max(int_load) * budget) > TOL:
                problems.append(f"job {j}: int_makespan column mismatch")
    if assignment and abs(cum - rmeta["int_cost"]) > TOL:
        problems.append("final cum_cost does not match reported int_cost")
    problems += audit_rounding(
        assignment, rmeta["active"], rmeta["int_load"], _kept_records(phases, p)
    )

    with open(logdir / "report.csv", newline="", encoding="utf-8") as fh:
        report_rows = list(csv.DictReader(fh))
    if len(report_rows) != 1:
        problems.append(f"report.csv has {len(report_rows)} rows (expected 1)")
    else:
        for col in REPORT_COLUMNS:
            want = _fmt(meta["report"][col])
            got = report_rows[0][col]
            if want != got:
                problems.append(f"report column {col}: {got!r} != {want!r}")
    return problems


# -- sweeps -------------------------------------------------------------------------


SWEEP_COLUMNS = ("instance",) + REPORT_COLUMNS
AGGREGATE_METRICS = REPORT_COLUMNS[3:]  # every report column after seed, B and L


def sweep_cell_label(m: int, n: int, seed: int, model: str) -> str:
    return f"m{m}-n{n}-s{seed}-{model}"


def _sweep_plan(config_doc) -> tuple[RunConfig, list[tuple[str, GeneratorConfig, list[RunConfig]]]]:
    """The sweep's shared RunConfig and, per instance, its label, generator
    config and one RunConfig per rounding seed."""
    if not isinstance(config_doc, dict):
        raise ValueError("top level must be an object")
    cells = config_doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("'cells' must be a non-empty list")
    config = RunConfig(
        alpha_mode=config_doc.get("alpha_mode", "oracle"),
        alpha_value=config_doc.get("alpha_value"),
        a=config_doc.get("a", GROWTH_BASE_DEFAULT),
    )
    plan = []
    for cell in cells:
        if not isinstance(cell, dict):
            raise ValueError("each cell must be an object")
        for key in ("m", "n", "model", "instance_seeds", "rounding_seeds"):
            if key not in cell:
                raise ValueError(f"cell missing key '{key}'")
        for key in ("instance_seeds", "rounding_seeds"):
            if not isinstance(cell[key], list) or not cell[key]:
                raise ValueError(f"cell '{key}' must be a non-empty list")
        cost_range = tuple(cell.get("cost_range", (1.0, 10.0)))
        run_configs = [replace(config, seed=rseed) for rseed in cell["rounding_seeds"]]
        for iseed in cell["instance_seeds"]:
            gen_config = GeneratorConfig(
                m=cell["m"],
                n=cell["n"],
                seed=iseed,
                cost_range=cost_range,
                ptime_model=cell["model"],
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
                    "cost_range": [1.0, 10.0],
                    "instance_seeds": [0, 1], "rounding_seeds": [0, 1, 2]}],
         "alpha_mode": "oracle", "a": 1.05}

    Every run's configuration is built before the first run, so a malformed
    config raises ``ValueError`` and runs nothing.
    """
    try:
        config, plan = _sweep_plan(config_doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sweep config: {exc}") from exc

    rows: list[dict] = []
    for label, gen_config, run_configs in plan:
        instance = generate(gen_config)
        frac = run_fractional(instance, config)
        for run_config in run_configs:
            rows.append({"instance": label, **round_run(instance, run_config, *frac).row})

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
