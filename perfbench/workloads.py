"""The benchmark's workloads, their set-up, their timed operations and the
checks of their outputs.

Each workload calls the library entry points behind the CLI commands:
``run_pipeline`` + ``write_run_logs`` + ``verify_logdir`` (``actsched run``
and ``actsched verify``) or ``run_sweep`` (``actsched sweep``). A run makes
its inputs once from ``--seed``, then repeats whole rounds of the same
operations until ``--seconds`` have passed. Checks run between operations,
outside the timed region.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from tracing import PER_LAYER, Tracer

ALL_MODELS = ("uniform", "restricted_assignment", "power_law")
SETUP_REPEATS = 3  # before the rounds; one more set-up runs before every round

# Times are normalised to the machine's speed of the moment. On a shared host
# the speed of identical work drifts by 20-40% within a minute and between
# minutes, in CPU time as much as in wall time, so no statistic of a run's own
# repeats holds still from run to run. Every timed operation and set-up is
# therefore bracketed by a fixed pure-Python reference kernel, and its time
# is reported as t * REF_S / (mean of the two kernel times around it): seconds
# at the speed at which the kernel takes REF_S, about its time on the machine
# in README.md. The kernel runs none of the program's code, so a change in the
# program moves the figures in full (README.md, Steadiness).
REF_S = 0.005
_REF_VALUES = [((k * 7919) % 10007) / 10007 for k in range(2000)]


def _reference_kernel() -> float:
    """Sorting by a key, dict updates and float arithmetic, as in the engine."""
    acc = 0.0
    sums: dict[int, float] = {}
    for _ in range(8):
        ordered = sorted(_REF_VALUES, key=lambda v: (v * 7.3) % 1.0)
        for i, v in enumerate(ordered):
            sums[i % 97] = sums.get(i % 97, 0.0) + v * 1.0001
            acc += v**1.5 if v < 0.5 else v * 0.25
    return acc + sum(sums.values())


def reference_s() -> float:
    """Seconds of one call of the reference kernel."""
    t0 = perf_counter()
    _reference_kernel()
    return perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    """Instances of one shape and one run mode; sizes are (full, tiny) pairs,
    the tiny ones for the self-test."""

    name: str
    kind: str  # "run" or "sweep"
    models: tuple[str, ...]
    m: tuple[int, int]
    n: tuple[int, int]
    per_model: tuple[int, int]  # instances per model (run) or instance seeds per model (sweep)
    alpha: str = "fixed"  # run only: "fixed" (a quarter of the total machine cost) or "double"
    audits: bool = True  # run only; a sweep runs every audit
    rounding_seeds: tuple[int, int] = (1, 1)  # sweep only


# Every workload keeps its instances fixed by size and instance seed, and a
# round short, so that a run holds many rounds of identical work; the seed
# picks the rounding seeds. Each mechanism is exercised by one workload and
# bypassed by another.
# - fixed-audited: the default `actsched run` + `verify`, where the O(n^2 m)
#   consistency audit takes most of the pipeline.
# - fixed-bare: audits off over 100 machines, so ranking and stepping do the
#   work; an audit change is bypassed here.
# - double-default: guess-and-double from the default guess, with many small
#   steps on few kept machines, phase restarts and large step logs.
# - oracle-sweep: `actsched sweep` in oracle mode; branch-and-bound and the
#   rounding replays do nearly all the work, the engine almost none.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixed-audited", "run", ALL_MODELS, m=(50, 6), n=(200, 24), per_model=(1, 1)),
        Workload(
            "fixed-bare", "run", ("uniform", "power_law"), m=(100, 8), n=(300, 30), per_model=(1, 1), audits=False
        ),
        Workload("double-default", "run", ALL_MODELS, m=(20, 5), n=(100, 16), per_model=(1, 1), alpha="double"),
        Workload(
            "oracle-sweep", "sweep", ALL_MODELS, m=(6, 4), n=(12, 6), per_model=(12, 2), rounding_seeds=(10, 3)
        ),
    )
}


@dataclass
class Outcome:
    """Results of one benchmark run, before they are turned into metrics."""

    setup_s: list[float] = field(default_factory=list)  # normalised seconds (REF_S)
    wall_s: list[float] = field(default_factory=list)  # raw seconds of the operations, per round
    log_bytes: list[int] = field(default_factory=list)  # per round
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failed_by_kind: dict[str, int] = field(default_factory=dict)
    verify_problem_kinds: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)  # failed checks: output not correct
    errors: list[str] = field(default_factory=list)  # operations that raised
    layers: list[dict[str, float]] = field(default_factory=list)  # traced, per round
    self_times: list[dict[str, float]] = field(default_factory=list)  # traced self seconds, per round
    # First round: integer makespan / L of each run, and its steps
    # above the potential bound of 2/n (with audits, `actsched run` exits 3).
    makespan_ratios: list[float] = field(default_factory=list)
    step_breaks: list[int] = field(default_factory=list)
    sweep_quality: dict[str, list[float]] = field(default_factory=dict)  # row values, first round
    oracle_B: dict[str, set[float]] = field(default_factory=dict)  # B of the sweep rows, by instance
    op_parts: dict[str, list[dict[str, float]]] = field(default_factory=dict)  # normalised part seconds, per round
    setup_layers: list[dict[str, float]] = field(default_factory=list)  # traced, per set-up

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failed_by_kind[kind] = self.failed_by_kind.get(kind, 0) + 1

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems[:5])


def import_actsched():
    """Import the package afresh, so every set-up pays the module imports."""
    for name in [k for k in sys.modules if k == "actsched" or k.startswith("actsched.")]:
        del sys.modules[name]
    pkg = importlib.import_module("actsched")
    importlib.import_module("actsched.experiment")
    return pkg


def rounding_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


# -- set-up ----------------------------------------------------------------------


def make_run_inputs(pkg, w: Workload, seed: int, tiny: bool, workdir: Path) -> list:
    """Generate, save and load the workload's instances, as `gen` then `run`
    would; returns (label, instance, RunConfig) tuples. Instance seeds
    are 0..per_model-1; the seed picks only the rounding seeds, since the
    work of a run varies with the instance (README.md, Workloads)."""
    size = 1 if tiny else 0
    experiment = pkg.experiment
    runs = []
    audits = experiment.CHECK_FAMILIES if w.audits else ()
    for model in w.models:
        for k in range(w.per_model[size]):
            cfg = pkg.GeneratorConfig(m=w.m[size], n=w.n[size], seed=k, ptime_model=model)
            instance = pkg.instances.generate(cfg)
            label = f"{model}-m{cfg.m}-n{cfg.n}-s{k}"
            path = workdir / f"{label}.json"
            pkg.instances.save_instance(instance, path)
            instance = pkg.instances.load_instance(path)
            if w.alpha == "double":
                run_cfg = experiment.RunConfig(alpha_mode="double", seed=rounding_seed(seed, k), checks=audits)
            else:
                run_cfg = experiment.RunConfig(
                    alpha_mode="fixed",
                    alpha_value=sum(instance.costs()) / 4,
                    seed=rounding_seed(seed, k),
                    checks=audits,
                )
            runs.append((label, instance, run_cfg))
    return runs


def sweep_docs(w: Workload, seed: int, tiny: bool) -> dict[str, dict]:
    """One sweep config per instance of the grid, so that each timed
    operation is short (see README.md, Workloads). The grid is fixed by
    size and seed range: branch-and-bound node counts vary about 1000x
    between instance seeds of one size, so the seed only picks the rounding
    seeds."""
    size = 1 if tiny else 0
    r = w.rounding_seeds[size]
    return {
        f"{model}-s{iseed}": {
            "cells": [
                {
                    "m": w.m[size],
                    "n": w.n[size],
                    "model": model,
                    "instance_seeds": [iseed],
                    "rounding_seeds": [seed * r + k for k in range(r)],
                }
            ],
            "alpha_mode": "oracle",
        }
        for model in w.models
        for iseed in range(w.per_model[size])
    }


def make_sweep_inputs(pkg, w: Workload, seed: int, tiny: bool, workdir: Path):
    """Write the sweep configs as `sweep --config` reads them, and generate,
    save and load the grid's instances for the oracle checks."""
    docs = sweep_docs(w, seed, tiny)
    configs = []
    instances = {}
    for key, doc in docs.items():
        config_path = workdir / f"sweep-{key}.json"
        config_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        configs.append((key, config_path))
        for cell in doc["cells"]:
            for iseed in cell["instance_seeds"]:
                cfg = pkg.GeneratorConfig(m=cell["m"], n=cell["n"], seed=iseed, ptime_model=cell["model"])
                instance = pkg.instances.generate(cfg)
                label = pkg.experiment.sweep_cell_label(cfg.m, cfg.n, iseed, cfg.ptime_model)
                path = workdir / f"{label}.json"
                pkg.instances.save_instance(instance, path)
                instances[label] = pkg.instances.load_instance(path)
    return configs, docs, instances


# -- rounds ----------------------------------------------------------------------


def _record(out: Outcome, label: str, parts: dict[str, float], ref_before: float) -> None:
    """Keep an operation's part times, normalised by the reference kernel
    times just before and just after it."""
    scale = 2 * REF_S / (ref_before + reference_s())
    out.op_parts.setdefault(label, []).append({part: t * scale for part, t in parts.items()})


def run_round(pkg, runs, workdir: Path, out: Outcome, tracer: Tracer | None) -> None:
    experiment = pkg.experiment
    first_round = not out.wall_s
    wall = 0.0
    written = 0
    for label, instance, cfg in runs:
        logdir = workdir / label
        out.attempted += 2  # run (pipeline + logs) and verify
        ref = reference_s()
        t0 = perf_counter()
        try:
            artifacts = experiment.run_pipeline(instance, cfg)
            t1 = perf_counter()
            experiment.write_run_logs(artifacts, logdir)
            t2 = perf_counter()
            problems = experiment.verify_logdir(logdir)
            t3 = perf_counter()
        except Exception as exc:  # an operation that raises has failed; go on with the rest
            out.fail("run")
            out.fail("verify")
            out.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        _record(out, label, {"pipeline": t1 - t0, "logs": t2 - t1, "verify": t3 - t2}, ref)
        wall += t3 - t0
        found = checks.check_run(instance, artifacts)
        found += checks.check_logs(artifacts, logdir)
        found += checks.unexpected_verify_problems(problems)
        out.check([f"{label}: {p}" for p in found])
        if first_round:
            out.makespan_ratios.append(artifacts.row["makespan_ratio"])
            out.step_breaks.append(checks.step_bound_breaks(artifacts))
        if artifacts.row["invariant_violations"] > 0:  # `actsched run` exits 3
            out.fail("run")
        if problems:
            out.fail("verify")
            for p in problems:
                kind = "coverage" if "coverage" in p else "delta_phi" if "delta_phi" in p else "other"
                out.verify_problem_kinds[kind] = out.verify_problem_kinds.get(kind, 0) + 1
        written += _dir_bytes(logdir)
        if tracer is not None:
            tracer.count("experiment.steps_csv_bytes", (logdir / "steps.csv").stat().st_size)
        del artifacts
    out.wall_s.append(wall)
    out.log_bytes.append(written)


def check_oracle(pkg, instances: dict, out: Outcome) -> None:
    """Every B the sweep rows reported equals the MILP optimum of its
    instance, and the oracle's witness is feasible and costs that optimum.
    Made after the rounds, so that SciPy and the MILPs stay out of the
    process's peak memory while it runs the workload."""
    for label, inst in instances.items():
        reference = checks.milp_optimum(inst)
        out.check([f"{label}: {p}" for p in checks.check_oracle_B(out.oracle_B.get(label, set()), reference)])
        result = pkg.experiment.oracle_solve(inst)
        out.check([f"{label}: {p}" for p in checks.check_oracle_witness(inst, reference, result.witness)])


def run_sweep_round(pkg, configs, docs: dict, workdir: Path, out: Outcome) -> None:
    experiment = pkg.experiment
    wall = 0.0
    written = 0
    for key, config_path in configs:
        report = workdir / f"report-{key}.csv"
        ref = reference_s()
        t0 = perf_counter()
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        t1 = perf_counter()
        aggregate = experiment.run_sweep(doc, report)
        t2 = perf_counter()
        _record(out, f"sweep-{key}", {"config": t1 - t0, "pipeline": t2 - t1}, ref)
        wall += t2 - t0
        aggregate_path = report.with_name(report.stem + "_aggregate.csv")
        written += report.stat().st_size + aggregate_path.stat().st_size
        check_sweep(pkg, docs[key], report, aggregate_path, aggregate, out)
    out.wall_s.append(wall)
    out.log_bytes.append(written)


def check_sweep(pkg, doc: dict, report: Path, aggregate_path: Path, aggregate: dict, out: Outcome) -> None:
    """Check one sweep's output: rows against the grid, aggregates against
    the rows; keep each row's B for ``check_oracle``. One operation per row
    plus one for the aggregate table."""
    rows = checks.read_csv(report)
    expected = [
        (pkg.experiment.sweep_cell_label(c["m"], c["n"], i, c["model"]), str(r))
        for c in doc["cells"]
        for i in c["instance_seeds"]
        for r in c["rounding_seeds"]
    ]
    got = [(row["instance"], row["seed"]) for row in rows]
    if got != expected:
        out.check([f"sweep rows {got[:3]}... do not match the grid {expected[:3]}..."])
    for row in rows:
        out.attempted += 1
        if int(row["invariant_violations"]) > 0:
            out.fail("sweep-row")
            continue
        out.oracle_B.setdefault(row["instance"], set()).add(float(row["B"]))
        out.check(checks.check_sweep_row(row))
    out.attempted += 1
    out.check(checks.check_sweep_aggregate(rows, checks.read_csv(aggregate_path), aggregate))
    if not out.wall_s:
        for name in ("cost_ratio", "makespan_ratio"):
            out.sweep_quality.setdefault(name, []).extend(float(row[name]) for row in rows)


# -- one benchmark run -------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False
) -> Outcome:
    """Set up, run whole rounds for ``seconds``, check, and return the outcome."""
    w = WORKLOADS[name]
    seed %= 2**32  # instance and rounding seeds must be non-negative
    workdir.mkdir(parents=True, exist_ok=True)
    out = Outcome()
    tracer = Tracer() if trace else None
    make_inputs = make_run_inputs if w.kind == "run" else make_sweep_inputs
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.uninstall()
            tracer.reset()
        ref = reference_s()
        t0 = perf_counter()
        pkg = import_actsched()
        if tracer is not None:
            tracer.install(pkg)
        inputs = make_inputs(pkg, w, seed, tiny, workdir)
        out.setup_s.append((perf_counter() - t0) * 2 * REF_S / (ref + reference_s()))
        if tracer is not None:
            out.setup_layers.append(tracer.snapshot())

    if w.kind == "sweep":
        configs, docs, instances = inputs
    start = perf_counter()
    while True:
        gc.collect()
        # A set-up timed and thrown away before every round, so that the
        # median of setup_s has as many samples as the rounds have, spread
        # over the whole run like theirs.
        ref = reference_s()
        t0 = perf_counter()
        make_inputs(import_actsched(), w, seed, tiny, workdir)
        out.setup_s.append((perf_counter() - t0) * 2 * REF_S / (ref + reference_s()))
        if tracer is not None:
            tracer.reset()
        if w.kind == "run":
            run_round(pkg, inputs, workdir, out, tracer)
        else:
            run_sweep_round(pkg, configs, docs, workdir, out)
        if tracer is not None:
            out.layers.append(tracer.snapshot())
            out.self_times.append({k: v[2] for k, v in tracer.spans.items()})
        if perf_counter() - start >= seconds:
            break
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    if w.kind == "sweep":
        check_oracle(pkg, instances, out)
    return out


def end_to_end(out: Outcome) -> dict[str, tuple[float, str]]:
    """Times are normalised seconds (see REF_S), the median over repeats of
    identical work: ``setup_s`` over the set-ups, the others summed over
    operations of each part's median over the rounds."""

    def median(part: str) -> float:
        return sum(statistics.median(r[part] for r in rounds) for rounds in out.op_parts.values())

    parts = {part for rounds in out.op_parts.values() for part in rounds[0]}
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "pipeline_s": (median("pipeline"), "s"),
        "wall_s": (sum(median(part) for part in sorted(parts)), "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "log_mb": (statistics.median(out.log_bytes) / 1e6, "MB"),
    }


def per_layer(out: Outcome) -> dict[str, float]:
    """Per-round means of the traced values; ``instances.*`` adds the median
    set-up's share, since set-up is where those functions mostly run."""
    values = {}
    for name, _, _ in PER_LAYER:
        values[name] = statistics.fmean(r[name] for r in out.layers)
        if name.startswith("instances."):
            values[name] += statistics.median(s[name] for s in out.setup_layers)
    return values
