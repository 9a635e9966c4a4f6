"""Per-layer tracing for the traced benchmark run.

The tracer replaces public functions of the ``actsched`` modules with timing
wrappers, from this file only: nothing under ``src/`` knows about it. Each
wrapper records calls, total seconds and self seconds (total minus the time
of wrapped calls made inside it), and may pass the function's result to a
hook that counts work done (steps, nodes, phases, fallbacks).

A function imported by name into another module is patched in every module
that looks it up at call time, so the wrapper sees each call exactly once.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

# (metric prefix, owner path, attribute). The owner is a module or a class of
# the actsched package; the first owner listed for a prefix defines the
# original function.
PATCHES = (
    ("instances.generate", "instances", "generate"),
    ("instances.generate", "experiment", "generate"),
    ("instances.load_instance", "instances", "load_instance"),
    ("instances.load_instance", "experiment", "load_instance"),
    ("fractional.process_job", "fractional.FractionalState", "process_job"),
    ("fractional.order_and_split", "fractional.FractionalState", "order_and_split"),
    ("rounding.process_job", "rounding.RoundingState", "process_job"),
    ("rounding.replay_rounding", "experiment", "replay_rounding"),
    ("doubling.run_with_doubling", "doubling", "run_with_doubling"),
    ("doubling.run_with_doubling", "experiment", "run_with_doubling"),
    ("doubling.snapshot_phase", "doubling", "snapshot_phase"),
    ("doubling.snapshot_phase", "experiment", "snapshot_phase"),
    ("oracle.oracle_solve", "experiment", "oracle_solve"),
    ("experiment.audit_job", "experiment", "audit_job"),
    ("experiment.audit_consistency", "experiment", "audit_consistency"),
    ("experiment.audit_steps", "experiment", "audit_steps"),
    ("experiment.audit_rounding", "experiment", "audit_rounding"),
    ("experiment.write_run_logs", "experiment", "write_run_logs"),
    ("experiment.verify_logdir", "experiment", "verify_logdir"),
    ("experiment.run_pipeline", "experiment", "run_pipeline"),
    ("experiment.run_sweep", "experiment", "run_sweep"),
)

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    ("instances.generate.s", "s", "lower"),
    ("instances.load_instance.s", "s", "lower"),
    ("fractional.process_job.s", "s", "lower"),
    ("fractional.order_and_split.s", "s", "lower"),
    ("fractional.order_and_split.calls", "count", "lower"),
    ("fractional.steps_per_job.p50", "count", "lower"),
    ("fractional.steps_per_job.p95", "count", "lower"),
    ("fractional.steps_per_job.max", "count", "lower"),
    ("fractional.clamps", "count", "lower"),
    ("rounding.process_job.s", "s", "lower"),
    ("rounding.process_job.calls", "count", "lower"),
    ("rounding.replay_rounding.s", "s", "lower"),
    ("rounding.fallbacks", "count", "lower"),
    ("doubling.run_with_doubling.self_s", "s", "lower"),
    ("doubling.snapshot_phase.s", "s", "lower"),
    ("doubling.phases", "count", "lower"),
    ("doubling.jobs_recovered", "count", "lower"),
    ("doubling.kept_ratio", "ratio", "higher"),
    ("oracle.oracle_solve.s", "s", "lower"),
    ("oracle.nodes", "count", "lower"),
    ("experiment.audit_job.s", "s", "lower"),
    ("experiment.audit_consistency.s", "s", "lower"),
    ("experiment.audit_steps.s", "s", "lower"),
    ("experiment.audit_rounding.s", "s", "lower"),
    ("experiment.write_run_logs.s", "s", "lower"),
    ("experiment.steps_csv_mb", "MB", "lower"),
    ("experiment.verify_logdir.s", "s", "lower"),
    ("experiment.run_pipeline.self_s", "s", "lower"),
    ("experiment.run_sweep.self_s", "s", "lower"),
)


def _resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile of values by the nearest-rank rule (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


class Tracer:
    """Span statistics and work counters for one traced benchmark run."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # prefix -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.steps_per_job: list[int] = []
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.spans = {}
        self.counts = {}
        self.steps_per_job = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, prefix: str, fn):
        hook = _HOOKS.get(prefix)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._child_time.pop()
                span = self.spans.setdefault(prefix, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
                if self._child_time:
                    self._child_time[-1] += elapsed
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in PATCHES; undo with ``uninstall``."""
        wrapped: dict[str, object] = {}
        for prefix, owner_path, attr in PATCHES:
            owner = _resolve(package, owner_path)
            original = getattr(owner, attr)
            if prefix not in wrapped:
                wrapped[prefix] = self._wrap(prefix, original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped[prefix])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def seconds(self, prefix: str, kind: int = 1) -> float:
        return self.spans.get(prefix, [0, 0.0, 0.0])[kind]

    def calls(self, prefix: str) -> int:
        return int(self.spans.get(prefix, [0, 0.0, 0.0])[0])

    def snapshot(self) -> dict[str, float]:
        """Per-layer values recorded since the last reset, by metric name."""
        kept = self.counts.get("doubling.jobs_kept", 0)
        covered = self.counts.get("doubling.jobs_covered", 0)
        values = {
            "instances.generate.s": self.seconds("instances.generate"),
            "instances.load_instance.s": self.seconds("instances.load_instance"),
            "fractional.process_job.s": self.seconds("fractional.process_job"),
            "fractional.order_and_split.s": self.seconds("fractional.order_and_split"),
            "fractional.order_and_split.calls": self.calls("fractional.order_and_split"),
            "fractional.steps_per_job.p50": nearest_rank(self.steps_per_job, 0.50),
            "fractional.steps_per_job.p95": nearest_rank(self.steps_per_job, 0.95),
            "fractional.steps_per_job.max": float(max(self.steps_per_job, default=0)),
            "fractional.clamps": self.counts.get("fractional.clamps", 0),
            "rounding.process_job.s": self.seconds("rounding.process_job"),
            "rounding.process_job.calls": self.calls("rounding.process_job"),
            "rounding.replay_rounding.s": self.seconds("rounding.replay_rounding"),
            "rounding.fallbacks": self.counts.get("rounding.fallbacks", 0),
            "doubling.run_with_doubling.self_s": self.seconds("doubling.run_with_doubling", 2),
            "doubling.snapshot_phase.s": self.seconds("doubling.snapshot_phase"),
            "doubling.phases": self.counts.get("doubling.phases", 0),
            "doubling.jobs_recovered": covered - kept,
            "doubling.kept_ratio": kept / covered if covered else 0.0,
            "oracle.oracle_solve.s": self.seconds("oracle.oracle_solve"),
            "oracle.nodes": self.counts.get("oracle.nodes", 0),
            "experiment.audit_job.s": self.seconds("experiment.audit_job"),
            "experiment.audit_consistency.s": self.seconds("experiment.audit_consistency"),
            "experiment.audit_steps.s": self.seconds("experiment.audit_steps"),
            "experiment.audit_rounding.s": self.seconds("experiment.audit_rounding"),
            "experiment.write_run_logs.s": self.seconds("experiment.write_run_logs"),
            "experiment.steps_csv_mb": self.counts.get("experiment.steps_csv_bytes", 0) / 1e6,
            "experiment.verify_logdir.s": self.seconds("experiment.verify_logdir"),
            "experiment.run_pipeline.self_s": self.seconds("experiment.run_pipeline", 2),
            "experiment.run_sweep.self_s": self.seconds("experiment.run_sweep", 2),
        }
        return values


# -- result hooks: counts read from what the wrapped function returned ----------


def _after_process_job(tracer: Tracer, outcomes) -> None:
    tracer.steps_per_job.append(len(outcomes))


def _after_run_pipeline(tracer: Tracer, artifacts) -> None:
    tracer.count(
        "fractional.clamps",
        sum(p.fraction_clamps + p.coverage_clamps for p in artifacts.phases),
    )
    tracer.count("rounding.fallbacks", artifacts.rounding.fallback_count)


def _after_replay(tracer: Tracer, rstate) -> None:
    tracer.count("rounding.fallbacks", rstate.fallback_count)


def _after_doubling(tracer: Tracer, result) -> None:
    # covered_y holds every job a phase covered, the one that tripped it
    # included; jobs_processed counts the ones the phase kept.
    tracer.count("doubling.phases", len(result.phases))
    tracer.count("doubling.jobs_covered", sum(len(p.covered_y) for p in result.phases))
    tracer.count("doubling.jobs_kept", sum(p.jobs_processed for p in result.phases))


def _after_oracle(tracer: Tracer, result) -> None:
    tracer.count("oracle.nodes", result.nodes_explored)


_HOOKS = {
    "fractional.process_job": _after_process_job,
    "experiment.run_pipeline": _after_run_pipeline,
    "rounding.replay_rounding": _after_replay,
    "doubling.run_with_doubling": _after_doubling,
    "oracle.oracle_solve": _after_oracle,
}
