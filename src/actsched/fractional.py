"""Online fractional engine for activation-cost scheduling.

The engine keeps a fractional activation level x_i per machine and fractional
assignments y_ij per (machine, job). Each arriving job is covered (its
fractions sum to 1) by a loop of small steps: machines are ranked by a
virtual cost, the cheapest prefix gets a multiplicative bump to x that also
unlocks assignment capacity, and when the ranking pivots on a fully active
machine that machine absorbs a slice of the job directly, sized inversely to
its exponential load penalty.

All processing times are divided by the makespan budget L on entry, so loads
are tracked in units of L; startup costs are rescaled so the offline optimum
lands near m. A job is only ever ranked over kept machines on which it fits
within the budget (p_ij <= L): the offline optimum never uses any other pair,
so such pairs (including the finite sentinel of restricted instances) get no
fractional mass. The engine is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance

GROWTH_BASE_DEFAULT = 1.05
GROWTH_BASE_WINDOW = (1.0, 13.0 / 12.0)  # open interval for the load penalty base
COVERAGE_TOL = 1e-9
DEFAULT_STEP_CAP = 10**7

TYPE_A = "A"
TYPE_B = "B"


class GuessTooSmallError(Exception):
    """The optimum guess is too low: pre-processing discarded every machine,
    or every machine a job fits on within the budget."""


class StalledStepError(Exception):
    """A step made no coverage progress after clamping (engine bug guard)."""


class StepCapError(Exception):
    """A single job exceeded the per-job step cap."""


@dataclass(frozen=True, slots=True)
class StepOutcome:
    step_type: str
    machines_touched: tuple[int, ...]
    delta_potential: float
    delta_coverage: float


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


def effective_capacity(x_before: float, delta_x: float, p_ij: float) -> float:
    """Assignment capacity unlocked by raising x from x_before by delta_x."""
    if delta_x < 0:
        raise ValueError("delta_x must be >= 0")
    return min(2.0 * x_before, 6.0 * delta_x / p_ij)


class FractionalState:
    """Mutable state of one covering phase; confined to a single run."""

    def __init__(
        self,
        instance: Instance,
        alpha: float,
        a: float = GROWTH_BASE_DEFAULT,
        step_cap: int = DEFAULT_STEP_CAP,
    ) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        lo, hi = GROWTH_BASE_WINDOW
        if not lo < a < hi:
            raise ValueError(f"a must lie strictly inside ({lo}, {hi:.6f})")
        self.instance = instance
        self.m = instance.m
        self.n = instance.n_declared
        self.a = a
        self.alpha = alpha
        self.step_cap = step_cap
        self.p = instance.scaled_ptimes()

        # Cost normalization: with alpha equal to the offline optimum, the
        # optimum of the rescaled instance sits in [m, 2m]. Machines dearer
        # than m after rescaling cannot be part of such an optimum and are
        # dropped for the phase; machines at or below cost 1 are cheap enough
        # to open outright.
        scale = self.m / alpha
        raw = [c * scale for c in instance.costs()]
        self.discarded = [c > self.m for c in raw]
        if all(self.discarded):
            raise GuessTooSmallError(
                f"all {self.m} machines have rescaled cost > m={self.m} at guess {alpha}"
            )
        self.scaled_costs = [max(c, 1.0) for c in raw]
        self.x = [0.0] * self.m
        self.fully_active = [False] * self.m
        for i in range(self.m):
            if self.discarded[i]:
                continue
            if raw[i] <= 1.0:
                self.x[i] = 1.0
                self.fully_active[i] = True
            else:
                self.x[i] = 1.0 / self.m

        self.load = [0.0] * self.m
        self.y: dict[int, list[float]] = {}
        self.coverage: dict[int, float] = {}
        self.phi = self.potential()

        # Audit counters: how often the y <= min(2x, 1) cap or the
        # sum(y) <= 1 cap truncated a raw increment.
        self.fraction_clamps = 0
        self.coverage_clamps = 0
        self.steps_total = 0
        # (job, step_idx, outcome), append-only.
        self.step_log: list[tuple[int, int, StepOutcome]] = []

        self._inv_cn = [
            1.0 / (c * self.n) if self.n > 0 else 0.0 for c in self.scaled_costs
        ]

    # -- potential -----------------------------------------------------------

    def _phi_i(self, i: int) -> float:
        c = self.scaled_costs[i]
        if self.fully_active[i]:
            return c * self.a ** (self.load[i] - 1.0)
        return c * self.x[i]

    def potential(self) -> float:
        """Recompute the cumulative potential over non-discarded machines."""
        return sum(self._phi_i(i) for i in range(self.m) if not self.discarded[i])

    # -- ranking -------------------------------------------------------------

    def virtual_cost(self, i: int, j: int) -> float:
        if self.discarded[i]:
            raise ValueError(f"machine {i} was discarded by pre-processing")
        c = self.scaled_costs[i]
        p_ij = self.p[j][i]
        if self.fully_active[i]:
            return c * self.a ** (self.load[i] - 1.0) * p_ij
        return c * p_ij

    def usable_machines(self, j: int) -> list[int]:
        """Kept machines on which job j fits within the budget (p_ij <= L)."""
        prow = self.p[j]
        return [i for i in range(self.m) if not self.discarded[i] and prow[i] <= 1.0]

    def order_and_split(self, j: int) -> tuple[list[int], int | None]:
        """Rank the usable machines of job j by virtual cost (ties: lower id)
        and split the list into the maximal prefix whose x-mass stays strictly
        below 1, plus the first machine after it (None if the prefix is
        everything)."""
        order = sorted(self.usable_machines(j), key=lambda i: (self.virtual_cost(i, j), i))
        prefix: list[int] = []
        total = 0.0
        pivot: int | None = None
        for i in order:
            if total + self.x[i] < 1.0:
                prefix.append(i)
                total += self.x[i]
            else:
                pivot = i
                break
        return prefix, pivot

    # -- steps ---------------------------------------------------------------

    def _grant(self, i: int, j: int, raw_inc: float) -> tuple[float, float]:
        """Add up to raw_inc to y_ij, clamped so y_ij <= min(2 x_i, 1) and the
        job's total coverage stays <= 1. Returns (delta_phi, delta_coverage)."""
        yrow = self.y[j]
        room_frac = min(2.0 * self.x[i], 1.0) - yrow[i]
        room_cov = 1.0 - self.coverage[j]
        inc = min(raw_inc, room_frac, room_cov)
        if inc < 0.0:
            inc = 0.0
        if room_frac < raw_inc:
            self.fraction_clamps += 1
        if room_cov < raw_inc:
            self.coverage_clamps += 1
        if inc == 0.0:
            return 0.0, 0.0
        phi_before = self._phi_i(i)
        yrow[i] += inc
        self.load[i] += self.p[j][i] * inc
        self.coverage[j] += inc
        return self._phi_i(i) - phi_before, inc

    def _raise_activation(self, i: int, j: int) -> tuple[float, float]:
        """Multiplicative x-bump plus the assignment capacity it unlocks."""
        x_old = self.x[i]
        x_new = min(x_old * (1.0 + self._inv_cn[i]), 1.0)
        dx = x_new - x_old
        cap = effective_capacity(x_old, dx, self.p[j][i])
        phi_before = self._phi_i(i)
        self.x[i] = x_new
        if x_new == 1.0:
            self.fully_active[i] = True
        d_phi = self._phi_i(i) - phi_before
        d_phi2, d_cov = self._grant(i, j, cap)
        return d_phi + d_phi2, d_cov

    def execute_step(self, j: int) -> StepOutcome:
        prefix, pivot = self.order_and_split(j)
        type_b = pivot is not None and self.fully_active[pivot]
        d_phi = 0.0
        d_cov = 0.0
        touched: list[int] = []
        for i in prefix:
            dp, dc = self._raise_activation(i, j)
            d_phi += dp
            d_cov += dc
            touched.append(i)
        if pivot is not None:
            if type_b:
                # Pivot is fully active: grant it a slice sized by its
                # exponential load penalty; its x stays at 1.
                eta = self.virtual_cost(pivot, j)
                dp, dc = self._grant(pivot, j, 6.0 / (eta * self.n))
            else:
                dp, dc = self._raise_activation(pivot, j)
            d_phi += dp
            d_cov += dc
            touched.append(pivot)
        outcome = StepOutcome(
            step_type=TYPE_B if type_b else TYPE_A,
            machines_touched=tuple(touched),
            delta_potential=d_phi,
            delta_coverage=d_cov,
        )
        self.step_log.append((j, self.steps_total, outcome))
        self.steps_total += 1
        self.phi += d_phi
        if d_cov <= 0.0:
            raise StalledStepError(
                f"job {j}: step produced no coverage (coverage={self.coverage[j]!r})"
            )
        return outcome

    def process_job(self, j: int) -> list[StepOutcome]:
        """Run steps until job j is covered; returns the step outcomes.

        Jobs may start at any index (a phase can pick up mid-stream), but a
        job is covered at most once per state and its y row freezes after.
        Raises GuessTooSmallError, leaving the state untouched, when the job
        fits within the budget on no kept machine: at a guess of at least the
        optimum, every machine the optimum uses is kept.
        """
        if j in self.y:
            raise ValueError(f"job {j} was already processed in this phase")
        if not 0 <= j < len(self.p):
            raise ValueError(f"no job {j} in instance")
        if not self.usable_machines(j):
            raise GuessTooSmallError(
                f"job {j}: no kept machine with p_ij <= L at guess {self.alpha}"
            )
        self.y[j] = [0.0] * self.m
        self.coverage[j] = 0.0
        outcomes: list[StepOutcome] = []
        while self.coverage[j] < 1.0 - COVERAGE_TOL:
            if len(outcomes) >= self.step_cap:
                raise StepCapError(
                    f"job {j}: exceeded step cap {self.step_cap} "
                    f"(coverage={self.coverage[j]!r}, x={self.x!r}, load={self.load!r})"
                )
            outcomes.append(self.execute_step(j))
        return outcomes

    # -- observables ----------------------------------------------------------

    def fractional_cost(self) -> float:
        """Activation cost of the fractional solution, in rescaled cost units."""
        return sum(
            self.scaled_costs[i] * self.x[i]
            for i in range(self.m)
            if not self.discarded[i]
        )

    def fractional_makespan(self) -> float:
        """Maximum fractional load, in units of L."""
        return max(
            (self.load[i] for i in range(self.m) if not self.discarded[i]),
            default=0.0,
        )

    def job_fraction(self, j: int) -> JobFraction:
        if j not in self.y:
            raise ValueError(f"job {j} has not been processed")
        return JobFraction(
            job=j,
            x=tuple(self.x),
            y=tuple(self.y[j]),
            p_scaled=self.p[j],
            eligible=tuple(not d for d in self.discarded),
        )


def preprocess(
    instance: Instance,
    alpha: float,
    a: float = GROWTH_BASE_DEFAULT,
    step_cap: int = DEFAULT_STEP_CAP,
) -> FractionalState:
    """Build the phase state for a given optimum guess alpha."""
    return FractionalState(instance, alpha, a=a, step_cap=step_cap)
