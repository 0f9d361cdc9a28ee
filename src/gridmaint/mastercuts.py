"""Relaxed master problem and the optimality-cut families.

The master is one model that grows a row at a time: the binary schedule, one
recourse variable per scenario (or per scenario and day when the per-period
family is active), the chance-mode rows and the pooled optimality and chance
cuts.  Its recourse variables and their lower bounds come from the ``(n, T)``
day bounds.  Every family adds one cut per recourse variable, with
coefficient 1 on that variable, and every cut comes from
:func:`cut_over_periods`; from weakest to strongest: the classical integer
L-shaped cut, the scheduled period alone (complement terms dropped), the
same-cost sets of periods with identical operational cost, and the per-day
same-status sets built from status-vector equality.  The classical cut is
the scheduled-period cut with lower bound ``2L - q``: on the assignment rows
``sum_t v[c,t] = 1`` its complement terms ``sum_{t != t*} v[c,t]`` equal
``1 - v[c,t*]``, so it reads ``theta >= q - 2(q-L)(n - sum_c v[c,t*])``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import solver
from .caseio import RunConfig
from .chance import LinearCut
from .degrade import ScenarioSet
from .ucmodel import maintenance_cost_coeffs, period_status

log = logging.getLogger(__name__)

__all__ = ["MasterState", "MasterSolution", "cut_over_periods",
           "same_cost_periods", "same_status_periods"]


# ---------------------------------------------------------------------------
# Cut families
# ---------------------------------------------------------------------------

def cut_over_periods(schedule: dict[str, int], theta_key, q_value: float,
                     lower: float, period_sets: dict[str, set[int]],
                     name: str) -> LinearCut:
    """Optimality cut with coefficients over each component's period set.

    Singleton sets ``{t*}`` give the cut that drops the complement terms
    (and, with lower bound ``2L - q``, the classical cut); the same-cost
    (T-hat) and same-status (T-tilde) sets strengthen it.
    """
    diff = q_value - lower
    coeffs: dict[tuple[str, int], float] = {}
    for comp, periods in period_sets.items():
        if schedule[comp] not in periods:
            raise ValueError(f"{comp}: period set must contain the scheduled period")
        for t in periods:
            coeffs[(comp, t)] = -diff
    return LinearCut.make(coeffs, rhs=q_value - diff * len(schedule), sense=">=",
                          theta_key=theta_key, name=name)


def same_cost_periods(schedule: dict[str, int], failure_days: np.ndarray,
                      tbar: int) -> list[dict[str, set[int]]]:
    """Periods with identical first+second stage behaviour per component.

    Predictive maintenance pins the single scheduled period; a component that
    failed first behaves the same whenever maintenance lands at or after the
    failure day.  ``failure_days`` is ``(n, c)`` with columns in ``schedule``
    order; the result holds one period-set map per scenario row.
    """
    comps = list(schedule)
    return [{comp: {schedule[comp]} if schedule[comp] < xi else set(range(xi, tbar + 1))
             for comp, xi in zip(comps, row)}
            for row in np.asarray(failure_days).tolist()]


def same_status_periods(schedule: dict[str, int], failure_days: np.ndarray,
                        day: int, cfg: RunConfig,
                        kinds: dict[str, str]) -> list[dict[str, set[int]]]:
    """Periods that leave each component's day-``day`` availability unchanged.

    ``failure_days`` is ``(n, c)`` with columns in ``schedule`` order; the
    result holds one period-set map per scenario row.
    """
    comps = list(schedule)
    bits = period_status(failure_days, day, cfg, comps, kinds)
    at = np.array([schedule[comp] - 1 for comp in comps], dtype=int).reshape(1, 1, -1)
    same = (bits == np.take_along_axis(bits, at, axis=0)).transpose(1, 2, 0).tolist()
    return [{comp: {m for m, hit in enumerate(row[j], start=1) if hit}
             for j, comp in enumerate(comps)} for row in same]


# ---------------------------------------------------------------------------
# Master problem
# ---------------------------------------------------------------------------

@dataclass
class MasterSolution:
    status: str
    schedule: dict[str, int]
    objective: float
    bound: float


class MasterState:
    """Growing relaxed master: one model, and the cut pools that fed it."""

    def __init__(self, hprime: tuple[str, ...], scenarios: ScenarioSet,
                 cfg: RunConfig, cost_of: dict[str, tuple[float, float]],
                 kinds: dict[str, str], day_bounds: np.ndarray):
        if scenarios.size < 1:
            raise ValueError("master needs at least one scenario")
        shape = (scenarios.size, cfg.horizon_days)
        if np.shape(day_bounds) != shape:
            raise ValueError(f"day bounds have shape {np.shape(day_bounds)}, "
                             f"expected {shape}")
        self.hprime = tuple(hprime)
        self.scenarios = scenarios
        self.cfg = cfg
        self.kinds = kinds
        self.per_day = cfg.cut_family == "optKT++"
        self.tbar = cfg.tbar
        self.opt_cuts: list[LinearCut] = []
        self.chance_cuts: list[LinearCut] = []
        self._seen: set = set()

        # expected first-stage cost coefficient per (component, period),
        # accumulated in scenario order
        self.cost_of = cost_of
        self.xi = scenarios.failure_days(self.hprime)
        self.obj_v: dict[tuple[str, int], float] = {}
        periods = np.arange(1, self.tbar + 1)
        for j, comp in enumerate(self.hprime):
            coeffs = maintenance_cost_coeffs(*cost_of[comp], self.xi[:, j, None],
                                             self.tbar, period=periods)
            expected = np.add.accumulate(scenarios.probs[:, None] * coeffs)[-1]
            for t, value in enumerate(expected.tolist(), start=1):
                self.obj_v[(comp, t)] = value

        # one recourse variable per scenario-day (optKT++) or per scenario,
        # bounded below by its day bounds
        bounds = np.asarray(day_bounds, dtype=float).tolist()
        if self.per_day:
            self.lower_bounds = {(k, t): b for k, row in enumerate(bounds)
                                 for t, b in enumerate(row, start=1)}
        else:
            self.lower_bounds = {k: sum(row) for k, row in enumerate(bounds)}

        # the model: each component's binaries and its assignment row, then
        # the recourse variables weighted by their scenario's probability
        self.spec = solver.ModelSpec("master")
        self.vidx: dict[tuple[str, int], int] = {}
        for comp in self.hprime:
            for t in range(1, self.tbar + 1):
                self.vidx[(comp, t)] = self.spec.add_binary(obj=self.obj_v[(comp, t)])
            self.spec.add_eq({self.vidx[(comp, t)]: 1.0
                              for t in range(1, self.tbar + 1)}, 1.0)
        self.tidx = {key: self.spec.add_var(
            lb=float(self.lower_bounds[key]),
            obj=float(scenarios.probs[key[0] if self.per_day else key]))
            for key in self.lower_bounds}

    # -- optimality cuts ------------------------------------------------------

    def optimality_cuts(self, schedule: dict[str, int],
                        day_vals: np.ndarray) -> list[LinearCut]:
        """The configured family's cuts at ``schedule``, one per recourse
        variable.

        ``day_vals`` is the ``(n, T, 2)`` array of :func:`decomp.day_values`;
        its bounds (index 1) are the recourse values the cuts impose.
        """
        family = self.cfg.cut_family
        schedule = {comp: schedule[comp] for comp in self.hprime}  # xi's column order
        n = self.scenarios.size
        # (theta key, q, period sets) per recourse variable
        if self.per_day:
            days = range(1, self.cfg.horizon_days + 1)
            ttilde = [same_status_periods(schedule, self.xi, t, self.cfg, self.kinds)
                      for t in days]
            terms = [((k, t), float(day_vals[k, t - 1, 1]), ttilde[t - 1][k])
                     for k in range(n) for t in days]
        else:
            sets = same_cost_periods(schedule, self.xi, self.tbar) \
                if family == "optK+" \
                else [{comp: {period} for comp, period in schedule.items()}] * n
            terms = [(k, sum(day_vals[k, :, 1].tolist()), sets[k]) for k in range(n)]
        cuts = []
        for key, q_value, periods in terms:
            lower = self.lower_bounds[key]
            if family == "intLS":
                lower = 2 * lower - q_value  # the classical cut (module docstring)
            cuts.append(cut_over_periods(schedule, key, q_value, lower, periods,
                                         family))
        return cuts

    # -- rows and pools -------------------------------------------------------

    def add_cut(self, cut: LinearCut, pool: str = "opt") -> bool:
        """Pool a cut and add its row, unless an identical one is pooled."""
        key = cut.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        (self.opt_cuts if pool == "opt" else self.chance_cuts).append(cut)
        self.add_static_row(cut)
        return True

    def add_static_row(self, cut: LinearCut) -> None:
        """Append ``cut`` as a row; naming a pair without a column raises."""
        missing = [pair for pair, _ in cut.v_coeffs if pair not in self.vidx]
        if missing:
            raise ValueError(f"cut {cut.name!r} names {missing}, which the master lacks")
        coeffs = {self.vidx[pair]: c for pair, c in cut.v_coeffs}
        if cut.theta_key is not None:
            coeffs[self.tidx[cut.theta_key]] = 1.0
        add = self.spec.add_le if cut.sense == "<=" else self.spec.add_ge
        add(coeffs, cut.rhs)

    @property
    def num_rows(self) -> int:
        """Rows of the master model."""
        return self.spec.num_rows

    def first_stage_costs(self, schedule: dict[str, int]) -> np.ndarray:
        """First-stage cost of ``schedule`` in every scenario, summed in H' order."""
        total = np.zeros(self.scenarios.size)
        for j, comp in enumerate(self.hprime):
            total += maintenance_cost_coeffs(*self.cost_of[comp], self.xi[:, j],
                                             self.tbar, period=schedule[comp])
        return total

    def cut_log(self) -> str:
        """One pooled inequality per line, for audit."""
        rows = [str(cut) for cut in self.chance_cuts]
        rows += [str(cut) for cut in self.opt_cuts]
        return "\n".join(rows) + ("\n" if rows else "")

    # -- solving ---------------------------------------------------------------

    def solve(self, tolerance: float = 1e-9,
              time_limit: float | None = None) -> MasterSolution:
        outcome = solver.solve(self.spec, tolerance=tolerance, time_limit=time_limit)
        if outcome.status != "optimal":
            return MasterSolution(outcome.status, {}, float("inf"), -float("inf"))
        schedule = {}
        for comp in self.hprime:
            choices = [t for t in range(1, self.tbar + 1)
                       if outcome.x[self.vidx[(comp, t)]] > 0.5]
            if len(choices) != 1:
                raise solver.SolverError(f"master returned a fractional row for {comp}")
            schedule[comp] = choices[0]
        return MasterSolution("optimal", schedule, float(outcome.objective),
                              float(outcome.bound))
