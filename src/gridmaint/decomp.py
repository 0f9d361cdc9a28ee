"""Decomposition loop: relaxed master, chance separation, cached subproblems.

The scenario set may fail maintenance candidates (H') only: the lower-bound
LPs, the recourse and the master all read failures of H', and a set that
covers any other component raises.  Before the loop every scenario-day gets
an LP lower bound.  One iteration solves the master for a candidate
schedule, adds the cuts :class:`chance.ChanceRule` finds it violates (in
either chance mode; no new cut is a solver fault), otherwise derives the
per-day status vectors of all scenarios, keys each scenario-day by what its
day model is built from (demand class, down-set, preflow deletions), solves
only the keys never seen, aliases the rest from the cache, and adds the
optimality cuts the master derives from the round's values.  The loop stops
at the configured relative gap, and raises when its bound exceeds its
objective by more than that gap.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import chance, mastercuts, solver, ucmodel
from .caseio import RunConfig
from .degrade import ScenarioSet, group_rows
from .instance import DayKey, Instance, check_horizon

log = logging.getLogger(__name__)

__all__ = ["StatusCache", "SolveReport", "DecompositionRun",
           "compute_lower_bounds", "day_values", "solve"]


class StatusCache:
    """Map of day-model keys (:meth:`Instance.day_key`) to subproblem values.

    A key holds the day's demand class, not its number, so days with equal
    demand share entries, as do plan keys (down-sets within the candidates)
    and evaluation keys (over every component).  ``solved`` counts stored
    solves; ``aliased`` counts the scenario-days :func:`day_values` served
    without one.
    """

    def __init__(self):
        self.psi: dict[DayKey, tuple[float, float]] = {}
        self.solved = 0
        self.aliased = 0

    def lookup(self, key: DayKey):
        return self.psi.get(key)

    def store(self, key: DayKey, objective: float, bound: float):
        self.psi[key] = (objective, bound)
        self.solved += 1


@dataclass
class SolveReport:
    status: str                  # "optimal" | "limit" | "infeasible"
    schedule: dict[str, int]
    objective: float             # best upper bound
    bound: float                 # final lower bound
    gap: float
    iterations: int
    counts: dict[str, int] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)  # phase seconds
    elapsed: float = 0.0
    cut_log: str = ""


def _relative_gap(ub: float, lb: float) -> float:
    if ub == float("inf"):
        return float("inf")
    if abs(ub) < 1e-12:
        return 0.0 if lb >= -1e-9 else float("inf")
    return (ub - lb) / abs(ub)


def compute_lower_bounds(inst: Instance, scenarios: ScenarioSet, cfg: RunConfig,
                         deadline: float | None = None
                         ) -> tuple[np.ndarray, dict[str, int]]:
    """LP lower bound of every scenario-day, shape ``(n, T)``, solved up front,
    and the pass's counts.

    Each day builds one LP (:func:`ucmodel.lp_lower_bound`) and walks the
    distinct rows of its :func:`ucmodel.lower_bound_patterns` in sorted
    order: it sets the row's column bounds and solves once for each
    scenario-day with that row, every solve after the day's first starting
    from the basis the one before left.  HiGHS runs once per distinct
    (day, row), ``lb_models`` times: a repeat of the row before is a
    re-solve with nothing to send, which returns the answer HiGHS holds.
    Days run one after another on the calling thread, and the sorted order
    keeps the bounds independent of the order of the scenarios.  Past
    ``deadline`` (a ``time.perf_counter()`` value, checked before each
    row's solves) no further row is solved and the remaining
    entries stay 0.0, which still bounds the non-negative recourse.
    The counts are ``lb_solved``, ``lb_aliased``, ``lb_models`` (distinct
    (day, row) LPs solved) and ``lb_iterations`` (simplex iterations over
    every solve).
    """
    xi = scenarios.failure_days(inst.hprime)
    values = np.zeros((scenarios.size, cfg.horizon_days))
    solved = models = iterations = 0
    for t in range(1, cfg.horizon_days + 1):
        patterns = ucmodel.lower_bound_patterns(xi, t, cfg, inst.hprime, inst.kinds)
        first, inverse = group_rows(patterns)
        spec = None
        for key, pattern in enumerate(patterns[first]):
            if deadline is not None and time.perf_counter() > deadline:
                break
            if spec is None:
                spec = ucmodel.lp_lower_bound(inst.net, inst.demand, pattern, t, cfg,
                                              inst.hprime)
            else:
                ucmodel.set_lower_bound_pattern(spec, pattern)
            for row in np.flatnonzero(inverse == key):
                values[row, t - 1], its = ucmodel.solve_lower_bound(spec)
                iterations += its
                solved += 1
            models += 1
    return values, {"lb_solved": solved, "lb_aliased": 0, "lb_models": models,
                    "lb_iterations": iterations}


def day_values(inst: Instance, scenarios: ScenarioSet, cfg: RunConfig,
               schedule: dict[str, int], components: tuple[str, ...],
               cache: StatusCache, deadline: float | None = None) -> np.ndarray | None:
    """Recourse objective and bound of every scenario-day, shape ``(n, T, 2)``.

    A scenario-day's down-set is read from its status over ``components``,
    and the scenario-day is keyed by :meth:`Instance.day_key`; each key the
    cache lacks is solved exactly once, on the day its demand class names,
    and stored, and every other scenario-day is counted as aliased.
    Missing keys are solved in the day-major order of the distinct (day,
    status row) cells, each within the budget left before ``deadline`` (a
    ``time.perf_counter()`` value).  Once the budget is spent no further key
    is solved and a key whose solve hit it is not stored: the keys solved so
    far stay stored and None is returned.
    """
    n, horizon = scenarios.size, cfg.horizon_days
    cells = []  # the key of each distinct (day, status row)
    cell_ids = np.empty((n, horizon), dtype=np.intp)
    for t in range(1, horizon + 1):
        status = ucmodel.status_vector(schedule, scenarios, t, cfg, components,
                                       inst.kinds)
        first, inverse = group_rows(status)
        cell_ids[:, t - 1] = len(cells) + inverse
        for row in status[first].tolist():
            down = frozenset(c for c, bit in zip(components, row) if not bit)
            cells.append(inst.day_key(t, down))

    missing = [key for key in dict.fromkeys(cells) if cache.lookup(key) is None]
    for key in missing:
        if deadline is not None and time.perf_counter() > deadline:
            return None  # the budget is spent: no model is built
        model = ucmodel.build_subproblem(
            inst.net, inst.demand.day(key.demand_class), key.down, cfg,
            omit_bounds=key.omit_bounds,
            label=f"day{key.demand_class}:{','.join(sorted(key.down)) or '-'}")
        remaining = None if deadline is None \
            else max(0.0, deadline - time.perf_counter())
        outcome = ucmodel.solve_subproblem(model, cfg.subproblem_gap, remaining)
        if outcome.status != "optimal":
            return None
        cache.store(key, float(outcome.objective), float(outcome.bound))
    cache.aliased += cell_ids.size - len(missing)
    values = np.array([cache.lookup(key) for key in cells], dtype=float)
    return values[cell_ids]


class DecompositionRun:
    """Mutable loop state: master, cache, bounds, incumbent, tallies."""

    def __init__(self, inst: Instance, scenarios: ScenarioSet, cfg: RunConfig,
                 enforce_chance: bool = True, cache: StatusCache | None = None):
        # the bounds, the recourse and the master read failures of H' only
        others = sorted(set(scenarios.component_ids) - set(inst.hprime))
        if others:
            raise ValueError(f"scenarios cover components outside the maintenance "
                             f"candidates {list(inst.hprime)}: {others}")
        check_horizon(cfg, inst.demand, scenarios)
        self.inst, self.scenarios, self.cfg = inst, scenarios, cfg
        self.started = time.perf_counter()
        self.cache = cache if cache is not None else StatusCache()
        self.deadline = None if cfg.time_limit is None \
            else self.started + cfg.time_limit
        day_bounds, self.lb_counts = compute_lower_bounds(inst, scenarios, cfg,
                                                          self.deadline)
        self.lb_seconds = time.perf_counter() - self.started
        cost_of = {comp: inst.maint_cost(comp) for comp in inst.hprime}
        self.master = mastercuts.MasterState(inst.hprime, scenarios, cfg, cost_of,
                                             inst.kinds, day_bounds)

        self.rule = chance.ChanceRule(cfg.chance_mode, inst.table, cfg.rho_gen,
                                      cfg.rho_line, cfg.alpha) if enforce_chance else None
        for row in self.rule.static_rows if self.rule else ():
            self.master.add_static_row(row)

        self.ub, self.lb = float("inf"), -float("inf")
        self.incumbent: dict[str, int] = {}
        self.history: list[dict] = []
        self.status: str | None = None
        self.iterations = 0

    def iterate_once(self) -> None:
        """One master solve plus its chance/second-stage follow-up.

        ``self.status`` stays None while the loop should continue; on
        termination it holds the outcome.  Each iteration appends its history
        entry when it starts: the iteration's phase seconds (``t_master``,
        ``t_chance``, ``t_subproblems``, ``t_cuts``; 0.0 for a phase it did
        not reach), the day models it solved and the scenario-days it aliased
        (``n_solved``, ``n_aliased``) and ``master_rows``.  The iteration adds
        ``lb``, ``ub`` and ``event`` (chance cuts added) or ``gap`` (a round
        evaluated, with ``accepted`` when the chance rule accepted it within
        its tolerance) when it gets that far.
        """
        cfg = self.cfg
        self.iterations += 1
        self.history.append({"iter": self.iterations, "t_master": 0.0,
                             "t_chance": 0.0, "t_subproblems": 0.0, "t_cuts": 0.0,
                             "n_solved": 0, "n_aliased": 0,
                             "master_rows": self.master.num_rows})
        clock = time.perf_counter()
        # time_limit is one wall budget: the master gets only what is left
        remaining = None if self.deadline is None else max(0.0, self.deadline - clock)
        # the proven master bound feeds LB, so a master gap one order tighter
        # than the loop tolerance keeps convergence honest without paying for
        # exact branch-and-bound every round
        ms = self.master.solve(tolerance=max(cfg.epsilon * 0.1, 1e-9),
                               time_limit=remaining)
        clock = self._charge("master", clock)
        if ms.status not in ("optimal", "infeasible", "limit"):
            raise solver.SolverError(f"master solve ended with status {ms.status!r}")
        if ms.status != "optimal":
            self.status = ms.status
            return
        # the master is a relaxation, so its bound holds whether or not the
        # chance rule accepts its point
        self.lb = max(self.lb, ms.bound)
        if self._past_deadline(clock):
            self.status = "limit"
            return

        cuts, event = self.rule.check(ms.schedule) if self.rule else ([], "")
        if cuts:
            added = sum(self.master.add_cut(cut, pool="chance") for cut in cuts)
            self._charge("chance", clock)
            if not added:
                raise solver.SolverError(f"master returned a schedule its own "
                                         f"chance cuts exclude ({event})")
            self._record(event=event)
            log.info("iter %d: chance-infeasible schedule, %s", self.iterations, event)
            return
        if event:  # accepted within the master's feasibility tolerance
            self._record(accepted=event)
            log.info("iter %d: chance rule %s", self.iterations, event)
        clock = self._charge("chance", clock)

        solved, aliased = self.cache.solved, self.cache.aliased
        day_vals = None if self._past_deadline(clock) else day_values(
            self.inst, self.scenarios, cfg, ms.schedule, self.inst.hprime,
            self.cache, self.deadline)
        self._record(n_solved=self.cache.solved - solved,
                     n_aliased=self.cache.aliased - aliased)
        clock = self._charge("subproblems", clock)
        if day_vals is None:
            self.status = "limit"  # the budget ran out before or in the round
            return
        first_stage = self.master.first_stage_costs(ms.schedule).tolist()
        # a correctly rounded sum, so the order of the scenarios cannot move it
        upper = math.fsum(float(self.scenarios.probs[k])
                          * (first_stage[k] + sum(day_vals[k, :, 0].tolist()))
                          for k in range(self.scenarios.size))
        if upper < self.ub:
            self.ub, self.incumbent = upper, dict(ms.schedule)
        if self.lb - self.ub > cfg.epsilon * max(abs(self.ub), 1.0):
            raise solver.SolverError(f"lower bound {self.lb!r} exceeds the "
                                     f"objective {self.ub!r}")

        gap = _relative_gap(self.ub, self.lb)
        converged = gap <= cfg.epsilon
        out_of_time = not converged and self._past_deadline(clock)
        if not converged and not out_of_time:
            for cut in self.master.optimality_cuts(ms.schedule, day_vals):
                self.master.add_cut(cut, pool="opt")
            self._charge("cuts", clock)
        entry = self._record(gap=gap)
        log.info("iter %d: LB %.6g UB %.6g gap %.3g (solved %d aliased %d)",
                 self.iterations, self.lb, self.ub, gap,
                 entry["n_solved"], entry["n_aliased"])
        if converged:
            self.status = "optimal"
        elif out_of_time:
            self.status = "limit"  # no time left for the cut round

    def _past_deadline(self, clock: float) -> bool:
        return self.deadline is not None and clock > self.deadline

    def _charge(self, phase: str, since: float) -> float:
        """Add the seconds since ``since`` to ``phase`` in this iteration's
        entry; return the clock."""
        now = time.perf_counter()
        self.history[-1][f"t_{phase}"] += now - since
        return now

    def _record(self, **fields) -> dict:
        """This iteration's entry, updated with the bounds and ``fields``."""
        entry = self.history[-1]
        entry.update(lb=self.lb, ub=self.ub, **fields)
        return entry

    def report(self) -> SolveReport:
        """The run's outcome; its last history entry gains ``stop``, the
        status the run ended on, and ``timings`` and the loop's ``counts``
        are totals over the entries and the master's cut pools."""
        status = self.status or "limit"
        if self.history:
            self.history[-1]["stop"] = status
        def total(key):
            return sum(entry[key] for entry in self.history)

        counts = {"solved": total("n_solved"), "aliased": total("n_aliased"),
                  "chance_cuts": len(self.master.chance_cuts),
                  "opt_cuts": len(self.master.opt_cuts),
                  "boundary_accepts": sum("accepted" in entry for entry in self.history),
                  "psi_total": len(self.cache.psi), **self.lb_counts}
        timings = {"lower_bounds": self.lb_seconds,
                   **{phase: total(f"t_{phase}")
                      for phase in ("master", "chance", "subproblems", "cuts")}}
        return SolveReport(status=status, schedule=self.incumbent,
                           objective=self.ub, bound=self.lb,
                           gap=_relative_gap(self.ub, self.lb),
                           iterations=self.iterations, counts=counts,
                           history=self.history, timings=timings,
                           elapsed=time.perf_counter() - self.started,
                           cut_log=self.master.cut_log())


def solve(inst: Instance, scenarios: ScenarioSet, cfg: RunConfig | None = None,
          enforce_chance: bool = True, cache: StatusCache | None = None) -> SolveReport:
    """Run the decomposition to the configured relative optimality gap."""
    cfg = cfg or inst.cfg
    run = DecompositionRun(inst, scenarios, cfg, enforce_chance, cache)
    while run.status is None:
        if run.iterations >= cfg.iteration_limit \
                or run._past_deadline(time.perf_counter()):
            run.status = "limit"
        else:
            run.iterate_once()
    return run.report()
