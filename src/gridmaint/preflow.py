"""Flow-limit redundancy preprocessing.

A single-period relaxation of the operational problem (switching continuous,
start/stop and ramping dropped, output in [0, p_max] and served demand in
[0, cap], the exact projections of commitment and curtailment) bounds each
line flow.  If the relaxed extreme is strictly inside a static limit, that
limit row can never bind and is dropped from every subproblem it covers.  The
three modes trade LP count against cap tightness: one horizon-wide peak cap,
one cap per day, or the exact hourly demand.
"""

from __future__ import annotations

import io
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import solver
from .caseio import DELTA_BOUND, DemandGrid, Network, require_grid_buses
from .degrade import group_rows
from .ucmodel import add_ohm_row, add_switched_line_rows

log = logging.getLogger(__name__)

MODES = ("I", "II", "III")

_STRICT_TOL = 1e-9


@dataclass(frozen=True)
class RedundancyEntry:
    line_id: str
    direction: str        # "ub" | "lb"
    scope: tuple          # () horizon, (t,) day, (t, s) hour; 1-based
    f_star: float
    redundant: bool


@dataclass
class RedundancyReport:
    mode: str
    entries: list[RedundancyEntry]
    elapsed: float
    iterations: int = 0   # simplex iterations over all probes

    def omitted_for_day(self, day: int, subperiods: int) -> frozenset:
        """Bound rows deletable on 1-based ``day`` as (line, dir, 0-based hour)."""
        out = set()
        for e in self.entries:
            if e.redundant and e.scope[:1] in ((), (day,)):
                hours = (e.scope[1] - 1,) if len(e.scope) == 2 else range(subperiods)
                out.update((e.line_id, e.direction, s) for s in hours)
        return frozenset(out)

    def redundancy_ratio(self, direction: str) -> float:
        hits = [e.redundant for e in self.entries if e.direction == direction]
        return sum(hits) / len(hits) if hits else 0.0

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("line,dir,scope,f_star,redundant\n")
        for e in self.entries:
            scope = ":".join(str(v) for v in e.scope) or "horizon"
            out.write(f"{e.line_id},{e.direction},{scope},{e.f_star:.10g},"
                      f"{int(e.redundant)}\n")
        return out.getvalue()


class _RelaxedFlowLP:
    """Single-period relaxation, built once and re-solved for every cap vector
    (the served-demand columns' upper bounds) and target line (the objective).
    With x in [0, 1] and p_min x <= p <= p_max x, x = p / p_max shows that p
    ranges over [0, p_max]; with 0 <= q <= d <= cap, served load d - q ranges
    over [0, cap].  So the relaxation has no commitment or curtailment columns."""

    def __init__(self, net: Network, candidate_lines: frozenset[str]):
        spec = solver.ModelSpec("flow_relax")
        bus_pos = net.bus_index()

        # upper bounds are the demand caps, written by set_caps
        d = [spec.add_var(lb=0.0, ub=0.0) for _ in net.buses]
        delta = [spec.add_var(lb=-DELTA_BOUND, ub=DELTA_BOUND) for _ in net.buses]
        p = [spec.add_var(lb=0.0, ub=gen.p_max) for gen in net.generators]

        f = []
        for line in net.lines:
            b_mw = net.line_susceptance_mw(line)
            fi, ti = bus_pos[line.from_bus], bus_pos[line.to_bus]
            fv = spec.add_var(lb=-solver.INF, ub=solver.INF)
            f.append(fv)
            if line.id in candidate_lines:
                # switchable: relaxed on/off with big-M Ohm and linked bounds
                yv = spec.add_var(lb=0.0, ub=1.0)
                add_switched_line_rows(spec, fv, delta[fi], delta[ti], yv,
                                       line.flow_limit, b_mw)
            else:
                # static line: Ohm only; its own limit rows are what we probe
                add_ohm_row(spec, fv, delta[fi], delta[ti], b_mw)

        for i, (gens, lines) in enumerate(net.bus_incidence()):
            coeffs: dict[int, float] = {d[i]: -1.0}
            for g in gens:
                coeffs[p[g]] = 1.0
            for j, sign in lines:
                coeffs[f[j]] = coeffs.get(f[j], 0.0) + sign
            spec.add_eq(coeffs, 0.0)
        self.spec = spec
        self.fvar = {line.id: fv for line, fv in zip(net.lines, f)}
        self.dem = d
        self._target: tuple[int, float] | None = None  # (column, cost) minimised
        self.iterations = 0  # simplex iterations over every extreme() so far

    def set_caps(self, demand_cap: np.ndarray) -> None:
        if np.any(demand_cap < 0):
            raise ValueError("demand caps must be nonnegative")
        for i, var in enumerate(self.dem):
            self.spec.set_bounds(var, 0.0, float(demand_cap[i]))

    def extreme(self, line_id: str, direction: str) -> float:
        """max f (direction "ub") or min f (direction "lb") over the relaxation."""
        target = (self.fvar[line_id], -1.0 if direction == "ub" else 1.0)
        if target != self._target:  # probes run target-major: seldom
            if self._target is not None:
                self.spec.set_obj(self._target[0], 0.0)
            self.spec.set_obj(*target)
            self._target = target
        outcome = solver.solve(self.spec, tolerance=1e-9)
        self.iterations += outcome.iterations
        if outcome.status != "optimal":
            raise solver.SolverError(f"flow relaxation for {line_id} ended "
                                     f"{outcome.status}")
        # "ub" minimised -f; 0.0 - v, not -v, keeps a zero maximum +0.0
        return 0.0 - outcome.objective if direction == "ub" else outcome.objective


def _cap_vectors(grid: DemandGrid, mode: str):
    if mode == "I":
        yield (), grid.values.max(axis=(1, 2))
    elif mode == "II":
        for t in range(1, grid.periods + 1):
            yield (t,), grid.values[:, t - 1, :].max(axis=1)
    elif mode == "III":
        for t in range(1, grid.periods + 1):
            for s in range(1, grid.subperiods + 1):
                yield (t, s), grid.values[:, t - 1, s - 1]
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def analyze(net: Network, grid: DemandGrid, mode: str,
            candidate_lines: frozenset[str] = frozenset()) -> RedundancyReport:
    """Probe every static flow limit of non-candidate lines for redundancy.

    A bound is flagged only when the relaxed extreme is strictly inside it;
    ties stay in the model.  Candidate (switchable) lines keep their linked
    bounds and are never probed.

    Probes run target-major: for each (line, direction) the relaxation is
    re-solved over every cap vector, grouped by :func:`degrade.group_rows`
    so that equal vectors are adjacent and the caps are set once per group.
    A re-solve then changes only the demand caps, which leaves the kept
    basis dual feasible, so dual simplex restarts from it (and a repeated
    vector, whose caps are not set again, runs no HiGHS: the solver returns
    the answer HiGHS holds).
    Entries come out scope-major.
    """
    require_grid_buses(net, grid)
    started = time.perf_counter()
    targets = [line for line in net.lines if line.id not in candidate_lines]
    scoped = list(_cap_vectors(grid, mode))
    caps = np.array([cap for _, cap in scoped])
    _, group = group_rows(caps)
    # the scopes of each group of equal cap vectors, groups in sorted order
    groups = np.split(np.argsort(group, kind="stable"),
                      np.cumsum(np.bincount(group))[:-1])
    lp = _RelaxedFlowLP(net, candidate_lines)
    f_star: dict[tuple[int, str, str], float] = {}
    for line in targets:
        for direction in ("ub", "lb"):
            for scopes in groups:
                lp.set_caps(caps[scopes[0]])
                for k in scopes:
                    f_star[k, line.id, direction] = lp.extreme(line.id, direction)
    entries: list[RedundancyEntry] = []
    for k, (scope, _) in enumerate(scoped):
        for line in targets:
            hi, lo = f_star[k, line.id, "ub"], f_star[k, line.id, "lb"]
            entries.append(RedundancyEntry(line.id, "ub", scope, hi,
                                           hi < line.flow_limit - _STRICT_TOL))
            entries.append(RedundancyEntry(line.id, "lb", scope, lo,
                                           lo > -line.flow_limit + _STRICT_TOL))
    elapsed = time.perf_counter() - started
    report = RedundancyReport(mode, entries, elapsed, lp.iterations)
    log.info("flow analysis mode %s: ub ratio %.3f, lb ratio %.3f "
             "(%d probes, %d simplex iterations, %.2fs)",
             mode, report.redundancy_ratio("ub"), report.redundancy_ratio("lb"),
             len(entries), lp.iterations, elapsed)
    return report
