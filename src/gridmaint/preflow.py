"""Flow-limit redundancy preprocessing.

A single-period relaxation of the operational problem (switching and
commitment continuous, start/stop and ramping dropped, demand free below a
cap) bounds how large each line flow can ever get.  If the relaxed extreme is
strictly inside a static limit, that limit row can never bind and is dropped
from every subproblem it covers.  The three modes trade LP count against cap
tightness: one horizon-wide peak cap, one cap per day, or the exact hourly
demand.
"""

from __future__ import annotations

import io
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import solver
from .caseio import DemandGrid, Network, require_grid_buses
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
            if not e.redundant:
                continue
            if e.scope == ():
                out.update((e.line_id, e.direction, s) for s in range(subperiods))
            elif len(e.scope) == 1 and e.scope[0] == day:
                out.update((e.line_id, e.direction, s) for s in range(subperiods))
            elif len(e.scope) == 2 and e.scope[0] == day:
                out.add((e.line_id, e.direction, e.scope[1] - 1))
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
    (the demand variables' upper bounds) and target line (the objective)."""

    def __init__(self, net: Network, candidate_lines: frozenset[str]):
        spec = solver.ModelSpec("flow_relax")
        bus_pos = net.bus_index()
        n_bus = len(net.buses)

        # upper bounds are the demand caps, written by set_caps
        d = [spec.add_var(f"dem{b.id}", lb=0.0, ub=0.0) for b in net.buses]
        q = [spec.add_var(f"q{b.id}", lb=0.0) for b in net.buses]
        delta = [spec.add_var(f"delta{b.id}", lb=b.delta_min, ub=b.delta_max)
                 for b in net.buses]
        for i in range(n_bus):
            spec.add_le({q[i]: 1.0, d[i]: -1.0}, 0.0)  # curtail at most demand

        p = []
        for gen in net.generators:
            xv = spec.add_var(f"x{gen.id}", lb=0.0, ub=1.0)
            pv = spec.add_var(f"p{gen.id}", lb=0.0)
            spec.add_le({pv: 1.0, xv: -gen.p_max}, 0.0)
            spec.add_ge({pv: 1.0, xv: -gen.p_min}, 0.0)
            p.append(pv)

        self.fvar: dict[str, int] = {}
        for line in net.lines:
            b_mw = net.line_susceptance_mw(line)
            fi, ti = bus_pos[line.from_bus], bus_pos[line.to_bus]
            fv = spec.add_var(f"f{line.id}", lb=-solver.INF, ub=solver.INF)
            self.fvar[line.id] = fv
            if line.id in candidate_lines:
                # switchable: relaxed on/off with big-M Ohm and linked bounds
                yv = spec.add_var(f"y{line.id}", lb=0.0, ub=1.0)
                add_switched_line_rows(spec, fv, delta[fi], delta[ti], yv, line, b_mw)
            else:
                # static line: Ohm only; its own limit rows are what we probe
                add_ohm_row(spec, fv, delta[fi], delta[ti], b_mw)

        for i, bus in enumerate(net.buses):
            coeffs: dict[int, float] = {q[i]: 1.0, d[i]: -1.0}
            for g, gen in enumerate(net.generators):
                if gen.bus == bus.id:
                    coeffs[p[g]] = 1.0
            for line in net.lines:
                fv = self.fvar[line.id]
                if line.from_bus == bus.id:
                    coeffs[fv] = coeffs.get(fv, 0.0) - 1.0
                if line.to_bus == bus.id:
                    coeffs[fv] = coeffs.get(fv, 0.0) + 1.0
            spec.add_eq(coeffs, 0.0)
        self.spec = spec
        self.dem = d
        self._target: int | None = None
        self.iterations = 0  # simplex iterations over every extreme() so far

    def set_caps(self, demand_cap: np.ndarray) -> None:
        if np.any(demand_cap < 0):
            raise ValueError("demand caps must be nonnegative")
        for i, var in enumerate(self.dem):
            self.spec.set_bounds(var, 0.0, float(demand_cap[i]))

    def extreme(self, line_id: str, direction: str) -> float:
        """max f (direction "ub") or min f (direction "lb") over the relaxation."""
        if self._target is not None:
            self.spec.set_obj(self._target, 0.0)
        self._target = self.fvar[line_id]
        self.spec.sense = "max" if direction == "ub" else "min"
        self.spec.set_obj(self._target, 1.0)
        outcome = solver.solve(self.spec, tolerance=1e-9)
        self.iterations += outcome.iterations
        if outcome.status != "optimal":
            raise solver.SolverError(f"flow relaxation for {line_id} ended "
                                     f"{outcome.status}")
        return float(outcome.objective)


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
    re-solved over every cap vector, sorted so that equal vectors are
    adjacent.  A re-solve then changes only the demand caps, which leaves
    the kept basis dual feasible, so dual simplex restarts from it (and a
    repeated vector, whose caps are not set again, takes no iteration).
    Entries come out scope-major.
    """
    require_grid_buses(net, grid)
    started = time.perf_counter()
    targets = [line for line in net.lines if line.id not in candidate_lines]
    scoped = list(_cap_vectors(grid, mode))
    by_caps = sorted(range(len(scoped)), key=lambda k: scoped[k][1].tolist())
    # a sweep sets the caps at its start and then only where they change
    new_caps = [i == 0 or not np.array_equal(scoped[k][1], scoped[by_caps[i - 1]][1])
                for i, k in enumerate(by_caps)]
    lp = _RelaxedFlowLP(net, candidate_lines)
    f_star: dict[tuple[int, str, str], float] = {}
    for line in targets:
        for direction in ("ub", "lb"):
            for k, new in zip(by_caps, new_caps):
                if new:
                    lp.set_caps(scoped[k][1])
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
