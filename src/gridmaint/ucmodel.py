"""Per-day unit-commitment subproblems and component-status derivation.

Given a first-stage maintenance schedule and a failure realization, each
operational day is independent: hour 1 carries no ramping, min-up/down or
start-up coupling to the previous day, so the scenario problem splits into
one MILP per day.  Within a day the schedule and failure times only matter
through which components are out of service, so a subproblem is built from
the day's demand slice, its down-set and its preflow deletions, and cached
under those inputs (``Instance.day_key``): days with bitwise-equal demand
share their models.

A line is on exactly when it is not under maintenance or failed-out, so the
switching variable is data here: available lines carry the Ohm equality and
static flow bounds, unavailable ones are removed with zero flow.

The lower-bound LP relaxes the candidates' schedule.  A scenario enters it
only through each candidate's outage class on the day, read from its
availability under maintenance in each period (:func:`period_status`, the
array the same-status cut sets also compare): never out, out in some
periods, or out in every period; every other component is in service.  The
class is the bounds of one column, so the LPs of one day share one model
and differ only in those bounds (:func:`set_lower_bound_pattern`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver
from .caseio import DELTA_BOUND, DemandGrid, Network, RunConfig
from .degrade import ScenarioSet

__all__ = ["status_bit", "outage_days", "status_vector", "period_status", "DayModel",
           "build_subproblem", "solve_subproblem", "add_ohm_row",
           "add_switched_line_rows", "lower_bound_patterns", "lp_lower_bound",
           "set_lower_bound_pattern", "solve_lower_bound", "maintenance_cost_coeffs"]


def status_bit(period, xi, day, tau_pred, tau_corr, horizon):
    """Availability of a component on a day (1 = available); broadcasts.

    Maintenance entered at ``period`` before the failure time is predictive
    and takes the component down for ``tau_pred`` days from its start; a
    failure at ``xi`` within the horizon that no earlier maintenance prevented
    takes it down for ``tau_corr`` days from the failure.  Outage windows are
    clamped to the horizon.  Scalar arguments give an ``int``, arrays a
    ``uint8`` array of their broadcast shape.
    """
    predictive = (period < xi) & (period <= day) & (day - period < tau_pred)
    corrective = (period >= xi) & (xi <= horizon) & (xi <= day) & (day - xi < tau_corr)
    bits = np.logical_not(predictive | corrective)
    return int(bits) if bits.ndim == 0 else bits.astype(np.uint8)


def outage_days(components, kinds: dict[str, str], cfg: RunConfig) -> np.ndarray:
    """Predictive and corrective outage length of each component by its kind,
    ``(c, 2)`` int: the ``tau_pred`` and ``tau_corr`` columns of :func:`status_bit`."""
    return np.array([cfg.tau(kinds[comp]) for comp in components],
                    dtype=int).reshape(-1, 2)


def status_vector(schedule: dict[str, int], scenarios: ScenarioSet, day: int,
                  cfg: RunConfig, components: tuple[str, ...],
                  kinds: dict[str, str]) -> np.ndarray:
    """Availability of ``components`` on ``day`` in every scenario, ``(n, c)`` uint8.

    Unscheduled components are never maintained in the horizon, and
    components the scenario set does not cover never fail.
    """
    xi = scenarios.failure_days(components)
    period = np.array([schedule.get(comp, cfg.tbar) for comp in components], dtype=int)
    tau = outage_days(components, kinds, cfg)
    return status_bit(period, xi, day, tau[:, 0], tau[:, 1], cfg.horizon_days)


def period_status(failure_days: np.ndarray, day: int, cfg: RunConfig,
                  components: tuple[str, ...], kinds: dict[str, str]) -> np.ndarray:
    """Availability of ``components`` on ``day`` under maintenance in each
    period 1..tbar, ``(tbar, n, c)`` uint8.

    ``failure_days`` is ``(n, c)`` with columns in ``components`` order.
    """
    tau = outage_days(components, kinds, cfg)
    periods = np.arange(1, cfg.tbar + 1)[:, None, None]
    return status_bit(periods, failure_days, day, tau[:, 0], tau[:, 1],
                      cfg.horizon_days)


def maintenance_cost_coeffs(comp_pred, comp_corr, xi, tbar: int, period) -> np.ndarray:
    """First-stage cost of maintaining in ``period`` under failure time ``xi``.

    Predictive cost before the failure time, corrective cost from it on; a
    component that never fails costs nothing in the no-maintenance slot
    ``tbar``.  Arguments broadcast.
    """
    return np.where(period < xi, comp_pred, np.where(xi != tbar, comp_corr, 0.0))


@dataclass
class DayModel:
    """Built one-day operational model plus its variable index maps."""
    spec: solver.ModelSpec
    idx: dict[str, np.ndarray]  # "p", "x", ... -> (units, hours) column indices


def _add_gen_rows(spec, net, p, x, u, nu, s_count):
    for g, gen in enumerate(net.generators):
        for s in range(s_count):
            # generation limits tied to commitment
            spec.add_le({p[g, s]: 1.0, x[g, s]: -gen.p_max}, 0.0)
            spec.add_ge({p[g, s]: 1.0, x[g, s]: -gen.p_min}, 0.0)
        for s in range(1, s_count):
            # start-up / shut-down linking
            spec.add_ge({u[g, s]: 1.0, x[g, s]: -1.0, x[g, s - 1]: 1.0}, 0.0)
            spec.add_ge({nu[g, s]: 1.0, x[g, s - 1]: -1.0, x[g, s]: 1.0}, 0.0)
            # ramping between consecutive hours
            spec.add_le({p[g, s]: 1.0, p[g, s - 1]: -1.0}, gen.ramp_up)
            spec.add_le({p[g, s - 1]: 1.0, p[g, s]: -1.0}, gen.ramp_down)
            # minimum up/down within the day
            for sp in range(s + 1, min(s + gen.min_up, s_count)):
                spec.add_le({x[g, s]: 1.0, x[g, s - 1]: -1.0, x[g, sp]: -1.0}, 0.0)
            for sp in range(s + 1, min(s + gen.min_down, s_count)):
                spec.add_le({x[g, s - 1]: 1.0, x[g, s]: -1.0, x[g, sp]: 1.0}, 1.0)


def _add_balance_rows(spec, net, demand_day, p, f, q):
    for i, (gens, lines) in enumerate(net.bus_incidence()):
        for s in range(demand_day.shape[1]):
            coeffs: dict[int, float] = {q[i, s]: 1.0}
            for g in gens:
                coeffs[p[g, s]] = 1.0
            for j, sign in lines:
                coeffs[f[j, s]] = coeffs.get(f[j, s], 0.0) + sign
            spec.add_eq(coeffs, float(demand_day[i, s]))


def _add_day_network(spec, net, demand_day, cfg, off, integer_x,
                     omit_bounds=frozenset(), outage_terms=None):
    """Columns and rows of one day's network; returns the column index map.

    Components in ``off`` are out all day (zero output, zero flow).
    ``outage_terms`` maps each candidate to the columns whose sum is its
    outage; one minus that sum caps a candidate generator's commitment and is
    a candidate line's on/off value ``y``.  Every other line obeys Ohm's
    law within its static limits, less ``omit_bounds``.
    """
    outage_terms = outage_terms or {}
    n_bus, s_count = demand_day.shape
    delta, q = np.empty((2, n_bus, s_count), dtype=int)
    for i, bus in enumerate(net.buses):
        cost = cfg.curtail_cost if cfg.curtail_cost is not None else bus.curtail_cost
        for s in range(s_count):
            delta[i, s] = spec.add_var(lb=-DELTA_BOUND, ub=DELTA_BOUND)
            # curtailment pays to shed load, never to fabricate injection
            q[i, s] = spec.add_var(lb=0.0, ub=float(demand_day[i, s]), obj=cost)

    p, x, u, nu = np.empty((4, len(net.generators), s_count), dtype=int)
    for g, gen in enumerate(net.generators):
        for s in range(s_count):
            x[g, s] = spec.add_var(lb=0.0, ub=0.0 if gen.id in off else 1.0,
                                   obj=gen.noload_cost, integer=integer_x)
            p[g, s] = spec.add_var(lb=0.0, obj=gen.gen_cost)
            u[g, s] = spec.add_var(lb=0.0, ub=1.0, obj=gen.startup_cost)
            nu[g, s] = spec.add_var(lb=0.0, ub=1.0)
        for s in range(s_count) if outage_terms.get(gen.id) else ():
            spec.add_le({**outage_terms[gen.id], x[g, s]: 1.0}, 1.0)

    bus_pos = net.bus_index()
    f = np.empty((len(net.lines), s_count), dtype=int)
    for j, line in enumerate(net.lines):
        b_mw = net.line_susceptance_mw(line)
        fi, ti = bus_pos[line.from_bus], bus_pos[line.to_bus]
        for s in range(s_count):
            if line.id in off:
                f[j, s] = spec.add_var(lb=0.0, ub=0.0)
                continue
            lo = -solver.INF if (line.id, "lb", s) in omit_bounds else -line.flow_limit
            hi = solver.INF if (line.id, "ub", s) in omit_bounds else line.flow_limit
            f[j, s] = spec.add_var(lb=lo, ub=hi)
            if line.id not in outage_terms:
                add_ohm_row(spec, f[j, s], delta[fi, s], delta[ti, s], b_mw)
                continue
            y = spec.add_var(lb=0.0, ub=1.0)
            spec.add_eq({**outage_terms[line.id], y: 1.0}, 1.0)
            add_switched_line_rows(spec, f[j, s], delta[fi, s], delta[ti, s], y,
                                   line.flow_limit, b_mw)

    _add_gen_rows(spec, net, p, x, u, nu, s_count)
    _add_balance_rows(spec, net, demand_day, p, f, q)
    return {"p": p, "x": x, "u": u, "nu": nu, "f": f, "delta": delta, "q": q}


def build_subproblem(net: Network, demand_day: np.ndarray, unavailable: frozenset[str],
                     cfg: RunConfig, omit_bounds: frozenset = frozenset(),
                     label: str = "day") -> DayModel:
    """One-day MILP: hourly commitment, dispatch, flows, and curtailment.

    ``unavailable`` holds component ids out of service the whole day;
    ``omit_bounds`` holds (line_id, "ub"|"lb", hour) flow-limit rows proven
    redundant by preprocessing.  Curtailment is capped by demand, so every
    availability pattern stays feasible.
    """
    demand_day = np.asarray(demand_day, dtype=float)
    if demand_day.ndim != 2 or len(demand_day) != len(net.buses):
        raise ValueError("demand slice does not match the bus count")
    spec = solver.ModelSpec(label)
    return DayModel(spec, _add_day_network(spec, net, demand_day, cfg, unavailable,
                                           integer_x=True, omit_bounds=omit_bounds))


def solve_subproblem(model: DayModel, gap: float,
                     time_limit: float | None = None) -> solver.SolveOutcome:
    """Solve a day model to relative ``gap``: the one way a day is solved.

    Returns the optimal outcome, whose primal values are
    ``outcome.x[model.idx[name]]``, or, when ``time_limit`` seconds run out
    first, the outcome with status ``"limit"``; any other status raises
    ``SolverError``.
    """
    outcome = solver.solve(model.spec, tolerance=gap, time_limit=time_limit)
    if outcome.status == "optimal" or (outcome.status == "limit"
                                       and time_limit is not None):
        return outcome
    raise solver.SolverError(f"{model.spec.name}: subproblem ended {outcome.status}")


def add_ohm_row(spec: solver.ModelSpec, f: int, d_from: int, d_to: int,
                b_mw: float) -> None:
    """Ohm's law of an in-service line: its flow follows the angle difference."""
    spec.add_eq({f: 1.0, d_from: -b_mw, d_to: b_mw}, 0.0)


def add_switched_line_rows(spec: solver.ModelSpec, f: int, d_from: int, d_to: int,
                           y: int, flow_limit: float, b_mw: float) -> None:
    """Big-M Ohm rows and on/off-linked flow bounds of a switchable line.

    With ``y`` = 1 the line obeys Ohm's law within ``flow_limit``; with
    ``y`` = 0 its flow is zero and the angle difference is free up to big-M,
    ``b_mw`` times the widest difference the angle box allows
    (:meth:`Network.big_m`).
    """
    big_m = b_mw * (2 * DELTA_BOUND)
    ohm = {f: 1.0, d_from: -b_mw, d_to: b_mw}
    spec.add_le({**ohm, y: big_m}, big_m)
    spec.add_ge({**ohm, y: -big_m}, -big_m)
    spec.add_le({f: 1.0, y: -flow_limit}, 0.0)
    spec.add_ge({f: 1.0, y: flow_limit}, 0.0)


# ---------------------------------------------------------------------------
# Scenario lower bound (relaxed schedule folded into one day's LP)
# ---------------------------------------------------------------------------

def lower_bound_patterns(failure_days: np.ndarray, day: int, cfg: RunConfig,
                         candidates: tuple[str, ...],
                         kinds: dict[str, str]) -> np.ndarray:
    """The outage classes the day-``day`` lower-bound LP reads, ``(n, 2c)``
    uint8: for each candidate in turn, 1 when maintenance in every period
    1..tbar takes it out on ``day`` ("all out"), then 1 when maintenance in
    some period does ("any out").

    ``failure_days`` is ``(n, c)`` with columns in ``candidates`` order.
    Scenarios with equal rows get identical LPs from :func:`lp_lower_bound`.
    """
    out = period_status(failure_days, day, cfg, candidates, kinds) == 0
    classes = np.stack([out.all(axis=0), out.any(axis=0)], axis=-1)
    return classes.reshape(len(failure_days), 2 * len(candidates)).astype(np.uint8)


def lp_lower_bound(net: Network, demand: DemandGrid, pattern: np.ndarray, day: int,
                   cfg: RunConfig, candidates: tuple[str, ...]) -> solver.ModelSpec:
    """LP bounding the day's recourse cost below, over relaxed schedules.

    ``pattern`` is one row of :func:`lower_bound_patterns`.  Each candidate's
    relaxed maintenance decision enters as one column w, its outage share on
    ``day``, bounded by its "all out" and "any out" bits; availability is
    one minus w, and commitment and switching are relaxed.  This is the LP
    over per-period columns v_1..v_tbar summing to one with outage share the
    sum of the v_m whose period takes the candidate out: that share ranges
    over exactly [all out, any out], and the v enter nowhere else.  Every
    other component is in service: only candidates fail.  Every binary
    schedule is feasible here, so the optimum bounds every Q_t from below;
    :func:`solve_lower_bound` solves it.
    """
    if len(pattern) != 2 * len(candidates):
        raise ValueError(f"pattern has {len(pattern)} bits, expected "
                         f"{2 * len(candidates)}")
    spec = solver.ModelSpec(f"lb_day{day}")
    outage_terms = {comp: {spec.add_var(): 1.0} for comp in candidates}
    set_lower_bound_pattern(spec, pattern)
    _add_day_network(spec, net, demand.day(day), cfg, frozenset(), integer_x=False,
                     outage_terms=outage_terms)
    return spec


def set_lower_bound_pattern(spec: solver.ModelSpec, pattern: np.ndarray) -> None:
    """Bound the outage columns of a :func:`lp_lower_bound` LP by ``pattern``,
    a row of :func:`lower_bound_patterns` for the day the LP was built for."""
    bits = np.asarray(pattern, dtype=float).reshape(-1, 2).tolist()
    for w, (all_out, any_out) in enumerate(bits):
        spec.set_bounds(w, all_out, any_out)


def solve_lower_bound(spec: solver.ModelSpec) -> tuple[float, int]:
    """Optimum of a :func:`lp_lower_bound` LP, clamped at zero (recourse never is
    negative), and the simplex iterations it took."""
    outcome = solver.solve(spec, tolerance=1e-9)
    if outcome.status != "optimal":
        raise solver.SolverError(f"{spec.name}: lower-bound LP ended {outcome.status}")
    return max(0.0, float(outcome.objective)), outcome.iterations
