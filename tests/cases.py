"""Shared case-file texts and tiny builder helpers for tests."""

from contextlib import contextmanager

import numpy as np
import pytest

from gridmaint import solver
from gridmaint.caseio import Bus, DemandGrid, Generator, Line, Network
from gridmaint.chance import LinearCut
from gridmaint.degrade import ScenarioSet
from gridmaint.instance import Component, Instance
from gridmaint.mastercuts import same_cost_periods, same_status_periods
from gridmaint.pboracle import SuccessProbTable
from gridmaint.ucmodel import (_add_day_network, lower_bound_patterns, lp_lower_bound,
                               period_status, solve_lower_bound, status_vector)

# 9-bus test system with linear generation costs.
CASE9 = """
function mpc = case9
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
%	bus_i	type	Pd	Qd	Gs	Bs	area	Vm	Va	baseKV	zone	Vmax	Vmin
mpc.bus = [
	1	3	0	0	0	0	1	1	0	345	1	1.1	0.9;
	2	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
	3	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
	4	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	5	1	90	30	0	0	1	1	0	345	1	1.1	0.9;
	6	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	7	1	100	35	0	0	1	1	0	345	1	1.1	0.9;
	8	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	9	1	125	50	0	0	1	1	0	345	1	1.1	0.9;
];

%% generator data
mpc.gen = [
	1	72.3	27.03	300	-300	1.04	100	1	250	10	0	0	0	0	0	0	250;
	2	163	6.54	300	-300	1.025	100	1	300	10	0	0	0	0	0	0	300;
	3	85	-10.95	300	-300	1.025	100	1	270	10	0	0	0	0	0	0	270;
];

%% branch data
mpc.branch = [
	1	4	0	0.0576	0	250	250	250	0	0	1;
	4	5	0.017	0.092	0.158	250	250	250	0	0	1;
	5	6	0.039	0.17	0.358	150	150	150	0	0	1;
	3	6	0	0.0586	0	300	300	300	0	0	1;
	6	7	0.0119	0.1008	0.209	150	150	150	0	0	1;
	7	8	0.0085	0.072	0.149	250	250	250	0	0	1;
	8	2	0	0.0625	0	250	250	250	0	0	1;
	8	9	0.032	0.161	0.306	250	250	250	0	0	1;
	9	4	0.01	0.085	0.176	250	250	250	0	0	1;
];

%% cost data (linear)
mpc.gencost = [
	2	1500	0	2	20	100;
	2	2000	0	2	25	120;
	2	3000	0	2	30	80;
];
"""

# Degenerate but valid: one bus, one generator, no lines.
CASE_SINGLE_BUS = """
mpc.baseMVA = 100;
mpc.bus = [
	1	3	100	0	0	0	1	1	0	345	1	1.1	0.9;
];
mpc.gen = [
	1	0	0	0	0	1	100	1	200	0;
];
mpc.branch = [
];
mpc.gencost = [
	2	0	0	2	10	0;
];
"""

CASE_DANGLING = """
mpc.baseMVA = 100;
mpc.bus = [
	1	3	0	0	0	0	1	1	0	345	1	1.1	0.9;
	2	1	50	0	0	0	1	1	0	345	1	1.1	0.9;
];
mpc.gen = [
	1	0	0	0	0	1	100	1	200	0;
];
mpc.branch = [
	1	99	0	0.1	0	100	0	0	0	0	1;
];
mpc.gencost = [
	2	0	0	2	10	0;
];
"""


def build_net(n_bus=2, n_gen=1, lines=None, p_max=200.0, gen_cost=10.0,
              demands=None, flow_limit=100.0, susceptance=1.0,
              noload=0.0, startup=0.0, p_min=0.0, ramp=None,
              min_up=1, min_down=1, curtail=1000.0,
              gen_buses=None, gen_costs=None, flow_limits=None,
              maint_pred=100.0, maint_corr=None) -> Network:
    """Hand-built network; lines default to a path 1-2-3-...-n."""
    demands = demands if demands is not None else [0.0] * n_bus
    maint_corr = 3.0 * maint_pred if maint_corr is None else maint_corr
    buses = tuple(Bus(id=i + 1, curtail_cost=curtail, base_demand=demands[i])
                  for i in range(n_bus))
    gen_buses = gen_buses or [(i % n_bus) + 1 for i in range(n_gen)]
    gen_costs = gen_costs or [gen_cost] * n_gen
    gens = tuple(Generator(id=f"g{i + 1}", bus=gen_buses[i], p_min=p_min,
                           p_max=p_max, ramp_up=ramp or p_max, ramp_down=ramp or p_max,
                           min_up=min_up, min_down=min_down, gen_cost=gen_costs[i],
                           noload_cost=noload, startup_cost=startup,
                           maint_cost_pred=maint_pred, maint_cost_corr=maint_corr)
                 for i in range(n_gen))
    if lines is None:
        lines = [(i + 1, i + 2) for i in range(n_bus - 1)]
    flow_limits = flow_limits or [flow_limit] * len(lines)
    line_objs = tuple(Line(id=f"l{j + 1}", from_bus=u, to_bus=v, susceptance=susceptance,
                           flow_limit=flow_limits[j],
                           maint_cost_pred=0.1 * maint_pred, maint_cost_corr=0.3 * maint_pred)
                      for j, (u, v) in enumerate(lines))
    net = Network(buses=buses, generators=gens, lines=line_objs)
    net.validate()
    return net


def make_instance(net, cfg, demand_values, q_rows, hprime=()):
    """Instance with hand-specified failure-probability tables (no RLD draw).

    ``q_rows`` maps component ids to their per-period P(xi <= m) arrays;
    anything unlisted never fails.  ``demand_values`` is (|B|, |T|, |S|).
    """
    kinds = {g.id: "gen" for g in net.generators}
    kinds.update({ln.id: "line" for ln in net.lines})
    horizon = cfg.horizon_days
    rows = {}
    components = {}
    order = [g.id for g in net.generators] + [ln.id for ln in net.lines]
    for comp in order:
        arr = np.asarray(q_rows.get(comp, np.zeros(horizon)), dtype=float)
        rows[comp] = arr
        components[comp] = Component(comp, kinds[comp], None, float(arr[-1]))
    hprime = tuple(c for c in order if c in set(hprime))
    table = SuccessProbTable(rows, kinds, frozenset(hprime), horizon)
    demand = DemandGrid(tuple(b.id for b in net.buses),
                        np.asarray(demand_values, dtype=float))
    return Instance(net, demand, cfg, components, hprime, table)


def toy_instance(seed, horizon=3, subperiods=2, n_scen=3, alpha=0.3,
                 cut_family="optKT++", chance_mode="exact", epsilon=1e-8,
                 extra_candidate=False, shared_days=False):
    """Seeded 3-bus toy with a scenario set, sized for exhaustive oracles.

    With ``shared_days`` day 2's demand slice is a copy of day 1's, so the
    two days share their day models.
    """
    from gridmaint.caseio import RunConfig

    rng = np.random.default_rng(seed)
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[0.0, 40.0, 60.0], gen_buses=[1, 3],
                    gen_costs=[10.0, float(rng.uniform(25, 45))],
                    flow_limits=[float(rng.uniform(30, 60)), 100.0, 100.0],
                    p_max=150.0, curtail=500.0,
                    maint_pred=float(rng.uniform(300, 800)))
    cfg = RunConfig(horizon_days=horizon, subperiods=subperiods, alpha=alpha,
                    epsilon=epsilon, cut_family=cut_family,
                    chance_mode=chance_mode, subproblem_gap=1e-9,
                    tau_corr_gen=2, tau_corr_line=2)
    hprime = ["g1", "l1"] + (["g2"] if extra_candidate else [])
    q_rows = {c: np.sort(rng.uniform(0.05, 0.95, size=horizon)) for c in hprime}
    demand_values = rng.uniform(10, 70, size=(3, horizon, subperiods))
    demand_values[0] = 0.0
    if shared_days:
        demand_values[:, 1] = demand_values[:, 0]
    inst = make_instance(net, cfg, demand_values, q_rows, hprime=hprime)
    times = rng.integers(1, horizon + 2, size=(n_scen, len(inst.hprime)))
    scens = ScenarioSet(inst.hprime, times, np.full(n_scen, 1.0 / n_scen), horizon)
    return inst, scens


# (cfg.horizon_days, scenarios.horizon_days, cfg.subperiods, error) against
# toy_instance's 3 days of 2 hours
HORIZON_MISMATCHES = [
    (2, 3, 2, "cfg.horizon_days is 2 but scenarios.horizon_days is 3"),
    (4, 3, 2, "cfg.horizon_days is 4 but scenarios.horizon_days is 3"),
    (3, 4, 2, "cfg.horizon_days is 3 but scenarios.horizon_days is 4"),
    (4, 4, 2, "cfg.horizon_days is 4 but the demand's day count is 3"),
    (3, 3, 3, "cfg.subperiods is 3 but the demand's hour count is 2"),
]


def spec_rows(spec):
    """A spec's rows as it hands them to HiGHS: the row-wise ``start``,
    ``index`` and ``value`` lists, then row ``lb`` and ``ub``."""
    return spec._start, spec._index, spec._value, spec._row_lb, spec._row_ub


def scenario_xi(scenarios, k):
    """Failure-day map of scenario ``k`` (0-based), component -> day."""
    row = scenarios.failure_times[k]
    return {comp: int(row[j]) for j, comp in enumerate(scenarios.component_ids)}


def unavailable_components(components, status):
    """The components whose status bit is 0."""
    return frozenset(c for c, bit in zip(components, status) if bit == 0)


def one_status(schedule, xi_map, day, cfg, components, kinds):
    """Status tuple of a single scenario given as a component -> failure-day map."""
    comps = tuple(xi_map)
    one = ScenarioSet(comps, np.array([[xi_map[c] for c in comps]], dtype=int),
                      np.array([1.0]), cfg.horizon_days)
    return tuple(status_vector(schedule, one, day, cfg, components, kinds)[0].tolist())


def one_same_status(schedule, xi_map, day, cfg, kinds):
    """Same-status period sets of a single scenario given as a failure-day map."""
    xi = np.array([[xi_map.get(c, cfg.tbar) for c in schedule]], dtype=int)
    return same_status_periods(schedule, xi, day, cfg, kinds)[0]


def one_same_cost(schedule, xi_map, tbar):
    """Same-cost period sets of a single scenario given as a failure-day map."""
    xi = np.array([[xi_map.get(c, tbar) for c in schedule]], dtype=int)
    return same_cost_periods(schedule, xi, tbar)[0]


def violated_by(cut, v_values, theta_values=None, tol=1e-9):
    """Whether the point (``v_values``, ``theta_values``), each a map from a
    cut's keys to values (absent keys read 0), breaks ``cut`` by more than
    ``tol``."""
    lhs = sum(c * v_values.get(idx, 0.0) for idx, c in cut.v_coeffs)
    if cut.theta_key is not None:
        lhs += (theta_values or {}).get(cut.theta_key, 0.0)
    return lhs > cut.rhs + tol if cut.sense == "<=" else lhs < cut.rhs - tol


def cut_int_lshaped(schedule, theta_key, q_value, lower, tbar):
    """Classical integer L-shaped optimality cut, complement terms included:
    the reference the master's intLS family is checked against."""
    diff = q_value - lower
    n = len(schedule)
    coeffs = {}
    for comp, t_star in schedule.items():
        for t in range(1, tbar + 1):
            coeffs[(comp, t)] = diff if t != t_star else -diff
    return LinearCut.make(coeffs, rhs=q_value - diff * n, sense=">=",
                          theta_key=theta_key, name="intLS")


def one_lower_bound(net, demand, xi_map, day, cfg, candidates):
    """Lower-bound LP value of a single scenario given as a failure-day map
    over the candidates."""
    kinds = {**dict.fromkeys((g.id for g in net.generators), "gen"),
             **dict.fromkeys((line.id for line in net.lines), "line")}
    xi = np.array([[xi_map.get(c, cfg.tbar) for c in candidates]], dtype=int)
    pattern = lower_bound_patterns(xi, day, cfg, candidates, kinds)[0]
    value, _ = solve_lower_bound(lp_lower_bound(net, demand, pattern, day, cfg,
                                                candidates))
    return value


def reference_lower_bound(inst, failure_row, day, cfg):
    """Lower-bound LP value of one failure row over ``inst.hprime`` in its
    per-period form: each candidate's maintenance decision relaxed to
    columns v_1..v_tbar in [0, 1] with one assignment row, its outage the sum
    of the v_m whose period takes it out on ``day``.  The reference the
    one-column form of :func:`gridmaint.ucmodel.lp_lower_bound` is checked
    against."""
    bits = period_status(np.array([failure_row]), day, cfg, inst.hprime,
                         inst.kinds)[:, 0, :]
    spec = solver.ModelSpec(f"reference_lb_day{day}")
    outage_terms = {}
    for i, comp in enumerate(inst.hprime):
        v = [spec.add_var(lb=0.0, ub=1.0) for _ in range(cfg.tbar)]
        spec.add_eq(dict.fromkeys(v, 1.0), 1.0)
        outage_terms[comp] = {v[m]: 1.0 for m in range(cfg.tbar) if bits[m, i] == 0}
    _add_day_network(spec, inst.net, inst.demand.day(day), cfg, frozenset(),
                     integer_x=False, outage_terms=outage_terms)
    value, _ = solve_lower_bound(spec)
    return value


def reference_status_bit(period, xi, day, tau_pred, tau_corr, horizon):
    """Branchy scalar statement of the availability rule, for cross-checks."""
    if period < xi:  # predictive maintenance scheduled before failure
        if period <= day <= period + tau_pred - 1:
            return 0
    elif xi <= horizon:  # failed first: corrective outage from the failure day
        if xi <= day <= xi + tau_corr - 1:
            return 0
    return 1


# the HiGHS calls highs_calls records
RECORDED_CALLS = ("passOptions", "passModel", "changeColsCost", "changeColsBounds", "run")


@contextmanager
def highs_calls():
    """Record, as ``(instance, method, *args)`` tuples in call order, the
    ``RECORDED_CALLS`` made on every HiGHS instance built inside the block,
    ``scipy.optimize.milp``'s included; a test that wants one spec's calls
    keeps those whose instance is ``spec._highs``."""
    calls = []
    real = solver._highs._Highs

    def recorder(name):
        def method(self, *args):
            calls.append((self, name, *args))
            return getattr(real, name)(self, *args)
        return method

    recording = type("Recording", (real,),
                     {name: recorder(name) for name in RECORDED_CALLS})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._highs, "_Highs", recording)
        yield calls
