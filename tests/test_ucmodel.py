import itertools

import numpy as np
import pytest

from gridmaint.caseio import DemandGrid, RunConfig
from gridmaint.degrade import ScenarioSet
from gridmaint.ucmodel import (build_subproblem, maintenance_cost_coeffs,
                               solve_subproblem, status_bit, status_vector)

from cases import (build_net, one_lower_bound, one_status, reference_status_bit,
                   unavailable_components)


def day_cfg(S=24, T=2, **kw):
    return RunConfig(horizon_days=T, subperiods=S, **kw)


def solve_day(net, demand_row, unavailable=frozenset(), cfg=None, **kw):
    """The built day model and its optimal outcome."""
    cfg = cfg or day_cfg(S=demand_row.shape[1])
    model = build_subproblem(net, demand_row, frozenset(unavailable), cfg, **kw)
    return model, solve_subproblem(model, 1e-9)


# -- status vectors ------------------------------------------------------------

WORKED_CFG = RunConfig(horizon_days=4, subperiods=2, tau_pred_gen=1, tau_corr_gen=2,
                      tau_pred_line=1, tau_corr_line=2)
WORKED_KINDS = {"h1": "gen", "h2": "line"}


def worked_status(schedule, xi):
    return [one_status(schedule, xi, t, WORKED_CFG, ("h1", "h2"), WORKED_KINDS)
            for t in range(1, 5)]


def test_status_worked_example_both_period_two():
    # generator fails day 1 before its day-2 slot (corrective, two days down);
    # the line's day-2 slot preempts its day-4 failure (predictive, one day)
    cols = worked_status({"h1": 2, "h2": 2}, {"h1": 1, "h2": 4})
    rows = list(zip(*cols))
    assert rows[0] == (0, 0, 1, 1)
    assert rows[1] == (1, 0, 1, 1)


def test_status_worked_example_shifted_schedule():
    # corrective window is pinned to the failure day however late the slot is;
    # the line maintained on day 3 is down exactly that day
    cols = worked_status({"h1": 4, "h2": 3}, {"h1": 1, "h2": 4})
    rows = list(zip(*cols))
    assert rows[0] == (0, 0, 1, 1)
    assert rows[1] == (1, 1, 0, 1)
    # first and last day statuses agree with the period-two schedule
    base = worked_status({"h1": 2, "h2": 2}, {"h1": 1, "h2": 4})
    assert cols[0] == base[0] and cols[3] == base[3]


def test_status_no_failure_no_maintenance_all_available():
    cols = worked_status({"h1": 5, "h2": 5}, {"h1": 5, "h2": 5})
    assert all(col == (1, 1) for col in cols)


def test_status_window_clamped_to_horizon():
    # corrective outage starting on the last day does not wrap or error
    assert status_bit(period=5, xi=4, day=4, tau_pred=1, tau_corr=3, horizon=4) == 0
    assert status_bit(period=5, xi=4, day=3, tau_pred=1, tau_corr=3, horizon=4) == 1


def test_status_maintenance_on_failure_day_is_corrective():
    # period == xi means the failure hits first
    assert status_bit(period=2, xi=2, day=2, tau_pred=1, tau_corr=2, horizon=4) == 0
    assert status_bit(period=2, xi=2, day=3, tau_pred=1, tau_corr=2, horizon=4) == 0
    assert status_bit(period=2, xi=2, day=1, tau_pred=1, tau_corr=2, horizon=4) == 1


@pytest.mark.parametrize("tau_pred", [1, 2, 3])
@pytest.mark.parametrize("tau_corr", [1, 2, 3])
def test_status_bit_broadcast_matches_scalar_reference(tau_pred, tau_corr):
    horizon = 5
    tbar = horizon + 1
    grid = np.meshgrid(np.arange(1, tbar + 1), np.arange(1, tbar + 1),
                       np.arange(1, horizon + 1), indexing="ij")
    period, xi, day = (axis.astype(np.int16) for axis in grid)
    bits = status_bit(period, xi, day, tau_pred, tau_corr, horizon)
    assert bits.dtype == np.uint8 and bits.shape == (tbar, tbar, horizon)
    for m, x, d in itertools.product(range(1, tbar + 1), range(1, tbar + 1),
                                     range(1, horizon + 1)):
        want = reference_status_bit(m, x, d, tau_pred, tau_corr, horizon)
        assert bits[m - 1, x - 1, d - 1] == want
        scalar = status_bit(m, x, d, tau_pred, tau_corr, horizon)
        assert type(scalar) is int and scalar == want


def test_status_vector_reads_failure_days_by_component_id():
    # a scenario file may order its columns differently from the component
    # tuple, or leave a component out (it then never fails)
    cfg = WORKED_CFG
    comps = ("h1", "h2")
    rng = np.random.default_rng(3)
    times = rng.integers(1, cfg.tbar + 1, size=(30, 2))
    probs = np.full(30, 1 / 30)
    schedule = {"h1": 2, "h2": 3}
    ordered = ScenarioSet(comps, times, probs, cfg.horizon_days)
    swapped = ScenarioSet(("h2", "h1"), times[:, ::-1], probs, cfg.horizon_days)
    no_h2 = ScenarioSet(("h1",), times[:, :1], probs, cfg.horizon_days)
    never = times.copy()
    never[:, 1] = cfg.tbar
    h2_never_fails = ScenarioSet(comps, never, probs, cfg.horizon_days)
    for day in range(1, cfg.horizon_days + 1):
        rows = status_vector(schedule, ordered, day, cfg, comps, WORKED_KINDS)
        assert rows.shape == (30, 2) and rows.dtype == np.uint8
        for k in range(30):
            assert tuple(rows[k]) == tuple(
                reference_status_bit(schedule[c], int(times[k, j]), day,
                                     *cfg.tau(WORKED_KINDS[c]), cfg.horizon_days)
                for j, c in enumerate(comps))
        assert np.array_equal(
            status_vector(schedule, swapped, day, cfg, comps, WORKED_KINDS), rows)
        assert np.array_equal(
            status_vector(schedule, no_h2, day, cfg, comps, WORKED_KINDS),
            status_vector(schedule, h2_never_fails, day, cfg, comps, WORKED_KINDS))


def test_unavailable_components_helper():
    comps = ("a", "b", "c")
    assert unavailable_components(comps, (1, 0, 0)) == frozenset({"b", "c"})


# -- maintenance cost coefficients ----------------------------------------------

def test_cost_coeffs_no_failure():
    coeffs = maintenance_cost_coeffs(100.0, 300.0, xi=6, tbar=6, period=np.arange(1, 7))
    assert list(coeffs) == [100.0] * 5 + [0.0]


def test_cost_coeffs_split_at_failure():
    coeffs = maintenance_cost_coeffs(100.0, 300.0, xi=3, tbar=5, period=np.arange(1, 6))
    assert list(coeffs) == [100.0, 100.0, 300.0, 300.0, 300.0]


def test_cost_coeffs_at_a_period_match_the_full_vector():
    tbar = 5
    xi = periods = np.arange(1, tbar + 1)
    full = maintenance_cost_coeffs(100.0, 300.0, xi[:, None], tbar, period=periods)
    assert full.shape == (tbar, tbar)
    for period in range(1, tbar + 1):
        at = maintenance_cost_coeffs(100.0, 300.0, xi, tbar, period=period)
        assert list(at) == list(full[:, period - 1])
        for x in range(1, tbar + 1):
            assert list(full[x - 1]) == list(maintenance_cost_coeffs(
                100.0, 300.0, x, tbar, period=periods))


# -- one-day subproblems ---------------------------------------------------------

def test_zero_demand_costs_nothing():
    net = build_net(n_bus=2, demands=[0.0, 0.0])
    model, res = solve_day(net, np.zeros((2, 4)))
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert np.all(res.x[model.idx["x"]] == 0)


def test_single_bus_dispatch_cost():
    net = build_net(n_bus=1, demands=[100.0], p_max=200.0, gen_cost=10.0,
                    curtail=1000.0)
    model, res = solve_day(net, np.full((1, 24), 100.0))
    assert res.objective == pytest.approx(24 * 1000.0)
    assert np.allclose(res.x[model.idx["p"]], 100.0)


def test_unavailable_generator_forces_curtailment():
    net = build_net(n_bus=1, demands=[100.0], p_max=200.0, gen_cost=10.0,
                    curtail=1000.0)
    model, res = solve_day(net, np.full((1, 24), 100.0), unavailable={"g1"})
    assert res.objective == pytest.approx(24 * 100.0 * 1000.0)
    assert np.allclose(res.x[model.idx["q"]], 100.0)
    assert np.all(res.x[model.idx["x"]] == 0)


def congested_triangle():
    # cheap unit at bus 1, expensive at bus 3, all demand at bus 3; equal
    # susceptances split a 1->3 transfer 2/3 direct and 1/3 through bus 2
    return build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                     demands=[0.0, 0.0, 150.0], curtail=1000.0,
                     gen_buses=[1, 3], gen_costs=[10.0, 50.0],
                     flow_limits=[10.0, 100.0, 100.0])


def test_triangle_congestion_matches_hand_lp():
    # the 10 MW limit on line 1-2 caps the cheap unit at 30 MW, so the hand
    # optimum is 30 * 10 + 120 * 50 per hour
    model, res = solve_day(congested_triangle(), np.array([[0.0], [0.0], [150.0]]))
    assert res.objective == pytest.approx(30 * 10.0 + 120 * 50.0, rel=1e-7)
    assert abs(res.x[model.idx["f"][0, 0]]) == pytest.approx(10.0, abs=1e-6)


def test_line_outage_redistributes_flows():
    # removing line 1-2 kills the loop-flow split: the direct line now carries
    # the whole cheap transfer up to its own 100 MW limit
    model, res = solve_day(congested_triangle(), np.array([[0.0], [0.0], [150.0]]),
                           unavailable={"l1"})
    f = model.idx["f"]
    assert res.objective == pytest.approx(100 * 10.0 + 50 * 50.0, rel=1e-7)
    assert res.x[f[0, 0]] == 0.0
    assert res.x[f[1, 0]] == pytest.approx(100.0, abs=1e-6)
    # the down line's flow is fixed at zero; the in-service line keeps its limit
    spec = model.spec
    assert spec._lb[f[0, 0]] == spec._ub[f[0, 0]] == 0.0
    assert (spec._lb[f[1, 0]], spec._ub[f[1, 0]]) == (-100.0, 100.0)


def test_min_up_time_enforced_within_day():
    net = build_net(n_bus=1, demands=[100.0], p_max=200.0, gen_cost=10.0,
                    noload=100.0, curtail=10000.0, min_up=3)
    demand = np.array([[100.0, 0.0, 0.0, 100.0, 0.0, 0.0]])
    model, res = solve_day(net, demand)
    # the hour-4 restart drags hours 5-6 on at no-load cost; without the
    # min-up rows the optimum would be 2200 with x = [1,0,0,1,0,0]
    assert res.objective == pytest.approx(2400.0)
    assert list(res.x[model.idx["x"][0]]) == [1, 0, 0, 1, 1, 1]


def test_ramping_limits_force_curtailment():
    net = build_net(n_bus=1, demands=[100.0], p_max=200.0, gen_cost=10.0,
                    curtail=1000.0, ramp=30.0)
    _, res = solve_day(net, np.array([[50.0, 100.0]]))
    assert res.objective == pytest.approx(10 * (50 + 80) + 1000 * 20)


def test_startup_cost_counted_after_first_hour():
    # p_min above zero makes idling at hour 1 infeasible (nowhere to put the
    # power), so serving hour 2 requires a priced start
    net = build_net(n_bus=1, demands=[100.0], p_max=200.0, p_min=80.0,
                    gen_cost=1.0, curtail=1000.0, startup=500.0)
    demand = np.array([[0.0, 100.0]])
    model, res = solve_day(net, demand)
    assert res.objective == pytest.approx(100.0 + 500.0)
    assert res.x[model.idx["u"][0, 1]] == pytest.approx(1.0)


def test_first_hour_start_is_free():
    net = build_net(n_bus=1, demands=[100.0], p_max=200.0, gen_cost=1.0,
                    curtail=1000.0, startup=500.0)
    _, res = solve_day(net, np.array([[100.0]]))
    assert res.objective == pytest.approx(100.0)


def test_status_sufficiency_same_unavailable_same_cost():
    rng = np.random.default_rng(6)
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[30.0, 40.0, 50.0], flow_limit=60.0)
    cfg = day_cfg(S=3, T=4)
    comps = ("g1", "g2", "l1")
    kinds = {"g1": "gen", "g2": "gen", "l1": "line"}
    demand = rng.uniform(10, 60, size=(3, 3))
    for _ in range(12):
        sched_a = {c: int(rng.integers(1, 6)) for c in comps}
        sched_b = {c: int(rng.integers(1, 6)) for c in comps}
        xi_a = {c: int(rng.integers(1, 6)) for c in comps}
        xi_b = {c: int(rng.integers(1, 6)) for c in comps}
        day = int(rng.integers(1, 5))
        sa = one_status(sched_a, xi_a, day, cfg, comps, kinds)
        sb = one_status(sched_b, xi_b, day, cfg, comps, kinds)
        if sa != sb:
            continue
        _, ra = solve_day(net, demand, unavailable_components(comps, sa), cfg)
        _, rb = solve_day(net, demand, unavailable_components(comps, sb), cfg)
        assert ra.objective == pytest.approx(rb.objective, abs=1e-9)


def test_every_status_pattern_is_feasible():
    net = build_net(n_bus=2, n_gen=2, demands=[50.0, 80.0], flow_limit=40.0)
    cfg = day_cfg(S=2)
    demand = np.array([[50.0, 60.0], [80.0, 20.0]])
    comps = ("g1", "g2", "l1")
    for mask in range(8):
        down = frozenset(c for i, c in enumerate(comps) if mask >> i & 1)
        _, res = solve_day(net, demand, down, cfg)
        assert res.status == "optimal"


def test_omitted_bounds_drop_rows():
    net = build_net(n_bus=2, demands=[0.0, 30.0], flow_limit=100.0)
    cfg = day_cfg(S=1)
    omit = frozenset({("l1", "ub", 0), ("l1", "lb", 0)})
    _, base = solve_day(net, np.array([[0.0], [30.0]]), cfg=cfg)
    _, dropped = solve_day(net, np.array([[0.0], [30.0]]), cfg=cfg, omit_bounds=omit)
    assert dropped.objective == pytest.approx(base.objective)


def test_day_solve_out_of_time_returns_its_limit():
    net = build_net(n_bus=2, demands=[0.0, 30.0], flow_limit=100.0)
    model = build_subproblem(net, np.array([[0.0], [30.0]]), frozenset(), day_cfg(S=1))
    assert solve_subproblem(model, 1e-9, time_limit=0.0).status == "limit"
    assert solve_subproblem(model, 1e-9, time_limit=60.0).status == "optimal"


# -- lower bounds ---------------------------------------------------------------

def test_lower_bound_zero_demand():
    net = build_net(n_bus=2, demands=[0.0, 0.0])
    cfg = day_cfg(S=3, T=2)
    grid = DemandGrid((1, 2), np.zeros((2, 2, 3)))
    lb = one_lower_bound(net, grid, {"g1": 3}, 1, cfg, ("g1",))
    assert lb == pytest.approx(0.0, abs=1e-9)


def test_lower_bound_nonnegative_and_below_recourse():
    rng = np.random.default_rng(14)
    net = build_net(n_bus=2, n_gen=2, demands=[40.0, 60.0], flow_limit=50.0,
                    gen_cost=10.0, curtail=500.0)
    cfg = day_cfg(S=2, T=3)
    comps = ("g1", "l1")
    kinds = {"g1": "gen", "l1": "line"}
    values = rng.uniform(0, 70, size=(2, 3, 2))
    grid = DemandGrid((1, 2), values)
    for trial in range(4):
        xi = {c: int(rng.integers(1, 5)) for c in comps}
        for day in (1, 2, 3):
            lb = one_lower_bound(net, grid, xi, day, cfg, comps)
            assert lb >= -1e-9
            # enumerate every binary schedule; the LP must stay below Q_t
            for t_g in range(1, 5):
                for t_l in range(1, 5):
                    sched = {"g1": t_g, "l1": t_l}
                    status = one_status(sched, xi, day, cfg, comps, kinds)
                    _, res = solve_day(net, grid.day(day),
                                       unavailable_components(comps, status), cfg)
                    assert lb <= res.objective + 1e-6
