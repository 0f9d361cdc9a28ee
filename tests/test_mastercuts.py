import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp

from gridmaint import solver
from gridmaint.caseio import CUT_FAMILIES, RunConfig
from gridmaint.chance import LinearCut, cover_cut
from gridmaint.degrade import ScenarioSet
from gridmaint.mastercuts import MasterState, cut_over_periods, same_status_periods
from gridmaint.ucmodel import status_bit

from cases import cut_int_lshaped, one_same_cost, one_same_status, spec_rows

CFG = RunConfig(horizon_days=4, subperiods=2)
KINDS = {"h1": "gen", "h2": "line"}


def theta_floor(cut, schedule):
    """Lower bound the cut imposes on its theta at a binary schedule point."""
    point = {(h, t): 1.0 for h, t in schedule.items()}
    return cut.rhs - sum(c * point.get(pair, 0.0) for pair, c in cut.v_coeffs)


def singletons(schedule):
    """Period sets of the cut that drops the complement terms (optK)."""
    return {comp: {t} for comp, t in schedule.items()}


def all_schedules(comps, tbar):
    for combo in itertools.product(range(1, tbar + 1), repeat=len(comps)):
        yield dict(zip(comps, combo))


def test_int_lshaped_tight_at_generator():
    sched = {"h1": 2, "h2": 3}
    cut = cut_int_lshaped(sched, 0, q_value=100.0, lower=40.0, tbar=5)
    assert theta_floor(cut, sched) == pytest.approx(100.0)


def test_int_lshaped_matches_stated_instantiation():
    # with Q=100, L=40 the floor at any other binary point drops by 60 per
    # disagreeing component, counting both the missing one and the extra one
    sched = {"h1": 1, "h2": 2}
    cut = cut_int_lshaped(sched, 0, 100.0, 40.0, tbar=3)
    moved = {"h1": 2, "h2": 2}  # one component moved
    assert theta_floor(cut, moved) == pytest.approx(100.0 - 60.0 * 2)


def test_int_lshaped_degenerate_q_equals_l():
    sched = {"h1": 1}
    cut = cut_int_lshaped(sched, 0, q_value=40.0, lower=40.0, tbar=3)
    for other in all_schedules(["h1"], 3):
        assert theta_floor(cut, other) == pytest.approx(40.0)


def test_dropped_complement_tight_and_floors_to_lower():
    sched = {"h1": 2, "h2": 3}
    cut = cut_over_periods(sched, 0, q_value=100.0, lower=40.0,
                           period_sets=singletons(sched), name="optK")
    assert theta_floor(cut, sched) == pytest.approx(100.0)
    moved = {"h1": 1, "h2": 3}
    assert theta_floor(cut, moved) <= 40.0 + 1e-12


def test_dropped_complement_dominates_classical():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sched = {"h1": int(rng.integers(1, 6)), "h2": int(rng.integers(1, 6))}
        q, lower = float(rng.uniform(50, 150)), float(rng.uniform(0, 50))
        classical = cut_int_lshaped(sched, 0, q, lower, tbar=5)
        improved = cut_over_periods(sched, 0, q, lower, singletons(sched), "optK")
        for point in all_schedules(["h1", "h2"], 5):
            assert theta_floor(improved, point) >= theta_floor(classical, point) - 1e-9


def test_same_cost_reduces_to_dropped_complement_on_singletons():
    sched = {"h1": 2, "h2": 3}
    that = {"h1": {2}, "h2": {3}}
    a = cut_over_periods(sched, 0, 100.0, 40.0, that, "optK+")
    b = cut_over_periods(sched, 0, 100.0, 40.0, singletons(sched), "optK")
    assert a.v_coeffs == b.v_coeffs and a.rhs == b.rhs


def test_same_cost_requires_scheduled_period():
    with pytest.raises(ValueError, match="scheduled period"):
        cut_over_periods({"h1": 2}, 0, 100.0, 40.0, {"h1": {3}}, "optK+")


def test_same_cost_dominates_dropped_complement():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sched = {"h1": int(rng.integers(1, 6)), "h2": int(rng.integers(1, 6))}
        xi = {"h1": int(rng.integers(1, 6)), "h2": int(rng.integers(1, 6))}
        q, lower = float(rng.uniform(50, 150)), float(rng.uniform(0, 50))
        that = one_same_cost(sched, xi, tbar=5)
        stronger = cut_over_periods(sched, 0, q, lower, that, "optK+")
        weaker = cut_over_periods(sched, 0, q, lower, singletons(sched), "optK")
        for point in all_schedules(["h1", "h2"], 5):
            assert theta_floor(stronger, point) >= theta_floor(weaker, point) - 1e-9


def test_same_status_dominates_per_period_baseline():
    rng = np.random.default_rng(13)
    for _ in range(20):
        sched = {"h1": int(rng.integers(1, 6)), "h2": int(rng.integers(1, 6))}
        xi = {"h1": int(rng.integers(1, 6)), "h2": int(rng.integers(1, 6))}
        day = int(rng.integers(1, 5))
        q, lower = float(rng.uniform(50, 150)), float(rng.uniform(0, 50))
        ttilde = one_same_status(sched, xi, day, CFG, KINDS)
        stronger = cut_over_periods(sched, (0, day), q, lower, ttilde, "optKT++")
        baseline = cut_over_periods(sched, (0, day), q, lower, singletons(sched),
                                    "optK")
        for point in all_schedules(["h1", "h2"], 5):
            assert theta_floor(stronger, point) >= theta_floor(baseline, point) - 1e-9


# -- the period subsets -----------------------------------------------------------

def test_same_cost_periods_three_cases():
    tbar = 6
    sched = {"pred": 2, "corr": 4, "never": 6}
    xi = {"pred": 4, "corr": 3, "never": 6}
    that = one_same_cost(sched, xi, tbar)
    assert that["pred"] == {2}                       # maintained before failing
    assert that["corr"] == {3, 4, 5, 6}              # failure pins the window
    assert that["never"] == {6}                      # no failure, parked at tbar


def test_same_status_scheduled_period_always_included():
    rng = np.random.default_rng(5)
    for _ in range(30):
        sched = {"h1": int(rng.integers(1, 6))}
        xi = {"h1": int(rng.integers(1, 6))}
        day = int(rng.integers(1, 5))
        ttilde = one_same_status(sched, xi, day, CFG, KINDS)
        assert sched["h1"] in ttilde["h1"]


def test_same_status_early_day_includes_all_later_periods():
    # on a day before any maintenance or failure can bite, every period
    # strictly after the day leaves the component available
    sched = {"h1": 4}
    xi = {"h1": 5}  # extended slot: never fails
    ttilde = one_same_status(sched, xi, 1, CFG, KINDS)
    assert {2, 3, 4, 5} <= ttilde["h1"]


def test_same_status_probe_matches_status_bit():
    rng = np.random.default_rng(9)
    for _ in range(50):
        period = int(rng.integers(1, 6))
        xi = int(rng.integers(1, 6))
        day = int(rng.integers(1, 5))
        ttilde = one_same_status({"h1": period}, {"h1": xi}, day, CFG, KINDS)
        bit = status_bit(period, xi, day, 1, 2, 4)
        for t in range(1, 6):
            expected = status_bit(t, xi, day, 1, 2, 4) == bit
            assert (t in ttilde["h1"]) == expected


def test_same_status_independent_of_other_components():
    sched_a = {"h1": 2, "h2": 1}
    sched_b = {"h1": 2, "h2": 4}
    xi = {"h1": 3, "h2": 2}
    for day in range(1, 5):
        ta = one_same_status(sched_a, xi, day, CFG, KINDS)
        tb = one_same_status(sched_b, xi, day, CFG, KINDS)
        assert ta["h1"] == tb["h1"]


def test_same_status_rows_match_status_bit_per_scenario():
    # one call over the scenario array gives every row's sets, in row order,
    # with components in schedule order
    rng = np.random.default_rng(17)
    sched = {"h2": 3, "h1": 2}
    xi = rng.integers(1, CFG.tbar + 1, size=(25, 2))
    periods = range(1, CFG.tbar + 1)
    for day in range(1, CFG.horizon_days + 1):
        rows = same_status_periods(sched, xi, day, CFG, KINDS)
        assert len(rows) == 25
        for k, sets in enumerate(rows):
            assert list(sets) == ["h2", "h1"]
            for j, comp in enumerate(sched):
                tau = CFG.tau(KINDS[comp])
                bits = {m: status_bit(m, int(xi[k, j]), day, *tau, CFG.horizon_days)
                        for m in periods}
                assert sets[comp] == {m for m in periods if bits[m] == bits[sched[comp]]}


# -- master assembly ----------------------------------------------------------------

def scen(times, horizon):
    times = np.asarray(times)
    return ScenarioSet(("h1",), times, np.full(len(times), 1.0 / len(times)), horizon)


def test_master_requires_scenarios():
    # an empty scenario set cannot even be constructed
    with pytest.raises(ValueError):
        ScenarioSet(("h1",), np.empty((0, 1), dtype=int), np.empty(0), 4)


def test_master_cost_coefficients_no_failure():
    cfg = RunConfig(horizon_days=5, subperiods=2, cut_family="optK")
    scens = scen([[6]], 5)
    master = MasterState(("h1",), scens, cfg, {"h1": (100.0, 300.0)}, KINDS,
                         np.zeros((1, 5)))
    coeffs = [master.obj_v[("h1", t)] for t in range(1, 7)]
    assert coeffs == [100.0] * 5 + [0.0]


def test_master_cost_coefficients_split():
    cfg = RunConfig(horizon_days=4, subperiods=2, cut_family="optK")
    scens = scen([[3]], 4)
    master = MasterState(("h1",), scens, cfg, {"h1": (100.0, 300.0)}, KINDS,
                         np.zeros((1, 4)))
    coeffs = [master.obj_v[("h1", t)] for t in range(1, 6)]
    assert coeffs == [100.0, 100.0, 300.0, 300.0, 300.0]



def test_a_row_naming_a_pair_the_master_lacks_raises():
    # a dropped coefficient would weaken the row, so it is refused whole
    cfg = RunConfig(horizon_days=3, subperiods=1, cut_family="optK")
    master = MasterState(("h1",), scen([[4]], 3), cfg, {"h1": (10.0, 30.0)}, KINDS,
                         np.zeros((1, 3)))
    rows = master.num_rows
    for pair in (("h2", 1), ("h1", cfg.tbar + 1)):
        cut = LinearCut.make({("h1", 1): 1.0, pair: 1.0}, 1.0, name="foreign")
        with pytest.raises(ValueError, match=re.escape(f"'foreign' names [{pair!r}]")):
            master.add_static_row(cut)
        assert master.num_rows == rows

def test_master_solve_honours_theta_floor_and_cuts():
    cfg = RunConfig(horizon_days=2, subperiods=1, cut_family="optK",
                    chance_mode="safe")
    scens = scen([[3]], 2)
    # a per-scenario theta is bounded by the sum of its day bounds
    master = MasterState(("h1",), scens, cfg, {"h1": (10.0, 30.0)}, KINDS,
                         np.array([[3.0, 2.0]]))
    sol = master.solve()
    assert sol.status == "optimal"
    assert sol.schedule["h1"] == 3        # the free no-maintenance slot
    assert solver.solve(master.spec).x[master.tidx[0]] == pytest.approx(5.0)
    # pin theta up at the chosen point and re-solve
    cut = cut_over_periods(sol.schedule, 0, 50.0, 5.0, singletons(sol.schedule),
                           "optK")
    assert master.add_cut(cut)
    assert not master.add_cut(cut)        # deduplicated
    sol2 = master.solve()
    assert sol2.objective >= sol.objective - 1e-9
    assert solver.solve(master.spec).x[master.tidx[0]] >= 5.0 - 1e-9


def test_master_wrong_day_bound_shape_rejected():
    cfg = RunConfig(horizon_days=2, subperiods=1, cut_family="optKT++")
    scens = scen([[1]], 2)
    for bounds in (np.zeros((1, 1)), np.zeros((2, 1)), np.zeros(2)):
        with pytest.raises(ValueError, match="shape"):
            MasterState(("h1",), scens, cfg, {"h1": (10.0, 30.0)}, KINDS, bounds)


def test_master_cut_log():
    cfg = RunConfig(horizon_days=2, subperiods=1, cut_family="optK",
                    chance_mode="safe")
    scens = scen([[3]], 2)
    master = MasterState(("h1",), scens, cfg, {"h1": (10.0, 30.0)}, KINDS,
                         np.zeros((1, 2)))
    master.add_cut(cut_over_periods({"h1": 3}, 0, 42.0, 0.0, {"h1": {3}}, "optK"))
    log = master.cut_log()
    assert log.count("\n") == 1 and "theta[0]" in log


# every family adds one cut per recourse variable (the multicut form)
@pytest.mark.parametrize("family", [pytest.param(family, id=f"{family}-multi")
                                    for family in CUT_FAMILIES])
def test_optimality_cuts_cover_every_theta_once(family):
    # one round gives each recourse variable exactly one row, tight at the
    # schedule it was generated for
    rng = np.random.default_rng(23)
    cfg = RunConfig(horizon_days=4, subperiods=2, cut_family=family)
    n = 5
    scens = ScenarioSet(("h1", "h2"), rng.integers(1, cfg.tbar + 1, size=(n, 2)),
                        np.full(n, 1.0 / n), cfg.horizon_days)
    day_bounds = rng.uniform(0.0, 10.0, size=(n, cfg.horizon_days))
    master = MasterState(("h1", "h2"), scens, cfg,
                         {"h1": (100.0, 300.0), "h2": (50.0, 200.0)}, KINDS,
                         day_bounds)
    assert len(master.tidx) == n * (cfg.horizon_days if family == "optKT++" else 1)
    day_vals = day_bounds[:, :, None] + rng.uniform(0.0, 50.0,
                                                    size=(n, cfg.horizon_days, 2))
    sched = {"h1": 2, "h2": 4}
    cuts = master.optimality_cuts(sched, day_vals)

    def q_value(key):
        if family == "optKT++":
            k, t = key
            return day_vals[k, t - 1, 1]
        return day_vals[key, :, 1].sum()

    assert sorted(cut.theta_key for cut in cuts) == sorted(master.tidx)
    for cut in cuts:
        assert theta_floor(cut, sched) == pytest.approx(q_value(cut.theta_key))


def test_int_lshaped_family_matches_the_classical_cut():
    # the intLS cut is the singleton cut with lower bound 2L - q; on the
    # assignment rows it imposes the classical cut's floor at every binary point
    rng = np.random.default_rng(29)
    cfg = RunConfig(horizon_days=4, subperiods=2, cut_family="intLS")
    n, comps = 4, ("h1", "h2")
    for _ in range(10):
        scens = ScenarioSet(comps, rng.integers(1, cfg.tbar + 1, size=(n, 2)),
                            np.full(n, 1.0 / n), cfg.horizon_days)
        day_bounds = rng.uniform(0.0, 10.0, size=(n, cfg.horizon_days))
        master = MasterState(comps, scens, cfg,
                             {"h1": (100.0, 300.0), "h2": (50.0, 200.0)}, KINDS,
                             day_bounds)
        day_vals = day_bounds[:, :, None] + rng.uniform(
            0.0, 50.0, size=(n, cfg.horizon_days, 2))
        sched = {comp: int(rng.integers(1, cfg.tbar + 1)) for comp in comps}
        reference = [cut_int_lshaped(sched, k, sum(day_vals[k, :, 1].tolist()),
                                     master.lower_bounds[k], cfg.tbar)
                     for k in range(n)]
        cuts = master.optimality_cuts(sched, day_vals)
        assert [cut.name for cut in cuts] == ["intLS"] * n
        for cut, ref in zip(cuts, reference, strict=True):
            assert cut.theta_key == ref.theta_key
            for point in all_schedules(comps, cfg.tbar):
                assert theta_floor(cut, point) == pytest.approx(
                    theta_floor(ref, point), rel=1e-9, abs=1e-9)


def dense_rows(master):
    """The master model's rows as (coefficient vector, lb, ub) triples."""
    start, index, value, row_lb, row_ub = spec_rows(master.spec)
    a = sp.csr_matrix((value, index, start),
                      shape=(master.spec.num_rows, master.spec.num_vars)).toarray()
    return list(zip(a.tolist(), row_lb, row_ub))


def expected_row(master, cut):
    coeffs = [0.0] * master.spec.num_vars
    for pair, c in cut.v_coeffs:
        coeffs[master.vidx[pair]] = c
    if cut.theta_key is not None:
        coeffs[master.tidx[cut.theta_key]] = 1.0
    inf = float("inf")
    return (coeffs, -inf, cut.rhs) if cut.sense == "<=" else (coeffs, cut.rhs, inf)


def test_master_model_grows_one_row_per_added_row_in_order():
    rng = np.random.default_rng(31)
    cfg = RunConfig(horizon_days=3, subperiods=1, cut_family="optK+")
    comps, n = ("h1", "h2"), 3
    scens = ScenarioSet(comps, rng.integers(1, cfg.tbar + 1, size=(n, 2)),
                        np.full(n, 1.0 / n), cfg.horizon_days)
    day_bounds = rng.uniform(0.0, 5.0, size=(n, cfg.horizon_days))
    costs = {"h1": (10.0, 30.0), "h2": (5.0, 20.0)}
    master = MasterState(comps, scens, cfg, costs, KINDS, day_bounds)
    assert master.num_rows == master.spec.num_rows == len(comps)
    day_vals = [day_bounds[:, :, None] + rng.uniform(0.0, 80.0,
                                                     size=(n, cfg.horizon_days, 2))
                for _ in range(2)]
    static = [LinearCut.make({("h1", 1): 1.0}, 0.0, "<=", name="static"),
              LinearCut.make({("h2", 4): 1.0, ("h1", 4): 1.0}, 1.0, "<=",
                             name="static")]
    chance_cuts = [cover_cut([("h1", 2), ("h2", 2)], 2),
                   cover_cut([("h1", 3), ("h2", 3)], 2)]
    opt = master.optimality_cuts({"h1": 4, "h2": 4}, day_vals[0]) \
        + master.optimality_cuts({"h1": 2, "h2": 3}, day_vals[1])
    # interleaved: a static row, chance cuts and optimality cuts in any order,
    # with duplicates that add nothing
    steps = [("static", static[0]), ("opt", opt[0]), ("chance", chance_cuts[0]),
             ("opt", opt[0]), ("static", static[1])] \
        + [("opt", cut) for cut in opt[1:]] \
        + [("chance", chance_cuts[1]), ("chance", chance_cuts[0])]
    added = []
    for pool, cut in steps:
        if pool == "static":
            master.add_static_row(cut)
            added.append(cut)
        elif master.add_cut(cut, pool=pool):
            added.append(cut)
        assert master.num_rows == master.spec.num_rows == len(comps) + len(added)
    assert len(added) == len(steps) - 2
    rows = dense_rows(master)
    assert rows[len(comps):] == [expected_row(master, cut) for cut in added]

    fresh = MasterState(comps, scens, cfg, costs, KINDS, day_bounds)
    for cut in static:
        fresh.add_static_row(cut)
    for cut in master.chance_cuts:
        fresh.add_cut(cut, pool="chance")
    for cut in master.opt_cuts:
        fresh.add_cut(cut)
    grown, built = master.solve(), fresh.solve()
    assert grown.status == built.status == "optimal"
    assert grown.schedule == built.schedule
    assert grown.objective == pytest.approx(built.objective, rel=1e-9, abs=1e-9)
