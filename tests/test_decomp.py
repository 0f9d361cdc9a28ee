import dataclasses
import math
import time

import numpy as np
import pytest

from gridmaint import chance, decomp, mastercuts, solver, ucmodel
from gridmaint.caseio import CUT_FAMILIES, DemandGrid, RunConfig
from gridmaint.chance import SafeApproxBlock
from gridmaint.degrade import ScenarioSet
from gridmaint.pboracle import joint_oracle
from gridmaint.preflow import RedundancyEntry, RedundancyReport

from cases import (HORIZON_MISMATCHES, build_net, make_instance, one_status,
                   scenario_xi, toy_instance, unavailable_components)
from oracle_extform import chance_feasible_set, enumerate_schedules, extensive_solve


@pytest.mark.parametrize("days, scenario_days, hours, error", HORIZON_MISMATCHES)
def test_plan_rejects_a_horizon_its_inputs_do_not_share(days, scenario_days, hours,
                                                        error):
    # a shorter horizon used to plan over the first days only, a longer one
    # to raise an IndexError
    inst, scens = toy_instance(seed=7)
    cfg = dataclasses.replace(inst.cfg, horizon_days=days, subperiods=hours)
    scens = ScenarioSet(scens.component_ids, scens.failure_times, scens.probs,
                        scenario_days)
    with pytest.raises(ValueError, match=error):
        decomp.solve(inst, scens, cfg)


def test_no_candidates_is_pure_unit_commitment():
    net = build_net(n_bus=2, demands=[0.0, 50.0], gen_cost=10.0, curtail=500.0)
    cfg = RunConfig(horizon_days=2, subperiods=2, epsilon=1e-8,
                    cut_family="optKT++", chance_mode="exact", alpha=0.9,
                    subproblem_gap=1e-9)
    values = np.tile(np.array([0.0, 50.0])[:, None, None], (1, 2, 2))
    inst = make_instance(net, cfg, values, {}, hprime=())
    scens = ScenarioSet((), np.empty((1, 0), dtype=int), np.array([1.0]), 2)
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "optimal"
    expected = 0.0
    for day in (1, 2):
        model = ucmodel.build_subproblem(net, inst.demand.day(day), frozenset(), cfg)
        expected += ucmodel.solve_subproblem(model, 1e-9).objective
    assert report.objective == pytest.approx(expected, rel=1e-8)


def duplicated_and_merged(scens):
    """``scens`` with its rows repeated unevenly, and that set merged by
    ``distinct()``, whose rows carry unequal probabilities."""
    rows = [0, 0, 1, 2, 2, 2]
    dup = ScenarioSet(scens.component_ids, scens.failure_times[rows],
                      np.full(len(rows), 1.0 / len(rows)), scens.horizon_days)
    return dup, dup.distinct()[0]


# every family adds one cut per recourse variable (the multicut form); the
# weighted cases plan a set with repeated rows and its merge
@pytest.mark.parametrize("family,weighted", [
    pytest.param(family, weighted, id=f"{family}-{'weighted' if weighted else 'multi'}")
    for weighted in (False, True) for family in CUT_FAMILIES])
def test_matches_extensive_form(family, weighted):
    inst, scens = toy_instance(seed=7, cut_family=family)
    cfg = inst.cfg
    sets = duplicated_and_merged(scens) if weighted else (scens,)
    reports = []
    for s in sets:
        report = decomp.solve(inst, s, cfg)
        assert report.status == "optimal"
        expected, _ = extensive_solve(inst, s, cfg, chance="enum")
        assert report.objective == pytest.approx(expected, rel=1e-6)
        # and the incumbent really is chance-feasible
        assert joint_oracle(report.schedule, inst.table, cfg.rho_gen,
                            cfg.rho_line) >= 1 - cfg.alpha
        reports.append(report)
    if weighted:
        (dup, merged), merged_set = reports, sets[1]
        assert len(set(merged_set.probs.tolist())) > 1
        assert merged.objective == pytest.approx(dup.objective, rel=1e-9)
        assert merged.bound == pytest.approx(dup.bound, rel=1e-9)


@pytest.mark.parametrize("seed,tau_p,tau_c,horizon,family", [
    (1, 2, 3, 4, "optK"), (2, 2, 2, 4, "optK+"), (3, 1, 1, 3, "optKT++"),
    (17, 2, 3, 3, "intLS"),
])
def test_matches_extensive_form_other_durations(seed, tau_p, tau_c, horizon,
                                                family):
    # multi-day predictive windows and equal pred/corr durations change the
    # clamping and status geometry; the oracle must still agree
    rng = np.random.default_rng(1000 + seed)
    from cases import make_instance
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[0.0, 40.0, 60.0], gen_buses=[1, 3],
                    gen_costs=[10.0, float(rng.uniform(25, 45))],
                    flow_limits=[float(rng.uniform(30, 60)), 100.0, 100.0],
                    p_max=150.0, curtail=500.0,
                    maint_pred=float(rng.uniform(300, 800)))
    cfg = RunConfig(horizon_days=horizon, subperiods=2, alpha=0.3,
                    epsilon=1e-8, cut_family=family, chance_mode="exact",
                    subproblem_gap=1e-9, tau_pred_gen=tau_p, tau_corr_gen=tau_c,
                    tau_pred_line=tau_p, tau_corr_line=tau_c)
    q = {c: np.sort(rng.uniform(0.05, 0.95, size=horizon)) for c in ("g1", "l1")}
    vals = rng.uniform(10, 70, size=(3, horizon, 2))
    vals[0] = 0.0
    inst = make_instance(net, cfg, vals, q, hprime=("g1", "l1"))
    times = rng.integers(1, horizon + 2, size=(3, 2))
    scens = ScenarioSet(inst.hprime, times, np.full(3, 1 / 3), horizon)
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "optimal"
    expected, _ = extensive_solve(inst, scens, cfg, chance="enum")
    assert report.objective == pytest.approx(expected, rel=1e-6)


def test_exact_and_safe_agree_when_constraint_void():
    inst, scens = toy_instance(seed=3, alpha=0.999)
    exact = decomp.solve(inst, scens, inst.cfg)
    safe_cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "chance_mode": "safe"})
    safe = decomp.solve(inst, scens, safe_cfg)
    off = decomp.solve(inst, scens, inst.cfg, enforce_chance=False)
    assert exact.status == safe.status == off.status == "optimal"
    assert exact.objective == pytest.approx(off.objective, rel=1e-8)
    assert safe.objective == pytest.approx(off.objective, rel=1e-8)


def test_safe_mode_counts_points_accepted_within_the_tolerance(monkeypatch):
    inst, scens = toy_instance(seed=11, chance_mode="safe")
    target = 1.0 - inst.cfg.alpha
    y = 1.0 - (target - 5e-7) / 0.9  # every point is 5e-7 short of the product target
    monkeypatch.setattr(chance.SafeApproxBlock, "loads", lambda self, s: (0.1, y))
    report = decomp.solve(inst, scens, inst.cfg)
    assert report.status == "optimal" and report.counts["chance_cuts"] == 0
    assert report.counts["boundary_accepts"] == report.iterations >= 1


@pytest.mark.parametrize("mode", ["exact", "safe"])
def test_a_rule_returning_only_pooled_cuts_raises(monkeypatch, mode):
    inst, scens = toy_instance(seed=11, chance_mode=mode)
    pooled = chance.LinearCut.make({}, 0.0, name="always")
    monkeypatch.setattr(chance.ChanceRule, "check", lambda self, s: ([pooled], "x"))
    run = decomp.DecompositionRun(inst, scens, inst.cfg)
    solves = []
    solve = run.master.solve
    monkeypatch.setattr(run.master, "solve",
                        lambda **kw: solves.append(solve(**kw)) or solves[-1])
    run.iterate_once()
    assert run.status is None and len(run.master.chance_cuts) == 1
    # the master relaxes the problem, so a point the rule cuts off still
    # bounds it; the bound used to be taken only from accepted points
    assert math.isfinite(solves[0].bound) and run.lb == solves[0].bound
    with pytest.raises(solver.SolverError, match="chance cuts exclude"):
        run.iterate_once()


def test_safe_mode_schedule_is_conservative():
    inst, scens = toy_instance(seed=11, alpha=0.25)
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "chance_mode": "safe"})
    report = decomp.solve(inst, scens, cfg)
    if report.status == "infeasible":
        pytest.skip("safe approximation admits no schedule on this draw")
    block = SafeApproxBlock(inst.table, cfg.rho_gen, cfg.rho_line, cfg.alpha)
    assert block.accepts(report.schedule)
    assert joint_oracle(report.schedule, inst.table, cfg.rho_gen,
                        cfg.rho_line) >= 1 - cfg.alpha
    # conservatism: never better than the exact optimum
    exact = decomp.solve(inst, scens, inst.cfg)
    assert report.objective >= exact.objective - 1e-6


def test_iterate_once_branches():
    # this draw meets one chance-infeasible master point before converging
    inst, scens = toy_instance(seed=47, alpha=0.3, extra_candidate=True)
    run = decomp.DecompositionRun(inst, scens, inst.cfg)
    seen_cover = seen_eval = False
    while True:
        opt_before = len(run.master.opt_cuts)
        chance_before = len(run.master.chance_cuts)
        solved_before = run.cache.solved + run.cache.aliased
        run.iterate_once()
        last = run.history[-1]
        if "event" in last:
            # chance-infeasible branch: the cover pool grows by one, the
            # optimality pool and subproblem tallies stay untouched
            assert len(run.master.chance_cuts) == chance_before + 1
            assert len(run.master.opt_cuts) == opt_before
            assert run.cache.solved + run.cache.aliased == solved_before
            seen_cover = True
        else:
            seen_eval = True
            cells = scens.size * inst.cfg.horizon_days
            delta = run.cache.solved + run.cache.aliased - solved_before
            assert delta == cells
        assert run.iterations < 500
        if run.status is not None:
            break
    assert run.status == "optimal" and seen_cover and seen_eval
    report = run.report()
    assert report.objective == pytest.approx(run.ub)


def test_repeat_schedule_costs_no_new_solves():
    inst, scens = toy_instance(seed=5)
    cache = decomp.StatusCache()
    schedule = {comp: 1 for comp in inst.hprime}
    decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, cache)
    first_solved = cache.solved
    assert first_solved > 0
    decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, cache)
    assert cache.solved == first_solved  # every cell aliased on repeat


def test_alias_accounting_partitions_all_cells():
    inst, scens = toy_instance(seed=9)
    report = decomp.solve(inst, scens, inst.cfg)
    cells = scens.size * inst.cfg.horizon_days
    evaluated = [h for h in report.history if "gap" in h]
    assert evaluated
    for h in evaluated:
        assert h["n_solved"] + h["n_aliased"] == cells
    assert sum(h["n_aliased"] for h in report.history) == report.counts["aliased"]


def test_bounds_are_monotone_across_iterations():
    inst, scens = toy_instance(seed=13)
    report = decomp.solve(inst, scens, inst.cfg)
    lbs = [h["lb"] for h in report.history if "gap" in h]
    ubs = [h["ub"] for h in report.history if "gap" in h]
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
    assert report.bound <= report.objective + 1e-6


def test_scenarios_beyond_the_candidates_raise():
    # the bounds, the recourse and the master read failures of H' only; a set
    # that fails g2, l2 and l3 on day 1 once planned "optimal" with its bound
    # far above its objective
    inst, _ = toy_instance(seed=7)
    horizon = inst.cfg.horizon_days
    times = np.array([[2, 1, 4, 1, 1], [4, 1, 3, 1, 1], [1, 1, 4, 1, 1],
                      [3, 1, 2, 1, 1]])
    probs = np.full(4, 0.25)
    every = ScenarioSet(("g1", "g2", "l1", "l2", "l3"), times, probs, horizon)
    with pytest.raises(ValueError, match=r"\['g2', 'l2', 'l3'\]"):
        decomp.solve(inst, every, inst.cfg)
    # a set over part of H' stays legal: the uncovered candidate never fails
    report = decomp.solve(inst, ScenarioSet(("g1",), times[:, :1], probs, horizon),
                          inst.cfg)
    assert report.status == "optimal"
    assert report.objective == pytest.approx(11898.014546427898, rel=1e-9)
    assert report.bound <= report.objective + 1e-6


def test_a_bound_above_the_objective_raises(monkeypatch):
    inst, scens = toy_instance(seed=7)
    real = decomp.compute_lower_bounds

    def raised(*args, **kwargs):
        bounds, counts = real(*args, **kwargs)
        return bounds * 20 + 1000, counts

    monkeypatch.setattr(decomp, "compute_lower_bounds", raised)
    with pytest.raises(solver.SolverError, match="lower bound .* exceeds the objective"):
        decomp.solve(inst, scens, inst.cfg)


def test_single_thread_runs_are_identical():
    runs = []
    for _ in range(2):
        inst, scens = toy_instance(seed=17)
        runs.append(decomp.solve(inst, scens, inst.cfg))
    assert runs[0].schedule == runs[1].schedule
    assert runs[0].objective == runs[1].objective
    # everything but the phase seconds, which are wall-clock readings
    assert [without_seconds(h) for h in runs[0].history] \
        == [without_seconds(h) for h in runs[1].history]


def without_seconds(entry):
    return {key: value for key, value in entry.items() if not key.startswith("t_")}


def test_objective_does_not_follow_the_order_of_the_scenarios():
    # summed in scenario order, the objective of these 7 scenarios ended in
    # ...3fb or ...3fc depending on the order
    inst, scens = toy_instance(seed=3, n_scen=7)
    base = decomp.solve(inst, scens, inst.cfg)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(scens.size)
        permuted = ScenarioSet(scens.component_ids, scens.failure_times[order],
                               scens.probs[order], scens.horizon_days)
        report = decomp.solve(inst, permuted, inst.cfg)
        assert report.schedule == base.schedule
        assert report.objective.hex() == base.objective.hex()


def test_infeasible_when_fixed_components_break_the_constraint():
    # two non-candidate generators with near-certain failures push the class
    # count past rho for every schedule: the exact loop must prove infeasible
    net = build_net(n_bus=2, n_gen=3, demands=[0.0, 30.0], gen_buses=[1, 1, 2])
    cfg = RunConfig(horizon_days=2, subperiods=1, alpha=0.1, epsilon=1e-6,
                    cut_family="optK", chance_mode="exact", subproblem_gap=1e-9)
    q_rows = {"g2": np.array([0.7, 0.9]), "g3": np.array([0.7, 0.9]),
              "g1": np.array([0.3, 0.5])}
    values = np.tile(np.array([0.0, 30.0])[:, None, None], (1, 2, 1))
    inst = make_instance(net, cfg, values, q_rows, hprime=("g1",))
    scens = ScenarioSet(("g1",), np.array([[1], [3]]), np.array([0.5, 0.5]), 2)
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "infeasible"


@pytest.mark.parametrize("mode", ["exact", "safe"])
def test_infeasible_without_candidates_when_fixed_components_break_it(mode):
    # no candidate can lift P(v): the empty cover is the row 0 <= -1
    net = build_net(n_bus=2, n_gen=3, demands=[0.0, 30.0], gen_buses=[1, 1, 2])
    cfg = RunConfig(horizon_days=2, subperiods=1, alpha=0.1, epsilon=1e-6,
                    cut_family="optK", chance_mode=mode, subproblem_gap=1e-9)
    q_rows = {"g2": np.array([0.7, 0.9]), "g3": np.array([0.7, 0.9]),
              "g1": np.array([0.3, 0.5])}
    values = np.tile(np.array([0.0, 30.0])[:, None, None], (1, 2, 1))
    inst = make_instance(net, cfg, values, q_rows, hprime=())
    scens = ScenarioSet((), np.empty((1, 0), dtype=int), np.array([1.0]), 2)
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "infeasible" and report.schedule == {}
    # exact mode reaches the cover round; safe mode's load cap is infeasible at once
    assert report.counts["chance_cuts"] == (mode == "exact")


def test_a_master_error_raises(monkeypatch):
    inst, scens = toy_instance(seed=23)
    failed = mastercuts.MasterSolution("error", {}, -float("inf"))
    monkeypatch.setattr(mastercuts.MasterState, "solve", lambda self, **kw: failed)
    with pytest.raises(solver.SolverError, match="'error'"):
        decomp.solve(inst, scens, inst.cfg)


def test_iteration_limit_reported():
    inst, scens = toy_instance(seed=23)
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "iteration_limit": 1})
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "limit"
    assert report.iterations == 1


def test_master_gets_only_the_remaining_time_budget(monkeypatch):
    inst, scens = toy_instance(seed=23)
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "time_limit": 600.0})
    limits = []
    real_solve = mastercuts.MasterState.solve

    def spy(self, tolerance=1e-9, time_limit=None):
        limits.append(time_limit)
        return real_solve(self, tolerance=tolerance, time_limit=time_limit)

    monkeypatch.setattr(mastercuts.MasterState, "solve", spy)
    run = decomp.DecompositionRun(inst, scens, cfg)
    while run.status is None:
        elapsed = time.perf_counter() - run.started
        run.iterate_once()
        assert limits[-1] <= cfg.time_limit - elapsed
    assert run.status == "optimal" and len(limits) == run.iterations >= 2


def test_spent_time_limit_stops_before_the_subproblem_round(monkeypatch):
    inst, scens = toy_instance(seed=23)
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "time_limit": 0.2})
    real_solve = mastercuts.MasterState.solve

    def slow(self, tolerance=1e-9, time_limit=None):
        outcome = real_solve(self, tolerance=tolerance, time_limit=time_limit)
        time.sleep(cfg.time_limit)  # an optimal master that ends past the budget
        return outcome

    rounds = []
    real_day_values = decomp.day_values
    monkeypatch.setattr(mastercuts.MasterState, "solve", slow)
    monkeypatch.setattr(decomp, "day_values",
                        lambda *a, **k: rounds.append(a) or real_day_values(*a, **k))
    run = decomp.DecompositionRun(inst, scens, cfg, enforce_chance=False)
    run.iterate_once()
    assert run.status == "limit" and rounds == []
    report = run.report()
    assert report.status == "limit" and report.bound > -float("inf")


def test_day_values_past_its_deadline_keeps_what_it_solved(monkeypatch):
    inst, scens = toy_instance(seed=5)
    schedule = {comp: 1 for comp in inst.hprime}
    fresh = decomp.StatusCache()
    full = decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, fresh)
    assert fresh.solved >= 3

    cache = decomp.StatusCache()
    assert decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, cache,
                             deadline=time.perf_counter() - 1.0) is None
    assert cache.solved == 0 and cache.aliased == 0

    deadline = time.perf_counter() + 1.0
    calls = []
    real = ucmodel.solve_subproblem

    def second_solve_ends_late(model, gap, time_limit=None):
        calls.append(model)
        if len(calls) == 2:
            time.sleep(max(0.0, deadline - time.perf_counter()) + 0.01)
        return real(model, gap, time_limit)

    monkeypatch.setattr(ucmodel, "solve_subproblem", second_solve_ends_late)
    assert decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, cache,
                             deadline=deadline) is None
    assert len(calls) == 2 and cache.solved == 2 and cache.aliased == 0
    rest = decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, cache)
    assert cache.solved == fresh.solved and len(calls) == fresh.solved
    assert np.array_equal(rest, full)


def test_time_limit_cuts_the_subproblem_round(monkeypatch):
    inst, scens = toy_instance(seed=5)
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "time_limit": 0.6})
    pause = 0.3
    calls = []
    real = ucmodel.solve_subproblem

    def slow(model, gap, time_limit=None):
        calls.append(model)
        time.sleep(pause)
        return real(model, gap, time_limit)

    monkeypatch.setattr(ucmodel, "solve_subproblem", slow)
    cache = decomp.StatusCache()
    report = decomp.solve(inst, scens, cfg, cache=cache)
    # the first round has five keys; the budget stops it after two or three
    assert report.status == "limit"
    assert report.elapsed <= cfg.time_limit + pause + 0.2
    assert 0 < len(calls) < 5 and cache.solved == len(calls)
    # the partial round gives no incumbent and no cut; its entry shows the
    # solves it kept and why the run stopped
    assert report.schedule == {} and report.objective == float("inf")
    assert report.counts["opt_cuts"] == 0 and len(report.history) == 1
    [entry] = report.history
    assert entry["stop"] == "limit" and "gap" not in entry
    assert entry["n_solved"] == len(calls) and entry["n_aliased"] == 0


def test_budget_spent_inside_a_day_milp_ends_limit(monkeypatch):
    inst, scens = toy_instance(seed=5)
    cfg = dataclasses.replace(inst.cfg, time_limit=1.0)
    real = solver.solve
    limits = []

    def sleeping(spec, tolerance=1e-9, time_limit=None):
        if not spec.name.startswith("day"):
            return real(spec, tolerance, time_limit)
        # a day MILP that needs more time than it is given
        limits.append(time_limit)
        time.sleep(10.0 if time_limit is None else time_limit)
        return solver.SolveOutcome("limit", None, None, None, 0, 0)

    monkeypatch.setattr(solver, "solve", sleeping)
    cache = decomp.StatusCache()
    report = decomp.solve(inst, scens, cfg, cache=cache)
    assert report.status == "limit"
    assert report.elapsed <= cfg.time_limit + 0.2
    assert len(limits) == 1 and 0.0 < limits[0] <= cfg.time_limit
    assert cache.psi == {} and cache.solved == 0
    assert report.schedule == {} and len(report.history) == report.iterations == 1
    assert report.history[0]["stop"] == "limit" and report.history[0]["n_solved"] == 0


def test_spent_time_limit_stops_before_chance_separation(monkeypatch):
    inst, scens = toy_instance(seed=23)
    cfg = dataclasses.replace(inst.cfg, time_limit=0.2)
    real_solve = mastercuts.MasterState.solve

    def slow(self, tolerance=1e-9, time_limit=None):
        outcome = real_solve(self, tolerance=tolerance, time_limit=time_limit)
        time.sleep(cfg.time_limit)  # an optimal master that ends past the budget
        return outcome

    separated = []
    real_separate = chance.separate
    monkeypatch.setattr(mastercuts.MasterState, "solve", slow)
    monkeypatch.setattr(chance, "separate",
                        lambda *a: separated.append(a) or real_separate(*a))
    run = decomp.DecompositionRun(inst, scens, cfg)
    run.iterate_once()
    assert run.status == "limit" and separated == []
    assert run.report().bound > -float("inf")


def test_a_limit_run_keeps_an_entry_for_every_iteration(monkeypatch):
    inst, scens = toy_instance(seed=23)
    cfg = dataclasses.replace(inst.cfg, time_limit=0.5)
    real_solve = mastercuts.MasterState.solve
    solves = []

    def second_is_slow(self, tolerance=1e-9, time_limit=None):
        solves.append(time_limit)
        outcome = real_solve(self, tolerance=tolerance, time_limit=time_limit)
        if len(solves) == 2:
            time.sleep(0.6)  # an optimal master that ends past the budget
        return outcome

    monkeypatch.setattr(mastercuts.MasterState, "solve", second_is_slow)
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "limit" and report.iterations == 2
    assert [h["iter"] for h in report.history] == [1, 2]
    assert report.history[-1]["stop"] == "limit"
    assert all("stop" not in h for h in report.history[:-1])
    assert report.history[-1]["t_master"] >= 0.6
    for phase in ("master", "chance", "subproblems", "cuts"):
        assert report.timings[phase] == sum(h[f"t_{phase}"] for h in report.history)


def test_spent_time_limit_stops_before_the_cut_round(monkeypatch):
    inst, scens = toy_instance(seed=23)
    cfg = dataclasses.replace(inst.cfg, time_limit=1.0)
    real_day_values = decomp.day_values

    def late(*args, **kwargs):
        values = real_day_values(*args, **kwargs)
        time.sleep(max(0.0, cfg.time_limit - (time.perf_counter() - started)) + 0.01)
        return values

    monkeypatch.setattr(decomp, "day_values", late)
    started = time.perf_counter()
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "limit" and report.iterations == 1
    assert report.counts["opt_cuts"] == 0 and report.timings["cuts"] == 0.0
    # the round's values still give an incumbent and its gap
    assert report.objective < float("inf") and report.schedule
    assert len(report.history) == 1 and report.history[0]["gap"] > cfg.epsilon


def test_iterations_record_their_phases(monkeypatch):
    from gridmaint import solver

    inst, scens = toy_instance(seed=7, chance_mode="safe")  # has chance-cut-only rounds
    master_rows = []
    real = solver.solve

    def spy(spec, *args, **kwargs):
        if spec.name == "master":
            master_rows.append(spec.num_rows)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(solver, "solve", spy)
    report = decomp.solve(inst, scens, inst.cfg)
    assert report.status == "optimal" and len(report.history) == report.iterations
    assert any("event" in h for h in report.history)
    phases = ("master", "chance", "subproblems", "cuts")
    for entry, rows in zip(report.history, master_rows, strict=True):
        assert entry["master_rows"] == rows
        assert entry["t_master"] > 0.0 and entry["t_chance"] > 0.0
        if "event" in entry:
            assert entry["n_solved"] == 0
            assert entry["t_subproblems"] == entry["t_cuts"] == 0.0
        else:
            assert entry["t_subproblems"] > 0.0
            assert (entry["t_cuts"] > 0.0) == (entry is not report.history[-1])
    assert sum(h["n_solved"] for h in report.history) == report.counts["solved"]
    assert set(report.timings) == {"lower_bounds", *phases}
    for phase in phases:
        assert report.timings[phase] == pytest.approx(
            sum(h[f"t_{phase}"] for h in report.history), rel=1e-9, abs=1e-12)
    assert 0.0 < report.timings["lower_bounds"] <= report.elapsed
    # seconds stay out of the counts, which must repeat exactly across runs
    assert all(type(value) is int for value in report.counts.values())


def test_subproblem_economy():
    inst, scens = toy_instance(seed=29)
    report = decomp.solve(inst, scens, inst.cfg)
    assert report.counts["solved"] == report.counts["psi_total"]
    assert report.counts["solved"] <= report.iterations * scens.size \
        * inst.cfg.horizon_days


def test_cache_alias_values_match_fresh_solves():
    inst, scens = toy_instance(seed=31)
    cache = decomp.StatusCache()
    report = decomp.solve(inst, scens, inst.cfg, cache=cache)
    assert report.status == "optimal"
    rng = np.random.default_rng(0)
    checked = 0
    for key, (objective, _) in cache.psi.items():
        if rng.random() < 0.6:
            model = ucmodel.build_subproblem(inst.net,
                                             inst.demand.day(key.demand_class),
                                             key.down, inst.cfg)
            fresh = ucmodel.solve_subproblem(model, 1e-9)
            assert fresh.objective == pytest.approx(objective, abs=1e-5,
                                                    rel=1e-6)
            checked += 1
    assert checked >= 3


def test_time_decomposability_of_fixed_schedule():
    # the day-sum of cached subproblem values equals the full-horizon MILP of
    # one scenario with the schedule pinned
    inst, scens = toy_instance(seed=37)
    cfg = inst.cfg
    schedule = {comp: 2 for comp in inst.hprime}
    one = ScenarioSet(inst.hprime, scens.failure_times[:1], np.array([1.0]),
                      cfg.horizon_days)
    day_sum = 0.0
    xi = scenario_xi(one, 0)
    for day in range(1, cfg.horizon_days + 1):
        status = one_status(schedule, xi, day, cfg, inst.hprime, inst.kinds)
        down = unavailable_components(inst.hprime, status)
        model = ucmodel.build_subproblem(inst.net, inst.demand.day(day), down, cfg)
        day_sum += ucmodel.solve_subproblem(model, 1e-9).objective
    whole, _ = extensive_solve(inst, one, cfg, chance="off",
                               fixed_schedule=schedule)
    first_stage = sum(
        float(one.probs[0]) * ucmodel.maintenance_cost_coeffs(
            *inst.maint_cost(comp), xi.get(comp, cfg.tbar), cfg.tbar,
            period=schedule[comp])
        for comp in inst.hprime)
    assert day_sum + first_stage == pytest.approx(whole, rel=1e-7)


def test_separation_loop_reaches_exact_acceptance_set():
    inst, scens = toy_instance(seed=41, alpha=0.35)
    report = decomp.solve(inst, scens, inst.cfg)
    assert report.status == "optimal"
    feasible = chance_feasible_set(inst, inst.cfg)
    assert any(report.schedule == f for f in feasible)
    # the optimum over the exact acceptance set can be no better than ours
    best, _ = extensive_solve(inst, scens, inst.cfg, chance="enum")
    assert report.objective == pytest.approx(best, rel=1e-6)

# -------------------------------------------------------------------------
# Day models shared across days with equal demand
# -------------------------------------------------------------------------

def day_status_keys(inst, scens, schedules):
    """The (day, status row) pairs of every schedule: the keys of a day-blind cache."""
    return {(t, tuple(row))
            for schedule in schedules for t in range(1, inst.cfg.horizon_days + 1)
            for row in ucmodel.status_vector(schedule, scens, t, inst.cfg,
                                             inst.hprime, inst.kinds).tolist()}


def every_schedule_values(inst, scens, cache):
    """Day values of every schedule of the toy, through one cache."""
    return [decomp.day_values(inst, scens, inst.cfg, schedule, inst.hprime, cache)
            for schedule in enumerate_schedules(inst.hprime, inst.cfg.tbar)]


def test_cross_day_aliases_equal_fresh_solves_byte_for_byte():
    inst, scens = toy_instance(seed=5, n_scen=6, shared_days=True)
    cfg = inst.cfg
    cache = decomp.StatusCache()
    fresh = {}  # (day, down-set) -> fresh solve of that day's own model
    for schedule in enumerate_schedules(inst.hprime, cfg.tbar):
        values = decomp.day_values(inst, scens, cfg, schedule, inst.hprime, cache)
        for t in range(1, cfg.horizon_days + 1):
            status = ucmodel.status_vector(schedule, scens, t, cfg, inst.hprime,
                                           inst.kinds)
            for k, row in enumerate(status.tolist()):
                down = frozenset(c for c, bit in zip(inst.hprime, row) if not bit)
                if (t, down) not in fresh:
                    model = ucmodel.build_subproblem(inst.net, inst.demand.day(t),
                                                     down, cfg)
                    outcome = ucmodel.solve_subproblem(model, cfg.subproblem_gap)
                    fresh[t, down] = np.array([outcome.objective, outcome.bound])
                assert values[k, t - 1].tobytes() == fresh[t, down].tobytes()
    assert inst.day_key(2, frozenset()) == inst.day_key(1, frozenset())
    shared = [down for t, down in fresh if t == 2 and (1, down) in fresh]
    assert shared and cache.solved == len(fresh) - len(shared)


@pytest.mark.parametrize("seed", [7, 43])
def test_plan_with_shared_days_matches_extensive_form(seed):
    inst, scens = toy_instance(seed=seed, shared_days=True)
    cache = decomp.StatusCache()
    report = decomp.solve(inst, scens, inst.cfg, cache=cache)
    assert report.status == "optimal"
    expected, _ = extensive_solve(inst, scens, inst.cfg, chance="enum")
    assert report.objective == pytest.approx(expected, rel=1e-6)
    assert any(key.demand_class == 1 for key in cache.psi)


def test_days_one_ulp_apart_keep_their_own_models():
    inst, scens = toy_instance(seed=5, shared_days=True)
    values = inst.demand.values.copy()
    values[2, 1, 0] = np.nextafter(values[2, 1, 0], np.inf)
    nudged = dataclasses.replace(inst, demand=DemandGrid(inst.demand.bus_ids, values))
    assert nudged.day_key(2, frozenset()) != nudged.day_key(1, frozenset())
    assert nudged.day_key(2, frozenset()).demand_class == 2

    shared, apart = decomp.StatusCache(), decomp.StatusCache()
    every_schedule_values(inst, scens, shared)
    every_schedule_values(nudged, scens, apart)
    schedules = list(enumerate_schedules(inst.hprime, inst.cfg.tbar))
    assert shared.solved < apart.solved == len(day_status_keys(inst, scens, schedules))


def test_equal_demand_with_other_deletions_keeps_its_own_model():
    inst, scens = toy_instance(seed=5, shared_days=True)
    # preflow proves l2's upper limit redundant on day 1 only
    report = RedundancyReport("II", [RedundancyEntry("l2", "ub", (1,), 0.0, True)],
                              0.0)
    trimmed = dataclasses.replace(inst, preflow_report=report)
    key1, key2 = (trimmed.day_key(t, frozenset()) for t in (1, 2))
    assert key1.demand_class == key2.demand_class == 1
    assert key1.omit_bounds and not key2.omit_bounds and key1 != key2

    cache = decomp.StatusCache()
    schedules = list(enumerate_schedules(inst.hprime, inst.cfg.tbar))
    for schedule, values in zip(schedules, every_schedule_values(trimmed, scens, cache)):
        status = ucmodel.status_vector(schedule, scens, 2, inst.cfg, inst.hprime,
                                       inst.kinds)
        for k, row in enumerate(status.tolist()):
            down = frozenset(c for c, bit in zip(inst.hprime, row) if not bit)
            model = ucmodel.build_subproblem(inst.net, inst.demand.day(2), down,
                                             inst.cfg)
            outcome = ucmodel.solve_subproblem(model, inst.cfg.subproblem_gap)
            assert values[k, 1].tobytes() == \
                np.array([outcome.objective, outcome.bound]).tobytes()
    assert cache.solved == len(day_status_keys(inst, scens, schedules))
