"""The lower-bound phase: one LP built per day, re-solved for each outage class
and scenario-day."""

import itertools
import types

import numpy as np
import pytest

from gridmaint import decomp, ucmodel
from gridmaint.caseio import RunConfig, parse_case, synth_demand
from gridmaint.degrade import ScenarioSet
from gridmaint.instance import build_instance, training_scenarios

from cases import (CASE9, reference_lower_bound, reference_status_bit, spec_rows,
                   toy_instance)


def instances():
    yield toy_instance(seed=7)
    yield toy_instance(seed=11, extra_candidate=True)
    yield toy_instance(seed=47, n_scen=8)


def failure_rows(inst):
    """Every failure row over the candidates: each fails on a day in 1..tbar."""
    return np.array(list(itertools.product(range(1, inst.cfg.tbar + 1),
                                           repeat=len(inst.hprime))))


def every_failure_row(inst):
    rows = failure_rows(inst)
    return ScenarioSet(inst.hprime, rows, np.full(len(rows), 1.0 / len(rows)),
                       inst.cfg.horizon_days)


def test_grouped_bounds_equal_per_scenario_day_reference():
    # every failure row x day against the per-period LP solved cold; a re-solve
    # from another class's basis agrees with it to round-off, not bit for bit
    for inst, _ in instances():
        scens = every_failure_row(inst)
        cfg = inst.cfg
        got, _ = decomp.compute_lower_bounds(inst, scens, cfg)
        want = np.array([[reference_lower_bound(inst, row, t, cfg)
                          for t in range(1, cfg.horizon_days + 1)]
                         for row in scens.failure_times.tolist()])
        assert got.shape == (scens.size, cfg.horizon_days)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def case9_plan_inputs(n_scen, **cfg_changes):
    cfg = RunConfig(horizon_days=7, subperiods=24, epsilon=1e-3,
                    cut_family="optKT++", chance_mode="exact", subproblem_gap=1e-6,
                    **cfg_changes)
    net = parse_case(CASE9, subperiods=24)
    inst = build_instance(net, synth_demand(net, cfg, seed=1), cfg, seed=34)
    return inst, training_scenarios(inst, n_scen, seed=5), cfg


def test_bounds_do_not_depend_on_scenario_order():
    # a day's classes are re-solved hot in sorted order, so the bits of a
    # bound do not depend on which scenario shows a class first
    inst, scens, cfg = case9_plan_inputs(20)
    got, _ = decomp.compute_lower_bounds(inst, scens, cfg)
    rng = np.random.default_rng(0)
    for _ in range(3):
        order = rng.permutation(scens.size)
        permuted = ScenarioSet(scens.component_ids, scens.failure_times[order],
                               scens.probs[order], scens.horizon_days)
        again, _ = decomp.compute_lower_bounds(inst, permuted, cfg)
        assert again.tobytes() == got[order].tobytes()


def test_one_build_per_day_one_solve_per_scenario_day(monkeypatch):
    inst, scens = toy_instance(seed=47, n_scen=8)
    cfg = inst.cfg
    builds, iterations = [], []

    def build(*args, **kwargs):
        builds.append(args[3])
        return real_build(*args, **kwargs)

    def solve(spec):
        result = real_solve(spec)
        iterations.append(result[1])
        return result

    real_build, real_solve = ucmodel.lp_lower_bound, ucmodel.solve_lower_bound
    monkeypatch.setattr(ucmodel, "lp_lower_bound", build)
    monkeypatch.setattr(ucmodel, "solve_lower_bound", solve)
    _, counts = decomp.compute_lower_bounds(inst, scens, cfg)
    monkeypatch.undo()

    xi = scens.failure_days(inst.hprime)
    keys = {(t, tuple(row)) for t in range(1, cfg.horizon_days + 1)
            for row in ucmodel.lower_bound_patterns(xi, t, cfg, inst.hprime,
                                                    inst.kinds).tolist()}
    n_days = scens.size * cfg.horizon_days
    assert sorted(builds) == list(range(1, cfg.horizon_days + 1))
    assert len(iterations) == n_days
    assert cfg.horizon_days < len(keys) < n_days  # both reuses are exercised
    assert counts == {"lb_solved": n_days, "lb_aliased": 0, "lb_models": len(keys),
                      "lb_iterations": sum(iterations)}
    # a repeat starts from its class's optimal basis and takes no iteration,
    # and a class starts from the one before: fewer iterations than cold
    assert sum(its > 0 for its in iterations) <= len(keys)
    cold = sum(ucmodel.solve_lower_bound(ucmodel.lp_lower_bound(
        inst.net, inst.demand, np.array(row), t, cfg, inst.hprime))[1] for t, row in keys)
    assert sum(iterations) < cold


def spec_data(spec):
    return (spec.name, spec_rows(spec), spec._obj, spec._lb, spec._ub,
            spec._integer)


def test_pattern_key_is_sound_and_separating():
    inst, _ = toy_instance(seed=7)
    cfg = inst.cfg
    assert inst.hprime == ("g1", "l1")
    rows = failure_rows(inst)
    kinds = ["gen", "line"]
    shared = 0
    for t in range(1, cfg.horizon_days + 1):
        patterns = ucmodel.lower_bound_patterns(rows, t, cfg, inst.hprime, inst.kinds)
        by_key, outages_of = {}, {}
        for row, pattern in zip(rows.tolist(), patterns.tolist()):
            outages = tuple(tuple(reference_status_bit(m, row[j], t, *cfg.tau(kinds[j]),
                                                       cfg.horizon_days) == 0
                                  for m in range(1, cfg.tbar + 1))
                            for j in range(2))
            # each candidate's "all out" bit, then its "any out" bit
            assert pattern == [int(f(out)) for out in outages for f in (all, any)]
            data = spec_data(ucmodel.lp_lower_bound(inst.net, inst.demand,
                                                    np.array(pattern), t, cfg,
                                                    inst.hprime))
            # scenario-days with equal keys get identical LPs
            assert by_key.setdefault(tuple(pattern), data) == data
            outages_of.setdefault(tuple(pattern), set()).add(outages)
        for a, b in itertools.combinations(by_key, 2):
            assert by_key[a] != by_key[b]  # different keys, different LPs
        # rows out in different mixed periods share one key
        shared += sum(len(outages) > 1 for outages in outages_of.values())
    assert shared > 0


def test_without_candidates_the_bound_is_the_day_model_relaxed():
    # both builders state one day network: with no candidates the LB LP is the
    # day MILP with every component in service, commitment relaxed
    inst, _ = toy_instance(seed=7)
    cfg = inst.cfg
    pattern = np.zeros(0, dtype=np.uint8)
    for t in range(1, cfg.horizon_days + 1):
        lb = ucmodel.lp_lower_bound(inst.net, inst.demand, pattern, t, cfg, ())
        day = ucmodel.build_subproblem(inst.net, inst.demand.day(t), frozenset(), cfg)
        spec = day.spec
        assert (lb._obj, lb._lb, lb._ub, spec_rows(lb)) \
            == (spec._obj, spec._lb, spec._ub, spec_rows(spec))
        assert not any(lb._integer)
        assert np.flatnonzero(spec._integer).tolist() == sorted(day.idx["x"].ravel())


def test_pattern_rejects_wrong_length():
    inst, _ = toy_instance(seed=7)
    with pytest.raises(ValueError, match="bits"):
        ucmodel.lp_lower_bound(inst.net, inst.demand, np.ones(3, dtype=np.uint8), 1,
                               inst.cfg, inst.hprime)


def test_time_limit_cuts_the_lower_bound_phase(monkeypatch):
    # a fake clock that advances one second per lower-bound solve, so the stop
    # falls where it does whatever the machine's speed: after day 4's first
    # class (days 1-3 have one class each, 60 solves; day 4 has two)
    inst, scens, cfg = case9_plan_inputs(20, time_limit=62.5)
    clock = [0.0]

    def solve(spec):
        clock[0] += 1.0
        return real_solve(spec)

    real_solve = ucmodel.solve_lower_bound
    monkeypatch.setattr(ucmodel, "solve_lower_bound", solve)
    monkeypatch.setattr(decomp, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    report = decomp.solve(inst, scens, cfg)

    # the classes in the order the phase walks them: days in turn, each day's
    # sorted; the deadline is checked before each class's solves
    xi = scens.failure_days(inst.hprime)
    sizes = [size for t in range(1, cfg.horizon_days + 1)
             for size in np.unique(ucmodel.lower_bound_patterns(
                 xi, t, cfg, inst.hprime, inst.kinds), axis=0, return_counts=True)[1]]
    before = np.cumsum([0] + sizes)  # solves done before each class
    stop = int(np.flatnonzero(before > cfg.time_limit)[0])
    assert report.status == "limit" and report.iterations == 0
    assert report.counts["lb_models"] == stop < len(sizes)
    assert report.counts["lb_solved"] == before[stop] == clock[0]
    assert 0 < report.counts["lb_solved"] < scens.size * cfg.horizon_days
