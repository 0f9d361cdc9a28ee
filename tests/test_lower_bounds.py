"""The lower-bound phase: one LP built per (day, outage pattern), solved per scenario-day."""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from gridmaint import decomp, ucmodel
from gridmaint.caseio import RunConfig, parse_case, synth_demand
from gridmaint.instance import build_instance, training_scenarios

from cases import CASE9, reference_status_bit, toy_instance


def reference_bounds(inst, scens, cfg):
    """Every scenario-day's bound from an LP built for that scenario-day alone."""
    xi = scens.failure_days(inst.hprime, cfg.tbar)
    out = np.empty((scens.size, cfg.horizon_days))
    for k in range(scens.size):
        for t in range(1, cfg.horizon_days + 1):
            pattern = ucmodel.lower_bound_patterns(xi[k:k + 1], t, cfg, inst.hprime,
                                                   inst.kinds)[0]
            spec = ucmodel.lp_lower_bound(inst.net, inst.demand, pattern, t, cfg,
                                          inst.hprime)
            out[k, t - 1], _ = ucmodel.solve_lower_bound(spec)
    return out


def instances():
    yield toy_instance(seed=7)
    yield toy_instance(seed=11, extra_candidate=True)
    yield toy_instance(seed=47, n_scen=8)


@pytest.mark.parametrize("threads", [1, 3])
def test_grouped_bounds_equal_per_scenario_day_reference(threads):
    # more threads than cores, switching often: the pool shares the HiGHS options
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for inst, scens in instances():
            cfg = dataclasses.replace(inst.cfg, threads=threads)
            got = decomp.compute_lower_bounds(inst, scens, cfg)
            assert got.shape == (scens.size, cfg.horizon_days)
            assert got.tobytes() == reference_bounds(inst, scens, cfg).tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_one_build_per_distinct_key_one_solve_per_scenario_day(monkeypatch):
    inst, scens = toy_instance(seed=47, n_scen=8)
    cfg = inst.cfg
    calls = {"build": 0, "solve": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ucmodel, "lp_lower_bound",
                        counted("build", ucmodel.lp_lower_bound))
    monkeypatch.setattr(ucmodel, "solve_lower_bound",
                        counted("solve", ucmodel.solve_lower_bound))
    counts = {}
    decomp.compute_lower_bounds(inst, scens, cfg, counts=counts)

    xi = scens.failure_days(inst.hprime, cfg.tbar)
    keys = {(t, tuple(row)) for t in range(1, cfg.horizon_days + 1)
            for row in ucmodel.lower_bound_patterns(xi, t, cfg, inst.hprime,
                                                    inst.kinds).tolist()}
    n_days = scens.size * cfg.horizon_days
    assert calls == {"build": len(keys), "solve": n_days}
    assert len(keys) < n_days  # the set has repeats, so sharing is exercised
    # a repeat starts from its key's optimal basis and takes no iteration
    cold = sum(ucmodel.solve_lower_bound(ucmodel.lp_lower_bound(
        inst.net, inst.demand, np.array(row), t, cfg, inst.hprime))[1] for t, row in keys)
    assert counts == {"lb_solved": n_days, "lb_aliased": 0, "lb_models": len(keys),
                      "lb_iterations": cold}


def spec_data(spec):
    return (spec.name, spec.assembled(), spec._obj, spec._lb, spec._ub,
            spec._integer)


def test_pattern_key_is_sound_and_separating():
    inst, _ = toy_instance(seed=7)
    cfg = inst.cfg
    assert inst.hprime == ("g1", "l1")
    # every failure row over the candidates
    rows = np.array(list(itertools.product(range(1, cfg.tbar + 1), repeat=2)))
    neighbours = repeats = 0
    kinds = ["gen", "line"]
    for t in range(1, cfg.horizon_days + 1):
        patterns = ucmodel.lower_bound_patterns(rows, t, cfg, inst.hprime, inst.kinds)
        # the key holds each candidate's bit per period, candidate-major
        for row, pattern in zip(rows.tolist(), patterns.tolist()):
            want = [reference_status_bit(m, row[j], t, *cfg.tau(kinds[j]),
                                         cfg.horizon_days)
                    for j in range(2) for m in range(1, cfg.tbar + 1)]
            assert pattern == want
        specs = [spec_data(ucmodel.lp_lower_bound(inst.net, inst.demand, p, t, cfg,
                                                  inst.hprime))
                 for p in patterns]
        by_key = {}
        for pattern, data in zip(patterns.tolist(), specs):
            # scenario-days with equal keys get identical LPs
            assert by_key.setdefault(tuple(pattern), data) == data
        repeats += len(rows) - len(by_key)
        keys = list(by_key)
        for a, b in itertools.combinations(keys, 2):
            if sum(x != y for x, y in zip(a, b)) == 1:
                neighbours += 1
                assert by_key[a] != by_key[b]  # one differing bit, a different LP
    assert repeats > 0 and neighbours > 0


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
        assert (lb.sense, lb._obj, lb._lb, lb._ub, lb.assembled()) \
            == (spec.sense, spec._obj, spec._lb, spec._ub, spec.assembled())
        assert not any(lb._integer)
        assert np.flatnonzero(spec._integer).tolist() == sorted(day.idx["x"].ravel())


def test_pattern_rejects_wrong_length():
    inst, _ = toy_instance(seed=7)
    with pytest.raises(ValueError, match="bits"):
        ucmodel.lp_lower_bound(inst.net, inst.demand, np.ones(3, dtype=np.uint8), 1,
                               inst.cfg, inst.hprime)


def test_time_limit_cuts_the_lower_bound_phase():
    cfg = RunConfig(horizon_days=7, subperiods=24, epsilon=1e-3,
                    cut_family="optKT++", chance_mode="exact", subproblem_gap=1e-6,
                    time_limit=0.2)
    net = parse_case(CASE9, subperiods=24)
    inst = build_instance(net, synth_demand(net, cfg, seed=1), cfg, seed=34)
    scens = training_scenarios(inst, 20, seed=5)
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "limit"
    assert report.elapsed <= cfg.time_limit + 0.5
    assert 0 < report.counts["lb_solved"] < scens.size * cfg.horizon_days
    assert report.counts["lb_solved"] + report.counts["lb_aliased"] \
        <= scens.size * cfg.horizon_days
