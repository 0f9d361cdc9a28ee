"""The benchmark's traced cross-checks, run on a toy instance.

The benchmark in ``perfbench/`` counts solves by wrapping module attributes
(``solver.solve``, ``ucmodel.*``) and by the names of the specs solved
(``day...`` for day UC models, ``lb_day...`` for lower-bound LPs).  These
checks fail when the program stops going through those attributes or renames
those specs, so the benchmark's counts would no longer match the program's.
"""

import sys
from pathlib import Path

import numpy as np

from gridmaint import decomp, preflow, saa, ucmodel
from gridmaint.caseio import DemandGrid
from gridmaint.degrade import ScenarioSet

from cases import build_net, toy_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def traced(call):
    """Run ``call`` under a fresh tracer; return its result and layer counts."""
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        result = call()
    finally:
        leaked = tracer.restore()
    assert leaked == []
    return result, spans.layer_metrics(tracer.spans, wall_s=1.0)


def test_traced_solve_counts_match_program_counters():
    inst, scens = toy_instance(seed=7)
    report, layers = traced(lambda: decomp.solve(inst, scens, inst.cfg))
    assert report.ok
    assert layers["solver.uc_n"] == report.counts["solved"] > 0
    # the highs.milp spans inside the day solves carry HiGHS time and nodes
    assert layers["solver.uc_nodes"] > 0 and layers["solver.uc_highs_s"] > 0
    assert layers["solver.lb_n"] == scens.size * inst.cfg.horizon_days
    assert layers["solver.lb_n"] == report.counts["lb_solved"]
    # one lower-bound LP built per day, re-solved for each class it meets
    assert 0 < layers["ucmodel.lp_bound_n"] <= inst.cfg.horizon_days


def test_traced_evaluation_counts_match_cache_counters():
    inst, _ = toy_instance(seed=7)
    comps = inst.all_components
    n, horizon = 40, inst.cfg.horizon_days
    times = np.random.default_rng(3).integers(1, horizon + 2, size=(n, len(comps)))
    test_set = ScenarioSet(comps, times, np.full(n, 1.0 / n), horizon)
    cache = decomp.StatusCache()
    schedule = {comp: 1 for comp in inst.hprime}
    _, layers = traced(lambda: saa.evaluate_schedule(inst, schedule, test_set,
                                                     cache, inst.cfg))
    assert layers["solver.uc_n"] == cache.solved > 0
    assert cache.solved + cache.aliased == n * horizon


def test_traced_evaluation_counts_cross_day_aliases():
    # days 1 and 2 share a demand slice, so their day models are solved once
    inst, _ = toy_instance(seed=7, shared_days=True)
    comps = inst.all_components
    n, horizon = 40, inst.cfg.horizon_days
    times = np.random.default_rng(3).integers(1, horizon + 2, size=(n, len(comps)))
    test_set = ScenarioSet(comps, times, np.full(n, 1.0 / n), horizon)
    cache = decomp.StatusCache()
    schedule = {comp: 4 for comp in inst.hprime}
    _, layers = traced(lambda: saa.evaluate_schedule(inst, schedule, test_set,
                                                     cache, inst.cfg))
    day_status_keys = sum(
        len(np.unique(ucmodel.status_vector(schedule, test_set, t, inst.cfg, comps,
                                            inst.kinds), axis=0))
        for t in range(1, horizon + 1))
    assert layers["solver.uc_n"] == cache.solved > 0
    assert cache.solved + cache.aliased == n * horizon
    assert cache.solved < day_status_keys


def test_traced_preflow_sees_every_backend_call():
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[0.0, 40.0, 60.0], flow_limit=70.0, p_max=120.0)
    grid = DemandGrid((1, 2, 3), np.full((3, 2, 2), 30.0))
    report, layers = traced(lambda: preflow.analyze(net, grid, "III",
                                                    frozenset({"l1"})))
    assert layers["solver.flow_n"] == len(report.entries) > 0
    assert layers["solver.flow_highs_s"] > 0
    assert layers["solver.flow_nodes"] == 0
