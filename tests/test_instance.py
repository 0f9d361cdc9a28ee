import dataclasses

import numpy as np
import pytest

from gridmaint import decomp, preflow
from gridmaint.caseio import CaseError, DemandGrid, RunConfig, parse_case, synth_demand
from gridmaint.instance import build_instance, no_failure_scenarios, \
    training_scenarios
from gridmaint.instance import test_scenarios as evaluation_scenarios
from gridmaint.preflow import RedundancyEntry, RedundancyReport

from cases import CASE9


@pytest.fixture(scope="module")
def nine_bus():
    cfg = RunConfig(horizon_days=7, subperiods=24, pfail_gen=0.1, pfail_line=0.2)
    net = parse_case(CASE9, subperiods=24)
    grid = synth_demand(net, cfg, seed=1)
    return net, grid, cfg


def test_build_instance_covers_every_component(nine_bus):
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=34)
    assert len(inst.components) == 12
    assert set(inst.hprime) <= set(inst.components)
    assert len(set(inst.hprime)) == len(inst.hprime)
    for comp in inst.components.values():
        if comp.rld is not None:
            assert comp.rld.shape_mu > 0 and comp.rld.scale_lambda > 0
        assert 0.0 <= comp.p_fail <= 1.0


@pytest.mark.parametrize("rows", [slice(None, None, -1), slice(0, 5)])
def test_build_instance_rejects_a_grid_over_other_buses(nine_bus, rows):
    # day models read demand rows by position as net.buses: the same buses
    # reversed, or only five of the nine, must not be read as that order
    net, grid, cfg = nine_bus
    other = DemandGrid(grid.bus_ids[rows], grid.values[rows])
    with pytest.raises(CaseError, match="do not match"):
        build_instance(net, other, cfg, seed=34)


@pytest.mark.parametrize("field, value, error", [
    ("horizon_days", 5, "cfg.horizon_days is 5 but the demand's day count is 7"),
    ("subperiods", 12, "cfg.subperiods is 12 but the demand's hour count is 24"),
])
def test_build_instance_rejects_a_config_the_demand_does_not_span(nine_bus, field,
                                                                  value, error):
    # a 5-day config over a 7-day grid would pick H' from 5-day failure
    # probabilities and fail only when planned
    net, grid, cfg = nine_bus
    with pytest.raises(ValueError, match=error):
        build_instance(net, grid, dataclasses.replace(cfg, **{field: value}), seed=34)


def test_subset_selection_respects_thresholds(nine_bus):
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=34)
    for comp in inst.hprime:
        bar = cfg.pfail_gen if inst.kinds[comp] == "gen" else cfg.pfail_line
        assert inst.components[comp].p_fail >= bar
    for comp in set(inst.components) - set(inst.hprime):
        bar = cfg.pfail_gen if inst.kinds[comp] == "gen" else cfg.pfail_line
        assert inst.components[comp].p_fail < bar


def test_reference_subset_cardinality(nine_bus):
    # the reference 9-bus setting selects one generator and three lines at
    # thresholds (0.1, 0.2); this seeded draw reproduces that cardinality
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=78)
    gens = [c for c in inst.hprime if inst.kinds[c] == "gen"]
    lines = [c for c in inst.hprime if inst.kinds[c] == "line"]
    assert (len(gens), len(lines)) == (1, 3)


def test_instance_build_is_seed_deterministic(nine_bus):
    net, grid, cfg = nine_bus
    a = build_instance(net, grid, cfg, seed=5)
    b = build_instance(net, grid, cfg, seed=5)
    assert a.hprime == b.hprime
    assert all(np.allclose(a.table.q[c], b.table.q[c]) for c in a.table.q)


def test_scenario_generators(nine_bus):
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=34)
    train = training_scenarios(inst, 10, seed=2)
    assert train.component_ids == inst.hprime
    assert train.failure_times.shape == (10, len(inst.hprime))
    tests = evaluation_scenarios(inst, 5, seed=2)
    assert tests.component_ids == inst.all_components
    nofail = no_failure_scenarios(inst)
    assert nofail.size == 1
    assert np.all(nofail.failure_times == cfg.tbar)


def test_table_lookup_probabilities_match_components(nine_bus):
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=34)
    for comp in inst.hprime:
        assert inst.table.lookup(comp, cfg.horizon_days) == pytest.approx(
            inst.components[comp].p_fail, abs=1e-12)


def test_omit_bounds_guard_for_nonsubset_line_outage(nine_bus):
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=34)
    entry = RedundancyEntry(net.lines[0].id, "ub", (), 1.0, True)
    inst.preflow_report = RedundancyReport("I", [entry], 0.0)
    some_day = 1
    assert inst.omit_bounds_for(some_day, frozenset()) != frozenset()
    second_line = next(c for c in inst.components
                       if inst.kinds[c] == "line" and c not in inst.hprime)
    assert inst.omit_bounds_for(some_day, frozenset({second_line})) == frozenset()
    # candidate outages keep the deletions (the relaxation covers them)
    cand = next((c for c in inst.hprime if inst.kinds[c] == "line"), None)
    if cand:
        assert inst.omit_bounds_for(some_day, frozenset({cand})) != frozenset()


def test_a_plan_scans_the_preflow_entries_once_per_day(nine_bus):
    # day_key asks for a day's deletions once per distinct (day, status row)
    # cell of every round; the report works each day's set out once
    net, grid, cfg = nine_bus
    inst = build_instance(net, grid, cfg, seed=34)
    lines = frozenset(c for c in inst.hprime if inst.kinds[c] == "line")
    fresh = preflow.analyze(net, grid, "III", lines)
    scans = []

    class Entries(list):
        def __iter__(self):
            scans.append(1)
            return super().__iter__()

    inst.preflow_report = dataclasses.replace(fresh, entries=Entries(fresh.entries))
    report = decomp.solve(inst, training_scenarios(inst, 20, seed=5), cfg)
    assert report.status == "optimal" and report.counts["solved"] > 0
    assert len(scans) == cfg.horizon_days
    days = range(1, cfg.horizon_days + 1)
    kept = [inst.preflow_report.omitted_for_day(t, cfg.subperiods) for t in days]
    assert kept == [fresh.omitted_for_day(t, cfg.subperiods) for t in days]
    assert any(kept) and len(scans) == cfg.horizon_days  # kept: no new scan
