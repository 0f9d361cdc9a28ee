import itertools

import numpy as np
import pytest

from gridmaint import solver
from gridmaint.caseio import CaseError, DemandGrid, RunConfig, parse_case, synth_demand
from gridmaint.preflow import _STRICT_TOL, _cap_vectors, _RelaxedFlowLP, analyze
from gridmaint.ucmodel import build_subproblem, solve_subproblem

from cases import CASE9, build_net


def grid_of(values):
    values = np.asarray(values, dtype=float)
    return DemandGrid(tuple(range(1, values.shape[0] + 1)), values)


def flow_extreme(net, demand_cap, line_id, direction, candidate_lines=frozenset()):
    """Extreme flow of one line under one demand-cap vector, from a relaxation
    built afresh: the oracle ``analyze``'s reused relaxation must match."""
    lp = _RelaxedFlowLP(net, candidate_lines)
    lp.set_caps(demand_cap)
    return lp.extreme(line_id, direction)


def test_two_bus_redundant_when_demand_below_limit():
    net = build_net(n_bus=2, demands=[0.0, 50.0], flow_limit=100.0)
    f_star = flow_extreme(net, np.array([0.0, 50.0]), "l1", "ub")
    assert f_star == pytest.approx(50.0, abs=1e-6)
    report = analyze(net, grid_of(np.full((2, 1, 2), 50.0) * np.array([[0.0], [1.0]])[:, :, None]), "I")
    by = {(e.line_id, e.direction): e for e in report.entries}
    assert by[("l1", "ub")].redundant
    assert by[("l1", "lb")].redundant  # backward flow cannot reach -100 either


def test_zero_caps_zero_extreme():
    net = build_net(n_bus=2, demands=[0.0, 0.0], flow_limit=100.0)
    assert flow_extreme(net, np.zeros(2), "l1", "ub") == pytest.approx(0.0, abs=1e-8)
    assert flow_extreme(net, np.zeros(2), "l1", "lb") == pytest.approx(0.0, abs=1e-8)


def test_saturating_demand_not_redundant():
    net = build_net(n_bus=2, demands=[0.0, 200.0], flow_limit=100.0, p_max=300.0)
    f_star = flow_extreme(net, np.array([0.0, 200.0]), "l1", "ub")
    assert f_star >= 100.0 - 1e-9
    report = analyze(net, grid_of(np.array([[[0.0]], [[200.0]]])), "I")
    by = {(e.line_id, e.direction): e for e in report.entries}
    assert not by[("l1", "ub")].redundant


def test_constant_demand_modes_agree():
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[20.0, 30.0, 40.0], flow_limit=80.0)
    values = np.tile(np.array([20.0, 30.0, 40.0])[:, None, None], (1, 2, 3))
    grid = grid_of(values)
    flags = {}
    for mode in ("I", "II", "III"):
        report = analyze(net, grid, mode)
        flags[mode] = {(e.line_id, e.direction): e.redundant for e in report.entries
                       if e.scope in ((), (1,), (1, 1))}
    assert flags["I"] == flags["II"] == flags["III"]


def test_mode_nesting_per_scoped_row():
    # tighter caps flag weakly more rows: mode I redundancy implies it for
    # every day; mode II for every hour of that day
    rng = np.random.default_rng(3)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                        demands=[0.0, 0.0, 0.0],
                        flow_limit=float(rng.uniform(30, 90)), p_max=150.0)
        values = rng.uniform(0, 80, size=(3, 2, 2))
        grid = grid_of(values)
        rep = {m: analyze(net, grid, m) for m in ("I", "II", "III")}
        flag_i = {(e.line_id, e.direction): e.redundant for e in rep["I"].entries}
        flag_ii = {(e.line_id, e.direction, e.scope[0]): e.redundant
                   for e in rep["II"].entries}
        flag_iii = {(e.line_id, e.direction) + e.scope: e.redundant
                    for e in rep["III"].entries}
        for (line, direction), red in flag_i.items():
            if red:
                for t in (1, 2):
                    assert flag_ii[(line, direction, t)]
        for (line, direction, t), red in flag_ii.items():
            if red:
                for s in (1, 2):
                    assert flag_iii[(line, direction, t, s)]


def test_deleting_flagged_rows_preserves_optimum():
    # soundness across every availability pattern the relaxation covers:
    # any generator commitment and any on/off state of the candidate line
    # (non-candidate lines are always in service in the planning model)
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[0.0, 40.0, 60.0], flow_limit=70.0, p_max=120.0,
                    gen_cost=10.0, curtail=800.0)
    cfg = RunConfig(horizon_days=1, subperiods=2)
    values = np.array([[[0.0, 0.0]], [[35.0, 40.0]], [[55.0, 60.0]]])
    grid = grid_of(values)
    candidates = frozenset({"l1"})
    report = analyze(net, grid, "III", candidate_lines=candidates)
    omit = report.omitted_for_day(1, 2)
    comps = ["g1", "g2", "l1"]
    for bits in itertools.product([0, 1], repeat=len(comps)):
        down = frozenset(c for c, b in zip(comps, bits) if b == 0)
        full = solve_subproblem(build_subproblem(net, grid.day(1), down, cfg), 1e-9)
        trimmed = solve_subproblem(
            build_subproblem(net, grid.day(1), down, cfg, omit_bounds=omit), 1e-9)
        denom = max(1.0, abs(full.objective))
        assert abs(full.objective - trimmed.objective) / denom < 1e-6


def test_candidate_lines_not_probed():
    net = build_net(n_bus=2, demands=[0.0, 50.0], flow_limit=100.0)
    report = analyze(net, grid_of(np.full((2, 1, 1), 10.0)), "I",
                     candidate_lines=frozenset({"l1"}))
    assert report.entries == []


def test_report_csv_and_ratio():
    net = build_net(n_bus=2, demands=[0.0, 50.0], flow_limit=100.0)
    report = analyze(net, grid_of(np.array([[[0.0]], [[50.0]]])), "I")
    text = report.to_csv()
    assert text.startswith("line,dir,scope,f_star,redundant")
    assert 0.0 <= report.redundancy_ratio("ub") <= 1.0


def test_shared_relaxation_matches_a_fresh_model_per_probe():
    # analyze re-solves one model with new caps and objectives, each probe
    # hot-started from the previous probe's basis; every probe must flag what
    # a model built for that probe alone flags, and its extreme may differ
    # from that model's by round-off only.  The second grid repeats its days,
    # so equal cap vectors follow each other and re-solve from their own basis
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n_bus = int(rng.integers(3, 6))
        lines = [(i + 1, i + 2) for i in range(n_bus - 1)] + [(1, n_bus)]
        net = build_net(n_bus=n_bus, n_gen=2, lines=lines,
                        flow_limits=list(rng.uniform(20, 90, size=len(lines))),
                        p_max=150.0)
        candidates = frozenset({"l1"}) if seed % 2 else frozenset()
        values = rng.uniform(0, 60, size=(n_bus, 2, 2))
        for grid in (grid_of(values), grid_of(np.concatenate([values, values], axis=1))):
            for mode in ("I", "II", "III"):
                report = analyze(net, grid, mode, candidate_lines=candidates)
                caps = dict(_cap_vectors(grid, mode))
                assert len(report.entries) == 2 * len(caps) * (len(lines) - len(candidates))
                limit = {line.id: line.flow_limit for line in net.lines}
                for e in report.entries:
                    fresh = flow_extreme(net, caps[e.scope], e.line_id, e.direction,
                                         candidates)
                    assert abs(e.f_star - fresh) <= 1e-9 * max(1.0, abs(fresh))
                    fresh_redundant = (fresh < limit[e.line_id] - _STRICT_TOL
                                       if e.direction == "ub"
                                       else fresh > -limit[e.line_id] + _STRICT_TOL)
                    assert e.redundant == fresh_redundant


def test_probes_of_one_target_change_only_the_demand_caps(monkeypatch):
    # target-major order: one (line, direction) is probed over every cap
    # vector before the objective moves on, so consecutive re-solves differ
    # only in the demand columns' upper bounds; day 3 repeats day 1, and a
    # repeated vector re-solves from its own optimal basis in no iteration
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    flow_limits=[40.0, 60.0, 50.0], p_max=150.0)
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 60, size=(3, 3, 2))
    values[:, 2, :] = values[:, 0, :]
    grid = grid_of(values)
    calls = []
    real_solve = solver.solve

    def spy(spec, *args, **kwargs):
        outcome = real_solve(spec, *args, **kwargs)
        calls.append((spec, spec.sense, list(spec._obj), list(spec._lb),
                      list(spec._ub), outcome.iterations))
        return outcome

    monkeypatch.setattr(solver, "solve", spy)
    set_caps = []
    real_set_caps = _RelaxedFlowLP.set_caps
    monkeypatch.setattr(_RelaxedFlowLP, "set_caps",
                        lambda lp, caps: set_caps.append(1) or real_set_caps(lp, caps))
    candidates = frozenset({"l3"})
    report = analyze(net, grid, "III", candidate_lines=candidates)
    n_caps = len(list(_cap_vectors(grid, "III")))
    assert len(calls) == len(report.entries) == 2 * 2 * n_caps
    # caps are set only when they change: 4 distinct vectors per sweep
    assert len(set_caps) == 2 * 2 * (n_caps - grid.subperiods)
    assert report.iterations == sum(call[-1] for call in calls)
    spec = calls[0][0]
    dem = {i for i, name in enumerate(spec._var_names) if name.startswith("dem")}
    repeats = 0
    for start in range(0, len(calls), n_caps):
        run = calls[start:start + n_caps]
        for before, after in zip(run, run[1:]):
            assert after[0] is spec and after[1:3] == before[1:3]
            assert after[3] == before[3]
            moved = {i for i, (u, v) in enumerate(zip(before[4], after[4])) if u != v}
            assert moved <= dem
            if not moved:
                repeats += 1
                assert after[-1] == 0
    assert repeats == 2 * 2 * grid.subperiods


def test_entries_come_out_scope_major():
    # the probe order is target-major, the report order is not: per scope,
    # every target line's ub then lb, as to_csv and omitted_for_day expect
    net = build_net(n_bus=4, n_gen=2, lines=[(1, 2), (2, 3), (3, 4), (1, 4)],
                    flow_limits=[30.0, 50.0, 70.0, 40.0], p_max=150.0)
    grid = grid_of(np.random.default_rng(5).uniform(0, 50, size=(4, 3, 2)))
    candidates = frozenset({"l2"})
    targets = ["l1", "l3", "l4"]
    for mode in ("I", "II", "III"):
        report = analyze(net, grid, mode, candidate_lines=candidates)
        assert [(e.line_id, e.direction, e.scope) for e in report.entries] == [
            (line, direction, scope) for scope, _ in _cap_vectors(grid, mode)
            for line in targets for direction in ("ub", "lb")]


@pytest.fixture(scope="module")
def nine_bus_week():
    net = parse_case(CASE9, subperiods=24)
    return net, synth_demand(net, RunConfig(horizon_days=7, subperiods=24), seed=1)


@pytest.mark.parametrize("rows", [slice(None, None, -1), slice(0, 5)])
def test_grid_over_other_buses_rejected(nine_bus_week, rows):
    # rows are read by position as net.buses: the same buses reversed would
    # move mode II extremes, five of the nine would fail on an index
    net, grid = nine_bus_week
    with pytest.raises(CaseError, match="do not match"):
        analyze(net, DemandGrid(grid.bus_ids[rows], grid.values[rows]), "II")


def test_negative_caps_rejected():
    net = build_net(n_bus=2, demands=[0.0, 50.0], flow_limit=100.0)
    with pytest.raises(ValueError, match="nonnegative"):
        flow_extreme(net, np.array([0.0, -1.0]), "l1", "ub")
