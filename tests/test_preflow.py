import itertools
import math

import numpy as np
import pytest

from gridmaint import solver
from gridmaint.caseio import (DELTA_BOUND, CaseError, DemandGrid, RunConfig, parse_case,
                              synth_demand)
from gridmaint.preflow import _STRICT_TOL, _cap_vectors, _RelaxedFlowLP, analyze
from gridmaint.ucmodel import build_subproblem, solve_subproblem

from cases import CASE9, build_net, highs_calls


def grid_of(values):
    values = np.asarray(values, dtype=float)
    return DemandGrid(tuple(range(1, values.shape[0] + 1)), values)


def flow_extreme(net, demand_cap, line_id, direction, candidate_lines=frozenset()):
    """Extreme flow of one line under one demand-cap vector, from a relaxation
    built afresh: the oracle ``analyze``'s reused relaxation must match."""
    lp = _RelaxedFlowLP(net, candidate_lines)
    lp.set_caps(demand_cap)
    return lp.extreme(line_id, direction)



def reference_extreme(net, demand_cap, line_id, direction, candidate_lines=frozenset()):
    """Extreme flow of one line over the relaxation in its original form, as
    dense matrices for ``scipy.optimize.linprog``: curtailment q <= d at each
    bus, and relaxed commitment x in [0, 1] with p_min x <= p <= p_max x.
    ``_RelaxedFlowLP`` projects both out; its extremes must match these."""
    from scipy.optimize import linprog
    n_bus, n_gen = len(net.buses), len(net.generators)
    cand = [j for j, line in enumerate(net.lines) if line.id in candidate_lines]
    # columns: d, q, delta per bus; x, p per generator; f per line; y per candidate
    d, q, delta = 0, n_bus, 2 * n_bus
    x, p = 3 * n_bus, 3 * n_bus + n_gen
    f = 3 * n_bus + 2 * n_gen
    y = {j: f + len(net.lines) + i for i, j in enumerate(cand)}
    n_col = f + len(net.lines) + len(cand)
    bounds = ([(0.0, float(cap)) for cap in demand_cap] + [(0.0, None)] * n_bus
              + [(-DELTA_BOUND, DELTA_BOUND)] * n_bus
              + [(0.0, 1.0)] * n_gen + [(0.0, None)] * n_gen
              + [(None, None)] * len(net.lines) + [(0.0, 1.0)] * len(cand))
    pos = {b.id: i for i, b in enumerate(net.buses)}
    a_ub, b_ub, a_eq, b_eq = [], [], [], []

    def row(entries):
        r = np.zeros(n_col)
        for col, coeff in entries:
            r[col] += coeff
        return r

    for i in range(n_bus):
        a_ub.append(row([(q + i, 1.0), (d + i, -1.0)]))
        b_ub.append(0.0)
    for g, gen in enumerate(net.generators):
        a_ub += [row([(p + g, 1.0), (x + g, -gen.p_max)]),
                 row([(p + g, -1.0), (x + g, gen.p_min)])]
        b_ub += [0.0, 0.0]
    balance = [[(q + i, 1.0), (d + i, -1.0)] for i in range(n_bus)]
    for g, gen in enumerate(net.generators):
        balance[pos[gen.bus]].append((p + g, 1.0))
    for j, line in enumerate(net.lines):
        fi, ti = pos[line.from_bus], pos[line.to_bus]
        balance[fi].append((f + j, -1.0))
        balance[ti].append((f + j, 1.0))
        b = net.base_mva * line.susceptance
        ohm = [(f + j, 1.0), (delta + fi, -b), (delta + ti, b)]
        if j in y:
            m, lim = net.big_m(line), line.flow_limit
            a_ub += [row(ohm + [(y[j], m)]),
                     -row(ohm + [(y[j], -m)]),
                     row([(f + j, 1.0), (y[j], -lim)]),
                     row([(f + j, -1.0), (y[j], -lim)])]
            b_ub += [m, m, 0.0, 0.0]
        else:
            a_eq.append(row(ohm))
            b_eq.append(0.0)
    a_eq += [row(entries) for entries in balance]
    b_eq += [0.0] * n_bus
    target = f + [line.id for line in net.lines].index(line_id)
    c = row([(target, -1.0 if direction == "ub" else 1.0)])
    res = linprog(c, A_ub=np.array(a_ub), b_ub=b_ub, A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun if direction == "ub" else res.fun

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


def test_a_zero_extreme_is_positive_zero_in_both_directions():
    # bus 3 is a leaf with no generator and a zero demand cap, so line l2
    # into it carries no flow either way; the "ub" probe minimises -f and
    # must not report the -0.0 that negating its optimum would give
    net = build_net(n_bus=3, demands=[0.0, 40.0, 0.0], flow_limit=100.0)
    caps = np.array([0.0, 40.0, 0.0])
    for direction in ("ub", "lb"):
        f_star = flow_extreme(net, caps, "l2", direction)
        assert f_star == 0.0 and math.copysign(1.0, f_star) == 1.0
    report = analyze(net, grid_of(caps[:, None, None]), "I")
    zeros = [e for e in report.entries if e.line_id == "l2"]
    assert [(e.direction, e.f_star) for e in zeros] == [("ub", 0.0), ("lb", 0.0)]
    assert all(math.copysign(1.0, e.f_star) == 1.0 for e in zeros)
    assert report.to_csv().splitlines()[3:] == ["l2,ub,horizon,0,1",
                                                "l2,lb,horizon,0,1"]


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



def test_projected_relaxation_matches_the_curtailment_and_commitment_form():
    # the relaxation carries neither curtailment nor commitment columns; with
    # p_min > 0 and a switchable line, every line's extreme in each direction
    # must equal the original form's over zero caps, caps above all
    # generation, and random caps in between
    net = build_net(n_bus=4, n_gen=3, lines=[(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)],
                    flow_limits=[30.0, 50.0, 70.0, 40.0, 60.0], p_min=35.0,
                    p_max=120.0, gen_buses=[1, 3, 4])
    assert all(gen.p_min > 0 for gen in net.generators)
    rng = np.random.default_rng(17)
    caps = [np.zeros(4), np.full(4, 500.0)] + list(rng.uniform(0, 150, size=(6, 4)))
    for candidates in (frozenset(), frozenset({"l4"})):
        for cap in caps:
            for line in net.lines:
                for direction in ("ub", "lb"):
                    got = flow_extreme(net, cap, line.id, direction, candidates)
                    want = reference_extreme(net, cap, line.id, direction, candidates)
                    assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), \
                        (candidates, cap, line.id, direction, got, want)


@pytest.fixture
def highs_runs():
    """The number of HiGHS runs so far, on any instance (see
    ``cases.highs_calls``)."""
    with highs_calls() as calls:
        yield lambda: sum(call[1] == "run" for call in calls)


def test_probes_of_one_target_change_only_the_demand_caps(monkeypatch, highs_runs):
    # target-major order: one (line, direction) is probed over every cap
    # vector before the objective moves on, so consecutive re-solves differ
    # only in the demand columns' upper bounds; day 3 repeats day 1, and a
    # repeated vector returns the answer HiGHS holds, with no run
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    flow_limits=[40.0, 60.0, 50.0], p_max=150.0)
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 60, size=(3, 3, 2))
    values[:, 2, :] = values[:, 0, :]
    grid = grid_of(values)
    calls = []
    real_solve = solver.solve

    def spy(spec, *args, **kwargs):
        before = highs_runs()
        outcome = real_solve(spec, *args, **kwargs)
        calls.append((spec, list(spec._obj), list(spec._lb), list(spec._ub),
                      highs_runs() - before, outcome.iterations))
        return outcome

    monkeypatch.setattr(solver, "solve", spy)
    set_caps = []
    real_set_caps = _RelaxedFlowLP.set_caps
    monkeypatch.setattr(_RelaxedFlowLP, "set_caps",
                        lambda lp, caps: set_caps.append(lp) or real_set_caps(lp, caps))
    candidates = frozenset({"l3"})
    report = analyze(net, grid, "III", candidate_lines=candidates)
    n_caps = len(list(_cap_vectors(grid, "III")))
    assert len(calls) == len(report.entries) == 2 * 2 * n_caps
    # caps are set only when they change: 4 distinct vectors per sweep
    assert len(set_caps) == 2 * 2 * (n_caps - grid.subperiods)
    assert report.iterations == sum(call[-1] for call in calls)
    spec = calls[0][0]
    assert set_caps[0].spec is spec
    dem = set(set_caps[0].dem)
    repeats = 0
    for start in range(0, len(calls), n_caps):
        run = calls[start:start + n_caps]
        for before, after in zip(run, run[1:]):
            assert after[0] is spec and after[1] == before[1]
            assert after[2] == before[2]
            moved = {i for i, (u, v) in enumerate(zip(before[3], after[3])) if u != v}
            assert moved <= dem
            assert after[-2] == (1 if moved else 0)
            if not moved:
                repeats += 1
                assert after[-1] == 0
    assert repeats == 2 * 2 * grid.subperiods
    assert highs_runs() == len(calls) - repeats


def test_repeated_days_give_the_original_grids_extremes_bit_for_bit(nine_bus_week):
    # a repeated cap vector runs no HiGHS, so HiGHS meets the distinct
    # vectors in the same order from the same bases as for the original grid
    net, grid = nine_bus_week
    candidates = frozenset({"l3"})
    original = analyze(net, grid, "III", candidate_lines=candidates)
    twice = analyze(net, DemandGrid(grid.bus_ids, np.concatenate(
        [grid.values, grid.values], axis=1)), "III", candidate_lines=candidates)
    n = len(original.entries)
    assert len(twice.entries) == 2 * n
    for e, first, second in zip(original.entries, twice.entries, twice.entries[n:]):
        day, hour = e.scope
        assert first.scope == (day, hour) and second.scope == (day + grid.periods, hour)
        assert (e.line_id, e.direction) == (first.line_id, first.direction) \
            == (second.line_id, second.direction)
        assert e.f_star == first.f_star == second.f_star
    assert twice.iterations == original.iterations


def test_the_objective_moves_only_when_the_target_does(monkeypatch):
    # two targets, two directions each: four objectives, each set once, and
    # the one before zeroed, however many cap vectors each is probed over
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    flow_limits=[40.0, 60.0, 50.0], p_max=150.0)
    grid = grid_of(np.random.default_rng(3).uniform(0, 60, size=(3, 2, 2)))
    set_obj = []
    real = solver.ModelSpec.set_obj
    monkeypatch.setattr(solver.ModelSpec, "set_obj",
                        lambda spec, var, coef: set_obj.append((var, coef))
                        or real(spec, var, coef))
    report = analyze(net, grid, "III", candidate_lines=frozenset({"l3"}))
    assert len(report.entries) == 2 * 2 * 4
    l1, l2 = (_RelaxedFlowLP(net, frozenset({"l3"})).fvar[line] for line in ("l1", "l2"))
    assert set_obj == [(l1, -1.0), (l1, 0.0), (l1, 1.0), (l1, 0.0), (l2, -1.0),
                       (l2, 0.0), (l2, 1.0)]


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
