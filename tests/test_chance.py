import itertools

import numpy as np
import pytest

from gridmaint import solver
from gridmaint.chance import (FEASIBILITY_TOL, ChanceRule, LinearCut,
                              SafeApproxBlock, cover_cut, extend_cover, separate,
                              soc_outer_cuts)
from gridmaint.pboracle import joint_oracle

from cases import violated_by
from test_pboracle import table_from_rows


def all_schedules(comps, tbar):
    for combo in itertools.product(range(1, tbar + 1), repeat=len(comps)):
        yield dict(zip(comps, combo))


def random_table(rng, n_gen=2, n_line=2, horizon=3):
    comps = [f"g{i}" for i in range(n_gen)] + [f"l{i}" for i in range(n_line)]
    rows = {c: np.sort(rng.random(horizon) * rng.uniform(0.3, 1.0)) for c in comps}
    kinds = {c: ("gen" if c.startswith("g") else "line") for c in comps}
    return table_from_rows(rows, kinds, set(comps), horizon)


# -- covers ------------------------------------------------------------------

def test_extend_cover_latest_periods_fixed_point():
    cover = {"g1": 4, "l1": 4}
    assert extend_cover(cover, 4) == [("g1", 4), ("l1", 4)]


def test_extend_cover_rows():
    pairs = extend_cover({"h1": 1}, 3)
    assert pairs == [("h1", 1), ("h1", 2), ("h1", 3)]


def test_extend_cover_counting_identity():
    rng = np.random.default_rng(7)
    tbar = 6
    for _ in range(30):
        cover = {f"h{i}": int(rng.integers(1, tbar + 1)) for i in range(4)}
        pairs = extend_cover(cover, tbar)
        assert len(pairs) == sum(tbar - t + 1 for t in cover.values())


def test_cover_cut_rhs():
    cut = cover_cut([("h1", 1), ("h2", 2)], 2)
    assert cut.rhs == 1.0 and cut.sense == "<="


def test_empty_cover_is_an_infeasible_row():
    cut = cover_cut([], 0)
    assert cut.v_coeffs == () and cut.rhs == -1.0 and violated_by(cut, {})


def test_cover_cut_single_component_forbids():
    cut = cover_cut([("h1", 2)], 1)
    assert cut.rhs == 0.0
    assert violated_by(cut, {("h1", 2): 1.0})


def test_cover_cut_excludes_generator_and_respects_reschedules():
    # the generating schedule sits at LHS = |H'|; any single move to an
    # earlier period outside the extended set satisfies the cut
    cover = {"h1": 2, "h2": 3}
    tbar = 4
    pairs = extend_cover(cover, tbar)
    cut = cover_cut(pairs, 2)
    gen_point = {(h, t): 1.0 for h, t in cover.items()}
    assert violated_by(cut, gen_point)
    for h in cover:
        for t in range(1, cover[h]):
            moved = dict(cover)
            moved[h] = t
            point = {(c, p): 1.0 for c, p in moved.items()}
            assert not violated_by(cut, point)


# -- separation --------------------------------------------------------------

def test_separate_feasible_no_cut():
    rows = {"g1": [0.0, 0.0, 0.0], "l1": [0.0, 0.0, 0.0]}
    table = table_from_rows(rows, {"g1": "gen", "l1": "line"}, {"g1", "l1"}, 3)
    feasible, cut, pv = separate({"g1": 1, "l1": 1}, table, 1, 1, alpha=0.1)
    assert feasible and cut is None and pv == 1.0


def test_separate_emits_extended_cover():
    # two components with certain early failure; scheduling late violates
    rows = {"h1": [0.9, 0.95], "h2": [0.9, 0.95]}
    table = table_from_rows(rows, {"h1": "gen", "h2": "gen"}, {"h1", "h2"}, 2)
    feasible, cut, pv = separate({"h1": 2, "h2": 3}, table, 1, 1, alpha=0.1)
    assert not feasible
    pairs = {pair for pair, _ in cut.v_coeffs}
    assert pairs == {("h1", 2), ("h1", 3), ("h2", 3)}
    assert cut.rhs == 1.0


def test_separate_inclusive_at_target():
    # oracle value exactly 1 - alpha is accepted (ties go to feasibility)
    rows = {"g1": [0.5]}
    table = table_from_rows(rows, {"g1": "gen"}, {"g1"}, 1)
    feasible, cut, pv = separate({"g1": 1}, table, 0, 1, alpha=0.5)
    assert pv == pytest.approx(0.5)
    assert feasible and cut is None


def test_separation_cuts_keep_all_feasible_schedules():
    # every generated cut must leave oracle-feasible schedules intact
    rng = np.random.default_rng(19)
    for _ in range(20):
        table = random_table(rng)
        alpha = float(rng.uniform(0.05, 0.6))
        rho_g, rho_l = 1, 1
        comps = sorted(table.schedulable)
        tbar = table.horizon_days + 1
        cuts = []
        feas = []
        for sched in all_schedules(comps, tbar):
            ok, cut, _ = separate(sched, table, rho_g, rho_l, alpha)
            if ok:
                feas.append(sched)
            else:
                cuts.append((sched, cut))
        for sched in feas:
            point = {(h, t): 1.0 for h, t in sched.items()}
            for _, cut in cuts:
                assert not violated_by(cut, point)
        # and each cut removes its own generating schedule
        for sched, cut in cuts:
            point = {(h, t): 1.0 for h, t in sched.items()}
            assert violated_by(cut, point)


def test_separation_fixed_point_is_exact():
    # accepted set of the separation loop == schedules with P(v) >= 1 - alpha
    rng = np.random.default_rng(29)
    table = random_table(rng, n_gen=2, n_line=1, horizon=3)
    alpha = 0.25
    comps = sorted(table.schedulable)
    cuts = {}
    for sched in all_schedules(comps, table.horizon_days + 1):
        ok, cut, _ = separate(sched, table, 1, 1, alpha)
        if not ok:
            cuts[tuple(sorted(sched.items()))] = cut
    for sched in all_schedules(comps, table.horizon_days + 1):
        point = {(h, t): 1.0 for h, t in sched.items()}
        excluded = any(violated_by(c, point) for c in cuts.values())
        feasible = joint_oracle(sched, table, 1, 1) >= 1.0 - alpha
        assert excluded == (not feasible)


def test_extended_cover_stronger_than_plain():
    # LHS of the extended cut dominates the plain cover cut at binary points
    rng = np.random.default_rng(37)
    tbar = 4
    cover = {"h1": 2, "h2": 3}
    plain = cover_cut([(h, t) for h, t in cover.items()], 2)
    extended = cover_cut(extend_cover(cover, tbar), 2)
    for sched in all_schedules(sorted(cover), tbar):
        point = {(h, t): 1.0 for h, t in sched.items()}
        lhs_plain = sum(c for pair, c in plain.v_coeffs if point.get(pair))
        lhs_ext = sum(c for pair, c in extended.v_coeffs if point.get(pair))
        assert lhs_ext >= lhs_plain


# -- safe approximation --------------------------------------------------------

def test_safe_block_single_generator_feasible():
    rows = {"g1": [0.02, 0.05]}
    table = table_from_rows(rows, {"g1": "gen"}, {"g1"}, 2)
    block = SafeApproxBlock(table, 1, 1, alpha=0.1)
    assert block.accepts({"g1": 2})  # load 0.05 -> alpha_G = 0.95 >= 0.9


def test_safe_block_zero_loads_feasible_any_alpha():
    rows = {"g1": [0.0], "l1": [0.0]}
    table = table_from_rows(rows, {"g1": "gen", "l1": "line"}, {"g1", "l1"}, 1)
    block = SafeApproxBlock(table, 1, 1, alpha=0.01)
    assert block.accepts({"g1": 1, "l1": 1})


def test_safe_block_product_infeasibility():
    # loads 0.2 and 0.2: best product (0.8)(0.8) = 0.64 < 0.9
    rows = {"g1": [0.2], "l1": [0.2]}
    table = table_from_rows(rows, {"g1": "gen", "l1": "line"}, {"g1", "l1"}, 1)
    block = SafeApproxBlock(table, 1, 1, alpha=0.1)
    assert not block.accepts({"g1": 1, "l1": 1})


def test_safe_block_includes_nonsubset_constants():
    rows = {"g1": [0.1], "g2": [0.3]}
    table = table_from_rows(rows, {"g1": "gen", "g2": "gen"}, {"g1"}, 1)
    block = SafeApproxBlock(table, 2, 1, alpha=0.2)
    x, y = block.loads({"g1": 1})
    assert x == pytest.approx((0.1 + 0.3) / 2)
    assert y == 0.0


def test_safe_accepted_subset_of_exact_accepted():
    # conservatism: every safe-accepted schedule passes the exact oracle
    rng = np.random.default_rng(41)
    for _ in range(15):
        table = random_table(rng)
        alpha = float(rng.uniform(0.05, 0.5))
        block = SafeApproxBlock(table, 1, 1, alpha)
        for sched in all_schedules(sorted(table.schedulable), table.horizon_days + 1):
            if block.accepts(sched):
                assert joint_oracle(sched, table, 1, 1) >= 1.0 - alpha - 1e-12


# -- outer approximation ---------------------------------------------------------

def test_soc_tangent_matches_gradient_example():
    # radial projection of (0.15, 0.15) hits the alpha = 0.19 boundary at
    # (0.1, 0.1); the tangent there is 0.9 x + 0.9 y <= 0.18
    cuts = soc_outer_cuts((0.15, 0.15), alpha=0.19)
    assert len(cuts) == 1
    cx, cy, rhs = cuts[0]
    assert cx == pytest.approx(0.9)
    assert cy == pytest.approx(0.9)
    assert rhs == pytest.approx(0.18)


def test_soc_no_cut_inside_region():
    assert soc_outer_cuts((0.05, 0.05), alpha=0.19) == []
    assert soc_outer_cuts((0.1, 0.1), alpha=0.19) == []  # boundary counts as inside


def test_soc_cut_separates_the_point():
    rng = np.random.default_rng(13)
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.8))
        x, y = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        if (1 - x) * (1 - y) >= 1 - alpha:
            continue
        cuts = soc_outer_cuts((x, y), alpha)
        assert cuts
        assert any(cx * x + cy * y > rhs + 1e-12 for cx, cy, rhs in cuts)


def test_soc_cut_valid_on_grid():
    alpha = 0.19
    cuts = soc_outer_cuts((0.4, 0.3), alpha)
    cuts += soc_outer_cuts((1.0, 0.2), alpha)
    grid = np.linspace(0.0, 1.0, 1001)
    xs, ys = np.meshgrid(grid, grid)
    inside = (1 - xs) * (1 - ys) >= 1 - alpha
    for cx, cy, rhs in cuts:
        lhs = cx * xs + cy * ys
        assert np.all(lhs[inside] <= rhs + 1e-9)


def test_soc_alpha_one_degenerate():
    with pytest.raises(ValueError, match="void"):
        soc_outer_cuts((0.5, 0.5), alpha=1.0)


def test_xy_cut_maps_to_schedule_space():
    rows = {"g1": [0.1, 0.4], "l1": [0.2, 0.3], "g2": [0.0, 0.5]}
    kinds = {"g1": "gen", "g2": "gen", "l1": "line"}
    table = table_from_rows(rows, kinds, {"g1", "l1"}, 2)
    block = SafeApproxBlock(table, 1, 1, alpha=0.1)
    [(cx, cy, rhs)] = soc_outer_cuts((0.4, 0.3), alpha=0.1)
    master_cut = block.row(cx, cy, rhs)
    # evaluating the master cut at a schedule reproduces the xy-space slack
    sched = {"g1": 2, "l1": 1}
    x, y = block.loads(sched)
    point = {(h, t): 1.0 for h, t in sched.items()}
    lhs = sum(c * point.get(pair, 0.0) for pair, c in master_cut.v_coeffs)
    assert cx * x + cy * y - rhs == pytest.approx(
        lhs - master_cut.rhs, abs=1e-12)


def test_linear_cut_dedup_key():
    c1 = LinearCut.make({("h1", 1): 1.0, ("h2", 2): 1.0}, 1.0)
    c2 = LinearCut.make({("h2", 2): 1.0, ("h1", 1): 1.0}, 1.0)
    assert c1.key() == c2.key()
    assert "v[h1,1]" in str(c1)


# -- the rule the master loop runs ------------------------------------------

def test_safe_rule_accepts_a_shortfall_within_the_feasibility_tolerance():
    # loads (0.1, 0.2) with alpha set so that (1-alpha) - 0.9 * 0.8 is the shortfall
    table = table_from_rows({"g1": [0.1], "l1": [0.2]}, {"g1": "gen", "l1": "line"},
                            {"g1", "l1"}, 1)
    schedule = {"g1": 1, "l1": 1}
    within = ChanceRule("safe", table, 1, 1, 0.28 - 5e-7)
    assert within.block.loads(schedule) == (0.1, 0.2)
    assert within.check(schedule) == ([], "accepted 5e-07 short of 1-alpha")
    outside = ChanceRule("safe", table, 1, 1, 0.28 - 2e-6)
    [cut], _ = outside.check(schedule)
    lhs = sum(c for pair, c in cut.v_coeffs if pair in schedule.items())
    assert lhs - cut.rhs > FEASIBILITY_TOL


def test_feasibility_tolerance_is_the_one_highs_applies():
    assert FEASIBILITY_TOL == solver._highs.HighsOptions().mip_feasibility_tolerance
    assert solver._options(1e-6, None).mip_feasibility_tolerance == FEASIBILITY_TOL
