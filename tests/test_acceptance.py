"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines; each test prints its line only after every check in it holds.
"""

import dataclasses
import itertools
import statistics
import time

import numpy as np
import pytest

from gridmaint import decomp, saa, ucmodel
from gridmaint.caseio import DegradationPriors, RunConfig, parse_case, synth_demand
from gridmaint.chance import SafeApproxBlock, separate
from gridmaint.degrade import (ComponentRLD, SignalObservations, bucket_probs,
                               posterior_drift, sample_scenarios)
from gridmaint.instance import build_instance, training_scenarios
from gridmaint.instance import test_scenarios as evaluation_scenarios
from gridmaint.mastercuts import cut_over_periods
from gridmaint.pboracle import joint_oracle, pb_cdf

from cases import (CASE9, build_net, cut_int_lshaped, make_instance, one_same_cost,
                   one_same_status, one_status, scenario_xi, toy_instance,
                   unavailable_components)
from oracle_extform import enumerate_schedules, extensive_solve
from test_pboracle import brute_force_pmf, table_from_rows


def passed(criterion: int, message: str):
    print(f"[criterion {criterion:2d}] PASS: {message}")


# -------------------------------------------------------------------------
# 1. Extensive-form equivalence on seeded toys
# -------------------------------------------------------------------------

def test_c01_extensive_form_equivalence():
    started = time.perf_counter()
    cases = [
        dict(seed=7),
        dict(seed=43, extra_candidate=True),
        dict(seed=101, subperiods=3, alpha=0.25),
        dict(seed=202, n_scen=5, alpha=0.2),
        dict(seed=303, subperiods=6, n_scen=2, alpha=0.4),
        dict(seed=404, alpha=0.35),  # two-day predictive windows below
    ]
    for i, variant in enumerate(cases):
        inst, scens = toy_instance(cut_family="optKT++", **variant)
        cfg = inst.cfg
        if i == len(cases) - 1:
            cfg = dataclasses.replace(cfg, tau_pred_gen=2, tau_corr_gen=3,
                                      tau_pred_line=2, tau_corr_line=2)
        report = decomp.solve(inst, scens, cfg)
        assert report.status == "optimal", f"decomposition failed on {variant}"
        expected, _ = extensive_solve(inst, scens, cfg, chance="enum")
        rel = abs(report.objective - expected) / max(1.0, abs(expected))
        assert rel <= 1e-6, f"{variant}: rel diff {rel}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    passed(1, f"6 toys match the monolithic MILP to 1e-6 ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 2. Poisson-Binomial correctness and monotonicity
# -------------------------------------------------------------------------

def test_c02_poisson_binomial_correctness():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        probs = rng.random(n)
        expected = brute_force_pmf(probs)
        for k in range(-1, n + 1):
            want = 0.0 if k < 0 else float(expected[: k + 1].sum())
            assert abs(pb_cdf(probs, k) - want) <= 1e-12

    for _ in range(500):  # CDF non-increasing in each success probability
        n = int(rng.integers(1, 10))
        probs = rng.random(n)
        k = int(rng.integers(0, n))
        i = int(rng.integers(0, n))
        bumped = probs.copy()
        bumped[i] = min(1.0, bumped[i] + float(rng.uniform(0, 0.3)))
        assert pb_cdf(bumped, k) <= pb_cdf(probs, k) + 1e-12

    for trial in range(500):  # later schedules never raise the oracle value
        trial_rng = np.random.default_rng(trial)
        horizon = 4
        comps = [f"g{i}" for i in range(int(trial_rng.integers(1, 4)))] \
            + [f"l{i}" for i in range(int(trial_rng.integers(1, 4)))]
        rows = {c: np.sort(trial_rng.random(horizon)) for c in comps}
        kinds = {c: ("gen" if c.startswith("g") else "line") for c in comps}
        table = table_from_rows(rows, kinds, set(comps), horizon)
        early = {c: int(trial_rng.integers(1, horizon + 2)) for c in comps}
        late = {c: int(trial_rng.integers(early[c], horizon + 2)) for c in comps}
        rho_g, rho_l = int(trial_rng.integers(1, 3)), int(trial_rng.integers(1, 3))
        assert joint_oracle(early, table, rho_g, rho_l) \
            >= joint_oracle(late, table, rho_g, rho_l) - 1e-12
    passed(2, "pb_cdf == 2^n enumeration (200 profiles, 1e-12); 500+500 "
              "monotonicity pairs hold")


# -------------------------------------------------------------------------
# 3. Exactness of the separation fixed point
# -------------------------------------------------------------------------

def _chance_instance(seed, n_comp, horizon, scale=0.9):
    rng = np.random.default_rng(seed)
    comps = [f"g{i}" for i in range(max(1, n_comp // 2))] \
        + [f"l{i}" for i in range(n_comp - max(1, n_comp // 2))]
    rows = {c: np.sort(rng.uniform(0, scale, size=horizon)) for c in comps}
    kinds = {c: ("gen" if c.startswith("g") else "line") for c in comps}
    return table_from_rows(rows, kinds, set(comps), horizon), comps


def test_c03_separation_fixed_point_exact():
    configs = [(0, 2, 3, 0.3), (1, 3, 8, 0.25), (2, 4, 9, 0.2), (3, 3, 5, 0.4)]
    total_points = 0
    for seed, n_comp, horizon, alpha in configs:
        table, comps = _chance_instance(seed, n_comp, horizon)
        tbar = horizon + 1
        assert tbar ** n_comp <= 10_000
        schedules = list(enumerate_schedules(tuple(comps), tbar))
        cuts = []
        truth = []
        for sched in schedules:
            ok, cut, pv = separate(sched, table, 1, 1, alpha)
            truth.append(pv >= 1 - alpha)
            assert ok == (pv >= 1 - alpha)
            if not ok:
                cuts.append(cut)
        # every schedule against every cover cut in one 0/1 matrix product,
        # with cases.violated_by's test lhs > rhs + 1e-9
        column = {pair: i for i, pair in
                  enumerate(itertools.product(comps, range(1, tbar + 1)))}
        points = np.zeros((len(schedules), len(column)))
        for r, sched in enumerate(schedules):
            points[r, [column[pair] for pair in sched.items()]] = 1.0
        coeffs = np.zeros((len(column), len(cuts)))
        for j, cut in enumerate(cuts):
            assert cut.sense == "<=" and cut.theta_key is None
            for pair, c in cut.v_coeffs:
                coeffs[column[pair], j] = c
        rhs = np.array([cut.rhs for cut in cuts])
        excluded = (points @ coeffs > rhs + 1e-9).any(axis=1)
        feasible = np.array(truth)
        false_rejects = int(np.count_nonzero(excluded & feasible))
        false_accepts = int(np.count_nonzero(~excluded & ~feasible))
        total_points += len(schedules)
        assert false_accepts == 0 and false_rejects == 0
    passed(3, f"separation fixed point exact on {total_points} enumerated "
              "schedules (0 false accepts / rejects)")


# -------------------------------------------------------------------------
# 4. Safe-approximation conservatism
# -------------------------------------------------------------------------

def test_c04_safe_approximation_conservative():
    checked = accepted = 0
    settings = [(0, 2, 3, 0.3, 0.9), (1, 3, 8, 0.25, 0.9),
                (5, 4, 6, 0.35, 0.9), (8, 3, 5, 0.15, 0.9),
                (2, 3, 6, 0.2, 0.08), (4, 4, 5, 0.25, 0.06)]
    for seed, n_comp, horizon, alpha, scale in settings:
        table, comps = _chance_instance(seed, n_comp, horizon, scale)
        block = SafeApproxBlock(table, 1, 1, alpha)
        tbar = horizon + 1
        for sched in enumerate_schedules(tuple(comps), tbar):
            checked += 1
            if block.accepts(sched):
                accepted += 1
                assert joint_oracle(sched, table, 1, 1) >= 1 - alpha - 1e-12
    assert accepted >= 100  # the subset check must not hold vacuously
    passed(4, f"all {accepted} safe-accepted schedules (of {checked}) pass the "
              "exact oracle: safe set is a subset of the exact set")


# -------------------------------------------------------------------------
# 5. Optimality-cut validity, dominance, tightness
# -------------------------------------------------------------------------

def theta_floor(cut, schedule):
    point = {pair: 1.0 for pair in schedule.items()}
    return cut.rhs - sum(c * point.get(pair, 0.0) for pair, c in cut.v_coeffs)


def test_c05_cut_validity_and_strength():
    for seed in (7, 43):
        inst, scens = toy_instance(seed=seed)
        cfg = inst.cfg
        tbar = cfg.tbar
        day_bounds, _ = decomp.compute_lower_bounds(inst, scens, cfg)
        cache = {}

        def q_day(schedule, k, t):
            xi = scenario_xi(scens, k)
            status = one_status(schedule, xi, t, cfg, inst.hprime, inst.kinds)
            key = (t, status)
            if key not in cache:
                down = unavailable_components(inst.hprime, status)
                model = ucmodel.build_subproblem(inst.net, inst.demand.day(t),
                                                 down, cfg)
                cache[key] = ucmodel.solve_subproblem(model, 1e-9).objective
            return cache[key]

        def q_full(schedule, k):
            return sum(q_day(schedule, k, t) for t in range(1, cfg.horizon_days + 1))

        all_points = list(enumerate_schedules(inst.hprime, tbar))
        for gen_point in all_points[:: max(1, len(all_points) // 6)]:
            singles = {comp: {p} for comp, p in gen_point.items()}
            for k in range(scens.size):
                xi = scenario_xi(scens, k)
                q_val = q_full(gen_point, k)
                lower = sum(day_bounds[k].tolist())
                c16 = cut_int_lshaped(gen_point, k, q_val, lower, tbar)
                c18 = cut_over_periods(gen_point, k, q_val, lower, singles, "optK")
                c20 = cut_over_periods(gen_point, k, q_val, lower,
                                       one_same_cost(gen_point, xi, tbar),
                                       "optK+")
                # tightness at the generating point
                for cut in (c16, c18, c20):
                    assert theta_floor(cut, gen_point) == pytest.approx(q_val,
                                                                        rel=1e-9)
                for point in all_points:
                    q_at = q_full(point, k)
                    floors = [theta_floor(c, point) for c in (c16, c18, c20)]
                    # validity: no family ever exceeds the true recourse cost
                    for f in floors:
                        assert f <= q_at + 1e-6
                    # dominance chain 16 <= 18 <= 20
                    assert floors[0] <= floors[1] + 1e-9 <= floors[2] + 2e-9

                for t in range(1, cfg.horizon_days + 1):
                    q_t = q_day(gen_point, k, t)
                    lower_t = day_bounds[k, t - 1]
                    baseline = cut_over_periods(gen_point, (k, t), q_t, lower_t,
                                                singles, "optK")
                    strong = cut_over_periods(
                        gen_point, (k, t), q_t, lower_t,
                        one_same_status(gen_point, xi, t, cfg, inst.kinds),
                        "optKT++")
                    assert theta_floor(strong, gen_point) == pytest.approx(
                        q_t, rel=1e-9)
                    for point in all_points:
                        q_pt = q_day(point, k, t)
                        assert theta_floor(strong, point) <= q_pt + 1e-6
                        assert theta_floor(strong, point) \
                            >= theta_floor(baseline, point) - 1e-9
    passed(5, "all four cut families valid, tight at their generating points, "
              "and ordered 16 <= 18 <= 20 (and 22 >= its per-day baseline)")


# -------------------------------------------------------------------------
# 6. Status-cache soundness
# -------------------------------------------------------------------------

def test_c06_status_cache_soundness():
    # days 1 and 2 share a demand slice, so entries also alias across days
    inst, scens = toy_instance(seed=11, subperiods=1, shared_days=True)
    cfg = inst.cfg
    report = decomp.solve(inst, scens, cfg)
    assert report.status == "optimal"
    assert report.counts["solved"] <= report.counts["psi_total"] \
        <= report.iterations * scens.size * cfg.horizon_days

    rng = np.random.default_rng(77)
    cache = decomp.StatusCache()
    triples = []
    for _ in range(1000):
        schedule = {c: int(rng.integers(1, cfg.tbar + 1)) for c in inst.hprime}
        k = int(rng.integers(0, scens.size))
        t = int(rng.integers(1, cfg.horizon_days + 1))
        triples.append((schedule, k, t))

    def fresh_value(t, down):
        model = ucmodel.build_subproblem(inst.net, inst.demand.day(t), down, cfg)
        return ucmodel.solve_subproblem(model, 1e-9).objective

    def key_and_value(schedule, k, t):
        status = one_status(schedule, scenario_xi(scens, k), t, cfg, inst.hprime,
                            inst.kinds)
        down = unavailable_components(inst.hprime, status)
        return inst.day_key(t, down), fresh_value(t, down)

    stored_on = {}
    for schedule, k, t in triples:  # first pass fills the cache
        key, value = key_and_value(schedule, k, t)
        if cache.lookup(key) is None:
            cache.store(key, value, value)
            stored_on[key] = t
    worst = 0.0
    for schedule, k, t in triples:  # every triple now aliases a cached entry
        key, value = key_and_value(schedule, k, t)
        cached = cache.lookup(key)[0]
        worst = max(worst, abs(value - cached) / max(1.0, abs(value)))
    other_days = 0
    for key, stored_day in stored_on.items():  # re-solved on the class's other days
        for t in range(1, cfg.horizon_days + 1):
            if t != stored_day and inst.day_key(t, key.down) == key:
                value = fresh_value(t, key.down)
                cached = cache.lookup(key)[0]
                worst = max(worst, abs(value - cached) / max(1.0, abs(value)))
                other_days += 1
    assert other_days > 0
    assert worst <= 1e-6
    passed(6, f"1000 alias pairs and {other_days} entries on another day of "
              f"their demand class re-solved fresh; worst relative deviation "
              f"{worst:.2e} <= 1e-6; solves bounded by |Psi|")


# -------------------------------------------------------------------------
# 7. Flow-preprocessing soundness and mode nesting
# -------------------------------------------------------------------------

def test_c07_flow_preprocessing():
    from gridmaint.preflow import analyze
    net = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                    demands=[0.0, 40.0, 60.0], flow_limit=70.0, p_max=120.0,
                    gen_cost=10.0, curtail=800.0)
    cfg = RunConfig(horizon_days=2, subperiods=2)
    rng = np.random.default_rng(0)
    values = rng.uniform(10, 65, size=(3, 2, 2))
    values[0] = 0.0
    from gridmaint.caseio import DemandGrid
    grid = DemandGrid((1, 2, 3), values)
    candidates = frozenset({"l1"})
    report = analyze(net, grid, "III", candidate_lines=candidates)
    comps = ["g1", "g2", "l1"]
    for day in (1, 2):
        omit = report.omitted_for_day(day, 2)
        for bits in itertools.product([0, 1], repeat=len(comps)):
            down = frozenset(c for c, b in zip(comps, bits) if b == 0)
            full = ucmodel.solve_subproblem(
                ucmodel.build_subproblem(net, grid.day(day), down, cfg), 1e-9)
            trimmed = ucmodel.solve_subproblem(
                ucmodel.build_subproblem(net, grid.day(day), down, cfg,
                                         omit_bounds=omit), 1e-9)
            rel = abs(full.objective - trimmed.objective) \
                / max(1.0, abs(full.objective))
            assert rel <= 1e-6

    nested = 0
    for seed in range(10):
        srng = np.random.default_rng(seed)
        net_s = build_net(n_bus=3, n_gen=2, lines=[(1, 2), (1, 3), (2, 3)],
                          demands=[0.0, 0.0, 0.0],
                          flow_limit=float(srng.uniform(30, 90)), p_max=150.0)
        vals = srng.uniform(0, 80, size=(3, 2, 2))
        grid_s = DemandGrid((1, 2, 3), vals)
        rep = {m: analyze(net_s, grid_s, m) for m in ("I", "II", "III")}
        flag_i = {(e.line_id, e.direction): e.redundant for e in rep["I"].entries}
        flag_ii = {(e.line_id, e.direction, e.scope[0]): e.redundant
                   for e in rep["II"].entries}
        flag_iii = {(e.line_id, e.direction) + e.scope: e.redundant
                    for e in rep["III"].entries}
        for (line, direction), red in flag_i.items():
            if red:
                for t in (1, 2):
                    assert flag_ii[(line, direction, t)]
                    nested += 1
        for (line, direction, t), red in flag_ii.items():
            if red:
                for s in (1, 2):
                    assert flag_iii[(line, direction, t, s)]
                    nested += 1
    passed(7, "row deletion leaves every availability pattern's optimum "
              f"unchanged (<=1e-6); mode nesting held on {nested} scoped rows")


# -------------------------------------------------------------------------
# 8. Degradation statistics
# -------------------------------------------------------------------------

def test_c08_degradation_statistics():
    started = time.perf_counter()
    # closed form when the drift is known exactly
    priors = DegradationPriors(20.0, 10.0, 5.0, 0.0, 3.0, 100.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        tk = int(rng.integers(2, 9))
        incr = tuple(float(x) for x in rng.uniform(0, 8, size=tk))
        obs = SignalObservations(incr, 1, tk)
        assert posterior_drift(priors, obs) == 5.0

    # KS of the closed-form lifetime law against first-passage Monte Carlo
    residual, drift, sigma = 50.0, 5.0, 3.0
    dist = ComponentRLD(residual / drift, residual ** 2 / sigma ** 2)
    n, dt, steps = 10_000, 0.01, 8000
    times = np.empty(n)
    mc = np.random.default_rng(8)
    for lo in range(0, n, 2000):
        size = min(2000, n - lo)
        incr = mc.normal(drift * dt, sigma * np.sqrt(dt), size=(size, steps))
        levels = np.cumsum(incr, axis=1)
        hit = levels >= residual
        assert hit.any(axis=1).all()
        times[lo:lo + size] = (hit.argmax(axis=1) + 1) * dt
    times.sort()
    model = np.array([dist.cdf(t) for t in times])
    ks = max(np.max(np.abs(np.arange(1, n + 1) / n - model)),
             np.max(np.abs(model - np.arange(0, n) / n)))
    assert ks < 0.05

    # sampled day buckets against the distribution's own buckets
    horizon = 7
    scen = sample_scenarios({"c": dist}, 100_000, horizon, seed=12)
    expected = bucket_probs(dist, horizon)
    freqs = np.bincount(scen.failure_times[:, 0],
                        minlength=horizon + 2)[1:] / scen.size
    assert np.max(np.abs(freqs - expected)) < 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passed(8, f"drift closed form exact; KS {ks:.4f} < 0.05; bucket deviation "
              f"< 0.01 at N=1e5 ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 9. SAA machinery
# -------------------------------------------------------------------------

def test_c09_saa_machinery():
    net = build_net(n_bus=2, demands=[0.0, 40.0], gen_cost=10.0, curtail=500.0)
    cfg = RunConfig(horizon_days=2, subperiods=1, epsilon=1e-8,
                    cut_family="optK", chance_mode="exact", alpha=0.5,
                    subproblem_gap=1e-9, saa_m=3, saa_n=1, saa_nprime=1)
    values = np.tile(np.array([0.0, 40.0])[:, None, None], (1, 2, 1))
    inst = make_instance(net, cfg, values, {"g1": np.zeros(2)}, hprime=("g1",))
    report = saa.run_saa(inst, dataclasses.replace(inst.cfg, seed=3))
    assert report.gap_pct == pytest.approx(0.0, abs=1e-6)
    assert report.sigma_lower == 0.0 and report.sigma_upper == 0.0
    assert report.ci_lower[0] == pytest.approx(report.ci_lower[1], abs=1e-9)
    assert report.ci_upper[0] == pytest.approx(report.ci_upper[1], abs=1e-9)

    rng = np.random.default_rng(4)
    costs = rng.uniform(10, 50, size=200)
    mu_u, sigma_u, ci_u = saa.upper_bound_stats(costs, 0.05)
    assert abs(mu_u - float(np.mean(costs))) <= 1e-12
    assert abs(sigma_u - float(np.sqrt(np.var(costs, ddof=1) / len(costs)))) <= 1e-12
    z = statistics.NormalDist().inv_cdf(0.975)
    assert abs(ci_u[1] - (mu_u + z * sigma_u)) <= 1e-9

    zs = rng.uniform(10, 50, size=5)
    mu_l, sigma_l, ci_l = saa.lower_bound_stats(zs, 0.05)
    assert abs(mu_l - float(np.mean(zs))) <= 1e-12
    assert abs(sigma_l - float(np.sqrt(np.var(zs, ddof=1) / len(zs)))) <= 1e-12
    t_975_df4 = 2.7764451051977987  # published t-table value, 4 df
    assert abs(ci_l[0] - (mu_l - t_975_df4 * sigma_l)) <= 1e-9
    passed(9, "degenerate replication yields gap 0 with zero-width CIs; "
              "bound formulas match independent statistics to 1e-12")


# -------------------------------------------------------------------------
# 10. Directional reproduction of the evaluation study
# -------------------------------------------------------------------------

def test_c10_directional_nine_bus_study():
    started = time.perf_counter()
    cfg = RunConfig(horizon_days=7, subperiods=24, alpha=0.1, rho_gen=1,
                    rho_line=1, pfail_gen=0.1, pfail_line=0.2, epsilon=1e-3,
                    cut_family="optKT++", chance_mode="exact", saa_n=12,
                    saa_nprime=1000, subproblem_gap=1e-6)
    net = parse_case(CASE9, subperiods=24)
    grid = synth_demand(net, cfg, seed=1)
    inst = build_instance(net, grid, cfg, seed=34)
    assert inst.hprime  # the seeded draw selects maintenance candidates

    train = training_scenarios(inst, cfg.saa_n, seed=5)
    sp_exact = decomp.solve(inst, train, cfg)
    sp_safe = decomp.solve(inst, train,
                           dataclasses.replace(cfg, chance_mode="safe"))
    dm = saa.deterministic_baseline(inst)
    assert sp_exact.status == sp_safe.status == dm.status == "optimal"

    tests = evaluation_scenarios(inst, cfg.saa_nprime, seed=99)
    cache = decomp.StatusCache()
    ev_exact = saa.evaluate_schedule(inst, sp_exact.schedule, tests, cache)
    ev_safe = saa.evaluate_schedule(inst, sp_safe.schedule, tests, cache)
    ev_dm = saa.evaluate_schedule(inst, dm.schedule, tests, cache)

    # (a) stochastic violation frequencies within the chance level
    assert ev_exact.violation_freq <= cfg.alpha
    assert ev_safe.violation_freq <= cfg.alpha
    # (b) the failure-blind baseline violates strictly more
    assert ev_dm.violation_freq > ev_exact.violation_freq
    assert ev_dm.violation_freq > ev_safe.violation_freq
    # (c) stochastic total expected cost at or below the baseline's
    assert ev_exact.total <= ev_dm.total
    assert ev_safe.total <= ev_dm.total
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    improv = saa.cost_improvement(ev_dm.total, ev_exact.total)
    passed(10, f"9-bus study: violations exact {ev_exact.violation_freq:.3f} / "
               f"safe {ev_safe.violation_freq:.3f} <= 0.1 < DM "
               f"{ev_dm.violation_freq:.3f}; savings "
               f"{improv['vs_deterministic']:.1f}% ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 11. Finite convergence ahead of the enumeration bound
# -------------------------------------------------------------------------

def test_c11_finite_convergence():
    for seed in (7, 43, 101):
        inst, scens = toy_instance(seed=seed, alpha=0.3)
        cfg = inst.cfg
        report = decomp.solve(inst, scens, cfg)
        assert report.status in ("optimal", "infeasible")
        n_points = cfg.tbar ** len(inst.hprime)
        n_covers = sum(
            1 for sched in enumerate_schedules(inst.hprime, cfg.tbar)
            if joint_oracle(sched, inst.table, cfg.rho_gen, cfg.rho_line)
            < 1 - cfg.alpha)
        assert report.iterations < n_points + n_covers
    passed(11, "exact mode terminated before the schedule+cover enumeration "
               "bound on every toy")
