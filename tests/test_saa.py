import dataclasses
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridmaint import decomp, degrade, saa
from gridmaint.caseio import RunConfig, parse_case, synth_demand
from gridmaint.degrade import ScenarioSet
from gridmaint.instance import build_instance
from gridmaint.pboracle import joint_oracle
from gridmaint.ucmodel import build_subproblem, solve_subproblem

from cases import (CASE9, HORIZON_MISMATCHES, build_net, make_instance,
                   reference_status_bit, scenario_xi, toy_instance,
                   unavailable_components)
from oracle_extform import extensive_solve


def sample_from_table(inst, comps, n, seed):
    """Scenario sampling consistent with the instance's probability table."""
    rng = np.random.default_rng(seed)
    horizon = inst.cfg.horizon_days
    times = np.empty((n, len(comps)), dtype=int)
    for j, comp in enumerate(comps):
        q = np.concatenate([[0.0], inst.table.q[comp]])
        buckets = np.append(np.diff(q), 1.0 - q[-1])
        times[:, j] = rng.choice(np.arange(1, horizon + 2), size=n, p=buckets)
    return ScenarioSet(tuple(comps), times, np.full(n, 1.0 / n), horizon)


def test_evaluate_day_one_maintenance_prevents_prime_failures():
    inst, _ = toy_instance(seed=2)
    schedule = {comp: 1 for comp in inst.hprime}
    # failures can only happen from day 2 on in this set
    times = np.full((6, len(inst.all_components)), inst.cfg.tbar, dtype=int)
    times[:3, 0] = 2
    scens = ScenarioSet(inst.all_components, times,
                        np.full(6, 1 / 6), inst.cfg.horizon_days)
    report = saa.evaluate_schedule(inst, schedule, scens)
    assert report.avg_failures["gen_prime"] == 0.0
    assert report.avg_failures["line_prime"] == 0.0


def test_evaluate_failure_free_scenarios():
    inst, _ = toy_instance(seed=4)
    schedule = {comp: inst.cfg.tbar for comp in inst.hprime}
    times = np.full((5, len(inst.all_components)), inst.cfg.tbar, dtype=int)
    scens = ScenarioSet(inst.all_components, times, np.full(5, 0.2),
                        inst.cfg.horizon_days)
    report = saa.evaluate_schedule(inst, schedule, scens)
    assert report.violation_freq == 0.0
    assert report.gm == 0.0 and report.tlm == 0.0
    expected_ops = 0.0
    for day in range(1, inst.cfg.horizon_days + 1):
        model = build_subproblem(inst.net, inst.demand.day(day), frozenset(),
                                 inst.cfg)
        expected_ops += solve_subproblem(model, 1e-9).objective
    assert report.ops == pytest.approx(expected_ops, rel=1e-7)


def test_evaluate_counts_second_set_failures():
    inst, _ = toy_instance(seed=6)
    schedule = {comp: 1 for comp in inst.hprime}
    comps = inst.all_components
    times = np.full((4, len(comps)), inst.cfg.tbar, dtype=int)
    g2 = comps.index("g2")
    times[:2, g2] = 1  # non-candidate generator fails in half the scenarios
    scens = ScenarioSet(comps, times, np.full(4, 0.25), inst.cfg.horizon_days)
    report = saa.evaluate_schedule(inst, schedule, scens)
    assert report.avg_failures["second"] == pytest.approx(0.5)


def test_evaluate_weights_scenarios_by_their_probabilities():
    # g1 fails on day 1 in the first scenario only, every candidate at tbar
    inst, _ = toy_instance(seed=6)
    cfg, comps = inst.cfg, inst.all_components
    schedule = {comp: cfg.tbar for comp in inst.hprime}
    times = np.full((2, len(comps)), cfg.tbar, dtype=int)
    times[0, comps.index("g1")] = 1
    reports = {}
    for probs in ((0.5, 0.5), (0.99, 0.01)):
        scens = ScenarioSet(comps, times, np.array(probs), cfg.horizon_days)
        reports[probs] = report = saa.evaluate_schedule(inst, schedule, scens)
        first, second = report.per_scenario_total
        assert first > second
        assert report.total == pytest.approx(probs[0] * first + probs[1] * second,
                                             rel=1e-12)
        assert report.avg_failures == {"gen_prime": probs[0], "line_prime": 0.0,
                                       "second": 0.0}
    # the per-scenario totals do not depend on the weights
    assert reports[(0.5, 0.5)].per_scenario_total.tobytes() \
        == reports[(0.99, 0.01)].per_scenario_total.tobytes()
    assert reports[(0.5, 0.5)].total == pytest.approx(9593.29, abs=0.01)
    assert reports[(0.99, 0.01)].total == pytest.approx(13083.23, abs=0.01)


def brute_evaluate(inst, schedule, scens, cfg):
    """Scenario-by-scenario evaluation from the scalar statements of the rules."""
    comps, n = inst.all_components, scens.size
    values = {}
    totals = np.zeros(n)
    fails = {"gen_prime": 0, "line_prime": 0, "second": 0}
    violations = 0
    for k in range(n):
        xi = scenario_xi(scens, k)
        corrective = {"gen": 0, "line": 0}
        for comp in comps:
            x = xi.get(comp, cfg.tbar)
            if x > cfg.horizon_days or (comp in schedule and schedule[comp] < x):
                continue
            kind = inst.kinds[comp]
            corrective[kind] += 1
            fails[f"{kind}_prime" if comp in inst.hprime else "second"] += 1
        violations += corrective["gen"] > cfg.rho_gen \
            or corrective["line"] > cfg.rho_line
        for comp in inst.hprime:
            pred, corr = inst.maint_cost(comp)
            x = xi.get(comp, cfg.tbar)
            if schedule[comp] < x:
                totals[k] += pred
            elif x != cfg.tbar:
                totals[k] += corr
        for day in range(1, cfg.horizon_days + 1):
            status = tuple(reference_status_bit(
                schedule.get(c, cfg.tbar), xi.get(c, cfg.tbar), day,
                *cfg.tau(inst.kinds[c]), cfg.horizon_days) for c in comps)
            if (day, status) not in values:
                down = unavailable_components(comps, status)
                model = build_subproblem(inst.net, inst.demand.day(day), down, cfg,
                                         omit_bounds=inst.omit_bounds_for(day, down))
                values[(day, status)] = solve_subproblem(
                    model, cfg.subproblem_gap).objective
            totals[k] += values[(day, status)]
    return totals, violations / n, {key: v / n for key, v in fails.items()}


def test_evaluate_matches_a_per_scenario_loop():
    # columns in reverse case order; the non-candidate generator g2 fails on
    # day 2 in a third of the scenarios
    inst, _ = toy_instance(seed=11)
    cfg = inst.cfg
    drawn = sample_from_table(inst, inst.all_components, 60, seed=5)
    comps = inst.all_components[::-1]
    times = drawn.failure_times[:, ::-1].copy()
    times[:20, comps.index("g2")] = 2
    scens = ScenarioSet(comps, times, drawn.probs, drawn.horizon_days)
    assert "g2" not in inst.hprime
    for schedule in ({"g1": 2, "l1": 1}, {"g1": 3, "l1": 4}):
        report = saa.evaluate_schedule(inst, schedule, scens)
        totals, violation_freq, avg_failures = brute_evaluate(inst, schedule,
                                                              scens, cfg)
        assert report.per_scenario_total == pytest.approx(totals, rel=1e-9, abs=1e-6)
        # equal weights: the plain means, up to the round-off of weighting
        assert report.total == pytest.approx(report.per_scenario_total.mean(),
                                             rel=1e-12)
        assert report.violation_freq == pytest.approx(violation_freq, rel=1e-12)
        assert report.avg_failures == pytest.approx(avg_failures, rel=1e-12)


def _expectations(report):
    return [report.gm, report.tlm, report.ops, report.violation_freq,
            *report.avg_failures.values()]


def test_evaluate_on_duplicate_rows_matches_the_hand_merged_set():
    inst, _ = toy_instance(seed=11)
    cfg, comps = inst.cfg, inst.all_components
    rng = np.random.default_rng(12)
    distinct = sample_from_table(inst, comps, 6, seed=3).failure_times
    rows = rng.integers(0, len(distinct), size=50)
    weights = rng.uniform(0.2, 3.0, size=50)
    scens = ScenarioSet(comps, distinct[rows], weights / weights.sum(),
                        cfg.horizon_days)
    merged_probs = {}
    for k, row in enumerate(map(tuple, scens.failure_times.tolist())):
        merged_probs[row] = merged_probs.get(row, 0.0) + float(scens.probs[k])
    by_hand = ScenarioSet(comps, np.array(list(merged_probs)),
                          np.array(list(merged_probs.values())), cfg.horizon_days)
    index = {row: i for i, row in enumerate(merged_probs)}
    schedule = {"g1": 2, "l1": 1}
    cache = decomp.StatusCache()
    report = saa.evaluate_schedule(inst, schedule, scens, cache)
    merged = saa.evaluate_schedule(inst, schedule, by_hand)
    assert report.n_scenarios == 50
    assert _expectations(report) == pytest.approx(_expectations(merged), rel=1e-12)
    # every scenario gets its own row's total, and every scenario-day counts
    assert report.per_scenario_total.tolist() == [
        merged.per_scenario_total[index[row]]
        for row in map(tuple, scens.failure_times.tolist())]
    assert cache.solved + cache.aliased == 50 * cfg.horizon_days


def test_two_evaluations_of_one_test_set_merge_it_once(monkeypatch):
    # the merge is kept on the set, so each schedule evaluated on it reads it
    inst, _ = toy_instance(seed=20)
    test_set = sample_from_table(inst, inst.all_components, 40, seed=7)
    schedules = [{comp: 2 for comp in inst.hprime}, {comp: 1 for comp in inst.hprime}]
    merges = []

    def counted(rows):
        merges.append(rows is test_set.failure_times)
        return real(rows)

    real = degrade.group_rows
    monkeypatch.setattr(degrade, "group_rows", counted)
    cache = decomp.StatusCache()
    reports = [saa.evaluate_schedule(inst, schedule, test_set, cache)
               for schedule in schedules]
    assert sum(merges) == 1
    monkeypatch.undo()
    for schedule, report in zip(schedules, reports):
        fresh = saa.evaluate_schedule(inst, schedule, dataclasses.replace(test_set))
        assert _expectations(report) == _expectations(fresh)
        assert report.per_scenario_total.tobytes() == fresh.per_scenario_total.tobytes()


def test_a_row_permutation_keeps_every_expectation_bit_equal():
    # equal weights; sums taken in row order gave avg_failures["line_prime"]
    # last bits that followed the order under permutations 0, 3 and 4, and
    # ops under permutation 3
    inst, _ = toy_instance(seed=20)
    scens = sample_from_table(inst, inst.all_components, 300, seed=7)
    schedule = {"g1": 2, "l1": 3}
    base = _expectations(saa.evaluate_schedule(inst, schedule, scens))
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(scens.size)
        permuted = ScenarioSet(scens.component_ids, scens.failure_times[order],
                               scens.probs[order], scens.horizon_days)
        report = saa.evaluate_schedule(inst, schedule, permuted)
        assert [v.hex() for v in _expectations(report)] == [v.hex() for v in base]


def test_evaluate_rejects_incomplete_schedule():
    inst, _ = toy_instance(seed=8)
    times = np.full((2, len(inst.all_components)), inst.cfg.tbar, dtype=int)
    scens = ScenarioSet(inst.all_components, times, np.array([0.5, 0.5]),
                        inst.cfg.horizon_days)
    with pytest.raises(ValueError, match="lacks periods"):
        saa.evaluate_schedule(inst, {}, scens)


@pytest.mark.parametrize("days, scenario_days, hours, error", HORIZON_MISMATCHES)
def test_evaluate_rejects_a_horizon_its_inputs_do_not_share(days, scenario_days,
                                                            hours, error):
    inst, _ = toy_instance(seed=7)
    cfg = dataclasses.replace(inst.cfg, horizon_days=days, subperiods=hours)
    times = np.ones((2, len(inst.all_components)), dtype=int)
    scens = ScenarioSet(inst.all_components, times, np.array([0.5, 0.5]),
                        scenario_days)
    with pytest.raises(ValueError, match=error):
        saa.evaluate_schedule(inst, {comp: 1 for comp in inst.hprime}, scens, cfg=cfg)


def test_evaluate_rejects_components_outside_the_candidates():
    # costs are summed over H' only: maintaining g2 would prevent its
    # failures for free
    inst, _ = toy_instance(seed=6)
    times = np.full((2, len(inst.all_components)), inst.cfg.tbar, dtype=int)
    times[0, inst.all_components.index("g2")] = 2
    scens = ScenarioSet(inst.all_components, times, np.array([0.5, 0.5]),
                        inst.cfg.horizon_days)
    schedule = {comp: 1 for comp in inst.hprime}
    for extra in ("g2", "zz"):
        with pytest.raises(ValueError, match=f"maintenance candidates.*'{extra}'"):
            saa.evaluate_schedule(inst, {**schedule, extra: 1}, scens)


def test_violation_frequency_respects_binomial_bound():
    inst, scens_train = toy_instance(seed=10, alpha=0.3)
    report = decomp.solve(inst, scens_train, inst.cfg)
    assert report.ok
    pv = joint_oracle(report.schedule, inst.table, inst.cfg.rho_gen,
                      inst.cfg.rho_line)
    assert pv >= 1 - inst.cfg.alpha
    n_test = 1000
    test_set = sample_from_table(inst, inst.all_components, n_test, seed=99)
    ev = saa.evaluate_schedule(inst, report.schedule, test_set)
    alpha = inst.cfg.alpha
    bound = alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / n_test)
    assert ev.violation_freq <= bound


def test_deterministic_baseline_matches_extensive():
    inst, _ = toy_instance(seed=12)
    report = saa.deterministic_baseline(inst)
    assert report.ok
    from gridmaint.instance import no_failure_scenarios
    scens = no_failure_scenarios(inst)
    expected, _ = extensive_solve(inst, scens, inst.cfg, chance="off")
    assert report.objective == pytest.approx(expected, rel=1e-6)
    # without failures, deferring maintenance past the horizon is free
    assert all(t == inst.cfg.tbar for t in report.schedule.values())


def test_zero_maintenance_cost_and_void_chance_collapse_to_baseline():
    inst, _ = toy_instance(seed=14, alpha=0.999)
    from gridmaint.instance import no_failure_scenarios
    scens = no_failure_scenarios(inst)
    stochastic = decomp.solve(inst, scens, inst.cfg)
    baseline = saa.deterministic_baseline(inst)
    assert stochastic.objective == pytest.approx(baseline.objective, rel=1e-8)


def test_baseline_violates_more_than_stochastic():
    inst, scens_train = toy_instance(seed=16, alpha=0.2)
    sp = decomp.solve(inst, scens_train, inst.cfg)
    dm = saa.deterministic_baseline(inst)
    assert sp.ok and dm.ok
    test_set = sample_from_table(inst, inst.all_components, 600, seed=5)
    cache = decomp.StatusCache()
    sp_eval = saa.evaluate_schedule(inst, sp.schedule, test_set, cache)
    dm_eval = saa.evaluate_schedule(inst, dm.schedule, test_set, cache)
    assert dm_eval.violation_freq >= sp_eval.violation_freq


def test_cost_improvement_both_conventions():
    out = saa.cost_improvement(200.0, 150.0)
    assert out["vs_deterministic"] == pytest.approx(25.0)
    assert out["vs_stochastic"] == pytest.approx(100.0 / 3.0)


# -- statistical machinery ---------------------------------------------------------

def test_upper_stats_formula_against_independent_routine():
    rng = np.random.default_rng(0)
    costs = rng.uniform(50, 150, size=40)
    mu, sigma, ci = saa.upper_bound_stats(costs, significance=0.05)
    assert mu == pytest.approx(float(np.mean(costs)), abs=1e-12)
    # independent route: sample variance over N', quantile from the stdlib
    expected_sigma = np.sqrt(np.var(costs, ddof=1) / len(costs))
    assert sigma == pytest.approx(float(expected_sigma), abs=1e-12)
    z = statistics.NormalDist().inv_cdf(0.975)
    assert ci[0] == pytest.approx(mu - z * sigma, abs=1e-9)
    assert ci[1] == pytest.approx(mu + z * sigma, abs=1e-9)


def test_lower_stats_formula_against_frozen_t_quantile():
    zs = np.array([10.0, 12.0, 9.5, 11.0, 13.0])
    mu, sigma, ci = saa.lower_bound_stats(zs, significance=0.05)
    assert mu == pytest.approx(11.1, abs=1e-12)
    expected_sigma = np.sqrt(np.var(zs, ddof=1) / len(zs))
    assert sigma == pytest.approx(float(expected_sigma), abs=1e-12)
    t_975_df4 = 2.7764451051977987  # published t-table value
    assert ci[0] == pytest.approx(mu - t_975_df4 * sigma, abs=1e-9)
    assert ci[1] == pytest.approx(mu + t_975_df4 * sigma, abs=1e-9)


def test_stats_are_bit_equal_to_the_scipy_stats_quantiles():
    from scipy.stats import norm, t as student_t

    rng = np.random.default_rng(3)
    for significance in (0.01, 0.05, 0.1):
        q = 1.0 - significance / 2.0
        # centred samples, so a one-ulp change of the quantile shows in the CI
        costs = rng.normal(0.0, 1.0, size=200)
        assert repr(saa.upper_bound_stats(costs, significance)) \
            == repr(saa._mean_and_ci(costs, float(norm.ppf(q))))
        for df in range(1, 61):
            values = rng.normal(0.0, 1.0, size=df + 1)
            assert repr(saa.lower_bound_stats(values, significance)) \
                == repr(saa._mean_and_ci(values, float(student_t.ppf(q, df=df))))


def test_degenerate_stats_zero_width():
    mu, sigma, ci = saa.lower_bound_stats([7.0] * 5, 0.05)
    assert sigma == 0.0 and ci == (7.0, 7.0)


# -- the driver ---------------------------------------------------------------------

def never_failing_instance():
    net = build_net(n_bus=2, demands=[0.0, 40.0], gen_cost=10.0, curtail=500.0)
    cfg = RunConfig(horizon_days=2, subperiods=1, epsilon=1e-8,
                    cut_family="optK", chance_mode="exact", alpha=0.5,
                    subproblem_gap=1e-9, saa_m=3, saa_n=1, saa_nprime=2)
    values = np.tile(np.array([0.0, 40.0])[:, None, None], (1, 2, 1))
    # one candidate that never fails: every sample is the no-failure scenario
    return make_instance(net, cfg, values, {"g1": np.zeros(2)}, hprime=("g1",))


def test_run_saa_degenerate_gap_zero():
    inst = never_failing_instance()
    report = saa.run_saa(inst, dataclasses.replace(inst.cfg, seed=3))
    assert report.sigma_lower == pytest.approx(0.0, abs=1e-9)
    assert report.ci_lower[1] - report.ci_lower[0] == pytest.approx(0.0, abs=1e-7)
    assert report.sigma_upper == pytest.approx(0.0, abs=1e-9)
    assert report.gap_pct == pytest.approx(0.0, abs=1e-6)
    assert report.mu_lower == pytest.approx(report.mu_upper, rel=1e-8)


def test_run_saa_bounds_are_ordered_on_toy():
    inst, _ = toy_instance(seed=18)
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "saa_m": 3, "saa_n": 3,
                                "saa_nprime": 12, "epsilon": 1e-6})
    inst.cfg = cfg
    report = saa.run_saa(inst, dataclasses.replace(inst.cfg, seed=11))
    assert report.ci_lower[0] <= report.ci_lower[1]
    assert report.ci_upper[0] <= report.ci_upper[1]
    assert report.ci_overall[0] <= report.ci_overall[1] + 1e-9
    assert report.best_schedule
    evaluated = [r["eval_total"] for r in report.replicates if "eval_total" in r]
    assert min(evaluated) == pytest.approx(report.mu_upper)


def test_run_saa_requires_two_replicates():
    inst = never_failing_instance()
    cfg = inst.cfg.__class__(**{**inst.cfg.__dict__, "saa_m": 1})
    with pytest.raises(ValueError, match="two SAA replicates"):
        saa.run_saa(inst, cfg)


def test_run_saa_excludes_failed_replicates(monkeypatch):
    inst = never_failing_instance()
    real_solve = decomp.solve
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        report = real_solve(*args, **kwargs)
        if calls["n"] == 1:
            report.status = "limit"
        return report

    monkeypatch.setattr(saa.decomp, "solve", flaky)
    report = saa.run_saa(inst, dataclasses.replace(inst.cfg, seed=3))
    assert sum(1 for r in report.replicates if r["status"] == "optimal") == 2


def test_cache_reuse_matches_fresh_evaluation():
    inst, _ = toy_instance(seed=20)
    schedule = {comp: 2 for comp in inst.hprime}
    test_set = sample_from_table(inst, inst.all_components, 40, seed=7)
    warm = decomp.StatusCache()
    first = saa.evaluate_schedule(inst, schedule, test_set, warm)
    again = saa.evaluate_schedule(inst, schedule, test_set, warm)  # all cached
    fresh = saa.evaluate_schedule(inst, schedule, test_set)        # cold cache
    assert again.total == pytest.approx(first.total, abs=1e-9)
    assert fresh.total == pytest.approx(first.total, rel=1e-9)


def test_run_saa_threaded_replicates():
    # replicates that differ in objective, schedule and iteration count give
    # the same bits solved one at a time and several at a time, with more
    # threads than cores switching often: each depends on its own stream and
    # on nothing the threads share
    cfg = RunConfig(horizon_days=3, subperiods=4, epsilon=1e-3, subproblem_gap=1e-6,
                    pfail_gen=0.05, pfail_line=0.05, saa_m=3, saa_n=6, saa_nprime=30)
    net = parse_case(CASE9, subperiods=cfg.subperiods)
    inst = build_instance(net, synth_demand(net, cfg, seed=1), cfg, seed=12)
    seq = saa.run_saa(inst, dataclasses.replace(cfg, seed=4))
    assert len({r["z"] for r in seq.replicates}) == cfg.saa_m
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (2, 3):
            par = saa.run_saa(inst, dataclasses.replace(cfg, threads=threads, seed=4))
            assert par.gap_pct.hex() == seq.gap_pct.hex()
            assert par.best_schedule == seq.best_schedule
            for a, b in zip(par.replicates, seq.replicates, strict=True):
                assert a["status"] == b["status"]
                assert a["z"].hex() == b["z"].hex()
                assert a["schedule"] == b["schedule"]
                assert a["iterations"] == b["iterations"]
    finally:
        sys.setswitchinterval(interval)



def test_run_saa_evaluates_each_distinct_schedule_once(monkeypatch):
    # four replicates return two schedules, each twice; the repeats share the
    # first one's report, and every figure is what evaluating each replicate
    # in turn on one cache gives
    cfg = RunConfig(horizon_days=3, subperiods=4, epsilon=1e-3, subproblem_gap=1e-6,
                    pfail_gen=0.05, pfail_line=0.05, saa_m=4, saa_n=6, saa_nprime=30)
    net = parse_case(CASE9, subperiods=cfg.subperiods)
    inst = build_instance(net, synth_demand(net, cfg, seed=1), cfg, seed=12)
    real_evaluate = saa.evaluate_schedule
    calls = []

    def counting(inst, schedule, scens, cache=None, cfg=None):
        calls.append(scens)
        return real_evaluate(inst, schedule, scens, cache, cfg)

    monkeypatch.setattr(saa, "evaluate_schedule", counting)
    report = saa.run_saa(inst, dataclasses.replace(cfg, seed=4))
    schedules = [tuple(sorted(r["schedule"].items())) for r in report.replicates]
    assert all(r["status"] == "optimal" for r in report.replicates)
    assert len(schedules) == 4 and len(set(schedules)) == len(calls) == 2
    cache = decomp.StatusCache()
    totals = [float(real_evaluate(inst, r["schedule"], calls[0], cache, cfg)
                    .per_scenario_total.mean()) for r in report.replicates]
    assert [r["eval_total"].hex() for r in report.replicates] == \
        [total.hex() for total in totals]
    best = report.replicates[totals.index(min(totals))]
    assert report.best_schedule == best["schedule"]
    ci_u = saa.upper_bound_stats(best["eval"].per_scenario_total, cfg.significance)[2]
    ci_l = saa.lower_bound_stats([r["z"] for r in report.replicates],
                                 cfg.significance)[2]
    assert report.gap_pct.hex() == (100.0 * (ci_u[1] - ci_l[0]) / ci_u[1]).hex()

# one evaluation over 20 000 scenarios of unequal probability; prints every
# probability-weighted sum as float hex
_WEIGHTED_SUMS = """
import numpy as np
from gridmaint import saa
from gridmaint.degrade import ScenarioSet
from cases import toy_instance
inst, _ = toy_instance(seed=4)
comps = inst.all_components
rng = np.random.default_rng(8)
n = 20_000
times = rng.integers(1, inst.cfg.horizon_days + 2, size=(n, len(comps)))
weights = rng.uniform(0.5, 1.5, size=n)
scens = ScenarioSet(comps, times, weights / weights.sum(), inst.cfg.horizon_days)
r = saa.evaluate_schedule(inst, {comp: 2 for comp in inst.hprime}, scens)
print([float(v).hex() for v in (r.gm, r.tlm, r.ops, r.violation_freq,
                                 *r.avg_failures.values())])
"""


def test_evaluation_sums_do_not_follow_the_blas_thread_count():
    # a BLAS dot product (probs @ x) splits its sum across OpenBLAS's
    # threads; on these inputs one and two threads gave gm, tlm and ops
    # that differed in the last bit
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    sums = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", _WEIGHTED_SUMS], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            timeout=120)
        assert out.returncode == 0, out.stderr
        sums.append(out.stdout)
    assert sums[0] == sums[1]
