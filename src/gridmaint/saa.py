"""Sample-average-approximation driver and schedule evaluation.

Training samples cover only the maintenance candidates; evaluation samples
cover every component, so a candidate schedule is judged against failures the
planner never optimized for.  Replicate optima estimate the lower statistical
bound, the best candidate's out-of-sample cost the upper one, and the two
confidence intervals bracket the true optimum.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import decomp, solver, ucmodel
from .caseio import RunConfig
from .degrade import ScenarioSet
from .instance import Instance, check_horizon, no_failure_scenarios, \
    scenario_stream, test_scenarios, training_scenarios
from .pboracle import check_schedule

log = logging.getLogger(__name__)

__all__ = ["EvalReport", "SAAReport", "evaluate_schedule",
           "deterministic_baseline", "run_saa", "cost_improvement",
           "upper_bound_stats", "lower_bound_stats"]


@dataclass
class EvalReport:
    n_scenarios: int
    avg_failures: dict[str, float]   # gen_prime, line_prime, second
    violation_freq: float
    gm: float                        # expected generator maintenance cost
    tlm: float                       # expected line maintenance cost
    ops: float                       # expected operational cost
    per_scenario_total: np.ndarray = field(repr=False, default=None)

    @property
    def total(self) -> float:
        return self.gm + self.tlm + self.ops


def evaluate_schedule(inst: Instance, schedule: dict[str, int],
                      scens: ScenarioSet, cache: decomp.StatusCache | None = None,
                      cfg: RunConfig | None = None) -> EvalReport:
    """Out-of-sample cost and failure statistics of a fixed schedule.

    Corrective-maintenance counts are taken per class over every component
    (unscheduled ones count as failing uncovered); the joint constraint is
    violated when either class count exceeds its threshold.  Every expectation
    and frequency weights the scenarios by ``scens.probs``;
    ``per_scenario_total`` is each scenario's own total, unweighted.  Recourse
    costs reuse the status cache across scenarios.

    Everything is computed once per distinct row of ``scens``
    (:meth:`ScenarioSet.distinct`), weighted by the row's summed probability;
    ``per_scenario_total`` is expanded back to every scenario, and the cache
    counts each duplicate row's scenario-days as aliased.
    """
    cfg = cfg or inst.cfg
    check_horizon(cfg, inst.demand, scens)
    # costs are summed over H' only, so maintaining another component is free
    check_schedule(schedule, inst.table)
    cache = cache if cache is not None else decomp.StatusCache()
    comps = inst.all_components
    merged, inverse = scens.distinct()
    n = merged.size
    xi = merged.failure_days(comps)
    periods = np.array([schedule.get(comp, cfg.tbar) for comp in comps])
    is_gen = np.array([inst.kinds[comp] == "gen" for comp in comps], dtype=bool)
    prime = np.array([comp in inst.hprime for comp in comps], dtype=bool)

    # a failure inside the horizon that no earlier maintenance prevented
    failed = (xi <= cfg.horizon_days) & (periods >= xi)
    violated = ((failed[:, is_gen].sum(axis=1) > cfg.rho_gen)
                | (failed[:, ~is_gen].sum(axis=1) > cfg.rho_line))

    def expected(per_row):
        return float(np.sum(merged.probs * per_row))

    gm = np.zeros(n)
    tlm = np.zeros(n)
    for comp in inst.hprime:
        j = comps.index(comp)
        cost = ucmodel.maintenance_cost_coeffs(*inst.maint_cost(comp), xi[:, j],
                                               cfg.tbar, period=periods[j])
        if is_gen[j]:
            gm += cost
        else:
            tlm += cost

    day_vals = decomp.day_values(inst, merged, cfg, schedule, comps, cache)
    cache.aliased += (scens.size - n) * cfg.horizon_days
    ops = day_vals[:, :, 0].sum(axis=1)
    total = gm + tlm + ops
    return EvalReport(
        n_scenarios=scens.size,
        avg_failures={"gen_prime": expected(failed[:, prime & is_gen].sum(axis=1)),
                      "line_prime": expected(failed[:, prime & ~is_gen].sum(axis=1)),
                      "second": expected(failed[:, ~prime].sum(axis=1))},
        violation_freq=expected(violated),
        gm=expected(gm), tlm=expected(tlm), ops=expected(ops),
        per_scenario_total=total[inverse])


def deterministic_baseline(inst: Instance,
                           cfg: RunConfig | None = None) -> decomp.SolveReport:
    """Plan as if nothing ever fails: one no-failure scenario, no chance rows."""
    cfg = cfg or inst.cfg
    return decomp.solve(inst, no_failure_scenarios(inst), cfg,
                        enforce_chance=False)


def cost_improvement(dm_total: float, sp_total: float) -> dict[str, float]:
    """Savings of the stochastic plan, under both denominator conventions."""
    out = {}
    out["vs_deterministic"] = 100.0 * (dm_total - sp_total) / dm_total \
        if dm_total else 0.0
    out["vs_stochastic"] = 100.0 * (dm_total - sp_total) / sp_total \
        if sp_total else 0.0
    return out


def _mean_and_ci(values, quantile: float) -> tuple[float, float, tuple[float, float]]:
    """Mean, standard error of the mean, and mean -/+ ``quantile`` standard errors."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    mu = float(values.mean())
    sigma_sq = float(np.sum((values - mu) ** 2)) / (n * (n - 1)) if n > 1 else 0.0
    sigma = float(np.sqrt(sigma_sq))
    return mu, sigma, (mu - quantile * sigma, mu + quantile * sigma)


def upper_bound_stats(costs: np.ndarray,
                      significance: float) -> tuple[float, float, tuple[float, float]]:
    """Mean, standard error, and normal-quantile CI of the evaluation costs."""
    from scipy.special import ndtri  # only SAA pays the scipy.special init
    return _mean_and_ci(costs, float(ndtri(1.0 - significance / 2.0)))


def lower_bound_stats(replicate_values: np.ndarray,
                      significance: float) -> tuple[float, float, tuple[float, float]]:
    """Mean, standard error, and t-quantile CI of the replicate optima."""
    from scipy.special import stdtrit  # only SAA pays the scipy.special init
    df = len(replicate_values) - 1
    return _mean_and_ci(replicate_values,
                        float(stdtrit(df, 1.0 - significance / 2.0)))


@dataclass
class SAAReport:
    replicates: list[dict]
    best_index: int
    best_schedule: dict[str, int]
    mu_upper: float
    sigma_upper: float
    ci_upper: tuple[float, float]
    mu_lower: float
    sigma_lower: float
    ci_lower: tuple[float, float]
    ci_overall: tuple[float, float]
    gap_pct: float
    gap_convention: str = "(ci_upper_hi - ci_lower_lo) / ci_upper_hi"
    significance: float = 0.05
    elapsed: float = 0.0


def run_saa(inst: Instance, cfg: RunConfig | None = None) -> SAAReport:
    """Replicated training plus common out-of-sample evaluation with CIs.

    The samples follow the layout of :func:`instance.scenario_stream` for
    ``cfg.seed``: the test set draws from stream 0 and replicate ``i``'s
    training set from stream ``i + 1``.

    The test set is sampled with equal weights, and the upper-bound CI and
    each replicate's ``eval_total`` take plain means over
    ``per_scenario_total``, which holds only for an equally weighted set.

    ``cfg.threads`` replicates are solved at once, each on a pool thread,
    while the calling thread evaluates each finished replicate's schedule,
    in replicate order; no other thread touches the evaluation cache.  A
    replicate depends only on its own stream, so the report's bits do not
    depend on ``cfg.threads``.
    """
    cfg = cfg or inst.cfg
    if cfg.saa_m < 2:
        raise ValueError("need at least two SAA replicates")
    if cfg.saa_n < 1 or cfg.saa_nprime < cfg.saa_n:
        raise ValueError("need N >= 1 and N' >= N")
    started = time.perf_counter()
    test_set = test_scenarios(inst, cfg.saa_nprime, scenario_stream(cfg.seed))

    def one_replicate(i: int) -> dict:
        train = training_scenarios(inst, cfg.saa_n, scenario_stream(cfg.seed, i))
        report = decomp.solve(inst, train, cfg)
        return {"index": i, "status": report.status, "z": report.objective,
                "schedule": report.schedule, "iterations": report.iterations}

    eval_cache = decomp.StatusCache()
    reports: dict[tuple, EvalReport] = {}  # keyed by a schedule's sorted items
    replicates = []
    with ThreadPoolExecutor(max_workers=min(cfg.threads, cfg.saa_m)) as pool:
        for r in pool.map(one_replicate, range(cfg.saa_m)):
            replicates.append(r)
            if r["status"] != "optimal":
                log.warning("SAA replicate %d ended %s; excluded", r["index"],
                            r["status"])
                continue
            key = tuple(sorted(r["schedule"].items()))
            if key not in reports:
                reports[key] = evaluate_schedule(inst, r["schedule"], test_set,
                                                 eval_cache, cfg)
            r["eval"] = reports[key]
            r["eval_total"] = float(r["eval"].per_scenario_total.mean())
    usable = [r for r in replicates if r["status"] == "optimal"]
    if len(usable) < 2:
        raise solver.SolverError("fewer than two SAA replicates solved to optimality")

    best = min(usable, key=lambda r: r["eval_total"])
    mu_u, sigma_u, ci_u = upper_bound_stats(best["eval"].per_scenario_total,
                                            cfg.significance)
    mu_l, sigma_l, ci_l = lower_bound_stats([r["z"] for r in usable],
                                            cfg.significance)
    ci_overall = (ci_l[0], ci_u[1])
    gap = 0.0 if ci_u[1] == 0 else 100.0 * (ci_u[1] - ci_l[0]) / ci_u[1]

    return SAAReport(replicates=replicates, best_index=best["index"],
                     best_schedule=best["schedule"], mu_upper=mu_u,
                     sigma_upper=sigma_u, ci_upper=ci_u, mu_lower=mu_l,
                     sigma_lower=sigma_l, ci_lower=ci_l, ci_overall=ci_overall,
                     gap_pct=gap, significance=cfg.significance,
                     elapsed=time.perf_counter() - started)
