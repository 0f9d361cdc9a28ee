"""Enumeration referee: the optimum over every schedule in {1..tbar}^H'.

Each schedule the chance constraint admits (``joint_oracle >= 1 - alpha`` in
exact mode, ``SafeApproxBlock.accepts`` in safe mode) is scored as
sum_k p_k (first stage_k + sum_t Q_t): the first stage from the scalar cost
rule, the day values Q_t from :func:`decomp.day_values`.  Nothing of the
decomposition's master, cuts or bounds is used, so the referee checks plans
on any scenario count while tbar^|H'| stays small.
"""

import itertools

import numpy as np

from gridmaint import decomp
from gridmaint.chance import SafeApproxBlock
from gridmaint.pboracle import joint_oracle


def admitted(inst, cfg, mode):
    """Every schedule in {1..tbar}^H' the chance constraint of ``mode`` admits."""
    block = SafeApproxBlock(inst.table, cfg.rho_gen, cfg.rho_line, cfg.alpha)
    for combo in itertools.product(range(1, cfg.tbar + 1), repeat=len(inst.hprime)):
        schedule = dict(zip(inst.hprime, combo))
        if mode == "safe":
            ok = block.accepts(schedule)
        else:
            ok = joint_oracle(schedule, inst.table, cfg.rho_gen,
                              cfg.rho_line) >= 1.0 - cfg.alpha
        if ok:
            yield schedule


def schedule_value(inst, scens, cfg, schedule, cache):
    """Expected first-stage plus recourse cost of ``schedule`` over ``scens``."""
    xi = scens.failure_days(inst.hprime)
    first = np.zeros(scens.size)
    for j, comp in enumerate(inst.hprime):
        pred, corr = inst.maint_cost(comp)
        # predictive before the failure day, corrective from it on, nothing
        # for a component that never fails and is never maintained
        first += np.where(schedule[comp] < xi[:, j], pred,
                          np.where(xi[:, j] != cfg.tbar, corr, 0.0))
    days = decomp.day_values(inst, scens, cfg, schedule, inst.hprime, cache)
    return float(np.dot(scens.probs, first + days[:, :, 0].sum(axis=1)))


def enumerate_optimum(inst, scens, cfg, mode, cache):
    """(optimal value, its schedules, number of admitted schedules)."""
    values = [(schedule_value(inst, scens, cfg, schedule, cache), schedule)
              for schedule in admitted(inst, cfg, mode)]
    best = min(value for value, _ in values)
    return best, [schedule for value, schedule in values if value == best], len(values)
