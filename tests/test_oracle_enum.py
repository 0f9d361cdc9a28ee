"""Plans on the benchmark's plan-case9-n50 instance against enumeration.

Every cut family is planned in exact mode, and optKT++ and intLS in safe
mode (the other safe combinations are left out to keep the module short).
Each family adds one cut per recourse variable (the multicut form, "multi"
in the test ids).  Safe-mode optima tie (l3 at 1 or 3),
so objectives are compared, not schedules.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from gridmaint import decomp
from gridmaint.caseio import CUT_FAMILIES

from oracle_enum import admitted, enumerate_optimum, schedule_value

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PLANS = [("exact", family) for family in CUT_FAMILIES] \
    + [("safe", "optKT++"), ("safe", "intLS")]


@pytest.fixture(scope="module")
def referee():
    inputs = workloads.setup("plan-case9-n50", 1)
    cache = decomp.StatusCache()
    optima = {}
    for mode in ("exact", "safe"):
        cfg = dataclasses.replace(inputs.cfg, chance_mode=mode)
        optima[mode] = enumerate_optimum(inputs.inst, inputs.scenarios, cfg, mode,
                                         cache)
    return inputs, cache, optima


def test_enumeration_admits_fewer_schedules_in_safe_mode(referee):
    inputs, _, optima = referee
    (exact, _, n_exact), (safe, _, n_safe) = optima["exact"], optima["safe"]
    assert 0 < n_safe < n_exact < inputs.cfg.tbar ** len(inputs.inst.hprime)
    assert exact <= safe  # the safe region lies inside the exact one


@pytest.mark.parametrize("mode,family", [
    pytest.param(mode, family, id=f"{mode}-{family}-multi") for mode, family in PLANS])
def test_plan_meets_the_enumerated_optimum(referee, mode, family):
    inputs, cache, optima = referee
    cfg = dataclasses.replace(inputs.cfg, chance_mode=mode, cut_family=family)
    report = decomp.solve(inputs.inst, inputs.scenarios, cfg)
    assert report.ok
    assert report.schedule in list(admitted(inputs.inst, cfg, mode))
    best, _, _ = optima[mode]
    assert abs(report.objective - best) <= cfg.epsilon * abs(best)
    own = schedule_value(inputs.inst, inputs.scenarios, cfg, report.schedule, cache)
    assert own == pytest.approx(report.objective, rel=1e-9)
