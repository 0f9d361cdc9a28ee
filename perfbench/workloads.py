"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

Every workload runs one closed-loop call into the public ``gridmaint`` API on
the 9-bus case shipped next to this file.  The instance and scenario seeds are
fixed so that the outputs can be checked against ``references.json``; the
benchmark's ``--seed`` permutes the order in which the program sees its inputs
(training or test scenarios, or the network's lines), which must not change
any checked output.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridmaint import decomp, instance, preflow, saa
from gridmaint.caseio import RunConfig, parse_case, synth_demand
from gridmaint.degrade import ScenarioSet

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())

BASE_CONFIG = dict(threads=1, horizon_days=7, subperiods=24, epsilon=1e-3,
                   subproblem_gap=1e-6, chance_mode="exact", cut_family="optKT++")
DEMAND_SEED = 1


@dataclass(frozen=True)
class Workload:
    kind: str                  # "plan" | "evaluate" | "preflow"
    instance_seed: int
    scenarios: int = 0         # N for plan, N' for evaluate
    scenario_seed: int = 0
    schedules: tuple = ()      # evaluate: fixed schedules, one shared cache
    mode: str = ""             # preflow mode


WORKLOADS = {
    "plan-case9-n50": Workload("plan", 34, scenarios=50, scenario_seed=5),
    "evaluate-case9-n20k": Workload(
        "evaluate", 34, scenarios=20000, scenario_seed=99,
        schedules=({"g1": 1, "g2": 8, "l3": 1}, {"g1": 8, "g2": 8, "l3": 8})),
    "preflow-case9-III": Workload("preflow", 34, mode="III"),
}


class SetupError(RuntimeError):
    """The shipped case and seeds no longer give the workload's instance."""


@dataclass
class Inputs:
    name: str
    workload: Workload
    cfg: RunConfig
    inst: instance.Instance
    scenarios: ScenarioSet | None
    net: object                # network handed to preflow (lines permuted)


def _permuted(scens: ScenarioSet, rng: np.random.Generator) -> ScenarioSet:
    order = rng.permutation(scens.size)
    return ScenarioSet(scens.component_ids, scens.failure_times[order],
                       scens.probs[order], scens.horizon_days)


def setup(name: str, seed: int) -> Inputs:
    """Parse the case, build the instance, sample and permute the inputs."""
    wl = WORKLOADS[name]
    cfg = RunConfig(**BASE_CONFIG)
    net = parse_case((HERE / "case9.m").read_text(), subperiods=cfg.subperiods)
    grid = synth_demand(net, cfg, seed=DEMAND_SEED)
    inst = instance.build_instance(net, grid, cfg, seed=wl.instance_seed)
    expected = tuple(REFERENCES["hprime"][name])
    if inst.hprime != expected:
        raise SetupError(f"{name}: build_instance seed {wl.instance_seed} gives "
                         f"H' = {inst.hprime}, expected {expected}")

    rng = np.random.default_rng(seed)
    scens = None
    if wl.kind == "plan":
        scens = _permuted(instance.training_scenarios(inst, wl.scenarios,
                                                      wl.scenario_seed), rng)
    elif wl.kind == "evaluate":
        scens = _permuted(instance.test_scenarios(inst, wl.scenarios,
                                                  wl.scenario_seed), rng)
    else:
        order = rng.permutation(len(net.lines))
        net = dataclasses.replace(net, lines=tuple(net.lines[i] for i in order))
    return Inputs(name, wl, cfg, inst, scens, net)


def work_units(inputs: Inputs, outcome: dict) -> int:
    """Scenario-days (plan), scenario-days x schedules (evaluate), probes (preflow)."""
    wl = inputs.workload
    if wl.kind == "plan":
        return wl.scenarios * inputs.cfg.horizon_days
    if wl.kind == "evaluate":
        return wl.scenarios * inputs.cfg.horizon_days * len(wl.schedules)
    return outcome["probes"]


def run(inputs: Inputs) -> dict:
    """The timed operation; returns its checked outputs and program counters."""
    wl, inst, cfg = inputs.workload, inputs.inst, inputs.cfg
    if wl.kind == "plan":
        report = decomp.solve(inst, inputs.scenarios, cfg)
        counters = {"iterations": report.iterations, **report.counts}
        return {"status": report.status, "objective": report.objective,
                "counters": counters}
    if wl.kind == "evaluate":
        cache = decomp.StatusCache()
        reports = [saa.evaluate_schedule(inst, schedule, inputs.scenarios, cache, cfg)
                   for schedule in wl.schedules]
        return {"totals": [ev.total for ev in reports],
                "violations": [round(ev.violation_freq * ev.n_scenarios)
                               for ev in reports],
                "counters": {"eval_solved": cache.solved,
                             "eval_aliased": cache.aliased}}
    lines = frozenset(c for c in inst.hprime if inst.components[c].kind == "line")
    report = preflow.analyze(inputs.net, inst.demand, wl.mode, lines)
    out = {"probes": len(report.entries)}
    for d in ("ub", "lb"):
        out[f"{d}_redundant"] = sum(1 for e in report.entries
                                    if e.direction == d and e.redundant)
        out[f"{d}_ratio"] = report.redundancy_ratio(d)
    out["counters"] = {k: out[k] for k in ("probes", "ub_redundant", "lb_redundant")}
    return out


def check(inputs: Inputs, outcome: dict) -> list[str]:
    """Compare the outputs with the stored references; one message per miss."""
    name, wl, cfg = inputs.name, inputs.workload, inputs.cfg
    ref = REFERENCES[name]
    misses = []
    if wl.kind == "plan":
        if outcome["status"] != "optimal":
            misses.append(f"{name}: plan ended {outcome['status']}")
        if abs(outcome["objective"] - ref["objective"]) > cfg.epsilon * abs(ref["objective"]):
            misses.append(f"{name}: objective {outcome['objective']!r} is not within "
                          f"epsilon {cfg.epsilon} of {ref['objective']}")
    elif wl.kind == "evaluate":
        for i, (total, want) in enumerate(zip(outcome["totals"], ref["totals"])):
            if abs(total - want) > cfg.subproblem_gap * abs(want):
                misses.append(f"{name}: schedule {i} total {total!r} is not within "
                              f"{cfg.subproblem_gap} relative of {want}")
        if outcome["violations"] != ref["violations"]:
            misses.append(f"{name}: violation counts {outcome['violations']} "
                          f"!= {ref['violations']}")
    else:
        for key in ("probes", "ub_redundant", "lb_redundant"):
            if outcome[key] != ref[key]:
                misses.append(f"{name}: {key} {outcome[key]} != {ref[key]}")
    return misses


def cross_check(inputs: Inputs, counters: dict, layers: dict) -> list[str]:
    """Counts seen from outside the program against its own counters."""
    name, wl = inputs.name, inputs.workload
    pairs = []
    if wl.kind == "plan":
        pairs.append(("solver.uc_n", layers["solver.uc_n"],
                      "decomp.solved", counters["solved"]))
        pairs.append(("solver.lb_n", layers["solver.lb_n"],
                      "N x days", wl.scenarios * inputs.cfg.horizon_days))
    elif wl.kind == "evaluate":
        pairs.append(("solver.uc_n", layers["solver.uc_n"],
                      "saa.eval_solved", counters["eval_solved"]))
    else:
        pairs.append(("solver.flow_n", layers["solver.flow_n"],
                      "reference probes", REFERENCES[name]["probes"]))
    return [f"{name}: {a} = {va} but {b} = {vb}"
            for a, va, b, vb in pairs if va != vb]
