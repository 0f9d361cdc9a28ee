"""Command-line pipeline: preprocess, plan, evaluate, saa.

Every command reads a case file, a demand source it must name (``--demand``
CSV or ``--synth-demand``), and a JSON config; results land in the output
directory as CSV and JSON artifacts carrying the config hash, so any run is
reproducible from its inputs and seed alone.  Logs go to stderr.  Exit
status: 0 on success, 2 when an iteration or time limit stopped a solve, 1 on
errors and usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import sys
from pathlib import Path

from . import decomp, preflow, saa
from .caseio import CHANCE_MODES, CUT_FAMILIES, dump_config, load_config, \
    load_demand, parse_case, synth_demand
from .degrade import ScenarioSet
from .instance import build_instance, scenario_stream, test_scenarios, \
    training_scenarios

log = logging.getLogger("gridmaint")

EXIT_OK, EXIT_ERROR, EXIT_LIMIT = 0, 1, 2


def _common_arguments(sub):
    sub.add_argument("--case", required=True, help="MATPOWER-style case file")
    sub.add_argument("--config", help="JSON run configuration")
    demand = sub.add_mutually_exclusive_group(required=True)
    demand.add_argument("--demand", help="demand CSV (bus,t,s,mw)")
    demand.add_argument("--synth-demand", action="store_true",
                        help="synthesize demand from the case loads")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", default=".", help="output directory")


def _load_context(args):
    case_text = Path(args.case).read_text()
    cfg_text = Path(args.config).read_text() if args.config else "{}"
    cfg = load_config(cfg_text)
    # an override flag's dest is the RunConfig field it sets
    overrides = {field.name: getattr(args, field.name)
                 for field in dataclasses.fields(cfg)
                 if getattr(args, field.name, None) is not None}
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    net = parse_case(case_text, subperiods=cfg.subperiods)
    demand_text = "" if args.synth_demand else Path(args.demand).read_text()
    grid = synth_demand(net, cfg) if args.synth_demand \
        else load_demand(demand_text, net, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the effective config (overrides applied) plus every input that shapes the run
    config_hash = hashlib.sha256("\0".join(
        (dump_config(cfg), case_text, demand_text)).encode()).hexdigest()[:16]
    return net, grid, cfg, out_dir, config_hash


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    log.info("wrote %s", path)
    return path


def _finite(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _report_json(payload: dict, config_hash: str) -> str:
    """RFC 8259 JSON: a stopped run's infinite gap is null; ``status`` says why."""
    payload = _finite(dict(payload, config_hash=config_hash))
    return json.dumps(payload, indent=2, sort_keys=True, default=str,
                      allow_nan=False)


def _schedule_csv(schedule: dict[str, int]) -> str:
    lines = ["component,period"]
    lines += [f"{comp},{period}" for comp, period in sorted(schedule.items())]
    return "\n".join(lines) + "\n"


def _read_schedule(path: str) -> dict[str, int]:
    schedule, line_of = {}, {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.lower().startswith("component"):
            continue
        try:
            comp, period = line.split(",")
            comp, period = comp.strip(), int(period)
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: expected 'component,period', "
                             f"got {line!r}") from exc
        if comp in schedule:
            raise ValueError(f"{path}, lines {line_of[comp]} and {lineno}: "
                             f"component {comp!r} is scheduled twice")
        schedule[comp], line_of[comp] = period, lineno
    if not schedule:
        raise ValueError(f"schedule file {path} is empty")
    return schedule


def _preflow_summary(report: preflow.RedundancyReport) -> dict:
    """What ``preprocess_report.json`` and the ``preflow`` block of
    ``plan_report.json`` say about one flow analysis."""
    return {"mode": report.mode, "elapsed_s": report.elapsed,
            "probes": len(report.entries), "iterations": report.iterations,
            "ub_ratio": report.redundancy_ratio("ub"),
            "lb_ratio": report.redundancy_ratio("lb")}


def cmd_preprocess(args) -> int:
    net, grid, cfg, out_dir, config_hash = _load_context(args)
    inst = build_instance(net, grid, cfg)
    candidates = frozenset(c for c in inst.hprime if inst.kinds[c] == "line")
    report = preflow.analyze(net, grid, args.flow_mode, candidates)
    _write(out_dir / "flow_redundancy.csv", report.to_csv())
    _write(out_dir / "preprocess_report.json",
           _report_json(_preflow_summary(report), config_hash))
    return EXIT_OK


def cmd_plan(args) -> int:
    net, grid, cfg, out_dir, config_hash = _load_context(args)
    inst = build_instance(net, grid, cfg)
    if args.preflow != "off":
        candidates = frozenset(c for c in inst.hprime if inst.kinds[c] == "line")
        inst.preflow_report = preflow.analyze(net, grid, args.preflow, candidates)
    if args.scenario_file:
        scens = ScenarioSet.from_csv(Path(args.scenario_file).read_text(),
                                     cfg.horizon_days)
        if set(scens.component_ids) != set(inst.hprime):
            raise ValueError("scenario file components do not match the "
                             f"maintenance candidates {sorted(inst.hprime)}")
    else:
        scens = training_scenarios(inst, cfg.saa_n, scenario_stream(cfg.seed, 0))
    _write(out_dir / "scenarios.csv", scens.to_csv())
    _write(out_dir / "rld_params.json", json.dumps(
        {comp: json.loads(c.rld.to_json()) if c.rld else None
         for comp, c in inst.components.items()}, indent=2, sort_keys=True))
    report = decomp.solve(inst, scens, cfg)
    payload = {
        "status": report.status, "objective": report.objective,
        "bound": report.bound, "gap": report.gap,
        "iterations": report.iterations, "counts": report.counts,
        "timings": report.timings, "elapsed_s": report.elapsed,
        "chance_mode": cfg.chance_mode, "cut_family": cfg.cut_family,
        "seed": cfg.seed,
        "hprime": list(inst.hprime),
        "schedule_hash": hashlib.sha256(
            repr(sorted(report.schedule.items())).encode()).hexdigest()[:16],
    }
    if inst.preflow_report is not None:
        payload["preflow"] = _preflow_summary(inst.preflow_report)
    _write(out_dir / "plan_report.json", _report_json(payload, config_hash))
    _write(out_dir / "cuts.log", report.cut_log)
    if report.schedule:
        _write(out_dir / "schedule.csv", _schedule_csv(report.schedule))
    if report.status == "optimal":
        return EXIT_OK
    return EXIT_LIMIT if report.status == "limit" else EXIT_ERROR


def cmd_evaluate(args) -> int:
    net, grid, cfg, out_dir, config_hash = _load_context(args)
    inst = build_instance(net, grid, cfg)
    schedule = _read_schedule(args.schedule)
    scens = test_scenarios(inst, cfg.saa_nprime, scenario_stream(cfg.seed))
    cache = decomp.StatusCache()
    ev = saa.evaluate_schedule(inst, schedule, scens, cache, cfg)
    rows = ["model,gen_prime_failures,line_prime_failures,second_failures,"
            "jcc_violation,gm,tlm,operations,total"]

    def row(tag, rep):
        return (f"{tag},{rep.avg_failures['gen_prime']:.4f},"
                f"{rep.avg_failures['line_prime']:.4f},"
                f"{rep.avg_failures['second']:.4f},{rep.violation_freq:.4f},"
                f"{rep.gm:.2f},{rep.tlm:.2f},{rep.ops:.2f},{rep.total:.2f}")

    rows.append(row("schedule", ev))
    payload = {"schedule": schedule, "violation_freq": ev.violation_freq,
               "avg_failures": ev.avg_failures, "gm": ev.gm, "tlm": ev.tlm,
               "operations": ev.ops, "total": ev.total,
               "test_scenarios": scens.size, "seed": cfg.seed}
    if args.baseline:
        dm = saa.deterministic_baseline(inst, cfg)
        dm_eval = saa.evaluate_schedule(inst, dm.schedule, scens, cache, cfg)
        rows.append(row("deterministic", dm_eval))
        payload["deterministic_total"] = dm_eval.total
        payload["deterministic_violation_freq"] = dm_eval.violation_freq
        payload["cost_improvement_pct"] = saa.cost_improvement(dm_eval.total,
                                                               ev.total)
    _write(out_dir / "evaluation.csv", "\n".join(rows) + "\n")
    _write(out_dir / "evaluation_report.json", _report_json(payload, config_hash))
    return EXIT_OK


def cmd_saa(args) -> int:
    net, grid, cfg, out_dir, config_hash = _load_context(args)
    inst = build_instance(net, grid, cfg)
    report = saa.run_saa(inst, cfg)
    payload = {
        "replicates": [{k: v for k, v in r.items() if k not in ("eval",)}
                       for r in report.replicates],
        "best_index": report.best_index,
        "mu_lower": report.mu_lower, "sigma_lower": report.sigma_lower,
        "ci_lower": report.ci_lower,
        "mu_upper": report.mu_upper, "sigma_upper": report.sigma_upper,
        "ci_upper": report.ci_upper,
        "ci_overall": report.ci_overall,
        "gap_pct": report.gap_pct, "gap_convention": report.gap_convention,
        "significance": report.significance, "elapsed_s": report.elapsed,
        "M": cfg.saa_m, "N": cfg.saa_n, "Nprime": cfg.saa_nprime,
        "seed": cfg.seed,
    }
    _write(out_dir / "saa_report.json", _report_json(payload, config_hash))
    summary = ["N,ci_lb_lo,ci_lb_hi,ci_ub_lo,ci_ub_hi,gap_pct",
               f"{cfg.saa_n},{report.ci_lower[0]:.6g},{report.ci_lower[1]:.6g},"
               f"{report.ci_upper[0]:.6g},{report.ci_upper[1]:.6g},"
               f"{report.gap_pct:.4f}"]
    _write(out_dir / "saa_summary.csv", "\n".join(summary) + "\n")
    _write(out_dir / "saa_schedule.csv", _schedule_csv(report.best_schedule))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmaint",
        description="Chance-constrained maintenance and operations scheduling")
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    pre = commands.add_parser("preprocess", help="flow-limit redundancy analysis")
    _common_arguments(pre)
    pre.add_argument("--flow-mode", choices=preflow.MODES, default="III")
    pre.set_defaults(func=cmd_preprocess)

    plan = commands.add_parser("plan", help="solve the stochastic program")
    _common_arguments(plan)
    plan.add_argument("--chance", dest="chance_mode", choices=CHANCE_MODES)
    plan.add_argument("--cuts", dest="cut_family", choices=CUT_FAMILIES)
    plan.add_argument("--scenarios", type=int, dest="saa_n", metavar="SCENARIOS",
                      help="training sample size")
    plan.add_argument("--preflow", choices=("off", *preflow.MODES), default="off",
                      help="run flow preprocessing before planning")
    plan.add_argument("--scenario-file", dest="scenario_file",
                      help="reuse a previously written scenarios.csv")
    plan.set_defaults(func=cmd_plan)

    ev = commands.add_parser("evaluate", help="evaluate a schedule out of sample")
    _common_arguments(ev)
    ev.add_argument("--schedule", required=True, help="schedule CSV to evaluate")
    ev.add_argument("--test-scenarios", type=int, dest="saa_nprime",
                    metavar="TEST_SCENARIOS")
    ev.add_argument("--baseline", action="store_true",
                    help="also evaluate the failure-blind baseline")
    ev.set_defaults(func=cmd_evaluate)

    sa = commands.add_parser("saa", help="replicated sampling with statistical bounds")
    _common_arguments(sa)
    sa.add_argument("--M", type=int, dest="saa_m", metavar="M",
                    help="number of replicates")
    sa.add_argument("--N", type=int, dest="saa_n", metavar="N",
                    help="training sample size")
    sa.add_argument("--Nprime", type=int, dest="saa_nprime", metavar="NPRIME",
                    help="evaluation sample size")
    sa.add_argument("--threads", type=int, help="replicates solved at once")
    sa.set_defaults(func=cmd_saa)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:  # surfaced with a clean exit code for scripting
        log.error("%s", exc)
        if args.verbose:
            raise
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
