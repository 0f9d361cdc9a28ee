"""One benchmark process: set up a workload's inputs, run it once, report.

Started by ``run.py`` in a fresh interpreter for every sample.  Prints one
JSON object on its last line of standard output.  Exit codes: 0 reported
(the report itself lists failed checks), 2 the package under ``src/`` could
not be used, 3 the shipped case and seeds no longer give the stated instance.

Modes: ``run`` sets up the inputs and times the operation; ``trace`` also
records spans around every layer while doing so.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import gridmaint
    from gridmaint import (caseio, chance, decomp, instance, mastercuts,  # noqa: F401
                           preflow, saa, solver, ucmodel)
    import_s = time.perf_counter() - started
    if not Path(gridmaint.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported gridmaint from {gridmaint.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = spans.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        spans.install(tracer)
    try:
        inputs = workloads.setup(args.workload, args.seed)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    report = {"setup_s": time.monotonic() - args.spawned, "import_s": import_s,
              "failures": []}

    outcome = None
    op_started = time.perf_counter()
    try:
        outcome = workloads.run(inputs)
    except Exception:  # the operation failed: report it, do not crash the run
        traceback.print_exc()
        report["failures"].append(f"{args.workload}: operation raised "
                                  f"{sys.exc_info()[0].__name__}")
    finally:
        report["wall_s"] = time.perf_counter() - op_started
        leaked = tracer.restore() if tracer is not None else []
    report["failures"] += [f"wrapper left on {attr}" for attr in leaked]

    if outcome is not None:
        report["failures"] += workloads.check(inputs, outcome)
        report["units"] = workloads.work_units(inputs, outcome)
        report["counters"] = outcome["counters"]
    if tracer is not None and outcome is not None:
        layers = spans.layer_metrics(tracer.spans, report["wall_s"])
        layers.update(_program_layers(inputs, outcome))
        layers["import_s"] = import_s
        report["failures"] += workloads.cross_check(inputs, outcome["counters"], layers)
        report["layers"] = layers
        tracer.write(args.out_dir / f"spans-{args.workload}.jsonl")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def _program_layers(inputs, outcome) -> dict:
    """Per-layer figures the program reports itself, plus the day-model size."""
    from gridmaint import ucmodel

    c = outcome["counters"]
    day = ucmodel.build_subproblem(inputs.inst.net, inputs.inst.demand.day(1),
                                   frozenset(), inputs.cfg)
    out = {"ucmodel.day_rows": day.spec.num_rows, "ucmodel.day_vars": day.spec.num_vars}
    for key in ("iterations", "solved", "aliased", "opt_cuts", "chance_cuts"):
        out[f"decomp.{key}"] = c.get(key, 0)
    out["decomp.alias_rate"] = _rate(c.get("aliased", 0), c.get("solved", 0))
    out["saa.eval_solved"] = c.get("eval_solved", 0)
    out["saa.eval_aliased"] = c.get("eval_aliased", 0)
    out["saa.eval_alias_rate"] = _rate(c.get("eval_aliased", 0), c.get("eval_solved", 0))
    out["preflow.ub_ratio"] = outcome.get("ub_ratio", 0.0)
    out["preflow.lb_ratio"] = outcome.get("lb_ratio", 0.0)
    return out


def _rate(aliased: int, solved: int) -> float:
    return aliased / (aliased + solved) if aliased + solved else 0.0


if __name__ == "__main__":
    sys.exit(main())
