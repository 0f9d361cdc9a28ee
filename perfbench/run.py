"""gridmaint benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload plan-case9-n50 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every sample is a fresh process
(``worker.py``) that sets up the inputs and runs the workload's operation
once, so each sample pays what a command-line user pays.  Untraced runs
(``--trace 0``) repeat samples until ``--seconds`` is spent, at least two,
and report the end-to-end metrics as medians over them.
Traced runs (``--trace 1``) make one untraced and one traced sample and
report the per-layer metrics of the traced one.  Metric names and units come
from ``BENCHMARK.json``; ``README.md`` next to this file explains them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of the run's
samples and environment is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_SAMPLES = 2
RUN_LIMIT_S = 170.0          # a run must exit within 180 s
SETUP_MISMATCH = 3           # worker exit code: seeds no longer give the instance


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed check)."""


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def sample(workload: str, seed: int, mode: str, stop_at: float) -> dict:
    """Run one worker process to completion; return its report."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned", repr(spawned),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, stop_at - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"failures": [f"{mode} sample timed out"],
                "duration": time.monotonic() - spawned}
    if proc.returncode == SETUP_MISMATCH:
        raise BenchError("set-up check failed; see the message above")
    if proc.returncode == 2:
        raise BenchError("cannot use the gridmaint package under src/")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        report = {"failures": [f"{mode} sample exited with code {proc.returncode}"]}
    else:
        report = json.loads(lines[-1])
    report["duration"] = time.monotonic() - spawned
    return report


def timed_run(workload: str, seed: int, seconds: float, stop_at: float) -> list[dict]:
    """Samples until ``seconds`` is spent, at least two."""
    deadline = min(time.monotonic() + seconds, stop_at)
    reports = [sample(workload, seed, "run", stop_at) for _ in range(MIN_SAMPLES)]
    while time.monotonic() + max(r["duration"] for r in reports) <= deadline:
        reports.append(sample(workload, seed, "run", stop_at))
    return reports


def end_to_end(reports: list[dict]) -> dict[str, float]:
    """Medians over the samples whose operation finished.  Every sample
    attempts the operation, so ``ok_rate`` is passing samples over all of
    them; a failed check lowers it but keeps the sample's timing."""
    ops = [r for r in reports if "units" in r]
    if not ops:
        raise BenchError("no sample finished its operation")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ops),
        "setup_s": statistics.median(r["setup_s"] for r in reports if "setup_s" in r),
        "work_per_s": statistics.median(r["units"] / r["wall_s"] for r in ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
        "ok_rate": sum(1 for r in reports if not r["failures"]) / len(reports),
    }


def code_digest() -> str:
    """Hash of the package sources and of this directory's files, so that
    layer counts are compared only between runs of identical code."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        p for p in HERE.iterdir() if p.is_file())
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def determinism(workload: str, seed: int, reports: list[dict], traced: dict | None) -> list[str]:
    """Program counters must agree across the samples of one run, and the
    traced run's layer counts across every traced run of the same code."""
    misses = []
    counters = [r["counters"] for r in reports if "counters" in r]
    if any(c != counters[0] for c in counters[1:]):
        misses.append(f"non-determinism: program counters differ between samples "
                      f"{counters}")
    if traced is None:
        return misses
    counts = {k: v for k, v in traced.items() if isinstance(v, int)}
    state = OUT_DIR / f"counts-{workload}-seed{seed}-{code_digest()}.json"
    if state.exists():
        before = json.loads(state.read_text())
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if diff:
            misses.append("non-determinism: layer counts differ from an earlier "
                          "traced run of the same code: " + ", ".join(
                              f"{k} {before.get(k)} -> {counts.get(k)}" for k in diff))
    else:
        state.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    stop_at = started + RUN_LIMIT_S

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        print("perfbench: no BENCHMARK.json at the checkout root", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "gridmaint" / "__init__.py").is_file():
        print(f"perfbench: no gridmaint sources under {ROOT / 'src'}; run from the "
              "root of a gridmaint checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env))

    try:
        if args.trace:
            reports = [sample(args.workload, args.seed, "run", stop_at),
                       sample(args.workload, args.seed, "trace", stop_at)]
        else:
            reports = timed_run(args.workload, args.seed, args.seconds, stop_at)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    traced = reports[1].get("layers") if args.trace else None
    failures = [f for r in reports for f in r["failures"]]
    failures += determinism(args.workload, args.seed, reports, traced)
    for msg in failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    try:
        if args.trace:
            if traced is None or "wall_s" not in reports[0]:
                raise BenchError("the traced run lacks a finished sample")
            values = dict(traced, **{
                "trace.wall_s": reports[1]["wall_s"],
                "trace.overhead_s": reports[1]["wall_s"] - reports[0]["wall_s"]})
            defs = bench["per_layer"]
        else:
            values, defs = end_to_end(reports), bench["end_to_end"]
        missing = [d["name"] for d in defs if d["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}
    # a cross-run mismatch fails the run even when every sample passed
    failed = max(sum(1 for r in reports if r["failures"]), int(bool(failures)))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reports)} samples, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6f} {m['unit']}")
    result = {"correct": not failures, "attempted": len(reports), "failed": failed,
              "metrics": metrics}
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "args": vars(args), "samples": reports,
                                  "failures": failures, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
