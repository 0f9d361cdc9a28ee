"""Spans around gridmaint's layer functions, recorded from outside the package.

:class:`Tracer` replaces a module or class attribute with a wrapper that
records one span per call (name, start, end, parent span, optional tag) in
memory, and puts every original back on exit.  Layers are the package's
modules; a span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

ROLES = ("uc", "lb", "master", "flow")

# spans reported as <name>_n (calls) and <name>_s (inclusive seconds)
COUNTED_SPANS = ("ucmodel.lp_bound", "ucmodel.build", "ucmodel.status",
                 "mastercuts.solve", "chance.separate")


def solver_role(model_name: str) -> str:
    """Role of a solve, from the name the caller gave its ModelSpec."""
    if model_name == "master":
        return "master"
    if model_name.startswith("lb_day"):
        return "lb"
    if model_name.startswith(("day", "eval_day")):
        return "uc"
    if model_name == "flow_relax":
        return "flow"
    return "other"


class Tracer:
    """In-memory span recorder that patches attributes and restores them."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, tag]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``tag(args, kwargs, result)`` attaches data to the finished span.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that did not return."""
        leaked = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                leaked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return leaked

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, tag."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _spec_of(args, kwargs):
    return args[0] if args else kwargs["spec"]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from gridmaint import (chance, decomp, instance, mastercuts, preflow, saa,
                           solver, ucmodel)

    tracer.wrap(instance, "build_instance", "instance.build")
    tracer.wrap(instance, "training_scenarios", "instance.sample")
    tracer.wrap(instance, "test_scenarios", "instance.sample")
    tracer.wrap(decomp, "solve", "decomp.solve")
    tracer.wrap(decomp, "compute_lower_bounds", "decomp.lower_bounds")
    tracer.wrap(ucmodel, "lp_lower_bound", "ucmodel.lp_bound")
    tracer.wrap(ucmodel, "build_subproblem", "ucmodel.build")
    tracer.wrap(ucmodel, "status_vector", "ucmodel.status")
    tracer.wrap(mastercuts.MasterState, "solve", "mastercuts.solve")
    tracer.wrap(chance, "separate", "chance.separate")
    tracer.wrap(saa, "evaluate_schedule", "saa.evaluate")
    tracer.wrap(preflow, "analyze", "preflow.analyze")
    tracer.wrap(solver, "solve", "solver.solve",
                tag=lambda args, kwargs, res: [
                    solver_role(_spec_of(args, kwargs).name),
                    _spec_of(args, kwargs).num_rows])
    tracer.wrap(solver, "milp", "highs.milp",
                tag=lambda args, kwargs, res: getattr(res, "mip_node_count", None) or 0)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts, inclusive seconds and self seconds of one traced run.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    count = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    nodes = defaultdict(int)
    master_rows = 0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        self_s[name.split(".")[0]] += dur - child_s[i]
        if name == "solver.solve":
            role, rows = tag
            count[f"solver.{role}"] += 1
            secs[f"solver.{role}"] += dur
            if role == "master":
                master_rows = max(master_rows, rows)
        elif name == "highs.milp":
            role = spans[parent][4][0] if parent >= 0 else "other"
            secs[f"solver.{role}_highs"] += dur
            nodes[role] += tag
        else:
            count[name] += 1
            secs[name] += dur

    m: dict[str, float] = {}
    for role in ROLES:
        m[f"solver.{role}_n"] = count[f"solver.{role}"]
        m[f"solver.{role}_s"] = secs[f"solver.{role}"]
        m[f"solver.{role}_highs_s"] = secs[f"solver.{role}_highs"]
        m[f"solver.{role}_nodes"] = nodes[role]
    highs_s = sum(v for k, v in secs.items() if k.endswith("_highs"))
    m["solver.highs_share"] = highs_s / wall_s if wall_s > 0 else 0.0
    m["solver.self_s"] = self_s["solver"]
    for name in COUNTED_SPANS:
        m[f"{name}_n"] = count[name]
        m[f"{name}_s"] = secs[name]
    m["ucmodel.self_s"] = self_s["ucmodel"]
    m["decomp.lower_bounds_s"] = secs["decomp.lower_bounds"]
    m["decomp.self_s"] = self_s["decomp"]
    m["mastercuts.rows_max"] = master_rows
    m["mastercuts.self_s"] = self_s["mastercuts"]
    m["saa.evaluate_s"] = secs["saa.evaluate"]
    m["saa.loop_self_s"] = self_s["saa"]
    m["preflow.analyze_s"] = secs["preflow.analyze"]
    m["preflow.self_s"] = self_s["preflow"]
    m["instance.build_s"] = secs["instance.build"]
    m["instance.sample_s"] = secs["instance.sample"]
    m["trace.spans"] = len(spans)
    return m
