"""Case, demand, and run-configuration input handling.

Supported case input is the MATPOWER-style ``.m`` subset consisting of the
``baseMVA`` scalar and the ``bus``, ``gen``, ``branch`` and ``gencost``
matrices.  Anything else in the file is ignored with a warning.  Parsed
instances are plain immutable-by-convention dataclasses that the rest of the
package shares freely across worker threads.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
import re
from dataclasses import dataclass, asdict, fields

import numpy as np

log = logging.getLogger(__name__)

DELTA_BOUND = math.pi  # every bus's voltage angle lies in [-DELTA_BOUND, DELTA_BOUND]


class CaseError(ValueError):
    """Malformed case / demand / config input."""


@dataclass(frozen=True)
class Bus:
    """A bus; its voltage angle lies in the one box [-DELTA_BOUND, DELTA_BOUND]."""
    id: int
    curtail_cost: float = 0.0  # $/MWh, filled in after gen costs are known
    base_demand: float = 0.0   # Pd from the case file, used by synth_demand

    def __post_init__(self):
        if not self.curtail_cost >= 0:
            raise CaseError(f"bus {self.id}: curtail_cost must be >= 0, "
                            f"got {self.curtail_cost!r}")


@dataclass(frozen=True)
class Generator:
    id: str
    bus: int
    p_min: float
    p_max: float
    ramp_up: float
    ramp_down: float
    min_up: int
    min_down: int
    gen_cost: float      # $/MWh
    noload_cost: float   # $/h
    startup_cost: float  # $
    maint_cost_pred: float
    maint_cost_corr: float

    def __post_init__(self):
        if not (0 <= self.p_min <= self.p_max):
            raise CaseError(f"generator {self.id}: need 0 <= p_min <= p_max")
        if self.ramp_up < 0 or self.ramp_down < 0:
            raise CaseError(f"generator {self.id}: negative ramp rate")
        if self.min_up < 1 or self.min_down < 1:
            raise CaseError(f"generator {self.id}: min up/down must be >= 1")
        # operating costs must not be negative: the recourse lower bounds
        # clamp at 0
        for name in ("gen_cost", "noload_cost", "startup_cost"):
            if not getattr(self, name) >= 0:
                raise CaseError(f"generator {self.id}: {name} must be >= 0, "
                                f"got {getattr(self, name)!r}")
        if not (self.maint_cost_corr >= self.maint_cost_pred >= 0):
            raise CaseError(f"generator {self.id}: need corr >= pred >= 0 maintenance cost")


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: int
    to_bus: int
    susceptance: float   # p.u. (1/x)
    flow_limit: float    # MW
    maint_cost_pred: float
    maint_cost_corr: float

    def __post_init__(self):
        if self.flow_limit <= 0:
            raise CaseError(f"line {self.id}: flow limit must be positive")
        if self.from_bus == self.to_bus:
            raise CaseError(f"line {self.id}: self-loop")


@dataclass(frozen=True)
class Network:
    """Buses, generators and lines; each line's big-M is derived (:meth:`big_m`)."""
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    lines: tuple[Line, ...]
    base_mva: float = 100.0

    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus_incidence(self) -> list[tuple[list[int], list[tuple[int, float]]]]:
        """Per bus, in ``buses`` order: the positions of the generators at it,
        and ``(position, sign)`` of each line ending at it, sign -1.0 where the
        line leaves and +1.0 where it arrives; both lists in case order."""
        pos = self.bus_index()
        incidence = [([], []) for _ in self.buses]
        for g, gen in enumerate(self.generators):
            incidence[pos[gen.bus]][0].append(g)
        for j, line in enumerate(self.lines):
            incidence[pos[line.from_bus]][1].append((j, -1.0))
            incidence[pos[line.to_bus]][1].append((j, 1.0))
        return incidence

    def line_susceptance_mw(self, line: Line) -> float:
        """Susceptance scaled to MW per radian."""
        return self.base_mva * line.susceptance

    def big_m(self, line: Line) -> float:
        """Largest ``B * (angle difference)`` the angle box allows, MW: the
        big-M of the line's switched Ohm rows."""
        return self.line_susceptance_mw(line) * (2 * DELTA_BOUND)

    def validate(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseError("duplicate bus ids")
        known = set(ids)
        for g in self.generators:
            if g.bus not in known:
                raise CaseError(f"generator {g.id} references unknown bus {g.bus}")
        for ln in self.lines:
            if ln.from_bus not in known:
                raise CaseError(f"line {ln.id} references unknown bus {ln.from_bus}")
            if ln.to_bus not in known:
                raise CaseError(f"line {ln.id} references unknown bus {ln.to_bus}")
        if not _connected(known, [(ln.from_bus, ln.to_bus) for ln in self.lines]):
            raise CaseError("network graph is not connected")
        # Report (not assume) whether the auto-derived big-M really dominates
        # the flow limit, i.e. whether (1l)-style rows are redundant at y=1.
        for ln in self.lines:
            if self.big_m(ln) < ln.flow_limit:
                log.warning("line %s: B*(delta span) = %.3f < flow limit %.3f; "
                            "big-M may be binding", ln.id, self.big_m(ln),
                            ln.flow_limit)


def _connected(nodes: set[int], edges: list[tuple[int, int]]) -> bool:
    if not nodes:
        return True
    parent = {n: n for n in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(n) for n in nodes}
    return len(roots) == 1


# ---------------------------------------------------------------------------
# MATPOWER-style parsing
# ---------------------------------------------------------------------------

_MATRIX_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.S)
_SCALAR_RE = re.compile(r"mpc\.(\w+)\s*=\s*([-+\w.]+)\s*;")

_SUPPORTED = {"bus", "gen", "branch", "gencost", "baseMVA", "version"}


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _parse_matrix(name: str, body: str, start_line: int) -> list[list[float]]:
    rows = []
    for off, raw in enumerate(body.split("\n")):
        raw = raw.replace(";", " ").strip()
        if not raw:
            continue
        try:
            rows.append([float(tok) for tok in raw.split()])
        except ValueError as exc:
            raise CaseError(f"line {start_line + off}: bad number in mpc.{name}: {exc}") from exc
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise CaseError(f"mpc.{name}: ragged rows (widths {sorted(widths)})")
    return rows


def _require_finite(table: str, index: int, row: list[float], columns) -> None:
    """Raise unless each of ``columns`` (0-based) that ``row`` has is finite."""
    for c in columns:
        if c < len(row) and not math.isfinite(row[c]):
            raise CaseError(f"mpc.{table} row {index + 1}, column {c + 1}: "
                            f"non-finite value {row[c]}")


def parse_case(text: str, subperiods: int = 24) -> Network:
    """Parse a MATPOWER-style case into a validated :class:`Network`.

    ``subperiods`` is the number of hourly subperiods per maintenance period;
    it enters the synthesized predictive-maintenance cost for generators
    (capacity x marginal cost x hours) when the case carries no maintenance
    costs of its own, which the supported subset never does.  Every number
    read must be finite; columns that are not read (such as Qmax) may be Inf.
    """
    clean = _strip_comments(text)
    matrices: dict[str, list[list[float]]] = {}
    for m in _MATRIX_RE.finditer(clean):
        name = m.group(1)
        start_line = clean[: m.start()].count("\n") + 1
        if name not in _SUPPORTED:
            log.warning("ignoring unsupported case field mpc.%s", name)
            continue
        matrices[name] = _parse_matrix(name, m.group(2), start_line)
    base_mva = 100.0
    for m in _SCALAR_RE.finditer(clean):
        if m.group(1) == "baseMVA":
            try:
                base_mva = float(m.group(2))
            except ValueError:
                base_mva = math.nan
            if not math.isfinite(base_mva):
                raise CaseError(f"mpc.baseMVA = {m.group(2)} is not a finite number")
        elif m.group(1) not in _SUPPORTED:
            log.warning("ignoring unsupported case field mpc.%s", m.group(1))

    for required in ("bus", "gen", "branch"):
        if required not in matrices:
            raise CaseError(f"case is missing the mpc.{required} table")

    buses = []
    seen_ids = set()
    for i, row in enumerate(matrices["bus"]):
        if len(row) < 3:
            raise CaseError("bus row too short (need at least id, type, Pd)")
        _require_finite("bus", i, row, (0, 2))
        bus_id = int(row[0])
        if bus_id in seen_ids:
            raise CaseError(f"duplicate bus id {bus_id}")
        seen_ids.add(bus_id)
        buses.append({"id": bus_id, "base_demand": float(row[2])})

    gens_raw = []
    for i, row in enumerate(matrices["gen"]):
        if len(row) < 10:
            raise CaseError("gen row too short (need at least 10 columns)")
        _require_finite("gen", i, row, (0, 7, 8, 9, 16))
        gens_raw.append(row)

    costs = matrices.get("gencost", [])
    if costs and len(costs) >= 2 * len(gens_raw):
        costs = costs[: len(gens_raw)]  # drop reactive-power cost block
    if costs and len(costs) != len(gens_raw):
        raise CaseError("gencost row count does not match gen table")

    def linear_cost(i: int) -> tuple[float, float, float]:
        # returns (c_per_mwh, noload_per_h, startup)
        if not costs:
            return 0.0, 0.0, 0.0
        row = costs[i]
        _require_finite("gencost", i, row, (0, 1, 3))
        if len(row) < 4 or len(row) < 4 + int(row[3]):
            raise CaseError(f"gencost row {i + 1}: {len(row)} columns, too few for "
                            "MODEL, STARTUP, SHUTDOWN, NCOST and NCOST coefficients")
        model, startup = int(row[0]), float(row[1])
        n = int(row[3])
        _require_finite("gencost", i, row, range(4, 4 + n))
        coefs = row[4:4 + n]
        if model != 2:
            raise CaseError(f"gencost row {i + 1}: only polynomial model 2 is supported")
        # highest-order first; anything above degree 1 must be zero
        if n > 2 and any(abs(c) > 0 for c in coefs[:-2]):
            raise CaseError(f"gencost row {i + 1}: polynomial cost above degree 1")
        c1 = coefs[-2] if n >= 2 else 0.0
        c0 = coefs[-1] if n >= 1 else 0.0
        return float(c1), float(c0), startup

    generators = []
    pred_costs = []
    for i, row in enumerate(gens_raw):
        bus, status = int(row[0]), int(row[7])
        p_max, p_min = float(row[8]), float(row[9])
        if status == 0:
            log.warning("gen %d is offline in the case file; keeping it", i + 1)
        p_min = max(0.0, p_min)
        ramp = float(row[16]) if len(row) > 16 and row[16] > 0 else p_max
        c1, c0, startup = linear_cost(i)
        pred = p_max * c1 * subperiods
        pred_costs.append(pred)
        generators.append(dict(id=f"g{i + 1}", bus=bus, p_min=p_min, p_max=p_max,
                               ramp_up=ramp, ramp_down=ramp, min_up=1, min_down=1,
                               gen_cost=c1, noload_cost=c0, startup_cost=startup,
                               maint_cost_pred=pred, maint_cost_corr=3.0 * pred))

    line_pred = 0.1 * (sum(pred_costs) / len(pred_costs)) if pred_costs else 0.0
    total_cap = sum(g["p_max"] for g in generators) + sum(b["base_demand"] for b in buses)

    bus_objs = {}
    max_gen_cost = max((g["gen_cost"] for g in generators), default=0.0)
    curtail = 10.0 * max_gen_cost if max_gen_cost > 0 else 1000.0
    for b in buses:
        bus_objs[b["id"]] = Bus(id=b["id"], curtail_cost=curtail,
                                base_demand=b["base_demand"])

    lines = []
    for j, row in enumerate(matrices["branch"]):
        if len(row) < 6:
            raise CaseError("branch row too short (need at least 6 columns)")
        _require_finite("branch", j, row, (0, 1, 3, 5))
        fbus, tbus = int(row[0]), int(row[1])
        x, rate_a = float(row[3]), float(row[5])
        if x <= 0:
            raise CaseError(f"branch {j + 1}: reactance must be positive")
        if rate_a <= 0:
            log.warning("branch %d: no thermal rating; using generation+load proxy", j + 1)
            rate_a = max(total_cap, 1.0)
        if fbus not in bus_objs or tbus not in bus_objs:
            raise CaseError(f"branch {j + 1} references unknown bus "
                            f"{fbus if fbus not in bus_objs else tbus}")
        lines.append(Line(id=f"l{j + 1}", from_bus=fbus, to_bus=tbus,
                          susceptance=1.0 / x, flow_limit=rate_a,
                          maint_cost_pred=line_pred, maint_cost_corr=3.0 * line_pred))

    net = Network(buses=tuple(bus_objs.values()),
                  generators=tuple(Generator(**g) for g in generators),
                  lines=tuple(lines), base_mva=base_mva)
    net.validate()
    return net


def serialize_case(net: Network) -> str:
    """Write a network back out in the supported case subset (round-trips)."""
    out = io.StringIO()
    out.write("function mpc = case_export\n")
    out.write(f"mpc.baseMVA = {net.base_mva:.17g};\n")
    out.write("mpc.bus = [\n")
    for b in net.buses:
        out.write(f"\t{b.id} 1 {b.base_demand:.17g} 0 0 0 1 1 0 0 1 1.1 0.9;\n")
    out.write("];\n")
    out.write("mpc.gen = [\n")
    for g in net.generators:
        out.write(f"\t{g.bus} 0 0 0 0 1 {net.base_mva:.17g} 1 {g.p_max:.17g} "
                  f"{g.p_min:.17g} 0 0 0 0 0 0 {g.ramp_up:.17g};\n")
    out.write("];\n")
    out.write("mpc.branch = [\n")
    for ln in net.lines:
        out.write(f"\t{ln.from_bus} {ln.to_bus} 0 {1.0 / ln.susceptance:.17g} 0 "
                  f"{ln.flow_limit:.17g} 0 0 0 0 1;\n")
    out.write("];\n")
    out.write("mpc.gencost = [\n")
    for g in net.generators:
        out.write(f"\t2 {g.startup_cost:.17g} 0 2 {g.gen_cost:.17g} {g.noload_cost:.17g};\n")
    out.write("];\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Demand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandGrid:
    bus_ids: tuple[int, ...]
    values: np.ndarray  # shape (|B|, |T|, |S|), MW

    def __post_init__(self):
        if self.values.ndim != 3 or self.values.shape[0] != len(self.bus_ids):
            raise CaseError("demand grid has inconsistent dimensions")
        if not np.all(np.isfinite(self.values)):
            raise CaseError("non-finite demand entry")
        if np.any(self.values < 0):
            raise CaseError("negative demand entry")

    @property
    def periods(self) -> int:
        return self.values.shape[1]

    @property
    def subperiods(self) -> int:
        return self.values.shape[2]

    def day(self, t: int) -> np.ndarray:
        """Demand matrix (|B|, |S|) for 1-based period t."""
        return self.values[:, t - 1, :]


def require_grid_buses(net: Network, grid: DemandGrid) -> None:
    """Demand rows are read by position as ``net.buses``; a grid over other
    buses, or the same buses in another order, would be read wrongly."""
    expected = tuple(b.id for b in net.buses)
    if tuple(grid.bus_ids) != expected:
        raise CaseError(f"demand grid buses {tuple(grid.bus_ids)} do not match "
                        f"the network's buses {expected} in order")


def load_demand(csv_text: str, net: Network, cfg: "RunConfig") -> DemandGrid:
    """Read a dense ``bus,t,s,mw`` CSV into a demand grid.

    Every (bus, t, s) cell must appear exactly once with a finite,
    non-negative demand; t runs 1..|T| and s runs 1..|S|.
    """
    bus_ids = [b.id for b in net.buses]
    pos = {bid: i for i, bid in enumerate(bus_ids)}
    grid = np.full((len(bus_ids), cfg.horizon_days, cfg.subperiods), np.nan)
    reader = csv.reader(io.StringIO(csv_text))
    for lineno, row in enumerate(reader, start=1):
        if not row or not row[0].strip():
            continue
        if lineno == 1 and not row[0].strip().lstrip("-").isdigit():
            continue  # header
        if len(row) != 4:
            raise CaseError(f"demand row {lineno}: expected bus,t,s,mw")
        try:
            bus, t, s, mw = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise CaseError(f"demand row {lineno}: {exc}") from exc
        if bus not in pos:
            raise CaseError(f"demand row {lineno}: unknown bus {bus}")
        if not (1 <= t <= cfg.horizon_days and 1 <= s <= cfg.subperiods):
            raise CaseError(f"demand row {lineno}: (t={t}, s={s}) outside horizon")
        if not math.isfinite(mw):
            raise CaseError(f"demand row {lineno}: non-finite demand {mw}")
        if mw < 0:
            raise CaseError(f"demand row {lineno}: negative demand {mw}")
        if not np.isnan(grid[pos[bus], t - 1, s - 1]):
            raise CaseError(f"demand row {lineno}: duplicate cell (bus={bus}, t={t}, s={s})")
        grid[pos[bus], t - 1, s - 1] = mw
    if np.isnan(grid).any():
        missing = int(np.isnan(grid).sum())
        raise CaseError(f"demand CSV is missing {missing} cells")
    return DemandGrid(tuple(bus_ids), grid)


def default_weekly_shape(periods: int, subperiods: int) -> np.ndarray:
    """Smooth day/night multiplier profile with a weekend dip."""
    hours = np.arange(subperiods)
    daily = 0.75 + 0.25 * np.sin((hours - 6) / subperiods * 2.0 * math.pi)
    shape = np.empty((periods, subperiods))
    for t in range(periods):
        weekend = 0.85 if (t % 7) >= 5 else 1.0
        shape[t] = weekend * daily
    return shape


def synth_demand(net: Network, cfg: "RunConfig", shape: np.ndarray | None = None,
                 seed: int = 0, noise_sd: float = 0.0) -> DemandGrid:
    """Scale each bus's case-file demand by a common (t, s) profile.

    With ``noise_sd`` zero (the default) the grid is the exact product
    ``base_i * shape[t][s]``; a positive value adds seeded multiplicative
    jitter so repeated calls with one seed stay identical.
    """
    if shape is None:
        shape = default_weekly_shape(cfg.horizon_days, cfg.subperiods)
    shape = np.asarray(shape, dtype=float)
    if shape.shape != (cfg.horizon_days, cfg.subperiods):
        raise CaseError(f"shape profile must be {cfg.horizon_days}x{cfg.subperiods}, "
                        f"got {shape.shape}")
    if np.any(shape < 0):
        raise CaseError("shape profile has negative multipliers")
    base = np.array([b.base_demand for b in net.buses])
    grid = base[:, None, None] * shape[None, :, :]
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        grid = np.clip(grid * rng.normal(1.0, noise_sd, size=grid.shape), 0.0, None)
    return DemandGrid(tuple(b.id for b in net.buses), grid)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

CUT_FAMILIES = ("intLS", "optK", "optK+", "optKT++")
CHANCE_MODES = ("exact", "safe")


@dataclass(frozen=True)
class DegradationPriors:
    mu0: float       # initial amplitude prior mean
    kappa0: float    # initial amplitude prior sd
    mu1: float       # drift prior mean
    kappa1: float    # drift prior sd
    sigma: float     # signal sd
    threshold: float  # failure level

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise CaseError(f"{f.name} must be a finite number, got {value!r}")
        if min(self.kappa0, self.kappa1, self.sigma) < 0:
            raise CaseError("prior standard deviations must be nonnegative")
        if self.threshold <= 0:
            raise CaseError("failure threshold must be positive")


DEFAULT_GEN_PRIORS = DegradationPriors(20.0, 10.0, 5.0, 0.3, 3.0, 100.0)
DEFAULT_LINE_PRIORS = DegradationPriors(15.0, 5.0, 3.0, 0.3, 1.0, 100.0)


@dataclass(frozen=True)
class RunConfig:
    horizon_days: int = 7
    subperiods: int = 24
    tau_pred_gen: int = 1
    tau_corr_gen: int = 2
    tau_pred_line: int = 1
    tau_corr_line: int = 2
    alpha: float = 0.1
    rho_gen: int = 1
    rho_line: int = 1
    pfail_gen: float = 0.1
    pfail_line: float = 0.2
    epsilon: float = 1e-4
    cut_family: str = "optKT++"
    chance_mode: str = "exact"    # exact | safe
    saa_m: int = 5
    saa_n: int = 50
    saa_nprime: int = 1000
    seed: int = 0
    threads: int = 1
    curtail_cost: float | None = None
    significance: float = 0.05
    iteration_limit: int = 100000
    time_limit: float | None = None
    subproblem_gap: float = 1e-6
    priors_gen: DegradationPriors = DEFAULT_GEN_PRIORS
    priors_line: DegradationPriors = DEFAULT_LINE_PRIORS

    def __post_init__(self):
        for f in fields(self):  # annotations are strings under __future__
            want = {"int": numbers.Integral, "float": numbers.Real,
                    "float | None": (numbers.Real, type(None)),
                    "DegradationPriors": DegradationPriors}.get(f.type)
            value = getattr(self, f.name)
            if want and (isinstance(value, bool) or not isinstance(value, want)):
                raise CaseError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.horizon_days < 1 or self.subperiods < 1:
            raise CaseError("horizon and subperiods must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise CaseError("alpha must lie in (0, 1)")
        if self.rho_gen < 1 or self.rho_line < 1:
            raise CaseError("rho thresholds must be integers >= 1")
        if not self.epsilon > 0:
            raise CaseError(f"epsilon must be positive, got {self.epsilon!r}")
        if not self.subproblem_gap >= 0:
            raise CaseError(f"subproblem_gap must be >= 0, got {self.subproblem_gap!r}")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise CaseError(f"time_limit must be >= 0, got {self.time_limit!r}")
        if self.curtail_cost is not None and not 0 <= self.curtail_cost < math.inf:
            raise CaseError("curtail_cost must be finite and >= 0, "
                            f"got {self.curtail_cost!r}")
        for p, c, what in ((self.tau_pred_gen, self.tau_corr_gen, "generator"),
                           (self.tau_pred_line, self.tau_corr_line, "line")):
            if p < 1 or c < p:
                raise CaseError(f"{what} maintenance durations need corr >= pred >= 1")
        if self.cut_family not in CUT_FAMILIES:
            raise CaseError(f"unknown cut family {self.cut_family!r}")
        if self.chance_mode not in CHANCE_MODES:
            raise CaseError(f"unknown chance mode {self.chance_mode!r}")
        if not (0.0 <= self.pfail_gen <= 1.0 and 0.0 <= self.pfail_line <= 1.0):
            raise CaseError("failure-probability thresholds must lie in [0, 1]")
        if not (0.0 < self.significance < 1.0):
            raise CaseError("significance level must lie in (0, 1)")
        for key in ("seed", "iteration_limit"):
            if getattr(self, key) < 0:
                raise CaseError(f"{key} must be >= 0, got {getattr(self, key)!r}")
        for key in ("saa_m", "saa_n", "saa_nprime", "threads"):
            if getattr(self, key) < 1:
                raise CaseError(f"{key} must be at least 1, got {getattr(self, key)!r}")

    @property
    def tbar(self) -> int:
        """Extended horizon length |T|+1; the last slot means no maintenance."""
        return self.horizon_days + 1

    def tau(self, kind: str) -> tuple[int, int]:
        if kind == "gen":
            return self.tau_pred_gen, self.tau_corr_gen
        return self.tau_pred_line, self.tau_corr_line


def load_config(text: str) -> RunConfig:
    """Build a RunConfig from JSON-keyed text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CaseError("config must be a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    for key in ("priors_gen", "priors_line"):
        if key in raw and isinstance(raw[key], dict):
            try:
                raw[key] = DegradationPriors(**raw[key])
            except (TypeError, CaseError) as exc:
                raise CaseError(f"{key}: {exc}") from exc
    unknown = set(raw) - known
    if unknown:
        raise CaseError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**raw)


def dump_config(cfg: RunConfig) -> str:
    d = asdict(cfg)
    return json.dumps(d, indent=2, sort_keys=True)
