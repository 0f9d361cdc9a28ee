"""Planning-instance assembly: network, demand, and degradation-driven data.

Maps every generator and transmission line to a simulated condition history,
its drift posterior and remaining-lifetime distribution, a within-horizon
failure probability, and the resulting maintenance-candidate split.  All
downstream modules work off this object.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import degrade
from .caseio import DemandGrid, Network, RunConfig, require_grid_buses
from .pboracle import SuccessProbTable
from .preflow import RedundancyReport

log = logging.getLogger(__name__)

__all__ = ["Component", "DayKey", "Instance", "build_instance", "check_horizon",
           "scenario_stream", "training_scenarios", "test_scenarios",
           "no_failure_scenarios"]


def check_horizon(cfg: RunConfig, demand: DemandGrid,
                  scenarios: degrade.ScenarioSet | None = None) -> None:
    """Raise ``ValueError`` unless ``cfg``, ``scenarios`` (when given) and the
    demand span the same days, and ``cfg`` and the demand the same hours."""
    spans = [] if scenarios is None else [
        ("horizon_days", "scenarios.horizon_days", scenarios.horizon_days)]
    spans += [("horizon_days", "the demand's day count", demand.periods),
              ("subperiods", "the demand's hour count", demand.subperiods)]
    for field_name, other, value in spans:
        if getattr(cfg, field_name) != value:
            raise ValueError(f"cfg.{field_name} is {getattr(cfg, field_name)} "
                             f"but {other} is {value}")


@dataclass(frozen=True)
class Component:
    id: str
    kind: str                       # "gen" | "line"
    rld: degrade.ComponentRLD | None  # None: non-degrading, never fails here
    p_fail: float


class DayKey(NamedTuple):
    """Everything a day MILP is built from: days with equal keys get the same
    model up to its name."""
    demand_class: int          # first day whose demand slice has the same bytes
    down: frozenset[str]       # components out of service all day
    omit_bounds: frozenset     # preflow deletions, as omit_bounds_for returns


@dataclass
class Instance:
    net: Network
    demand: DemandGrid
    cfg: RunConfig
    components: dict[str, Component]
    hprime: tuple[str, ...]
    table: SuccessProbTable
    preflow_report: RedundancyReport | None = None
    kinds: dict[str, str] = field(init=False, repr=False)
    _maint_costs: dict[str, tuple[float, float]] = field(init=False, repr=False)
    _demand_class: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.kinds = {c.id: c.kind for c in self.components.values()}
        self._maint_costs = {unit.id: (unit.maint_cost_pred, unit.maint_cost_corr)
                             for unit in (*self.net.generators, *self.net.lines)}
        first_day: dict[bytes, int] = {}
        self._demand_class = [
            first_day.setdefault(self.demand.day(t).tobytes(), t)
            for t in range(1, self.demand.periods + 1)]

    @property
    def all_components(self) -> tuple[str, ...]:
        return tuple(self.components)

    def maint_cost(self, comp: str) -> tuple[float, float]:
        """Predictive and corrective maintenance cost of one component."""
        return self._maint_costs[comp]

    def omit_bounds_for(self, day: int, unavailable: frozenset[str]) -> frozenset:
        """Preflow deletions valid for this availability pattern.

        The flow relaxation assumes non-candidate lines stay in service, so
        the deletions are withheld whenever one of them is out (possible only
        in evaluation over the full component set).
        """
        if self.preflow_report is None:
            return frozenset()
        for comp in unavailable:
            if self.kinds.get(comp) == "line" and comp not in self.hprime:
                return frozenset()
        return self.preflow_report.omitted_for_day(day, self.cfg.subperiods)

    def day_key(self, day: int, unavailable: frozenset[str]) -> DayKey:
        """The key of the day MILP of ``day`` with ``unavailable`` out all day.

        Two days whose demand slices are bitwise equal share a demand class,
        so their models with the same down-set and deletions are one model.
        """
        return DayKey(self._demand_class[day - 1], unavailable,
                      self.omit_bounds_for(day, unavailable))


def _observe_component(priors, rng) -> degrade.ComponentRLD | None:
    """Simulate one component's condition history and fit its lifetime law.

    The observation time is uniform over the window in which a typical signal
    is still short of the threshold; histories that failed before they could
    be observed are redrawn.
    """
    upper = (priors.threshold - priors.mu0) / (priors.mu1 + 3.0 * priors.kappa1)
    upper = max(1, int(math.floor(upper)))
    for _ in range(200):
        path = degrade.simulate_signal(priors, seed=rng)
        if path.failure_step <= 1:
            continue  # failed before any observation window exists
        t_obs = int(rng.integers(1, upper + 1))
        if t_obs >= path.failure_step:
            continue  # came to observe after the failure; redraw
        obs = degrade.observe(path, 1, t_obs)
        try:
            drift = degrade.posterior_drift(priors, obs)
            return degrade.rld(priors, obs, drift)
        except degrade.NonDegradingError:
            return None
    raise RuntimeError("could not draw an observable degradation history")


def build_instance(net: Network, demand: DemandGrid, cfg: RunConfig,
                   seed: int | None = None) -> Instance:
    """Assemble an instance with per-component condition data.

    Each component gets an independent simulated signal from its class priors,
    observed at a uniformly random time while still degrading; the posterior
    drift then fixes its remaining-lifetime distribution and failure
    probability within the horizon.  ``cfg`` and the demand must span the
    same days and hours (:func:`check_horizon`).
    """
    require_grid_buses(net, demand)
    check_horizon(cfg, demand)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    components: dict[str, Component] = {}
    kind_of = [("gen", cfg.priors_gen, [g.id for g in net.generators]),
               ("line", cfg.priors_line, [ln.id for ln in net.lines])]
    for kind, priors, ids in kind_of:
        for comp in ids:
            dist = _observe_component(priors, rng)
            if dist is None:
                log.warning("component %s has non-positive posterior drift; "
                            "treated as non-degrading", comp)
            p = dist.cdf(cfg.horizon_days) if dist else 0.0
            components[comp] = Component(comp, kind, dist, p)

    pfail = {c.id: c.p_fail for c in components.values()}
    kinds = {c.id: c.kind for c in components.values()}
    hprime = degrade.select_subset(pfail, kinds, cfg.pfail_gen, cfg.pfail_line)
    table = SuccessProbTable.from_rlds({c.id: c.rld for c in components.values()},
                                       kinds, hprime, cfg.horizon_days)
    log.info("instance: |G'|=%d |L'|=%d of %d components",
             sum(1 for c in hprime if kinds[c] == "gen"),
             sum(1 for c in hprime if kinds[c] == "line"), len(components))
    return Instance(net, demand, cfg, components, tuple(hprime), table)


def scenario_stream(seed: int, replicate: int | None = None) -> np.random.Generator:
    """The stream one sample of the SAA layout for ``seed`` draws from.

    Every sample draws from its own child of ``default_rng(seed)``: child 0
    draws the test set (``replicate`` None) and child ``i + 1`` replicate
    ``i``'s training set.  Children are independent of one another and of
    ``default_rng(seed)`` itself, which :func:`build_instance` draws the
    degradation histories from, and child ``i`` is the same stream however
    many children are made.
    """
    index = 0 if replicate is None else replicate + 1
    return np.random.default_rng(seed).spawn(index + 1)[index]


def training_scenarios(inst: Instance, n: int, seed) -> degrade.ScenarioSet:
    """Failure scenarios over the maintenance candidates only."""
    return _sample(inst, inst.hprime, n, seed)


def test_scenarios(inst: Instance, n: int, seed) -> degrade.ScenarioSet:
    """Failure scenarios over every component, for solution evaluation."""
    return _sample(inst, inst.all_components, n, seed)


def no_failure_scenarios(inst: Instance) -> degrade.ScenarioSet:
    """The single scenario a failure-blind planner sees."""
    times = np.full((1, len(inst.hprime)), inst.cfg.tbar, dtype=int)
    return degrade.ScenarioSet(inst.hprime, times, np.array([1.0]),
                               inst.cfg.horizon_days)


def _sample(inst: Instance, comps, n, seed) -> degrade.ScenarioSet:
    rlds = {comp: inst.components[comp].rld for comp in comps}
    return degrade.sample_scenarios(rlds, n, inst.cfg.horizon_days, seed)
