"""Exact Poisson-Binomial machinery and the joint chance-probability oracle.

The number of components of one class that end up in corrective maintenance is
a sum of independent, non-identical Bernoulli indicators, i.e. Poisson
Binomial.  The PMF is computed by exact sequential convolution; with component
counts in the hundreds this is both faster and safer than transform or
normal-approximation routes, and the oracle gates feasibility so approximation
error is unacceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degrade import ComponentRLD

__all__ = ["pb_pmf", "pb_cdf", "SuccessProbTable",
           "check_schedule", "success_probs", "joint_oracle", "ScheduleError"]


class ScheduleError(ValueError):
    """Malformed maintenance schedule (not exactly one period per component)."""


def pb_pmf(probs) -> np.ndarray:
    """Exact PMF of the sum of independent Bernoulli(p_i) variables.

    Sequential convolution: after processing i probabilities the vector holds
    the PMF of the partial sum, so the result has length n+1 and sums to 1 up
    to rounding.
    """
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def pb_cdf(probs, k: int) -> float:
    """P(sum <= k) for the Poisson-Binomial sum; exact prefix of the PMF."""
    n = len(probs)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return float(pb_pmf(probs)[: k + 1].sum())


@dataclass(frozen=True)
class SuccessProbTable:
    """Per component: P(failure time <= m) for each maintenance period m.

    ``q[comp]`` has one entry per period 1..T; looking up the extended period
    T+1 (or any component without a schedule) falls back to P(xi <= T), which
    is the corrective-maintenance probability of an unscheduled component.
    """
    q: dict[str, np.ndarray]
    kinds: dict[str, str]          # comp -> "gen" | "line"
    schedulable: frozenset[str]    # the maintenance-candidate components
    horizon_days: int

    def __post_init__(self):
        for comp, arr in self.q.items():
            if len(arr) != self.horizon_days:
                raise ValueError(f"{comp}: table row must have |T| entries")
            if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
                raise ValueError(f"{comp}: probabilities outside [0, 1]")
            if np.any(np.diff(arr) < -1e-12):
                raise ValueError(f"{comp}: P(xi <= m) must be nondecreasing in m")

    @classmethod
    def from_rlds(cls, rlds: dict[str, ComponentRLD | None], kinds: dict[str, str],
                  schedulable, horizon_days: int) -> "SuccessProbTable":
        q = {}
        for comp, dist in rlds.items():
            if dist is None:  # non-degrading component: never fails in-horizon
                q[comp] = np.zeros(horizon_days)
            else:
                q[comp] = np.array([dist.cdf(m) for m in range(1, horizon_days + 1)])
        return cls(q, dict(kinds), frozenset(schedulable), horizon_days)

    def lookup(self, comp: str, period: int) -> float:
        """Success probability for maintenance at ``period`` (clamped to T)."""
        m = min(period, self.horizon_days)
        if m < 1:
            raise ValueError(f"period {period} out of range")
        return float(self.q[comp][m - 1])

    def components(self, kind: str) -> list[str]:
        return [c for c in self.q if self.kinds[c] == kind]


def check_schedule(schedule: dict[str, int], table: SuccessProbTable) -> None:
    """Raise :class:`ScheduleError` unless ``schedule`` gives every maintenance
    candidate, and nothing else, one period in 1..T+1."""
    missing = table.schedulable - set(schedule)
    if missing:
        raise ScheduleError(f"schedule lacks periods for {sorted(missing)}")
    others = set(schedule) - table.schedulable
    if others:
        raise ScheduleError(f"schedule names components outside the maintenance "
                            f"candidates {sorted(table.schedulable)}: {sorted(others)}")
    tbar = table.horizon_days + 1
    for comp, period in schedule.items():
        if not (1 <= period <= tbar):
            raise ScheduleError(f"{comp}: period {period} outside 1..{tbar}")


def success_probs(schedule: dict[str, int], table: SuccessProbTable):
    """Success probabilities of the generators, then of the lines, induced by
    a maintenance schedule: two tuples, each in ``table.components(kind)``
    order.

    Scheduled components succeed (fail before their maintenance) with
    P(xi <= scheduled period); everything else with P(xi <= T).
    """
    check_schedule(schedule, table)
    gens, lines = (tuple(table.lookup(comp, schedule.get(comp, table.horizon_days))
                         for comp in table.components(kind))
                   for kind in ("gen", "line"))
    return gens, lines


def joint_oracle(schedule: dict[str, int], table: SuccessProbTable,
                 rho_gen: int, rho_line: int) -> float:
    """P(v): probability that corrective-maintenance counts stay within both
    class thresholds, using independence of the two Poisson-Binomial sums."""
    gens, lines = success_probs(schedule, table)
    return pb_cdf(gens, rho_gen) * pb_cdf(lines, rho_line)
