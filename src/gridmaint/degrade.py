"""Degradation signals, drift posteriors, and inverse-Gaussian remaining lifetimes.

A component's health signal follows a linear Brownian-drift process.  Observed
increments update the drift through its Normal posterior; the residual life
until the signal first crosses the failure threshold is then inverse Gaussian.
Failure scenarios for the stochastic program are day-bucket samples from those
distributions.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._extension import load_extension
from .caseio import DegradationPriors

# the ufuncs scipy.special re-exports, without the scipy.special package init
_special_ufuncs = load_extension("scipy.special._special_ufuncs")
ndtr, log_ndtr = _special_ufuncs.ndtr, _special_ufuncs.log_ndtr

__all__ = [
    "DegradationPriors", "SignalPath", "SignalObservations", "ComponentRLD",
    "ScenarioSet", "simulate_signal", "observe", "posterior_drift", "rld",
    "ig_cdf", "bucket_probs", "select_subset", "sample_scenarios", "group_rows",
    "SingularPosteriorError", "NonDegradingError",
]


class SingularPosteriorError(ZeroDivisionError):
    """Degenerate priors make the drift-posterior denominator vanish."""


class NonDegradingError(ValueError):
    """Posterior drift is nonpositive; no finite lifetime distribution exists."""


@dataclass(frozen=True)
class SignalPath:
    """A simulated degradation signal on the unit grid t = 0, 1, 2, ...

    ``values[i]`` is the signal level at time ``i``; ``values[0]`` is the
    initial amplitude.  ``failure_step`` is the first grid index at which the
    level reaches the threshold.
    """
    values: np.ndarray
    failure_step: int


@dataclass(frozen=True)
class SignalObservations:
    """Signal increments recorded from observation time t_first through t_obs.

    ``increments[0]`` is the cumulative level at ``t_first`` (the observer's
    first reading); subsequent entries are the unit-time increments, so the
    running sum always equals the current signal level.
    """
    increments: tuple[float, ...]
    t_first: int
    t_obs: int

    def __post_init__(self):
        if not (self.t_obs >= self.t_first >= 1):
            raise ValueError("need t_obs >= t_first >= 1")
        if len(self.increments) != self.t_obs - self.t_first + 1:
            raise ValueError("increment count does not match the observation window")

    @property
    def first(self) -> float:
        return self.increments[0]

    @property
    def total(self) -> float:
        return float(sum(self.increments))


@dataclass(frozen=True)
class ComponentRLD:
    """Inverse-Gaussian remaining-lifetime distribution of one component."""
    shape_mu: float      # (threshold - observed level) / posterior drift
    scale_lambda: float  # (threshold - observed level)^2 / sigma^2
    t_obs: int = 0       # absolute observation time the clock starts from

    def __post_init__(self):
        if self.shape_mu <= 0 or self.scale_lambda <= 0:
            raise ValueError("inverse-Gaussian parameters must be positive")

    def cdf(self, t: float) -> float:
        return ig_cdf(t, self.shape_mu, self.scale_lambda)


def simulate_signal(priors: DegradationPriors,
                    seed: int | np.random.Generator | None = None,
                    max_steps: int = 1_000_000) -> SignalPath:
    """Draw one degradation path and stop at first passage of the threshold.

    Amplitude and drift are drawn from the priors; the Brownian term uses
    unit Euler steps.  Raises if the path has not crossed within
    ``max_steps`` (possible only for nonpositive sampled drift).
    """
    rng = np.random.default_rng(seed)
    amplitude = rng.normal(priors.mu0, priors.kappa0)
    drift = rng.normal(priors.mu1, priors.kappa1)
    values = [amplitude]
    level = amplitude
    step = 0
    while level < priors.threshold:
        step += 1
        if step > max_steps:
            raise RuntimeError("degradation path did not cross the threshold "
                               f"within {max_steps} steps (drift {drift:.3g})")
        level += drift + priors.sigma * rng.standard_normal()
        values.append(level)
    return SignalPath(np.array(values), failure_step=step)


def observe(path: SignalPath, t_first: int, t_obs: int) -> SignalObservations:
    """Extract the observation window [t_first, t_obs] from a path."""
    if t_obs >= path.failure_step:
        raise ValueError("observation window reaches past the failure time")
    incr = [float(path.values[t_first])]
    incr.extend(float(d) for d in np.diff(path.values[t_first:t_obs + 1]))
    return SignalObservations(tuple(incr), t_first, t_obs)


def posterior_drift(priors: DegradationPriors, obs: SignalObservations) -> float:
    """Posterior mean of the drift given the observed increments."""
    k0sq, k1sq, ssq = priors.kappa0 ** 2, priors.kappa1 ** 2, priors.sigma ** 2
    t1, tk = obs.t_first, obs.t_obs
    total, first = obs.total, obs.first
    num = (k1sq * total + priors.mu1 * ssq) * (k0sq + ssq * t1) \
        - k1sq * (first * k0sq + priors.mu0 * ssq * t1)
    den = (k0sq + ssq * t1) * (k1sq * tk + ssq) - k0sq * k1sq * t1
    if den == 0:
        raise SingularPosteriorError("drift posterior denominator is zero "
                                     "(degenerate priors)")
    return num / den


def rld(priors: DegradationPriors, obs: SignalObservations,
        mu_prime: float) -> ComponentRLD:
    """Remaining-lifetime distribution at the observation time."""
    residual = priors.threshold - obs.total
    if residual <= 0:
        raise ValueError("signal already at or past the failure threshold")
    if mu_prime <= 0:
        raise NonDegradingError(f"posterior drift {mu_prime:.4g} is not positive")
    if priors.sigma <= 0:
        raise ValueError("remaining lifetime needs a positive signal sd")
    return ComponentRLD(shape_mu=residual / mu_prime,
                        scale_lambda=residual ** 2 / priors.sigma ** 2,
                        t_obs=obs.t_obs)


def ig_cdf(x: float, mu: float, lam: float) -> float:
    """Inverse-Gaussian CDF via the closed form in the normal CDF.

    The second term is evaluated in log space: exp(2*lam/mu) overflows long
    before the product with the tiny normal tail does.
    """
    if x <= 0:
        return 0.0
    root = math.sqrt(lam / x)
    a = root * (x / mu - 1.0)
    b = -root * (x / mu + 1.0)
    term1 = ndtr(a)
    log_term2 = 2.0 * lam / mu + log_ndtr(b)
    value = term1 + (math.exp(log_term2) if log_term2 > -745 else 0.0)
    return min(1.0, max(0.0, float(value)))


def bucket_probs(dist: ComponentRLD, horizon_days: int) -> np.ndarray:
    """Daily failure-time buckets: P(day 1), ..., P(day T), P(no failure).

    The entries always sum to one exactly by construction.
    """
    cdf = np.array([dist.cdf(t) for t in range(horizon_days + 1)])
    probs = np.empty(horizon_days + 1)
    probs[:horizon_days] = np.maximum(np.diff(cdf), 0.0)
    probs[horizon_days] = max(0.0, 1.0 - cdf[horizon_days])
    return probs / probs.sum()


def select_subset(pfail: dict[str, float], kinds: dict[str, str],
                  threshold_gen: float, threshold_line: float) -> list[str]:
    """The maintenance candidates, in the order of ``pfail``.

    A component is a candidate when its within-horizon failure probability
    reaches its class threshold.
    """
    return [comp for comp, p in pfail.items()
            if p >= (threshold_gen if kinds[comp] == "gen" else threshold_line)]


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a 2-D array: the first row of each group, with the
    groups in sorted order, and every row's group number.

    One stable sort over the columns (column 0 the primary key) and a pass
    over neighbouring rows; the result equals ``np.unique(rows, axis=0,
    return_index=True, return_inverse=True)``'s index and inverse.  Rows
    without columns are all equal.
    """
    n, m = rows.shape
    order = np.lexsort(rows.T[::-1]) if m else np.arange(n)
    ordered = rows[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


@dataclass(frozen=True)
class ScenarioSet:
    """Sampled failure days per component; the last slot T+1 means no failure."""
    component_ids: tuple[str, ...]
    failure_times: np.ndarray  # shape (N, |components|), values in 1..T+1
    probs: np.ndarray          # scenario probabilities, sum to 1
    horizon_days: int

    def __post_init__(self):
        n, m = self.failure_times.shape
        if m != len(self.component_ids) or len(self.probs) != n:
            raise ValueError("scenario set dimensions are inconsistent")
        bad = np.flatnonzero(~(np.isfinite(self.probs) & (self.probs >= 0)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"scenario row {k} (0-based) has probability "
                             f"{float(self.probs[k])!r}; each must be finite and >= 0")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("scenario probabilities must sum to 1")
        if self.failure_times.dtype.kind not in "iu":
            # NaN passes the range check below, and a cast to int truncates
            times = self.failure_times
            bad = np.argwhere(~np.isfinite(times) | (times != np.round(times)))
            if bad.size:
                k, j = bad[0]
                raise ValueError(f"scenario row {k} (0-based), component "
                                 f"{self.component_ids[j]}: failure day "
                                 f"{float(times[k, j])!r} is not a whole number")
        bad = np.argwhere((self.failure_times < 1)
                          | (self.failure_times > self.horizon_days + 1))
        if bad.size:
            k, j = bad[0]
            raise ValueError(f"scenario row {k} (0-based), component "
                             f"{self.component_ids[j]}: failure day "
                             f"{int(self.failure_times[k, j])} outside "
                             f"1..{self.horizon_days + 1}")

    @property
    def size(self) -> int:
        return self.failure_times.shape[0]

    def distinct(self) -> tuple["ScenarioSet", np.ndarray]:
        """The set with equal rows merged, and each row's index into it.

        The merged set holds the distinct ``failure_times`` rows in sorted
        order, each with the summed probability of its members, so an
        expectation over it equals one over this set.  The merge runs once
        per set and is kept on it, so every caller gets the same arrays,
        read-only.
        """
        return self._merged

    @cached_property
    def _merged(self) -> tuple["ScenarioSet", np.ndarray]:
        first, inverse = group_rows(self.failure_times)
        probs = np.bincount(inverse, weights=self.probs, minlength=first.size)
        merged = ScenarioSet(self.component_ids, self.failure_times[first], probs,
                             self.horizon_days)
        for shared in (merged.failure_times, merged.probs, inverse):
            shared.flags.writeable = False
        return merged, inverse

    def failure_days(self, components: tuple[str, ...]) -> np.ndarray:
        """Failure days of ``components`` in every scenario, ``(n, c)`` int16.

        Columns follow ``components``; one the set does not cover never fails
        (day T+1).  int16 keeps per-day status derivation over large sets
        small; a horizon beyond its range raises ``OverflowError``.
        """
        col = {comp: j for j, comp in enumerate(self.component_ids)}
        out = np.full((self.size, len(components)), self.horizon_days + 1,
                      dtype=np.int16)
        for j, comp in enumerate(components):
            if comp in col:
                out[:, j] = self.failure_times[:, col[comp]]
        return out

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("component,k,xi\n")
        for k in range(self.size):
            for j, comp in enumerate(self.component_ids):
                out.write(f"{comp},{k + 1},{int(self.failure_times[k, j])}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, horizon_days: int) -> "ScenarioSet":
        cells: dict[tuple[str, int], int] = {}
        comps: list[str] = []
        for lineno, line in enumerate(io.StringIO(text), start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower().startswith("component")):
                continue
            try:
                comp, k, xi_val = line.split(",")
                k, xi_val = int(k), int(xi_val)
            except ValueError as exc:
                raise ValueError(f"scenario row {lineno}: expected "
                                 f"component,k,xi ({exc})") from exc
            if k < 1:
                raise ValueError(f"scenario row {lineno}: scenario index {k} is "
                                 "below 1")
            if not (1 <= xi_val <= horizon_days + 1):
                raise ValueError(f"scenario row {lineno}: failure time {xi_val} "
                                 f"outside 1..{horizon_days + 1}")
            if comp not in comps:
                comps.append(comp)
            if (comp, k) in cells:
                raise ValueError(f"scenario row {lineno}: duplicate ({comp}, {k})")
            cells[(comp, k)] = xi_val
        if not cells:
            raise ValueError("scenario CSV has no data rows")
        n = max(k for _, k in cells)
        times = np.empty((n, len(comps)), dtype=int)
        for j, comp in enumerate(comps):
            for k in range(1, n + 1):
                if (comp, k) not in cells:
                    raise ValueError(f"scenario CSV is missing ({comp}, {k})")
                times[k - 1, j] = cells[(comp, k)]
        return cls(tuple(comps), times, np.full(n, 1.0 / n), horizon_days)


def sample_scenarios(rlds: dict[str, ComponentRLD | None], n: int, horizon_days: int,
                     seed: int | np.random.Generator | None = None) -> ScenarioSet:
    """Sample independent day-bucket failure times for each component.

    A ``None`` lifetime marks a non-degrading component: it never fails (T+1)
    and takes no draw from the generator.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    rng = np.random.default_rng(seed)
    comps = tuple(rlds)
    times = np.full((n, len(comps)), horizon_days + 1, dtype=int)
    days = np.arange(1, horizon_days + 2)  # 1..T plus the no-failure slot T+1
    for j, comp in enumerate(comps):
        if rlds[comp] is not None:
            probs = bucket_probs(rlds[comp], horizon_days)
            times[:, j] = rng.choice(days, size=n, p=probs)
    return ScenarioSet(comps, times, np.full(n, 1.0 / n), horizon_days)

