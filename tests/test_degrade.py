import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from gridmaint.caseio import DegradationPriors
from gridmaint.degrade import (ComponentRLD, NonDegradingError, ScenarioSet,
                               SignalObservations, SignalPath,
                               SingularPosteriorError, bucket_probs, group_rows,
                               ig_cdf, observe, posterior_drift, rld,
                               sample_scenarios, select_subset, simulate_signal)

from cases import scenario_xi, toy_instance

GEN_PRIORS = DegradationPriors(20.0, 10.0, 5.0, 0.3, 3.0, 100.0)


def signal_increments(path: SignalPath) -> np.ndarray:
    """A path's amplitude reading, then its step increments."""
    out = np.empty_like(path.values)
    out[0] = path.values[0]
    out[1:] = np.diff(path.values)
    return out


def posterior_oracle(priors, obs):
    """Exact-rational re-evaluation of the drift posterior (independent path)."""
    k0sq = Fraction(priors.kappa0) ** 2
    k1sq = Fraction(priors.kappa1) ** 2
    ssq = Fraction(priors.sigma) ** 2
    mu0, mu1 = Fraction(priors.mu0), Fraction(priors.mu1)
    t1, tk = Fraction(obs.t_first), Fraction(obs.t_obs)
    total = sum(Fraction(d) for d in obs.increments)
    first = Fraction(obs.increments[0])
    num = (k1sq * total + mu1 * ssq) * (k0sq + ssq * t1) \
        - k1sq * (first * k0sq + mu0 * ssq * t1)
    den = (k0sq + ssq * t1) * (k1sq * tk + ssq) - k0sq * k1sq * t1
    return num / den


# -- signal simulation ---------------------------------------------------------

def test_simulate_deterministic_drift_from_zero():
    priors = DegradationPriors(0.0, 0.0, 5.0, 0.0, 0.0, 100.0)
    path = simulate_signal(priors, seed=0)
    assert path.failure_step == 20


def test_simulate_deterministic_drift_with_amplitude():
    priors = DegradationPriors(50.0, 0.0, 5.0, 0.0, 0.0, 100.0)
    path = simulate_signal(priors, seed=0)
    assert path.failure_step == 10


def test_simulate_noiseless_failure_is_ceiling():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mu0 = float(rng.uniform(0, 60))
        mu1 = float(rng.uniform(0.5, 8))
        priors = DegradationPriors(mu0, 0.0, mu1, 0.0, 0.0, 100.0)
        path = simulate_signal(priors, seed=1)
        assert path.failure_step == int(np.ceil((100.0 - mu0) / mu1))


def test_simulate_mean_failure_time_monte_carlo():
    # 1e4-path Monte-Carlo: continuous-time anchor (threshold - mu0)/mu1 = 16,
    # plus ~+0.5 from the integer-grid first passage and O(1/sqrt(N)) noise.
    rng = np.random.default_rng(42)
    times = [simulate_signal(GEN_PRIORS, seed=rng).failure_step for _ in range(10_000)]
    assert abs(np.mean(times) - 16.0) < 1.0


def test_simulate_increments_reconstruct_path():
    path = simulate_signal(GEN_PRIORS, seed=3)
    assert np.allclose(np.cumsum(signal_increments(path)), path.values)


def test_simulate_guard_on_nondegrading_path():
    priors = DegradationPriors(0.0, 0.0, -1.0, 0.0, 0.0, 100.0)
    with pytest.raises(RuntimeError, match="did not cross"):
        simulate_signal(priors, seed=0, max_steps=500)


# -- observations and posterior -------------------------------------------------

def _window(seed=5):
    path = simulate_signal(GEN_PRIORS, seed=seed)
    t_obs = max(1, path.failure_step - 2)
    return observe(path, 1, t_obs)


def test_observe_window_totals():
    path = simulate_signal(GEN_PRIORS, seed=5)
    obs = observe(path, 1, path.failure_step - 1)
    assert obs.total == pytest.approx(float(path.values[path.failure_step - 1]))
    assert obs.first == pytest.approx(float(path.values[1]))


def test_observe_rejects_window_past_failure():
    path = simulate_signal(GEN_PRIORS, seed=5)
    with pytest.raises(ValueError):
        observe(path, 1, path.failure_step)


def test_posterior_known_drift_keeps_prior():
    priors = DegradationPriors(20.0, 10.0, 5.0, 0.0, 3.0, 100.0)
    obs = _window()
    assert posterior_drift(priors, obs) == pytest.approx(5.0)


def test_posterior_kappa0_zero_closed_form():
    priors = DegradationPriors(20.0, 0.0, 5.0, 0.3, 3.0, 100.0)
    obs = _window()
    k1sq, ssq = 0.3 ** 2, 3.0 ** 2
    expected = (k1sq * (obs.total - 20.0) + 5.0 * ssq) / (k1sq * obs.t_obs + ssq)
    assert posterior_drift(priors, obs) == pytest.approx(expected, rel=1e-12)


def test_posterior_matches_exact_rational_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        priors = DegradationPriors(float(rng.uniform(5, 40)), float(rng.uniform(0, 12)),
                                   float(rng.uniform(0.5, 8)), float(rng.uniform(0, 1)),
                                   float(rng.uniform(0.2, 4)), 100.0)
        t1 = int(rng.integers(1, 4))
        tk = int(rng.integers(t1, t1 + 6))
        incr = tuple(float(x) for x in rng.uniform(-1, 8, size=tk - t1 + 1))
        obs = SignalObservations(incr, t1, tk)
        exact = posterior_oracle(priors, obs)
        assert posterior_drift(priors, obs) == pytest.approx(float(exact), rel=1e-12)


def test_posterior_singular_denominator():
    priors = DegradationPriors(20.0, 0.0, 5.0, 0.0, 0.0, 100.0)
    obs = SignalObservations((10.0, 5.0), 1, 2)
    with pytest.raises(SingularPosteriorError):
        posterior_drift(priors, obs)


# -- remaining-lifetime distribution --------------------------------------------

def test_rld_direct_substitution():
    priors = DegradationPriors(20.0, 10.0, 5.0, 0.3, 3.0, 100.0)
    obs = SignalObservations((50.0,), 1, 1)
    dist = rld(priors, obs, mu_prime=5.0)
    assert dist.shape_mu == pytest.approx(10.0)
    assert dist.scale_lambda == pytest.approx(2500.0 / 9.0)
    assert dist.t_obs == 1


def test_rld_scale_one_when_residual_equals_sigma():
    priors = DegradationPriors(20.0, 10.0, 5.0, 0.3, 3.0, 100.0)
    obs = SignalObservations((100.0 - 3.0,), 1, 1)
    assert rld(priors, obs, 5.0).scale_lambda == pytest.approx(1.0)


def test_rld_rejects_nonpositive_drift():
    priors = GEN_PRIORS
    obs = SignalObservations((50.0,), 1, 1)
    with pytest.raises(NonDegradingError):
        rld(priors, obs, 0.0)


def test_rld_rejects_failed_signal():
    obs = SignalObservations((120.0,), 1, 1)
    with pytest.raises(ValueError, match="threshold"):
        rld(GEN_PRIORS, obs, 5.0)


def test_ig_cdf_against_quadrature():
    mu, lam = 10.0, 2500.0 / 9.0

    def pdf(x):
        return np.sqrt(lam / (2 * np.pi * x ** 3)) * \
            np.exp(-lam * (x - mu) ** 2 / (2 * mu ** 2 * x))

    expected, err = integrate.quad(pdf, 0, 7)
    assert err < 1e-10
    assert ig_cdf(7.0, mu, lam) == pytest.approx(expected, abs=1e-10)


def scipy_stats_ig_cdf(x, mu, lam):
    """``ig_cdf`` as written over ``scipy.stats.norm``, kept as the reference."""
    from scipy.stats import norm

    if x <= 0:
        return 0.0
    root = math.sqrt(lam / x)
    a = root * (x / mu - 1.0)
    b = -root * (x / mu + 1.0)
    term1 = norm.cdf(a)
    log_term2 = 2.0 * lam / mu + norm.logcdf(b)
    value = term1 + (math.exp(log_term2) if log_term2 > -745 else 0.0)
    return min(1.0, max(0.0, float(value)))


def test_ig_cdf_is_bit_equal_to_the_scipy_stats_form():
    xs = [-1.0, 0.0] + np.geomspace(1e-4, 1e5, 60).tolist()
    for x in xs:
        for mu in (0.05, 1.0, 7.5, 120.0, 4e3):
            for lam in (0.01, 2.0, 2500.0 / 9.0, 1e4, 1e7):
                got, want = ig_cdf(x, mu, lam), scipy_stats_ig_cdf(x, mu, lam)
                assert got.hex() == want.hex(), (x, mu, lam)


def test_failure_prob_limits():
    dist = ComponentRLD(10.0, 2500.0 / 9.0)
    assert dist.cdf(0) == 0.0
    assert dist.cdf(1e9) == pytest.approx(1.0)
    assert dist.cdf(7) == pytest.approx(0.0355842421864757, abs=1e-12)


def test_failure_prob_nondecreasing_in_horizon():
    dist = ComponentRLD(6.0, 40.0)
    vals = [dist.cdf(h) for h in range(0, 40)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_rld_cdf_vs_first_passage_monte_carlo():
    # Monte-Carlo first passage of the residual drift process (the independent
    # oracle): level starts at the observed total, drifts at mu', diffuses at
    # sigma; the crossing-time law should match the closed-form CDF (KS test).
    residual, drift, sigma = 50.0, 5.0, 3.0
    dist = ComponentRLD(residual / drift, residual ** 2 / sigma ** 2)
    rng = np.random.default_rng(8)
    n, dt, t_max = 10_000, 0.01, 80.0
    steps = int(t_max / dt)
    times = np.empty(n)
    chunk = 2000
    for lo in range(0, n, chunk):
        size = min(chunk, n - lo)
        incr = rng.normal(drift * dt, sigma * np.sqrt(dt), size=(size, steps))
        levels = np.cumsum(incr, axis=1)
        crossed = levels >= residual
        idx = crossed.argmax(axis=1)
        assert crossed.any(axis=1).all()
        times[lo:lo + size] = (idx + 1) * dt
    times.sort()
    model = np.array([dist.cdf(t) for t in times])
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(ecdf_hi - model)), np.max(np.abs(model - ecdf_lo)))
    assert ks < 0.05


# -- subset selection and scenarios ---------------------------------------------

def test_select_subset_threshold_zero_takes_all():
    pfail = {"g1": 0.0, "l1": 0.5}
    kinds = {"g1": "gen", "l1": "line"}
    hp, hs = select_subset(pfail, kinds, 0.0, 0.0)
    assert set(hp) == {"g1", "l1"} and hs == []


def test_select_subset_threshold_one():
    pfail = {"g1": 1.0, "g2": 0.999, "l1": 1.0}
    kinds = {"g1": "gen", "g2": "gen", "l1": "line"}
    hp, hs = select_subset(pfail, kinds, 1.0, 1.0)
    assert set(hp) == {"g1", "l1"} and hs == ["g2"]


def test_select_subset_partition():
    rng = np.random.default_rng(2)
    pfail = {f"c{i}": float(rng.random()) for i in range(30)}
    kinds = {c: ("gen" if i % 2 else "line") for i, c in enumerate(pfail)}
    hp, hs = select_subset(pfail, kinds, 0.3, 0.6)
    assert set(hp) | set(hs) == set(pfail) and not set(hp) & set(hs)


def test_sample_scenarios_never_fails():
    dist = ComponentRLD(1e9, 1e9)  # essentially no mass within any short horizon
    scen = sample_scenarios({"g1": dist}, 200, 7, seed=1)
    assert np.all(scen.failure_times == 8)


def test_sample_scenarios_always_fails_day_one():
    dist = ComponentRLD(1e-6, 1.0)  # all mass below t=1
    scen = sample_scenarios({"g1": dist}, 200, 7, seed=1)
    assert np.all(scen.failure_times == 1)


def test_sample_scenarios_none_lifetime_never_fails_and_draws_nothing():
    # a non-degrading component gets T+1 and leaves the generator untouched,
    # so every other column is the draw the set without it gives
    dist = ComponentRLD(5.0, 60.0)
    with_c = sample_scenarios({"g1": dist, "c": None, "l2": dist}, 300, 7, seed=9)
    without = sample_scenarios({"g1": dist, "l2": dist}, 300, 7, seed=9)
    assert with_c.component_ids == ("g1", "c", "l2")
    assert np.all(with_c.failure_times[:, 1] == 8)
    assert with_c.failure_times[:, [0, 2]].tobytes() == without.failure_times.tobytes()


def test_bucket_probs_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(25):
        dist = ComponentRLD(float(rng.uniform(0.5, 30)), float(rng.uniform(0.5, 500)))
        probs = bucket_probs(dist, 7)
        assert probs.shape == (8,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0)


def test_sample_scenarios_frequencies_match_buckets():
    dist = ComponentRLD(5.0, 60.0)
    horizon = 7
    scen = sample_scenarios({"g1": dist}, 100_000, horizon, seed=12)
    expected = bucket_probs(dist, horizon)
    counts = np.bincount(scen.failure_times[:, 0], minlength=horizon + 2)[1:]
    freqs = counts / scen.size
    assert np.max(np.abs(freqs - expected)) < 0.01


def test_scenario_probabilities_uniform():
    dist = ComponentRLD(5.0, 60.0)
    scen = sample_scenarios({"g1": dist, "g2": dist}, 40, 7, seed=3)
    assert np.allclose(scen.probs, 1.0 / 40)
    assert scenario_xi(scen, 0).keys() == {"g1", "g2"}


def _row_cases():
    rng = np.random.default_rng(41)
    return {
        "ints": rng.integers(-2, 2, size=(60, 3)),
        "ints-wide": rng.integers(1, 9, size=(20, 12))[rng.integers(0, 20, size=200)],
        "bits": rng.integers(0, 2, size=(80, 5)).astype(np.uint8),
        "bits-one-column": rng.integers(0, 2, size=(30, 1)).astype(np.uint8),
        "no-columns": np.zeros((5, 0), dtype=int),
        "no-rows": np.zeros((0, 3), dtype=int),
        "one-row": np.array([[4, 1, 7]]),
        "all-equal": np.full((9, 3), 2),
    }


@pytest.mark.parametrize("name", sorted(_row_cases()))
def test_group_rows_equals_np_unique(name):
    rows = _row_cases()[name]
    first, inverse = group_rows(rows)
    _, want_first, want_inverse = np.unique(rows, axis=0, return_index=True,
                                            return_inverse=True)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()


def test_distinct_merges_equal_rows_and_sums_their_probabilities():
    rng = np.random.default_rng(8)
    times = rng.integers(1, 4, size=(40, 3))
    weights = rng.uniform(0.1, 1.0, size=40)
    scens = ScenarioSet(("g1", "l2", "g3"), times, weights / weights.sum(), 2)
    merged, inverse = scens.distinct()
    assert merged.component_ids == scens.component_ids
    assert merged.horizon_days == scens.horizon_days
    assert np.array_equal(merged.failure_times[inverse], times)
    rows = [tuple(row) for row in merged.failure_times.tolist()]
    assert rows == sorted(set(map(tuple, times.tolist())))
    for i, row in enumerate(rows):
        members = [k for k in range(40) if tuple(times[k]) == row]
        assert merged.probs[i] == pytest.approx(sum(scens.probs[members]),
                                                rel=1e-15)


def test_scenario_csv_round_trip():
    dist = ComponentRLD(5.0, 60.0)
    scen = sample_scenarios({"g1": dist, "l2": dist}, 15, 7, seed=6)
    again = ScenarioSet.from_csv(scen.to_csv(), 7)
    assert again.component_ids == scen.component_ids
    assert np.array_equal(again.failure_times, scen.failure_times)


def test_scenario_csv_rejects_malformed_input():
    with pytest.raises(ValueError, match="no data"):
        ScenarioSet.from_csv("component,k,xi\n", 7)
    with pytest.raises(ValueError, match="duplicate"):
        ScenarioSet.from_csv("g1,1,3\ng1,1,4\n", 7)
    with pytest.raises(ValueError, match="missing"):
        ScenarioSet.from_csv("g1,1,3\ng1,2,4\ng2,1,5\n", 7)
    with pytest.raises(ValueError, match="outside"):
        ScenarioSet.from_csv("g1,1,99\n", 7)
    with pytest.raises(ValueError, match="expected"):
        ScenarioSet.from_csv("g1,one,2\n", 7)


@pytest.mark.parametrize("shift,row", [(1.0, 2), (float("nan"), 1)])
def test_scenario_probabilities_must_be_finite_and_non_negative(shift, row):
    # the seed-7 toy's probabilities moved by +-1 between two scenarios still
    # sum to 1, and used to end the plan "limit" with objective inf
    inst, scens = toy_instance(seed=7)
    probs = scens.probs.copy()
    probs[1] += shift
    probs[2] -= shift
    with pytest.raises(ValueError, match=rf"scenario row {row} \(0-based\) has "
                                         r"probability (-|nan)"):
        ScenarioSet(scens.component_ids, scens.failure_times, probs, scens.horizon_days)


@pytest.mark.parametrize("day", [0, 9])
def test_scenario_set_rejects_a_failure_day_outside_the_horizon(day):
    # such a set used to plan as if the day were in range
    times = np.array([[1, 8], [3, day], [day, 2]])
    with pytest.raises(ValueError, match=rf"row 1 \(0-based\), component l1: "
                                         rf"failure day {day} outside 1\.\.8"):
        ScenarioSet(("g1", "l1"), times, np.full(3, 1.0 / 3), 7)


@pytest.mark.parametrize("day", [np.nan, np.inf, 2.5])
def test_scenario_set_rejects_a_failure_day_that_is_not_a_whole_number(day):
    # NaN used to pass the range check and become day 0, and 2.5 day 2
    times = np.array([[1, 8], [3, day], [day, 2]])
    with pytest.raises(ValueError, match=rf"row 1 \(0-based\), component l1: "
                                         rf"failure day {day!r} is not a whole number"):
        ScenarioSet(("g1", "l1"), times, np.full(3, 1.0 / 3), 7)


@pytest.mark.parametrize("k", [0, -5])
def test_scenario_csv_rejects_an_index_below_one(k):
    # such a row used to be dropped without a word, leaving 2 scenarios
    with pytest.raises(ValueError, match=rf"row 3: scenario index {k} is below 1"):
        ScenarioSet.from_csv(f"g1,1,3\ng1,2,4\ng1,{k},2\n", 7)


# -- prior estimation ------------------------------------------------------------

def estimate_priors(corpus: list[SignalPath]) -> tuple[float, float]:
    """Point estimates of the amplitude and drift prior means from failed signals.

    The amplitude estimate is the mean first reading; the drift estimate
    averages (total rise after the first reading) / (steps to failure).
    """
    if not corpus:
        raise ValueError("empty signal corpus")
    firsts, drifts = [], []
    for path in corpus:
        if path.failure_step < 1:
            raise ValueError("corpus signal failed before its first increment")
        first = float(signal_increments(path)[0])
        total = float(path.values[path.failure_step])
        firsts.append(first)
        drifts.append((total - first) / path.failure_step)
    return float(np.mean(firsts)), float(np.mean(drifts))


def test_estimate_priors_single_signal():
    # amplitude 20 at the first reading, then 16 unit steps of 5 up to failure
    values = np.array([20.0 + 5.0 * i for i in range(17)])
    path = SignalPath(values, failure_step=16)
    mu0_hat, mu1_hat = estimate_priors([path])
    assert mu0_hat == pytest.approx(20.0)
    assert mu1_hat == pytest.approx(5.0)


def test_estimate_priors_identical_corpus():
    values = np.array([20.0 + 5.0 * i for i in range(17)])
    corpus = [SignalPath(values, 16)] * 10
    assert estimate_priors(corpus) == pytest.approx((20.0, 5.0))


def test_estimate_priors_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        estimate_priors([])


def test_estimate_priors_recovers_ground_truth():
    # corpus generated from known priors; estimates should land within
    # 3 * prior-sd / sqrt(100) of the true means (generation noise is smaller)
    truth = DegradationPriors(50.0, 8.0, 2.0, 0.2, 0.5, 200.0)
    rng = np.random.default_rng(31)
    corpus = [simulate_signal(truth, seed=rng) for _ in range(100)]
    mu0_hat, mu1_hat = estimate_priors(corpus)
    assert abs(mu0_hat - truth.mu0) < 3 * truth.kappa0 / 10
    assert abs(mu1_hat - truth.mu1) < 3 * truth.kappa1 / 10
