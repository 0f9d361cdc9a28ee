import numpy as np
import pytest

from gridmaint.pboracle import (ScheduleError, SuccessProbTable, joint_oracle,
                                pb_cdf, pb_pmf, success_probs)


def brute_force_pmf(probs):
    """Enumerate all 2^n outcomes; the independent oracle for pb_pmf/pb_cdf."""
    probs = np.asarray(probs, dtype=float)
    n = len(probs)
    masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    weights = np.where(masks == 1, probs, 1.0 - probs).prod(axis=1)
    counts = masks.sum(axis=1)
    return np.bincount(counts, weights=weights, minlength=n + 1)


def table_from_rows(rows: dict[str, list[float]], kinds: dict[str, str],
                    schedulable, horizon: int) -> SuccessProbTable:
    return SuccessProbTable({c: np.asarray(v, dtype=float) for c, v in rows.items()},
                            kinds, frozenset(schedulable), horizon)


def test_pmf_single():
    assert np.allclose(pb_pmf([0.3]), [0.7, 0.3])


def test_pmf_fair_binomial():
    assert np.allclose(pb_pmf([0.5, 0.5]), [0.25, 0.5, 0.25])


def test_pmf_against_enumeration():
    probs = [0.1, 0.2, 0.3]
    expected = brute_force_pmf(probs)
    assert expected[0] == pytest.approx(0.504)
    assert np.allclose(pb_pmf(probs), expected, atol=1e-15)


def test_pmf_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(40):
        probs = rng.random(rng.integers(1, 25))
        assert abs(pb_pmf(probs).sum() - 1.0) < 1e-12


def test_cdf_edges():
    assert pb_cdf([0.4, 0.9], 2) == 1.0
    assert pb_cdf([0.4, 0.9], 5) == 1.0
    assert pb_cdf([0.4, 0.9], -1) == 0.0
    assert pb_cdf([0.5, 0.5], 1) == pytest.approx(0.75)
    assert pb_cdf([0.1, 0.2, 0.3], 1) == pytest.approx(0.902)


def test_cdf_matches_enumeration_randomized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        probs = rng.random(rng.integers(1, 13))
        k = int(rng.integers(0, len(probs) + 1))
        expected = brute_force_pmf(probs)[: k + 1].sum()
        assert pb_cdf(probs, k) == pytest.approx(expected, abs=1e-12)


def test_cdf_nonincreasing_in_each_probability():
    rng = np.random.default_rng(5)
    for _ in range(60):
        probs = rng.random(6)
        k = int(rng.integers(0, 6))
        i = int(rng.integers(0, 6))
        bumped = probs.copy()
        bumped[i] = min(1.0, bumped[i] + 0.05)
        assert pb_cdf(bumped, k) <= pb_cdf(probs, k) + 1e-12


# -- success-probability table ------------------------------------------------

def _demo_table():
    rows = {
        "g1": [0.1, 0.4, 0.9, 1.0],
        "g2": [0.0, 0.0, 0.05, 0.05],
        "l1": [0.2, 0.3, 0.4, 0.5],
    }
    kinds = {"g1": "gen", "g2": "gen", "l1": "line"}
    return table_from_rows(rows, kinds, {"g1", "l1"}, 4)


def test_table_lookup_clamps_to_horizon():
    table = _demo_table()
    assert table.lookup("g1", 2) == 0.4
    assert table.lookup("g1", 5) == 1.0   # extended period falls back to T
    assert table.lookup("g2", 5) == 0.05


@pytest.mark.parametrize("bad", [1.2, -0.1])
def test_table_rejects_probability_outside_unit_interval(bad):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        table_from_rows({"g1": [0.1, bad]}, {"g1": "gen"}, {"g1"}, 2)


def test_table_monotonicity_enforced():
    with pytest.raises(ValueError, match="nondecreasing"):
        table_from_rows({"g1": [0.5, 0.2]}, {"g1": "gen"}, {"g1"}, 2)


def test_success_probs_lookup():
    table = _demo_table()
    gens, lines = success_probs({"g1": 2, "l1": 1}, table)
    assert table.components("gen") == ["g1", "g2"]
    assert gens == (0.4, 0.05)      # g2 unscheduled: P(xi <= T)
    assert lines == (0.2,)


def test_success_probs_unscheduled_candidate_uses_horizon():
    table = _demo_table()
    gens, _ = success_probs({"g1": 5, "l1": 5}, table)
    assert gens == (1.0, 0.05)


def test_success_probs_rejects_partial_schedule():
    table = _demo_table()
    with pytest.raises(ScheduleError):
        success_probs({"g1": 2}, table)
    with pytest.raises(ScheduleError):
        success_probs({"g1": 2, "l1": 9}, table)
    with pytest.raises(ScheduleError):
        success_probs({"g1": 2, "l1": 1, "g2": 1}, table)


def test_joint_oracle_all_zero_probs():
    rows = {"g1": [0.0] * 3, "l1": [0.0] * 3}
    table = table_from_rows(rows, {"g1": "gen", "l1": "line"}, {"g1", "l1"}, 3)
    assert joint_oracle({"g1": 1, "l1": 1}, table, 1, 1) == 1.0


def test_joint_oracle_matches_per_class_enumeration():
    rows = {"g1": [0.1], "g2": [0.2], "g3": [0.3], "l1": [0.2], "l2": [0.2]}
    kinds = {c: ("gen" if c.startswith("g") else "line") for c in rows}
    table = table_from_rows(rows, kinds, set(rows), 1)
    sched = {c: 1 for c in rows}
    pv = joint_oracle(sched, table, 1, 1)
    gen_part = brute_force_pmf([0.1, 0.2, 0.3])[:2].sum()
    line_part = brute_force_pmf([0.2, 0.2])[:2].sum()
    assert gen_part == pytest.approx(0.902)
    assert pv == pytest.approx(gen_part * line_part)
    assert pv == pytest.approx(0.86592)


def test_joint_oracle_ignores_nonsubset_scheduling():
    # the H'' component's probability is fixed at P(xi <= T) whatever v says
    table = _demo_table()
    p1 = joint_oracle({"g1": 1, "l1": 1}, table, 1, 1)
    rows2 = dict(g1=[0.1, 0.4, 0.9, 1.0], g2=[0.0, 0.0, 0.05, 0.05],
                 l1=[0.2, 0.3, 0.4, 0.5])
    table2 = table_from_rows(rows2, {"g1": "gen", "g2": "gen", "l1": "line"},
                             {"g1", "g2", "l1"}, 4)
    p2 = joint_oracle({"g1": 1, "l1": 1, "g2": 4}, table2, 1, 1)
    assert p1 == pytest.approx(p2)


def test_schedule_monotonicity_randomized():
    # moving any candidate's maintenance later can only lower the oracle value
    rng = np.random.default_rng(23)
    horizon = 5
    for _ in range(60):
        comps = [f"g{i}" for i in range(rng.integers(1, 4))] \
            + [f"l{i}" for i in range(rng.integers(1, 4))]
        rows = {c: np.sort(rng.random(horizon)) for c in comps}
        kinds = {c: ("gen" if c.startswith("g") else "line") for c in comps}
        table = table_from_rows(rows, kinds, set(comps), horizon)
        early = {c: int(rng.integers(1, horizon + 2)) for c in comps}
        late = {c: int(rng.integers(early[c], horizon + 2)) for c in comps}
        rho_g, rho_l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        p_early = joint_oracle(early, table, rho_g, rho_l)
        p_late = joint_oracle(late, table, rho_g, rho_l)
        assert p_early >= p_late - 1e-12
