import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from gridmaint import decomp, solver, ucmodel
from gridmaint.caseio import RunConfig, parse_case, synth_demand

from cases import CASE9, toy_instance


def test_min_bounded_variable():
    m = solver.ModelSpec()
    m.add_var("x", lb=3.0, obj=1.0)
    res = solver.solve(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)


def test_binary_knapsack():
    m = solver.ModelSpec(sense="max")
    a = m.add_binary("a", obj=2.0)
    b = m.add_binary("b", obj=3.0)
    m.add_le({a: 1.0, b: 1.0}, 1.0)
    res = solver.solve(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    assert round(res.x[b]) == 1


def test_infeasible_status():
    m = solver.ModelSpec()
    x = m.add_var("x")
    m.add_le({x: 1.0}, 0.0)
    m.add_ge({x: 1.0}, 1.0)
    assert solver.solve(m).status == "infeasible"


def test_equality_row_and_offset():
    m = solver.ModelSpec()
    x = m.add_var("x", lb=-10.0, obj=2.0)
    m.add_eq({x: 1.0}, 4.0)
    m.obj_offset = 1.0
    res = solver.solve(m)
    assert res.objective == pytest.approx(9.0)


def test_milp_gap_and_bound():
    m = solver.ModelSpec()
    xs = [m.add_binary(f"x{i}", obj=-float(i)) for i in range(6)]
    m.add_le({x: 1.0 for x in xs}, 3.0)
    res = solver.solve(m, tolerance=1e-9)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-12.0)  # pick 5+4+3
    assert res.gap <= 1e-6
    assert res.bound <= res.objective + 1e-9


def test_crossed_row_bounds_name_the_spec_and_row():
    m = solver.ModelSpec("demo")
    x = m.add_var("x")
    m.add_le({x: 1.0}, 3.0)
    with pytest.raises(ValueError, match=r"demo: row 1 has lb 2.0 > ub 1.0"):
        m.add_row({x: 1.0}, lb=2.0, ub=1.0)
    assert m.num_rows == 1


def reference_solve(spec, tolerance=1e-9, time_limit=None):
    """``spec`` solved through ``scipy.optimize.milp``, which drives the same
    HiGHS.  For an LP its options are the same, so ``solver.solve`` must match
    it bit for bit; for a MILP ``solver.solve`` also turns two heuristics off
    (``solver._HEURISTICS_OFF``), and the models compared here still match.

    Returns ``(status, x bytes, objective, bound, gap)`` under the status
    mapping and sign handling of ``solver.solve``.
    """
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    sign = 1.0 if spec.sense == "min" else -1.0
    integrality = np.array(spec._integer, dtype=np.uint8)
    options = {"presolve": True, "mip_rel_gap": tolerance}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    constraints = None
    if spec.num_rows:
        data, ri, ci = [], [], []
        for r, (coeffs, _, _) in enumerate(spec._rows):
            for var, coef in coeffs.items():
                if coef != 0.0:
                    ri.append(r)
                    ci.append(var)
                    data.append(coef)
        a = sp.csr_matrix((data, (ri, ci)), shape=(spec.num_rows, spec.num_vars))
        constraints = LinearConstraint(a, np.array([row[1] for row in spec._rows]),
                                       np.array([row[2] for row in spec._rows]))
    res = milp(sign * np.array(spec._obj, dtype=float), constraints=constraints,
               integrality=integrality,
               bounds=Bounds(np.array(spec._lb, dtype=float),
                             np.array(spec._ub, dtype=float)),
               options=options)
    status = {0: "optimal", 1: "limit", 2: "infeasible"}.get(res.status, "error")
    if status in ("infeasible", "error") or res.x is None:
        return status, None, None, None, solver.INF
    objective = sign * float(res.fun) + spec.obj_offset
    if integrality.any():
        return (status, res.x.tobytes(), objective,
                sign * float(res.mip_dual_bound) + spec.obj_offset, float(res.mip_gap))
    return status, res.x.tobytes(), objective, objective, 0.0


def outcome_fields(res):
    return (res.status, None if res.x is None else res.x.tobytes(),
            res.objective, res.bound, res.gap)


def no_row_lp():
    m = solver.ModelSpec("no_rows")
    m.add_var("x", lb=-2.5, ub=4.0, obj=1.5)
    m.add_var("y", lb=1.0, ub=3.0, obj=-2.0)
    return m


def equality_lp():
    m = solver.ModelSpec("equalities")
    x = m.add_var("x", lb=-10.0, obj=2.0)
    y = m.add_var("y", obj=3.0)
    z = m.add_var("z", ub=7.0, obj=-1.0)
    m.add_eq({x: 1.0, y: 2.0}, 4.0)
    m.add_eq({y: 1.0, z: -1.0}, -1.5)
    m.add_row({x: 1.0, z: 1.0}, lb=-3.0, ub=9.0)
    m.obj_offset = 12.25
    return m


def max_knapsack(n=24):
    m = solver.ModelSpec("knapsack", sense="max")
    xs = [m.add_binary(f"x{i}", obj=float(i % 7 + 1) + 0.1 * i) for i in range(n)]
    w = m.add_var("w", ub=3.5, obj=0.75)
    m.add_le({**{x: float(i % 5 + 2) for i, x in enumerate(xs)}, w: 1.0}, 23.0)
    m.add_le({xs[0]: 1.0, xs[1]: 1.0}, 1.0)
    m.obj_offset = -4.0
    return m


def infeasible_lp():
    m = solver.ModelSpec("infeasible")
    x = m.add_var("x")
    m.add_le({x: 1.0}, 0.0)
    m.add_ge({x: 1.0}, 1.0)
    return m


def unbounded_lp():
    m = solver.ModelSpec("unbounded", sense="max")
    x = m.add_var("x", obj=1.0)
    y = m.add_var("y")
    m.add_ge({x: 1.0, y: -1.0}, 0.0)
    return m


@pytest.mark.parametrize("build, kwargs, status", [
    (no_row_lp, {}, "optimal"),
    (equality_lp, {}, "optimal"),
    (max_knapsack, {}, "optimal"),
    (max_knapsack, {"tolerance": 0.05}, "optimal"),
    (infeasible_lp, {}, "infeasible"),
    (unbounded_lp, {}, "error"),
    (max_knapsack, {"time_limit": 0.0}, "limit"),
])
def test_outcome_matches_scipy_milp_bit_for_bit(build, kwargs, status):
    got = outcome_fields(solver.solve(build(), **kwargs))
    assert got == reference_solve(build(), **kwargs)
    assert got[0] == status


def test_outcome_reports_seconds_and_nodes():
    mip = solver.solve(max_knapsack())
    lp = solver.solve(equality_lp())
    assert mip.ok and lp.ok
    assert mip.nodes >= 1 and lp.nodes == 0
    assert mip.seconds >= 0.0 and lp.seconds >= 0.0


@pytest.mark.parametrize("kwargs", [
    {"time_limit": -1.0}, {"time_limit": float("nan")},
    {"tolerance": -1.0}, {"tolerance": float("nan")},
])
def test_invalid_limits_raise(kwargs):
    with pytest.raises(ValueError, match="no_rows"):
        solver.solve(no_row_lp(), **kwargs)


@pytest.mark.parametrize("step", ["passOptions", "passModel", "run"])
def test_backend_error_names_the_spec(monkeypatch, step):
    real = solver._highs._Highs

    class Failing:
        def __init__(self):
            self._inner = real()

        def __getattr__(self, name):
            if name == step:
                return lambda *args: solver._highs.HighsStatus.kError
            return getattr(self._inner, name)

    monkeypatch.setattr(solver._highs, "_Highs", Failing)
    with pytest.raises(solver.SolverError, match=f"knapsack: HiGHS {step}"):
        solver.solve(max_knapsack())


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_model_data_raise(bad):
    m = no_row_lp()
    m.set_obj(0, bad)
    with pytest.raises(solver.SolverError, match="no_rows"):
        solver.solve(m)
    m = equality_lp()
    m.add_le({0: bad}, 1.0)
    with pytest.raises(solver.SolverError, match="equalities"):
        solver.solve(m)


def test_assembly_cache_honours_every_change(passes):
    m = solver.ModelSpec("cache")
    x = m.add_var("x", ub=10.0, obj=-1.0)
    y = m.add_var("y", ub=10.0, obj=-1.0)
    m.add_le({x: 1.0, y: 1.0}, 8.0)
    first = solver.solve(m)
    assert first.objective == pytest.approx(-8.0)
    assert m.assembled() is m.assembled()

    m.add_le({x: 1.0}, 2.0)              # a new row
    m.set_bounds(y, 0.0, 5.0)            # a tighter bound
    m.set_obj(x, -3.0)                   # a new cost
    second = solver.solve(m)
    assert outcome_fields(second) == reference_solve(m)
    assert second.objective == pytest.approx(-3.0 * 2.0 - 5.0)
    assert len(passes) == 2              # the new row passed the model whole
    z = m.add_var("z", ub=1.0, obj=-1.0)  # a new column joins the cached rows
    assert solver.solve(m).objective == pytest.approx(-6.0 - 5.0 - 1.0)
    assert len(passes) == 3              # so did the new column
    m.add_le({z: 1.0, y: 1.0}, 5.5)
    assert solver.solve(m).objective == pytest.approx(-6.0 - 5.0 - 0.5)
    assert len(passes) == 4


def test_missing_bindings_name_the_scipy_version():
    code = ("import sys; sys.modules['scipy.optimize._highspy._core'] = None\n"
            "import scipy\n"
            "try:\n"
            "    import gridmaint.solver\n"
            "except ImportError as exc:\n"
            "    assert scipy.__version__ in str(exc), exc\n"
            "    print('ok')\n")
    src = Path(solver.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


@pytest.mark.parametrize("missing", solver._HEURISTICS_OFF)
def test_import_check_names_a_missing_heuristic_option(missing):
    # the options class of a HiGHS that lacks one of the two heuristics
    stub = type("Options", (), {name: True for name in solver._HEURISTICS_OFF
                                if name != missing})
    with pytest.raises(ImportError, match=rf"{missing}.*SciPy {re.escape(scipy.__version__)}"):
        solver._require_options(stub)
    solver._require_options(solver._highs.HighsOptions)  # this SciPy has both


REUSE_SEQUENCE = [
    (max_knapsack, {}),
    (equality_lp, {}),
    (infeasible_lp, {}),
    (unbounded_lp, {}),
    (max_knapsack, {"time_limit": 0.0}),
    (max_knapsack, {}),
]


def full_outcome(res):
    return outcome_fields(res) + (res.nodes,)


def fresh_outcome(build, kwargs):
    """``build()`` solved on a HiGHS instance that has run nothing before."""
    solver._local.highs = None
    return full_outcome(solver.solve(build(), **kwargs))


def test_reused_instance_gives_fresh_instance_outcomes():
    fresh = [fresh_outcome(build, kwargs) for build, kwargs in REUSE_SEQUENCE]
    assert [out[0] for out in fresh] == ["optimal", "optimal", "infeasible", "error",
                                         "limit", "optimal"]
    solver._local.highs = None
    reused = []
    for build, kwargs in REUSE_SEQUENCE:
        started = time.perf_counter()
        res = solver.solve(build(), **kwargs)
        # seconds is this run's alone, though the instance's clock adds up
        assert 0.0 <= res.seconds <= time.perf_counter() - started
        reused.append(full_outcome(res))
    kept = solver._local.highs
    assert reused == fresh
    solver.solve(no_row_lp())
    assert solver._local.highs is kept  # one instance served every solve


def test_instance_that_failed_is_replaced(monkeypatch):
    built = []

    class FailsOnce(solver._highs._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

        def run(self):
            if len(built) == 1:
                return solver._highs.HighsStatus.kError
            return super().run()

    want = fresh_outcome(max_knapsack, {})
    monkeypatch.setattr(solver._highs, "_Highs", FailsOnce)
    with pytest.raises(solver.SolverError, match="knapsack: HiGHS run"):
        solver.solve(max_knapsack())
    assert full_outcome(solver.solve(max_knapsack())) == want
    assert len(built) == 2  # the failed instance was dropped, not reused


def test_threads_each_get_single_thread_outcomes():
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    want = [fresh_outcome(build, kwargs) for build, kwargs in REUSE_SEQUENCE]
    start = Barrier(3)

    def one_thread(_):
        start.wait(timeout=60)
        outcomes = [full_outcome(solver.solve(build(), **kwargs))
                    for build, kwargs in REUSE_SEQUENCE * 3]
        return outcomes, id(solver._local.highs)

    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(one_thread, range(3)))
    assert all(outcomes == want * 3 for outcomes, _ in results)
    assert len({highs for _, highs in results}) == 3


def covering_lp(seed=0, n=12, m=8):
    """A dense covering LP that presolve does not finish, so its simplex
    iterations show."""
    rng = np.random.default_rng(seed)
    spec = solver.ModelSpec("covering")
    xs = [spec.add_var(f"x{j}", ub=float(rng.uniform(2.0, 5.0)),
                       obj=float(rng.uniform(1.0, 3.0))) for j in range(n)]
    for _ in range(m):
        spec.add_ge({x: float(rng.uniform(0.5, 2.0)) for x in xs},
                    float(rng.uniform(5.0, 10.0)))
    return spec


@pytest.fixture
def passes(monkeypatch):
    """The models passed whole to this thread's HiGHS instance, which starts
    fresh and with no record (``reference_solve``'s instances are not counted)."""
    passed = []

    class Counting(solver._highs._Highs):
        def passModel(self, lp):
            if self is solver._local.highs:
                passed.append(lp)
            return super().passModel(lp)

    monkeypatch.setattr(solver._highs, "_Highs", Counting)
    solver._local.highs = None
    return passed


def assert_close(hot, fresh):
    assert hot.status == fresh.status == "optimal"
    assert abs(hot.objective - fresh.objective) <= 1e-9 * max(1.0, abs(fresh.objective))


def test_unchanged_lp_resolves_to_the_same_bits_in_no_iterations(passes):
    m = covering_lp()
    first = solver.solve(m)
    again = solver.solve(m)
    assert first.ok and first.iterations > 0
    assert full_outcome(again) == full_outcome(first)
    assert again.iterations == 0
    assert len(passes) == 1


def apply_cost(m):
    m.set_obj(3, 0.25)


def apply_bounds(m):
    m.set_bounds(5, 0.5, 1.0)
    m.set_bounds(0, 0.0, 0.0)


def apply_sense(m):
    m.sense = "max"


def test_each_hot_start_matches_a_cold_solve_of_a_fresh_copy(passes):
    m = covering_lp()
    assert solver.solve(m).ok
    changes = []
    for change in (apply_cost, apply_bounds, apply_sense):
        change(m)
        changes.append(change)
        hot = solver.solve(m)
        fresh = covering_lp()
        for done in changes:
            done(fresh)
        assert_close(hot, solver.solve(fresh))
        solver.solve(m)  # passed whole, as the fresh copy came in between
    assert len(passes) == 1 + 3 * 2  # no hot start passed the model


def test_infeasible_resolve_then_feasible_resolve(passes):
    m = covering_lp()
    want = solver.solve(m)
    saved = [(m._lb[j], m._ub[j]) for j in range(m.num_vars)]
    for j in range(m.num_vars):
        m.set_bounds(j, 0.0, 0.0)
    assert solver.solve(m).status == "infeasible"
    for j, (lb, ub) in enumerate(saved):
        m.set_bounds(j, lb, ub)
    assert_close(solver.solve(m), want)
    assert len(passes) == 2  # an LP that did not end optimal leaves no record


def test_another_spec_in_between_is_passed_whole(passes):
    m, other = covering_lp(0), covering_lp(1)
    first = solver.solve(m)
    solver.solve(other)
    again = solver.solve(m)
    assert len(passes) == 3
    assert full_outcome(again) == full_outcome(first)


def test_backend_error_drops_the_record(monkeypatch):
    failing = []

    class FailsOnDemand(solver._highs._Highs):
        def run(self):
            return solver._highs.HighsStatus.kError if failing else super().run()

    monkeypatch.setattr(solver._highs, "_Highs", FailsOnDemand)
    solver._local.highs = None
    m = covering_lp()
    first = solver.solve(m)
    failing.append(True)
    with pytest.raises(solver.SolverError, match="covering: HiGHS run"):
        solver.solve(m)
    assert solver._local.highs is None and solver._local.kept is None
    failing.clear()
    again = solver.solve(m)  # on a new instance, which is passed the model whole
    assert full_outcome(again) == full_outcome(first) and again.iterations > 0


def test_milp_solved_twice_matches_scipy_bit_for_bit(passes):
    m = max_knapsack()
    want = reference_solve(m)
    assert outcome_fields(solver.solve(m)) == want
    assert outcome_fields(solver.solve(m)) == want
    assert len(passes) == 2 and solver._local.kept is None


def test_threads_keep_separate_records():
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    both_solved = Barrier(2)

    def one_thread(seed):
        m = covering_lp(seed)
        first = solver.solve(m)
        both_solved.wait(timeout=60)  # the other thread's LP is solved by now
        again = solver.solve(m)
        return first, again, solver._local.kept.spec is m

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(one_thread, (0, 1)))
    for first, again, own in results:
        assert first.iterations > 0 and again.iterations == 0
        assert full_outcome(again) == full_outcome(first) and own


def highs_default_options(tolerance):
    """HiGHS's defaults, but for the options ``scipy.optimize.milp`` sets."""
    options = solver._highs.HighsOptions()
    options.log_to_console = False
    options.presolve = "on"
    options.mip_rel_gap = tolerance
    return options


def referee_milps():
    """Day MILPs of case9 over several down-sets, then toy masters as
    ``decomp.solve`` left them."""
    net = parse_case(CASE9, subperiods=24)
    cfg = RunConfig(horizon_days=2, subperiods=24)
    grid = synth_demand(net, cfg, seed=1)
    for day, down in [(1, ()), (1, ("g2",)), (2, ("l3",)), (2, ("g1", "l5")),
                      (1, ("g3", "l1", "l8"))]:
        yield ucmodel.build_subproblem(net, grid.day(day), frozenset(down), cfg).spec
    for seed in (7, 43):
        inst, scens = toy_instance(seed=seed, extra_candidate=True)
        masters = []
        real = solver.solve

        def spy(spec, *args, **kwargs):
            if spec.name == "master":
                masters.append(spec)
            return real(spec, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "solve", spy)
            decomp.solve(inst, scens, inst.cfg)
        yield masters[-1]  # one spec, grown by every cut of the run


def test_heuristics_off_reach_the_optima_of_highs_defaults(monkeypatch):
    tolerance = 1e-9
    for name in solver._HEURISTICS_OFF:  # on by default, off in solver.solve
        assert getattr(highs_default_options(tolerance), name) is True
        assert getattr(solver._untimed_options(tolerance), name) is False
    specs = list(referee_milps())
    assert all(any(spec._integer) for spec in specs)
    ours = [solver.solve(spec, tolerance=tolerance) for spec in specs]
    monkeypatch.setattr(solver, "_untimed_options", highs_default_options)
    for spec, got in zip(specs, ours):
        want = solver.solve(spec, tolerance=tolerance)
        assert got.status == want.status == "optimal", spec.name
        assert got.gap <= tolerance and want.gap <= tolerance, spec.name
        assert abs(got.objective - want.objective) \
            <= 1e-9 * max(1.0, abs(want.objective)), spec.name
