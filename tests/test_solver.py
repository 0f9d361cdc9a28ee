import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gridmaint import decomp, solver, ucmodel
from gridmaint.caseio import RunConfig, parse_case, synth_demand

from cases import CASE9, highs_calls, toy_instance


def test_min_bounded_variable():
    m = solver.ModelSpec()
    m.add_var(lb=3.0, obj=1.0)
    res = solver.solve(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)


def test_binary_knapsack():
    m = solver.ModelSpec()  # max 2a + 3b as min -2a - 3b
    a = m.add_binary(obj=-2.0)
    b = m.add_binary(obj=-3.0)
    m.add_le({a: 1.0, b: 1.0}, 1.0)
    res = solver.solve(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0)
    assert round(res.x[b]) == 1


def test_infeasible_status():
    m = solver.ModelSpec()
    x = m.add_var()
    m.add_le({x: 1.0}, 0.0)
    m.add_ge({x: 1.0}, 1.0)
    assert solver.solve(m).status == "infeasible"


def test_equality_row():
    m = solver.ModelSpec()
    x = m.add_var(lb=-10.0, obj=2.0)
    m.add_eq({x: 1.0}, 4.0)
    res = solver.solve(m)
    assert res.objective == pytest.approx(8.0)


def test_milp_gap_and_bound():
    m = solver.ModelSpec()
    xs = [m.add_binary(obj=-float(i)) for i in range(6)]
    m.add_le({x: 1.0 for x in xs}, 3.0)
    res = solver.solve(m, tolerance=1e-9)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-12.0)  # pick 5+4+3
    assert relative_gap(res) <= 1e-6
    assert res.bound <= res.objective + 1e-9


def test_crossed_row_bounds_name_the_spec_and_row():
    m = solver.ModelSpec("demo")
    x = m.add_var()
    m.add_le({x: 1.0}, 3.0)
    with pytest.raises(ValueError, match=r"demo: row 1 has lb 2.0 > ub 1.0"):
        m.add_row({x: 1.0}, lb=2.0, ub=1.0)
    assert m.num_rows == 1


def reference_solve(spec, tolerance=1e-9, time_limit=None):
    """``spec`` solved through ``scipy.optimize.milp``, which drives the same
    HiGHS.  For an LP its options are the same, so ``solver.solve`` must match
    it bit for bit; for a MILP ``solver.solve`` also turns two heuristics off
    (``solver._HEURISTICS_OFF``), and the models compared here still match.

    Returns ``(status, x bytes, objective, bound)`` under the status mapping
    of ``solver.solve``.
    """
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    integrality = np.array(spec._integer, dtype=np.uint8)
    options = {"presolve": True, "mip_rel_gap": tolerance}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    constraints = None
    if spec.num_rows:
        a = sp.csr_matrix((spec._value, spec._index, spec._start),
                          shape=(spec.num_rows, spec.num_vars))
        constraints = LinearConstraint(a, np.array(spec._row_lb), np.array(spec._row_ub))
    res = milp(np.array(spec._obj, dtype=float), constraints=constraints,
               integrality=integrality,
               bounds=Bounds(np.array(spec._lb, dtype=float),
                             np.array(spec._ub, dtype=float)),
               options=options)
    status = {0: "optimal", 1: "limit", 2: "infeasible"}.get(res.status, "error")
    if status in ("infeasible", "error") or res.x is None:
        return status, None, None, None
    objective = float(res.fun)
    if integrality.any():
        return status, res.x.tobytes(), objective, float(res.mip_dual_bound)
    return status, res.x.tobytes(), objective, objective


def outcome_fields(res):
    return (res.status, None if res.x is None else res.x.tobytes(),
            res.objective, res.bound)


def relative_gap(res):
    """The gap HiGHS closes to ``mip_rel_gap``: objective minus bound over
    the objective's magnitude."""
    return (res.objective - res.bound) / abs(res.objective)


def no_row_lp():
    m = solver.ModelSpec("no_rows")
    m.add_var(lb=-2.5, ub=4.0, obj=1.5)
    m.add_var(lb=1.0, ub=3.0, obj=-2.0)
    return m


def equality_lp():
    m = solver.ModelSpec("equalities")
    x = m.add_var(lb=-10.0, obj=2.0)
    y = m.add_var(obj=3.0)
    z = m.add_var(ub=7.0, obj=-1.0)
    m.add_eq({x: 1.0, y: 2.0}, 4.0)
    m.add_eq({y: 1.0, z: -1.0}, -1.5)
    m.add_row({x: 1.0, z: 1.0}, lb=-3.0, ub=9.0)
    return m


def max_knapsack(n=24):
    # a maximum knapsack, minimising the negated value
    m = solver.ModelSpec("knapsack")
    xs = [m.add_binary(obj=-(float(i % 7 + 1) + 0.1 * i)) for i in range(n)]
    w = m.add_var(ub=3.5, obj=-0.75)
    m.add_le({**{x: float(i % 5 + 2) for i, x in enumerate(xs)}, w: 1.0}, 23.0)
    m.add_le({xs[0]: 1.0, xs[1]: 1.0}, 1.0)
    return m


def descending_lp():
    # rows list their columns in descending order, one with an explicit zero
    m = solver.ModelSpec("descending")
    x, y, z = (m.add_var(ub=6.0, obj=c) for c in (-2.0, -1.0, -1.5))
    m.add_le({z: 1.0, y: 0.0, x: 2.0}, 9.0)
    m.add_le({z: 2.0, y: 1.0, x: 1.0}, 10.0)
    m.add_row({z: 1.0, x: -1.0}, lb=-4.0, ub=1.0)
    return m


def infeasible_lp():
    m = solver.ModelSpec("infeasible")
    x = m.add_var()
    m.add_le({x: 1.0}, 0.0)
    m.add_ge({x: 1.0}, 1.0)
    return m


def unbounded_lp():
    m = solver.ModelSpec("unbounded")  # max x as min -x
    x = m.add_var(obj=-1.0)
    y = m.add_var()
    m.add_ge({x: 1.0, y: -1.0}, 0.0)
    return m


def covering_lp(seed=0, n=12, m=8):
    """A dense covering LP that presolve does not finish, so its simplex
    iterations show."""
    rng = np.random.default_rng(seed)
    spec = solver.ModelSpec("covering")
    xs = [spec.add_var(ub=float(rng.uniform(2.0, 5.0)),
                       obj=float(rng.uniform(1.0, 3.0))) for _ in range(n)]
    for _ in range(m):
        spec.add_ge({x: float(rng.uniform(0.5, 2.0)) for x in xs},
                    float(rng.uniform(5.0, 10.0)))
    return spec


@pytest.mark.parametrize("build, kwargs, status", [
    (no_row_lp, {}, "optimal"),
    (equality_lp, {}, "optimal"),
    (max_knapsack, {}, "optimal"),
    (max_knapsack, {"tolerance": 0.05}, "optimal"),
    (infeasible_lp, {}, "infeasible"),
    (unbounded_lp, {}, "error"),
    (max_knapsack, {"time_limit": 0.0}, "limit"),
    (descending_lp, {}, "optimal"),
])
def test_outcome_matches_scipy_milp_bit_for_bit(build, kwargs, status):
    got = outcome_fields(solver.solve(build(), **kwargs))
    assert got == reference_solve(build(), **kwargs)
    assert got[0] == status


def test_outcome_reports_nodes_and_iterations():
    mip = solver.solve(max_knapsack())
    lp = solver.solve(covering_lp())  # presolve alone does not solve it
    assert mip.status == "optimal" and lp.status == "optimal"
    assert mip.mip_node_count >= 1 and lp.mip_node_count == 0
    assert mip.iterations == 0 and lp.iterations >= 1


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

    monkeypatch.setattr(solver._highs, "_Highs", Failing)  # the new spec's instance
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


def test_added_rows_and_columns_pass_the_model_whole(calls):
    m = solver.ModelSpec("grown")
    x = m.add_var(ub=10.0, obj=-1.0)
    y = m.add_var(ub=10.0, obj=-1.0)
    m.add_le({x: 1.0, y: 1.0}, 8.0)
    first = solver.solve(m)
    assert first.objective == pytest.approx(-8.0)

    m.add_le({x: 1.0}, 2.0)              # a new row
    m.set_bounds(y, 0.0, 5.0)            # a tighter bound
    m.set_obj(x, -3.0)                   # a new cost
    second = solver.solve(m)
    assert outcome_fields(second) == reference_solve(m)
    assert second.objective == pytest.approx(-3.0 * 2.0 - 5.0)
    assert passes(calls, m) == 2         # the new row passed the model whole
    z = m.add_var(ub=1.0, obj=-1.0)      # a new column
    assert solver.solve(m).objective == pytest.approx(-6.0 - 5.0 - 1.0)
    assert passes(calls, m) == 3         # so did the new column
    m.add_le({z: 1.0, y: 1.0}, 5.5)
    assert solver.solve(m).objective == pytest.approx(-6.0 - 5.0 - 0.5)
    assert passes(calls, m) == 4


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
    return outcome_fields(res) + (res.mip_node_count,)


def fresh_outcome(build, kwargs):
    """``build()`` solved once, so on a HiGHS instance that has run nothing
    before."""
    return full_outcome(solver.solve(build(), **kwargs))


def sequence_on_own_specs(rounds):
    """``REUSE_SEQUENCE`` solved ``rounds`` times over, every solve of one
    builder on the one spec it built; returns the outcomes and the specs."""
    specs = {build: build() for build, _ in REUSE_SEQUENCE}
    outcomes = []
    for build, kwargs in REUSE_SEQUENCE * rounds:
        outcomes.append(full_outcome(solver.solve(specs[build], **kwargs)))
    return outcomes, list(specs.values())


def test_reused_instance_gives_fresh_instance_outcomes():
    fresh = [fresh_outcome(build, kwargs) for build, kwargs in REUSE_SEQUENCE]
    assert [out[0] for out in fresh] == ["optimal", "optimal", "infeasible", "error",
                                         "limit", "optimal"]
    reused, specs = sequence_on_own_specs(rounds=1)
    kept = [spec._highs for spec in specs]
    assert reused == fresh
    assert sequence_on_own_specs(rounds=2)[0] == fresh * 2
    for spec in specs:
        solver.solve(spec)
    # one instance per spec served every solve of it
    assert [spec._highs for spec in specs] == kept
    assert len(set(map(id, kept))) == len(specs)


@pytest.mark.parametrize("build", [covering_lp, max_knapsack])
def test_a_failure_stays_with_its_spec(monkeypatch, build):
    failing = []

    class FailsOnDemand(solver._highs._Highs):
        def run(self):
            return solver._highs.HighsStatus.kError if failing else super().run()

    monkeypatch.setattr(solver._highs, "_Highs", FailsOnDemand)
    a, b = build(), covering_lp(1)
    with highs_calls() as calls:
        first, b_first = solver.solve(a), solver.solve(b)
        failed = a._highs
        cost = a._obj[0]
        a.set_obj(0, cost + 1.0)         # a change, so that an LP re-solve runs
        failing.append(True)
        with pytest.raises(solver.SolverError, match=f"{a.name}: HiGHS run"):
            solver.solve(a)
        assert a._highs is None and a._last is None
        b_again = solver.solve(b)        # B's kept LP: no run, so no failure
        assert full_outcome(b_again) == full_outcome(b_first)
        assert b_again.iterations == 0 and runs(calls, b) == 1
        failing.clear()
        a.set_obj(0, cost)
        again = solver.solve(a)          # a new instance, passed the model whole
    assert a._highs is not failed and passes(calls, a) == runs(calls, a) == 1
    assert full_outcome(again) == full_outcome(first)


def test_threads_each_get_single_thread_outcomes():
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    want = [fresh_outcome(build, kwargs) for build, kwargs in REUSE_SEQUENCE]
    start = Barrier(3)

    def one_thread(_):
        start.wait(timeout=60)
        outcomes, specs = sequence_on_own_specs(rounds=3)
        return outcomes, [spec._highs for spec in specs]

    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(one_thread, range(3)))
    assert all(outcomes == want * 3 for outcomes, _ in results)
    # one instance per spec, none shared between threads
    instances = [highs for _, kept in results for highs in kept]
    assert len(set(map(id, instances))) == len(instances) == 3 * 4


@pytest.fixture
def calls():
    """The calls HiGHS instances get (see ``cases.highs_calls``)."""
    with highs_calls() as recorded:
        yield recorded


def of(calls, spec):
    """The calls made on ``spec``'s instance, without the instance."""
    return [call[1:] for call in calls if call[0] is spec._highs]


def passes(calls, spec):
    return sum(call[0] == "passModel" for call in of(calls, spec))


def runs(calls, spec=None):
    return sum(call[1] == "run" and (spec is None or call[0] is spec._highs)
               for call in calls)


def column_changes(calls):
    """``("cost", columns, costs)`` and ``("bounds", columns, lbs, ubs)``, in
    call order."""
    kinds = {"changeColsCost": "cost", "changeColsBounds": "bounds"}
    return [(kinds[name], *args[1:]) for _, name, *args in calls if name in kinds]


def assert_close(hot, fresh):
    assert hot.status == fresh.status == "optimal"
    assert abs(hot.objective - fresh.objective) <= 1e-9 * max(1.0, abs(fresh.objective))


def test_unchanged_lp_resolves_to_the_same_bits_in_no_iterations(calls):
    m = covering_lp()
    first = solver.solve(m)
    again = solver.solve(m)              # the kept answer, with no run
    assert first.status == "optimal" and first.iterations > 0
    assert full_outcome(again) == full_outcome(first)
    assert again.iterations == 0
    assert full_outcome(solver.solve(m)) == full_outcome(first)
    assert runs(calls) == 1              # the record is kept for the next one
    # a run on the instance that holds the LP gives the same bits in no iteration
    highs = m._highs
    assert highs.run() == solver._highs.HighsStatus.kOk
    assert highs.getInfoValue("simplex_iteration_count")[1] == 0
    assert highs.getObjectiveValue() == again.objective
    assert np.array(highs.getSolution().col_value).tobytes() == again.x.tobytes()


def apply_cost(m):
    m.set_obj(3, 0.25)


def apply_bounds(m):
    m.set_bounds(5, 0.5, 1.0)
    m.set_bounds(0, 0.0, 0.0)


def test_each_hot_start_matches_a_cold_solve_of_a_fresh_copy(calls):
    m = covering_lp()
    assert solver.solve(m).status == "optimal"
    changes = []
    for change in (apply_cost, apply_bounds):
        change(m)
        changes.append(change)
        hot = solver.solve(m)
        fresh = covering_lp()
        for done in changes:
            done(fresh)
        assert_close(hot, solver.solve(fresh))
    assert passes(calls, m) == 1  # no hot start passed the model


def test_infeasible_resolve_then_feasible_resolve(calls):
    m = covering_lp()
    want = solver.solve(m)
    saved = [(m._lb[j], m._ub[j]) for j in range(m.num_vars)]
    for j in range(m.num_vars):
        m.set_bounds(j, 0.0, 0.0)
    assert solver.solve(m).status == "infeasible"
    for j, (lb, ub) in enumerate(saved):
        m.set_bounds(j, lb, ub)
    assert_close(solver.solve(m), want)
    assert passes(calls, m) == 2  # an LP that did not end optimal leaves no record


def test_another_spec_in_between_is_passed_whole(calls):
    """The spec solved in between is passed whole to an instance of its own;
    it sends nothing to the first spec's, which still holds that LP."""
    m, other = covering_lp(0), covering_lp(1)
    first = solver.solve(m)
    before = len(of(calls, m))
    solver.solve(other)
    assert passes(calls, other) == 1 and len(of(calls, m)) == before
    again = solver.solve(m)
    assert passes(calls, m) == 1
    assert full_outcome(again) == full_outcome(first)


def test_interleaved_specs_stay_warm(calls):
    a, b = covering_lp(0), covering_lp(1)
    first = solver.solve(a)
    solver.solve(b)
    again = solver.solve(a)              # B came in between: A's LP is still held
    assert runs(calls, a) == runs(calls, b) == 1
    assert full_outcome(again) == full_outcome(first) and again.iterations == 0
    apply_cost(a)
    hot = solver.solve(a)
    assert passes(calls, a) == 1 and runs(calls, a) == 2
    fresh = covering_lp(0)
    apply_cost(fresh)
    assert_close(hot, solver.solve(fresh))


def test_milp_solved_twice_matches_scipy_bit_for_bit(calls):
    m = max_knapsack()
    want = reference_solve(m)
    assert outcome_fields(solver.solve(m)) == want
    assert outcome_fields(solver.solve(m)) == want
    assert passes(calls, m) == 2 and m._last is None


def test_threads_keep_separate_records():
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    both_solved = Barrier(2)

    def one_thread(seed):
        m = covering_lp(seed)
        first = solver.solve(m)
        both_solved.wait(timeout=60)  # the other thread's LP is solved by now
        again = solver.solve(m)
        return first, again, m._last is first, m._highs

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(one_thread, (0, 1)))
    for first, again, own, _ in results:
        assert first.iterations > 0 and again.iterations == 0
        assert full_outcome(again) == full_outcome(first) and own
    assert results[0][-1] is not results[1][-1]  # one instance per spec


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
        assert relative_gap(got) <= tolerance and relative_gap(want) <= tolerance, \
            spec.name
        assert abs(got.objective - want.objective) \
            <= 1e-9 * max(1.0, abs(want.objective)), spec.name


def test_warm_resolve_sends_only_the_columns_that_changed(calls):
    m = covering_lp()
    assert solver.solve(m).status == "optimal"
    m.set_obj(3, 0.25)
    m.set_obj(7, m._obj[7])              # set to the value it has
    m.set_bounds(5, 0.5, 1.0)
    m.set_bounds(1, m._lb[1], m._ub[1])  # likewise
    m.set_bounds(9, 0.0, 1.0)
    hot = solver.solve(m)
    assert column_changes(calls) == [("cost", [3], [0.25]),
                                     ("bounds", [5, 9], [0.5, 0.0], [1.0, 1.0])]
    fresh = covering_lp()
    apply_cost(fresh)
    fresh.set_bounds(5, 0.5, 1.0)
    fresh.set_bounds(9, 0.0, 1.0)
    assert_close(hot, solver.solve(fresh))


def test_a_column_set_and_set_back_sends_nothing(calls):
    m = covering_lp()
    first = solver.solve(m)
    cost, lb, ub = m._obj[2], m._lb[4], m._ub[4]
    m.set_obj(2, 9.0)
    m.set_obj(2, cost)
    m.set_bounds(4, 0.0, 0.0)
    m.set_bounds(4, lb, ub)
    again = solver.solve(m)
    assert column_changes(calls) == [] and runs(calls) == 1
    assert full_outcome(again) == full_outcome(first) and again.iterations == 0


def timed_resolves():
    m = covering_lp()
    solver.solve(m)
    solver.solve(m, time_limit=10.0)     # fresh options each time
    solver.solve(m, time_limit=10.0)
    return 3


def milp_solved_twice():
    m = max_knapsack()
    solver.solve(m)
    solver.solve(m)
    return 2


def lp_that_ended_infeasible():
    m = covering_lp()
    for j in range(m.num_vars):
        m.set_bounds(j, 0.0, 0.0)
    assert solver.solve(m).status == "infeasible"
    assert solver.solve(m).status == "infeasible"
    return 2


def another_spec_in_between():
    m = covering_lp(0)
    solver.solve(m)
    solver.solve(covering_lp(1))
    solver.solve(m)                      # m's instance still holds its LP
    return 2


def another_thread_in_between():
    from concurrent.futures import ThreadPoolExecutor

    m = covering_lp()
    solver.solve(m)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # the instance goes along
        assert pool.submit(solver.solve, m).result().status == "optimal"
    solver.solve(m)
    return 1


@pytest.mark.parametrize("solves", [timed_resolves, milp_solved_twice,
                                    lp_that_ended_infeasible, another_spec_in_between,
                                    another_thread_in_between])
def test_a_resolve_runs_unless_the_instance_holds_the_lp_solved(calls, solves):
    made = solves()
    assert runs(calls) == made  # the solves that HiGHS had to run


def test_changes_before_the_last_solve_are_not_sent_again(calls):
    m = covering_lp()
    solver.solve(m)
    m.set_obj(3, 0.25)
    solver.solve(m)
    m.set_bounds(5, 0.5, 1.0)
    solver.solve(m)
    assert column_changes(calls) == [("cost", [3], [0.25]),
                                     ("bounds", [5], [0.5], [1.0])]


def test_a_spec_solved_on_another_thread_resolves_warm(calls):
    from concurrent.futures import ThreadPoolExecutor

    m = covering_lp()
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(solver.solve, m).result().status == "optimal"
    m.set_obj(3, 0.25)
    m.set_bounds(5, 0.5, 1.0)
    hot = solver.solve(m)                # on this thread, from the kept basis
    assert passes(calls, m) == 1 and runs(calls, m) == 2
    assert column_changes(calls) == [("cost", [3], [0.25]),
                                     ("bounds", [5], [0.5], [1.0])]
    fresh = covering_lp()
    apply_cost(fresh)
    fresh.set_bounds(5, 0.5, 1.0)
    assert_close(hot, solver.solve(fresh))


def test_a_solve_on_another_thread_in_between_passes_the_model_whole(calls):
    """Another spec solved on a pool thread in between is passed whole to its
    own instance; the spec solved here is left alone and re-solves warm."""
    from concurrent.futures import ThreadPoolExecutor

    m, other = covering_lp(0), covering_lp(1)
    solver.solve(m)
    before = len(of(calls, m))
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(solver.solve, other).result().status == "optimal"
    assert passes(calls, other) == runs(calls, other) == 1
    assert other._highs is not m._highs and len(of(calls, m)) == before
    m.set_bounds(5, 0.5, 1.0)
    hot = solver.solve(m)
    assert passes(calls, m) == 1 and runs(calls, m) == 2
    fresh = covering_lp(0)
    fresh.set_bounds(5, 0.5, 1.0)
    assert_close(hot, solver.solve(fresh))


def test_options_are_passed_once_per_instance_and_object(calls):
    m = covering_lp()
    for _ in range(3):
        solver.solve(m)
    k = max_knapsack()
    solver.solve(k)                      # its own instance is passed them too
    solver.solve(m, tolerance=1e-6)      # other options
    solver.solve(m, time_limit=10.0)     # built fresh: always passed
    solver.solve(m, time_limit=10.0)
    solver.solve(m)
    passed = [call[1] for call in of(calls, m) if call[0] == "passOptions"]
    untimed = solver._untimed_options(1e-9)
    assert passed[0] is untimed and passed[1] is solver._untimed_options(1e-6)
    assert len(passed) == 5 and passed[-1] is untimed
    assert passed[2] is not passed[3]
    assert passed[2].time_limit == passed[3].time_limit == 10.0
    assert [call[1] for call in of(calls, k) if call[0] == "passOptions"] == [untimed]


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_cost_set_after_an_optimal_solve_raises(bad, calls):
    m = covering_lp()
    want = solver.solve(m)
    m.set_obj(4, bad)
    with pytest.raises(solver.SolverError,
                       match="covering: objective coefficients must be finite"):
        solver.solve(m)
    assert passes(calls, m) == 1         # raised on the warm path
    m.set_obj(4, covering_lp()._obj[4])
    again = solver.solve(m)              # no record left: passed whole
    assert passes(calls, m) == 2 and full_outcome(again) == full_outcome(want)


@pytest.mark.parametrize("build", [covering_lp, max_knapsack])
def test_x_read_after_other_solves_has_the_bytes_read_at_once(build):
    at_once = solver.solve(build()).x.tobytes()
    spec = build()
    late = solver.solve(spec)
    spec.set_obj(0, spec._obj[0] + 1.0)
    solver.solve(spec)                   # the spec's instance moves on
    solver.solve(max_knapsack(n=12))
    assert late.x.tobytes() == at_once
    assert late.x is late.x              # converted once


@pytest.mark.parametrize("build, status", [(infeasible_lp, "infeasible"),
                                           (unbounded_lp, "error")])
def test_x_is_none_without_a_solution(build, status):
    res = solver.solve(build())
    assert res.status == status and res.x is None and res.solution is None
