import pytest

from gridmaint import solver


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


def test_lp_export_round_shape():
    m = solver.ModelSpec("demo")
    x = m.add_var("x", ub=5.0, obj=1.0)
    y = m.add_binary("y", obj=2.0)
    m.add_row({x: 1.0, y: -2.0}, lb=0.0, ub=3.0)
    text = solver.write_lp(m)
    assert "Minimize" in text and "General" in text
    assert "x" in text and "y" in text
