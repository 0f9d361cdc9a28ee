"""Narrow LP/MILP backend abstraction.

All optimization modules describe models through :class:`ModelSpec` and call
:func:`solve`.  The single in-process backend is HiGHS, driven through the
bindings SciPy bundles (``scipy.optimize._highspy._core``); pure LPs go
through the same call.

Every solve gets the options ``scipy.optimize.milp`` sets plus two that
differ from HiGHS's defaults: the root reduced-cost sub-MIP and feasibility
jump, two primal heuristics, are off.  The day and master MILPs close at the
root node, where those two took most of the time without finding the
optimum; off, a MILP takes about half the HiGHS time for the same optimum
(measured in :func:`_options`).  Both options are checked at import.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sp

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # the bindings are private to SciPy and moved once
    raise ImportError(
        "gridmaint drives HiGHS through scipy.optimize._highspy._core, which "
        f"SciPy ships from 1.15 on; found SciPy {scipy.__version__}") from exc

log = logging.getLogger(__name__)

INF = float("inf")

# HiGHS MIP heuristics every solve turns off (see _options)
_HEURISTICS_OFF = ("mip_heuristic_run_root_reduced_cost",
                   "mip_heuristic_run_feasibility_jump")


def _require_options(options_class) -> None:
    """Raise ``ImportError`` unless ``options_class()`` has every option in
    ``_HEURISTICS_OFF``, so that a SciPy whose HiGHS lacks one fails at
    import rather than with an ``AttributeError`` inside every solve."""
    options = options_class()
    for name in _HEURISTICS_OFF:
        if not hasattr(options, name):
            raise ImportError(
                f"gridmaint sets the HiGHS option {name}, which the HiGHS "
                f"bundled with SciPy {scipy.__version__} lacks")


_require_options(_highs.HighsOptions)


class SolverError(RuntimeError):
    """The backend failed outright (not plain infeasibility)."""


@dataclass
class SolveOutcome:
    status: str  # "optimal" | "infeasible" | "limit" | "error"
    x: np.ndarray | None
    objective: float | None
    bound: float | None  # proven bound on the optimum (== objective for LPs)
    gap: float
    seconds: float  # HiGHS run time
    nodes: int      # branch-and-bound nodes; 0 for an LP
    iterations: int = 0  # simplex iterations; 0 for a MILP

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class ModelSpec:
    """Incrementally built sparse LP/MILP description.

    Variables are referenced by the integer index returned from
    :meth:`add_var`.  Rows are two-sided: ``lb <= a.x <= ub``.  The assembled
    matrix and row bounds are kept until a row or variable is added; costs and
    variable bounds are read by every solve, and a solve that re-solves the
    LP its thread last solved to optimality sends HiGHS only the ones that
    changed (see :func:`milp`).
    """

    def __init__(self, name: str = "model", sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        self.name = name
        self.sense = sense
        self.obj_offset = 0.0
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._obj: list[float] = []
        self._var_names: list[str] = []
        # each row: (coeffs dict var->coef, lb, ub)
        self._rows: list[tuple[dict[int, float], float, float]] = []
        self._assembled: tuple[list, ...] | None = None

    # -- variables ---------------------------------------------------------

    def add_var(self, name: str | None = None, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, integer: bool = False) -> int:
        idx = len(self._lb)
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(integer)
        self._obj.append(obj)
        self._var_names.append(name if name is not None else f"x{idx}")
        self._assembled = None
        return idx

    def add_binary(self, name: str | None = None, obj: float = 0.0) -> int:
        return self.add_var(name, lb=0.0, ub=1.0, obj=obj, integer=True)

    def set_obj(self, var: int, coef: float) -> None:
        self._obj[var] = coef

    def set_bounds(self, var: int, lb: float, ub: float) -> None:
        self._lb[var] = lb
        self._ub[var] = ub

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    # -- rows --------------------------------------------------------------

    def add_row(self, coeffs: dict[int, float], lb: float = -INF,
                ub: float = INF) -> int:
        idx = len(self._rows)
        if lb > ub:
            raise ValueError(f"{self.name}: row {idx} has lb {lb} > ub {ub}")
        self._rows.append((dict(coeffs), lb, ub))
        self._assembled = None
        return idx

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> int:
        return self.add_row(coeffs, rhs, rhs)

    def add_le(self, coeffs: dict[int, float], rhs: float) -> int:
        return self.add_row(coeffs, -INF, rhs)

    def add_ge(self, coeffs: dict[int, float], rhs: float) -> int:
        return self.add_row(coeffs, rhs, INF)

    # -- assembly ----------------------------------------------------------

    def assembled(self) -> tuple[list, ...]:
        """The rows as CSC ``indptr``, ``indices`` and ``data``, then row ``lb``
        and ``ub``, all as lists (the form the HiGHS bindings copy fastest)."""
        if self._assembled is None:
            data, ri, ci = [], [], []
            for r, (coeffs, _, _) in enumerate(self._rows):
                for var, coef in coeffs.items():
                    if coef != 0.0:
                        ri.append(r)
                        ci.append(var)
                        data.append(coef)
            a = sp.csc_matrix((np.array(data, dtype=float), (ri, ci)),
                              shape=(len(self._rows), self.num_vars))
            if not np.isfinite(a.data).all():
                raise SolverError(f"{self.name}: constraint coefficients must be finite")
            self._assembled = (a.indptr.tolist(), a.indices.tolist(), a.data.tolist(),
                               [float(row[1]) for row in self._rows],
                               [float(row[2]) for row in self._rows])
        return self._assembled


@dataclass
class HighsRun:
    """One HiGHS run, in the minimisation sense it was handed."""
    status: str
    x: np.ndarray | None          # None unless a solution may be read
    fun: float | None
    mip_dual_bound: float | None  # None for an LP
    mip_gap: float | None
    mip_node_count: int
    seconds: float
    simplex_iteration_count: int  # 0 for a MIP


@dataclass
class _Kept:
    """The LP a thread's HiGHS instance holds with an optimal basis: its spec,
    the ``assembled()`` rows it was passed, and the costs and column bounds
    last sent."""
    spec: ModelSpec
    rows: tuple[list, ...]
    cost: list[float]
    lb: list[float]
    ub: list[float]


_MODEL_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kTimeLimit: "limit",
    _highs.HighsModelStatus.kIterationLimit: "limit",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
}


# one HiGHS instance per thread, reused by every solve on that thread, and
# the _Kept record of the LP it holds (None when it holds none to re-solve)
_local = threading.local()


def _thread_highs() -> _highs._Highs:
    """This thread's HiGHS instance; a new one, with no record, when none is
    kept or when ``_highs._Highs`` is no longer the class that built the kept
    one."""
    highs = getattr(_local, "highs", None)
    if type(highs) is not _highs._Highs:
        highs = _local.highs = _highs._Highs()
        _local.kept = None
    return highs


def _check(spec: ModelSpec, step: str, status) -> None:
    if status == _highs.HighsStatus.kError:
        _local.highs = None  # an instance that failed is not reused
        raise SolverError(f"{spec.name}: HiGHS {step} returned kError")


def _options(tolerance: float, time_limit: float | None) -> _highs.HighsOptions:
    """The options ``scipy.optimize.milp`` sets (no console log, presolve on,
    relative MIP gap ``tolerance``, the time limit when given), with the two
    MIP heuristics of ``_HEURISTICS_OFF`` off.

    Those two, the root reduced-cost sub-MIP and feasibility jump, are the
    only options that differ from ``scipy.optimize.milp``'s defaults.  The
    day and master MILPs close at the root, where root cuts and the other
    heuristics find the optimum and these two took most of the time.  Off,
    the 21 day MILPs of the case9 evaluate benchmark took 0.52-0.66 s of
    HiGHS time instead of 1.32-1.59 s (5 interleaved runs on a 2-vCPU VM),
    in one node each, and 10 of their 21 objectives were bit-equal, the
    rest within 1.2e-15 relative.  The search stays exact (gap within
    ``tolerance``).  LPs ignore MIP options.
    """
    options = _highs.HighsOptions()
    options.log_to_console = False
    options.presolve = "on"
    options.mip_rel_gap = tolerance
    for name in _HEURISTICS_OFF:
        setattr(options, name, False)
    if time_limit is not None:
        options.time_limit = time_limit
    return options


# HiGHS copies the options it is passed, so one object per tolerance serves
# every untimed solve; time-limited options are built fresh to keep this small
_untimed_options = functools.lru_cache(maxsize=16)(
    lambda tolerance: _options(tolerance, None))


def _pass_lp(highs: _highs._Highs, spec: ModelSpec, cost: list[float],
             rows: tuple[list, ...], is_mip: bool) -> None:
    """Pass the whole model, replacing whatever ``highs`` held."""
    indptr, indices, data, row_lb, row_ub = rows
    n = spec.num_vars
    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = spec.num_rows
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = spec.num_rows
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    lp.col_cost_ = cost
    lp.col_lower_ = spec._lb
    lp.col_upper_ = spec._ub
    lp.row_lower_ = row_lb
    lp.row_upper_ = row_ub
    if is_mip:
        lp.integrality_ = [_highs.HighsVarType.kInteger if integer
                           else _highs.HighsVarType.kContinuous
                           for integer in spec._integer]
    _check(spec, "passModel", highs.passModel(lp))


def _push_changes(highs: _highs._Highs, spec: ModelSpec, cost: list[float],
                  kept: _Kept) -> None:
    """Send ``highs``, which holds ``kept``, only the columns whose cost or
    bounds differ from what ``kept`` last sent."""
    if cost != kept.cost:
        new = np.array(cost)
        cols = np.flatnonzero(new != kept.cost).astype(np.int32)
        _check(spec, "changeColsCost",
               highs.changeColsCost(len(cols), cols, new[cols]))
    if spec._lb != kept.lb or spec._ub != kept.ub:
        lb, ub = np.array(spec._lb), np.array(spec._ub)
        cols = np.flatnonzero((lb != kept.lb) | (ub != kept.ub)).astype(np.int32)
        _check(spec, "changeColsBounds",
               highs.changeColsBounds(len(cols), cols, lb[cols], ub[cols]))


def milp(spec: ModelSpec, cost: list[float], rows: tuple[list, ...],
         tolerance: float, time_limit: float | None) -> HighsRun:
    """Minimise ``cost . x`` over ``rows`` (``spec.assembled()``) and the
    variable bounds of ``spec``.

    Each call passes the options ``scipy.optimize.milp`` sets, with the
    root reduced-cost sub-MIP and feasibility jump heuristics off (see
    :func:`_options`), to this thread's HiGHS instance.  An LP solved again
    on the same spec, with the same ``rows`` object, right after its last
    solve on this thread ended optimal starts from the basis HiGHS kept:
    only the costs and column bounds that changed are sent, and HiGHS skips
    presolve and runs dual simplex from that basis.  Everything else (a
    MILP, a first solve, another spec in between, an added row or column)
    is passed whole, replacing whatever an earlier solve left: an LP gets
    the answer ``scipy.optimize.milp`` gives, a MILP the same optimum within
    the gap, whose objective may differ from ``scipy.optimize.milp``'s by
    round-off.  An instance that returned
    ``kError`` is dropped, not reused.  HiGHS runs its MIP search serially,
    which keeps results deterministic.
    """
    is_mip = any(spec._integer)
    options = _untimed_options(tolerance) if time_limit is None \
        else _options(tolerance, time_limit)
    highs = _thread_highs()
    # taken now, so that a failure leaves no record; kept again if this run
    # ends optimal
    kept, _local.kept = _local.kept, None
    clock = highs.getRunTime()  # the instance's run clock adds up over its runs
    _check(spec, "passOptions", highs.passOptions(options))
    if kept is not None and kept.spec is spec and kept.rows is rows:
        _push_changes(highs, spec, cost, kept)
    else:
        _pass_lp(highs, spec, cost, rows, is_mip)
    _check(spec, "run", highs.run())

    status = _MODEL_STATUS.get(highs.getModelStatus(), "error")
    info = highs.getInfo()
    nodes = info.mip_node_count if is_mip else 0
    iterations = 0 if is_mip else info.simplex_iteration_count
    seconds = highs.getRunTime() - clock
    if status == "optimal" and not is_mip:
        _local.kept = _Kept(spec, rows, list(cost), list(spec._lb), list(spec._ub))
    # an LP solution is read only at optimality; a MIP stopped at a limit
    # keeps its incumbent when it found one
    readable = status == "optimal" or (
        is_mip and status == "limit"
        and info.objective_function_value != _highs.kHighsInf)
    if not readable:
        return HighsRun(status, None, None, None, None, nodes, seconds, iterations)
    return HighsRun(status, np.array(highs.getSolution().col_value),
                    info.objective_function_value,
                    info.mip_dual_bound if is_mip else None,
                    info.mip_gap if is_mip else None, nodes, seconds, iterations)


def solve(spec: ModelSpec, tolerance: float = 1e-9,
          time_limit: float | None = None) -> SolveOutcome:
    """Solve a spec to the requested relative gap within ``time_limit`` seconds."""
    if not tolerance >= 0.0:
        raise ValueError(f"{spec.name}: tolerance must be >= 0, got {tolerance!r}")
    if time_limit is not None and not time_limit >= 0.0:
        raise ValueError(f"{spec.name}: time_limit must be >= 0, got {time_limit!r}")
    sign = 1.0 if spec.sense == "min" else -1.0
    cost = spec._obj if sign > 0 else [-c for c in spec._obj]
    if not all(map(math.isfinite, cost)):
        raise SolverError(f"{spec.name}: objective coefficients must be finite")
    # assembled here, outside milp, so that time spent in milp is HiGHS's
    run = milp(spec, cost, spec.assembled(), float(tolerance),
               None if time_limit is None else float(time_limit))

    if run.x is None:
        return SolveOutcome(run.status, None, None, None, INF, run.seconds,
                            run.mip_node_count, run.simplex_iteration_count)
    objective = sign * run.fun + spec.obj_offset
    if run.mip_dual_bound is None:
        bound, gap = objective, 0.0
    else:
        bound = sign * run.mip_dual_bound + spec.obj_offset
        gap = run.mip_gap
    return SolveOutcome(run.status, run.x, objective, bound, gap, run.seconds,
                        run.mip_node_count, run.simplex_iteration_count)
