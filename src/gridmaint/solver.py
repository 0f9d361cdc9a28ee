"""Narrow LP/MILP backend abstraction.

All optimization modules describe models through :class:`ModelSpec` and call
:func:`solve`.  Every model is a minimisation; a caller that wants a maximum
minimises the negated objective.  The single in-process backend is HiGHS,
driven through the bindings SciPy bundles (``scipy.optimize._highspy._core``);
pure LPs go through the same call.  A warm LP re-solve costs HiGHS's run
plus O(columns changed): it sends only the costs and bounds that changed,
reads the objective and iteration count alone, and leaves the primal values
unconverted until :attr:`SolveOutcome.x` is read.  A re-solve that has
nothing to send costs no HiGHS run at all: HiGHS already holds that LP
solved, so the last answer is returned, with 0.0 seconds.

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

from ._extension import load_extension

try:  # from its file: the scipy.optimize package init loads what no solve uses
    _highs = load_extension("scipy.optimize._highspy._core")
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
    # HiGHS's copy of the solution, which later solves leave as it is; None
    # when there is none to read
    solution: _highs.HighsSolution | None
    objective: float | None
    bound: float | None  # proven bound on the optimum (== objective for LPs)
    gap: float
    seconds: float  # HiGHS run time; 0.0 when an unchanged LP needed no run
    mip_node_count: int  # branch-and-bound nodes; 0 for an LP
    iterations: int = 0  # simplex iterations; 0 for a MILP

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    @functools.cached_property
    def x(self) -> np.ndarray | None:
        """The primal values, converted from ``solution`` when first read (most
        LP callers read only the objective)."""
        return None if self.solution is None else np.array(self.solution.col_value)


class ModelSpec:
    """Incrementally built sparse LP/MILP description of a minimisation.

    Variables are referenced by the integer index returned from
    :meth:`add_var`.  Rows are two-sided: ``lb <= a.x <= ub`` and
    append-only; each row's non-zero coefficients go straight onto the
    row-wise ``_start``/``_index``/``_value`` lists HiGHS reads.
    :meth:`set_obj` and :meth:`set_bounds` record each column they touch
    with its cost or bounds as of the spec's last solve, so a solve that
    re-solves the LP its thread last solved to optimality sends HiGHS only
    the touched columns whose values differ (see :func:`milp`).  A spec is
    solved by one thread at a time.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._is_mip = False  # any(self._integer), kept as columns are added
        self._obj: list[float] = []
        # row r's columns and coefficients are _index/_value[_start[r]:_start[r + 1]]
        self._start: list[int] = [0]
        self._index: list[int] = []
        self._value: list[float] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        # the cost and the (lb, ub) of each column set since the last solve,
        # as they were at that solve
        self._cost_was: dict[int, float] = {}
        self._bounds_was: dict[int, tuple[float, float]] = {}
        self._solves = 0  # solves begun on this spec, on any thread

    # -- variables ---------------------------------------------------------

    def add_var(self, lb: float = 0.0, ub: float = INF, obj: float = 0.0,
                integer: bool = False) -> int:
        idx = len(self._lb)
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(integer)
        self._is_mip = self._is_mip or integer
        self._obj.append(obj)
        return idx

    def add_binary(self, obj: float = 0.0) -> int:
        return self.add_var(lb=0.0, ub=1.0, obj=obj, integer=True)

    def set_obj(self, var: int, coef: float) -> None:
        self._cost_was.setdefault(var, self._obj[var])
        self._obj[var] = coef

    def set_bounds(self, var: int, lb: float, ub: float) -> None:
        self._bounds_was.setdefault(var, (self._lb[var], self._ub[var]))
        self._lb[var] = lb
        self._ub[var] = ub

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def num_rows(self) -> int:
        return len(self._row_lb)

    # -- rows --------------------------------------------------------------

    def add_row(self, coeffs: dict[int, float], lb: float = -INF,
                ub: float = INF) -> int:
        idx = len(self._row_lb)
        if lb > ub:
            raise ValueError(f"{self.name}: row {idx} has lb {lb} > ub {ub}")
        for var, coef in coeffs.items():
            if coef != 0.0:
                self._index.append(var)
                self._value.append(float(coef))
        self._start.append(len(self._index))
        self._row_lb.append(float(lb))
        self._row_ub.append(float(ub))
        return idx

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> int:
        return self.add_row(coeffs, rhs, rhs)

    def add_le(self, coeffs: dict[int, float], rhs: float) -> int:
        return self.add_row(coeffs, -INF, rhs)

    def add_ge(self, coeffs: dict[int, float], rhs: float) -> int:
        return self.add_row(coeffs, rhs, INF)


@dataclass
class _Kept:
    """The LP a thread's HiGHS instance holds with an optimal basis: its spec,
    its ``(rows, columns)`` shape when passed (rows and columns are only ever
    appended, so the shape shows whether one was added since), the spec's
    solve count then (a solve on another thread since clears the spec's
    record of touched columns, so the instance is no longer in step), and
    the outcome of that solve.  The costs and bounds HiGHS holds are the
    spec's, but for the columns the spec records as touched since."""
    spec: ModelSpec
    shape: tuple[int, int]
    solves: int
    outcome: SolveOutcome


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
    """This thread's HiGHS instance; a new one, with no record and no
    options passed, when none is kept."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _local.highs = _highs._Highs()
        _local.kept = _local.options = None
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


def _pass_lp(highs: _highs._Highs, spec: ModelSpec, is_mip: bool) -> None:
    """Pass the whole model, replacing whatever ``highs`` held."""
    if not all(map(math.isfinite, spec._obj)):
        raise SolverError(f"{spec.name}: objective coefficients must be finite")
    if not all(map(math.isfinite, spec._value)):
        raise SolverError(f"{spec.name}: constraint coefficients must be finite")
    n = spec.num_vars
    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = spec.num_rows
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = spec.num_rows
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = spec._start
    lp.a_matrix_.index_ = spec._index
    lp.a_matrix_.value_ = spec._value
    lp.col_cost_ = spec._obj
    lp.col_lower_ = spec._lb
    lp.col_upper_ = spec._ub
    lp.row_lower_ = spec._row_lb
    lp.row_upper_ = spec._row_ub
    if is_mip:
        lp.integrality_ = [_highs.HighsVarType.kInteger if integer
                           else _highs.HighsVarType.kContinuous
                           for integer in spec._integer]
    _check(spec, "passModel", highs.passModel(lp))


def _push_changes(highs: _highs._Highs, spec: ModelSpec) -> bool:
    """Send ``highs``, which holds ``spec`` as of its last solve, the columns
    touched since whose cost or bounds differ from what they were then, in
    ascending order, and return whether there were any.  Only those costs
    are checked for finiteness; the rest were checked when they were sent."""
    obj, lb, ub = spec._obj, spec._lb, spec._ub
    costs = sorted(j for j, was in spec._cost_was.items() if obj[j] != was)
    if costs:
        cost = [obj[j] for j in costs]
        if not all(map(math.isfinite, cost)):
            raise SolverError(f"{spec.name}: objective coefficients must be finite")
        _check(spec, "changeColsCost", highs.changeColsCost(len(costs), costs, cost))
    cols = sorted(j for j, (was_lb, was_ub) in spec._bounds_was.items()
                  if lb[j] != was_lb or ub[j] != was_ub)
    if cols:
        _check(spec, "changeColsBounds",
               highs.changeColsBounds(len(cols), cols, [lb[j] for j in cols],
                                      [ub[j] for j in cols]))
    return bool(costs or cols)


def milp(spec: ModelSpec, tolerance: float,
         time_limit: float | None) -> SolveOutcome:
    """Minimise ``spec``'s objective over its rows and variable bounds.

    Each call gives this thread's HiGHS instance the options
    ``scipy.optimize.milp`` sets, with the root reduced-cost sub-MIP and
    feasibility jump heuristics off (see :func:`_options`); they are not
    passed again while the instance last received the same options object.
    An LP solved again on the same spec, with no row or column added, right
    after its last solve (on this thread) ended optimal starts from the
    basis HiGHS kept: only the columns :meth:`ModelSpec.set_obj` and
    :meth:`ModelSpec.set_bounds` touched since, and whose values changed,
    are sent, and HiGHS skips presolve and runs dual simplex from that
    basis.  When nothing changed and the options object is the one last
    passed, HiGHS already holds this LP solved, so there is no run: the
    last outcome is returned as it was (the same status, objective, bound
    and ``solution``), with 0 iterations and 0.0 seconds.  A time-limited
    solve builds fresh options, so it always runs.  Everything else (a
    MILP, a first solve, another spec in between, an added row or column)
    is passed whole, replacing whatever an earlier solve left: an LP gets
    the answer ``scipy.optimize.milp`` gives, a MILP the same optimum
    within the gap, whose objective may differ from
    ``scipy.optimize.milp``'s by round-off.  An LP's result is read as its
    objective and iteration count, a MILP's from HiGHS's whole info record;
    either's primal values are converted only when the outcome's ``x`` is
    read.  An instance that returned ``kError`` is dropped, not reused.
    HiGHS runs its MIP search serially, which keeps results deterministic.
    """
    is_mip = spec._is_mip
    options = _untimed_options(tolerance) if time_limit is None \
        else _options(tolerance, time_limit)
    highs = _thread_highs()
    # taken now, so that a failure leaves no record; kept again if this run
    # ends optimal
    kept, _local.kept = _local.kept, None
    same_options = options is _local.options
    if not same_options:
        _check(spec, "passOptions", highs.passOptions(options))
        _local.options = options
    shape = (spec.num_rows, spec.num_vars)
    if (kept is not None and kept.spec is spec and kept.shape == shape
            and kept.solves == spec._solves):
        unchanged = not _push_changes(highs, spec) and same_options
    else:
        _pass_lp(highs, spec, is_mip)
        unchanged = False
    spec._cost_was.clear()
    spec._bounds_was.clear()
    spec._solves += 1
    if unchanged:  # HiGHS holds this LP solved: its answer again, with no run
        kept.solves = spec._solves
        _local.kept = kept
        last = kept.outcome
        return SolveOutcome(last.status, last.solution, last.objective, last.bound,
                            last.gap, 0.0, 0, 0)
    clock = highs.getRunTime()  # the instance's run clock adds up over its runs
    _check(spec, "run", highs.run())

    status = _MODEL_STATUS.get(highs.getModelStatus(), "error")
    seconds = highs.getRunTime() - clock
    if is_mip:
        info = highs.getInfo()
        nodes, iterations = info.mip_node_count, 0
        objective = info.objective_function_value
        bound, gap = info.mip_dual_bound + 0.0, info.mip_gap
        # a MIP stopped at a limit keeps its incumbent when it found one
        readable = status == "optimal" or (
            status == "limit" and objective != _highs.kHighsInf)
    else:
        nodes, (_, iterations) = 0, highs.getInfoValue("simplex_iteration_count")
        objective, gap = highs.getObjectiveValue(), 0.0
        readable = status == "optimal"  # an LP solution is read only then
    if not readable:
        return SolveOutcome(status, None, None, None, INF, seconds, nodes, iterations)
    objective += 0.0  # turns a -0.0 from HiGHS into 0.0
    outcome = SolveOutcome(status, highs.getSolution(), objective,
                           bound if is_mip else objective, gap, seconds, nodes,
                           iterations)
    if not is_mip:
        _local.kept = _Kept(spec, shape, spec._solves, outcome)
    return outcome


def solve(spec: ModelSpec, tolerance: float = 1e-9,
          time_limit: float | None = None) -> SolveOutcome:
    """Solve a spec to the requested relative gap within ``time_limit`` seconds."""
    if not tolerance >= 0.0:
        raise ValueError(f"{spec.name}: tolerance must be >= 0, got {tolerance!r}")
    if time_limit is not None and not time_limit >= 0.0:
        raise ValueError(f"{spec.name}: time_limit must be >= 0, got {time_limit!r}")
    return milp(spec, float(tolerance),
                None if time_limit is None else float(time_limit))
