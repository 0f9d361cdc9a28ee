"""Narrow LP/MILP backend abstraction.

All optimization modules describe models through :class:`ModelSpec` and call
:func:`solve`.  The single in-process backend is HiGHS, reached through
``scipy.optimize.milp`` (which handles pure LPs as well).
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

log = logging.getLogger(__name__)

INF = float("inf")


class SolverError(RuntimeError):
    """The backend failed outright (not plain infeasibility)."""


@dataclass
class SolveOutcome:
    status: str  # "optimal" | "infeasible" | "limit" | "error"
    x: np.ndarray | None
    objective: float | None
    bound: float | None  # proven bound on the optimum (== objective for LPs)
    gap: float

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class ModelSpec:
    """Incrementally built sparse LP/MILP description.

    Variables are referenced by the integer index returned from
    :meth:`add_var`.  Rows are two-sided: ``lb <= a.x <= ub``.
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
        # each row: (coeffs dict var->coef, lb, ub, name)
        self._rows: list[tuple[dict[int, float], float, float, str]] = []

    # -- variables ---------------------------------------------------------

    def add_var(self, name: str | None = None, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, integer: bool = False) -> int:
        idx = len(self._lb)
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(integer)
        self._obj.append(obj)
        self._var_names.append(name if name is not None else f"x{idx}")
        return idx

    def add_binary(self, name: str | None = None, obj: float = 0.0) -> int:
        return self.add_var(name, lb=0.0, ub=1.0, obj=obj, integer=True)

    def set_obj(self, var: int, coef: float) -> None:
        self._obj[var] = coef

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    # -- rows --------------------------------------------------------------

    def add_row(self, coeffs: dict[int, float], lb: float = -INF, ub: float = INF,
                name: str | None = None) -> int:
        if lb > ub:
            raise ValueError(f"row {name!r}: lb {lb} > ub {ub}")
        idx = len(self._rows)
        self._rows.append((dict(coeffs), lb, ub, name or f"c{idx}"))
        return idx

    def add_eq(self, coeffs: dict[int, float], rhs: float, name: str | None = None) -> int:
        return self.add_row(coeffs, rhs, rhs, name)

    def add_le(self, coeffs: dict[int, float], rhs: float, name: str | None = None) -> int:
        return self.add_row(coeffs, -INF, rhs, name)

    def add_ge(self, coeffs: dict[int, float], rhs: float, name: str | None = None) -> int:
        return self.add_row(coeffs, rhs, INF, name)

    # -- assembly ----------------------------------------------------------

    def _matrices(self):
        n = self.num_vars
        data, ri, ci = [], [], []
        rlb, rub = [], []
        for r, (coeffs, lb, ub, _) in enumerate(self._rows):
            for var, coef in coeffs.items():
                if coef != 0.0:
                    ri.append(r)
                    ci.append(var)
                    data.append(coef)
            rlb.append(lb)
            rub.append(ub)
        a = sp.csr_matrix((data, (ri, ci)), shape=(len(self._rows), n))
        return a, np.array(rlb), np.array(rub)


_STATUS_MAP = {0: "optimal", 1: "limit", 2: "infeasible", 3: "error", 4: "error"}


def solve(spec: ModelSpec, tolerance: float = 1e-9,
          time_limit: float | None = None) -> SolveOutcome:
    """Solve a spec to the requested relative gap.

    The scipy HiGHS entry point runs single-threaded, which keeps results
    deterministic.
    """
    sign = 1.0 if spec.sense == "min" else -1.0
    c = sign * np.array(spec._obj, dtype=float)
    integrality = np.array(spec._integer, dtype=np.uint8)
    bounds = Bounds(np.array(spec._lb, dtype=float), np.array(spec._ub, dtype=float))
    options = {"presolve": True, "mip_rel_gap": tolerance}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    constraints = None
    if spec.num_rows:
        a, rlb, rub = spec._matrices()
        constraints = LinearConstraint(a, rlb, rub)

    try:
        res = milp(c, constraints=constraints, integrality=integrality,
                   bounds=bounds, options=options)
    except Exception as exc:  # backend blow-up, not model infeasibility
        raise SolverError(f"{spec.name}: {exc}") from exc

    status = _STATUS_MAP.get(res.status, "error")
    if status in ("infeasible", "error"):
        return SolveOutcome(status, None, None, None, INF)
    if res.x is None:
        # limit hit before any incumbent
        return SolveOutcome("limit", None, None, None, INF)

    objective = sign * float(res.fun) + spec.obj_offset
    if integrality.any() and res.mip_dual_bound is not None:
        bound = sign * float(res.mip_dual_bound) + spec.obj_offset
        gap = float(res.mip_gap) if res.mip_gap is not None else 0.0
    else:
        bound = objective
        gap = 0.0
    return SolveOutcome(status, np.asarray(res.x), objective, bound, gap)


def write_lp(spec: ModelSpec) -> str:
    """Render a spec in CPLEX LP text format (debug export)."""
    out = io.StringIO()
    names = spec._var_names

    def term(coef: float, var: int) -> str:
        return f"{'+' if coef >= 0 else '-'} {abs(coef):.17g} {names[var]}"

    out.write(f"\\ {spec.name}\n")
    out.write("Minimize\n" if spec.sense == "min" else "Maximize\n")
    obj_terms = " ".join(term(c, j) for j, c in enumerate(spec._obj) if c != 0.0)
    out.write(f" obj: {obj_terms or '0 ' + (names[0] if names else 'x0')}\n")
    out.write("Subject To\n")
    for coeffs, lb, ub, name in spec._rows:
        body = " ".join(term(c, j) for j, c in sorted(coeffs.items()) if c != 0.0) or "0 " + names[0]
        if lb == ub:
            out.write(f" {name}: {body} = {lb:.17g}\n")
        else:
            if ub < INF:
                out.write(f" {name}: {body} <= {ub:.17g}\n")
            if lb > -INF:
                out.write(f" {name}_lo: {body} >= {lb:.17g}\n")
    out.write("Bounds\n")
    for j in range(spec.num_vars):
        lo, hi = spec._lb[j], spec._ub[j]
        lo_s = f"{lo:.17g}" if lo > -INF else "-inf"
        hi_s = f"{hi:.17g}" if hi < INF else "+inf"
        out.write(f" {lo_s} <= {names[j]} <= {hi_s}\n")
    integers = [names[j] for j in range(spec.num_vars) if spec._integer[j]]
    if integers:
        out.write("General\n")
        for nm in integers:
            out.write(f" {nm}\n")
    out.write("End\n")
    return out.getvalue()
