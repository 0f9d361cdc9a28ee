"""The joint chance constraint, in the two modes the master loop can enforce.

Exact mode separates lazily: an incumbent schedule whose oracle probability
falls below the target yields an extended-cover inequality, which by the
monotonicity of the oracle also bans every later-shifted variant of that
schedule.  Safe mode builds the conservative two-block approximation whose
only nonlinearity is the bivariate product of the class reliability levels,
outer-approximated by tangent cuts.  :class:`ChanceRule` hides the mode from
the master loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pboracle import SuccessProbTable, joint_oracle, success_probs

__all__ = ["LinearCut", "separate", "extend_cover", "cover_cut",
           "SafeApproxBlock", "soc_outer_cuts", "FEASIBILITY_TOL", "ChanceRule"]


@dataclass(frozen=True)
class LinearCut:
    """Sparse inequality over schedule variables v and at most one recourse
    variable theta.

    ``v_coeffs`` maps (component, period) to a coefficient.  An optimality
    cut has coefficient 1 on the theta named by ``theta_key`` (a scenario
    index, or a (scenario, day) pair); a chance cut has ``theta_key`` None.
    """
    v_coeffs: tuple[tuple[tuple[str, int], float], ...]
    rhs: float
    sense: str = "<="
    theta_key: object = None
    name: str = ""

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise ValueError(f"bad sense {self.sense!r}")
        if not all(math.isfinite(c) for _, c in self.v_coeffs) or not math.isfinite(self.rhs):
            raise ValueError("cut has non-finite coefficients")

    @staticmethod
    def make(v_coeffs: dict, rhs: float, sense: str = "<=",
             theta_key: object = None, name: str = "") -> "LinearCut":
        return LinearCut(tuple(sorted(v_coeffs.items())), rhs, sense, theta_key, name)

    def key(self) -> tuple:
        """Canonical identity for cut-pool deduplication."""
        return (self.sense, round(self.rhs, 12), self.v_coeffs, self.theta_key)

    def __str__(self):
        terms = [f"{c:+g} v[{h},{t}]" for (h, t), c in self.v_coeffs]
        if self.theta_key is not None:
            terms.append(f"+1 theta[{self.theta_key}]")
        return f"{self.name or 'cut'}: {' '.join(terms)} {self.sense} {self.rhs:g}"


def extend_cover(cover: dict[str, int], tbar: int) -> list[tuple[str, int]]:
    """All (component, period) pairs at or after each covered period."""
    pairs = []
    for comp, t_h in sorted(cover.items()):
        if not (1 <= t_h <= tbar):
            raise ValueError(f"{comp}: period {t_h} outside 1..{tbar}")
        pairs.extend((comp, t) for t in range(t_h, tbar + 1))
    return pairs


def cover_cut(index_set: list[tuple[str, int]], n_candidates: int) -> LinearCut:
    """sum of v over the index set <= |candidates| - 1.  The empty cover (no
    candidates, so the fixed components alone break the constraint) is the
    row 0 <= -1, which no schedule meets."""
    return LinearCut.make({pair: 1.0 for pair in index_set},
                          rhs=float(n_candidates - 1) if index_set else -1.0,
                          sense="<=", name="cover")


def separate(schedule: dict[str, int], table: SuccessProbTable, rho_gen: int,
             rho_line: int, alpha: float) -> tuple[bool, LinearCut | None, float]:
    """(feasible, extended-cover cut or None, oracle value) of a candidate
    schedule; feasibility is inclusive at the target 1 - alpha."""
    pv = joint_oracle(schedule, table, rho_gen, rho_line)
    if pv >= 1.0 - alpha:
        return True, None, pv
    pairs = extend_cover(schedule, table.horizon_days + 1)
    return False, cover_cut(pairs, len(schedule)), pv


@dataclass(frozen=True)
class SafeApproxBlock:
    """Class loads plus the reliability-product requirement.

    The class load x (resp. y) is the sum of the generators' (resp. lines')
    success probabilities under the schedule, over rho_gen (resp. rho_line):
    an affine function of the schedule variables.  Schedules are
    safe-feasible when x, y <= 1 and (1-x)(1-y) >= 1 - alpha.
    """
    table: SuccessProbTable
    rho_gen: int
    rho_line: int
    alpha: float

    def loads(self, schedule: dict[str, int]) -> tuple[float, float]:
        gens, lines = success_probs(schedule, self.table)
        return sum(gens) / self.rho_gen, sum(lines) / self.rho_line

    def accepts(self, schedule: dict[str, int]) -> bool:
        """Exact bivariate product handling of the approximation."""
        x, y = self.loads(schedule)
        return x <= 1.0 and y <= 1.0 and (1.0 - x) * (1.0 - y) >= 1.0 - self.alpha

    def row(self, cx: float, cy: float, rhs: float, name: str = "soc") -> LinearCut:
        """cx * x + cy * y <= rhs over the schedule variables: each candidate's
        success probability at a period is the coefficient of its variable
        there, and every other component's moves to the right-hand side."""
        table, v_coeffs = self.table, {}
        for kind, c, rho in (("gen", cx, self.rho_gen), ("line", cy, self.rho_line)):
            fixed = 0.0
            for comp in table.components(kind):
                if comp not in table.schedulable:
                    fixed += table.lookup(comp, table.horizon_days)
                elif c:
                    for t in range(1, table.horizon_days + 2):
                        v_coeffs[(comp, t)] = c * table.lookup(comp, t) / rho
            rhs -= c * fixed / rho
        return LinearCut.make(v_coeffs, rhs, "<=", name=name)


def soc_outer_cuts(point: tuple[float, float],
                   alpha: float) -> list[tuple[float, float, float]]:
    """Tangent cuts (cx, cy, rhs), each cx * x + cy * y <= rhs, separating a
    point from {(1-x)(1-y) >= 1-alpha, x,y <= 1}.

    The tangent is taken at the radial projection of the point onto the
    boundary hyperbola; by AM-GM it is valid for the whole region.  Points
    already inside produce no cut.
    """
    if alpha >= 1.0:
        raise ValueError("alpha >= 1 makes the chance constraint void")
    target = 1.0 - alpha
    a, b = 1.0 - point[0], 1.0 - point[1]
    cuts = []
    if a <= 0.0:
        cuts.append((1.0, 0.0, alpha))  # x <= alpha, from b <= 1
    if b <= 0.0:
        cuts.append((0.0, 1.0, alpha))
    if cuts:
        return cuts
    if a * b >= target:
        return []
    scale = math.sqrt(target / (a * b))
    a0, b0 = scale * a, scale * b
    return [(b0, a0, a0 + b0 - 2.0 * target)]


# HiGHS's mip_feasibility_tolerance, which solver leaves at its default
FEASIBILITY_TOL = 1e-6


class ChanceRule:
    """The joint chance constraint as the master loop sees it.

    ``static_rows`` are the rows the master starts with.  Exact mode has
    none and separates with :func:`separate`.  Safe mode has the load caps
    x <= 1 and y <= 1, and accepts a point whose product shortfall
    (1-alpha) - (1-x)(1-y) is at most FEASIBILITY_TOL.  With t = 1-alpha,
    a = 1-x, b = 1-y, the point breaks its tangent row by
    2 sqrt(t) (sqrt(t) - sqrt(ab)) >= t - ab, so a point short by more breaks
    its own pooled row by more than the master's tolerance and never returns.
    """

    def __init__(self, mode: str, table: SuccessProbTable, rho_gen: int,
                 rho_line: int, alpha: float):
        if mode not in ("exact", "safe"):
            raise ValueError(f"unknown chance mode {mode!r}")
        self.args = (table, rho_gen, rho_line, alpha)
        self.block = SafeApproxBlock(*self.args) if mode == "safe" else None
        # reliability levels live in [0, 1]: class loads can never exceed one
        self.static_rows: list[LinearCut] = [] if self.block is None else [
            self.block.row(1.0, 0.0, 1.0, "gen_load_cap"),
            self.block.row(0.0, 1.0, 1.0, "line_load_cap")]

    def check(self, schedule: dict[str, int]) -> tuple[list[LinearCut], str]:
        """The rows ``schedule`` violates, and the event text.  An accepted
        schedule has no rows, and an event text only when it was accepted
        with a product shortfall in (0, FEASIBILITY_TOL]."""
        if self.block is None:
            feasible, cut, pv = separate(schedule, *self.args)
            return ([], "") if feasible else ([cut], f"cover cut (P={pv:.4f})")
        x, y = self.block.loads(schedule)
        shortfall = (1.0 - self.block.alpha) - (1.0 - x) * (1.0 - y)
        if shortfall <= FEASIBILITY_TOL:
            return [], f"accepted {shortfall:.3g} short of 1-alpha" if shortfall > 0 else ""
        cuts = soc_outer_cuts((x, y), self.block.alpha)
        return [self.block.row(*cut) for cut in cuts], "product-region cut"
