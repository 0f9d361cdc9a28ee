"""Monolithic MILP of the full two-stage model, used as the test oracle.

Builds the whole stochastic program in one model: schedule binaries with
assignment rows, availability expressions linking operations to the schedule
under every scenario, per-day hourly unit commitment, and (optionally) the
joint chance constraint enforced exactly by enumerating the oracle value of
every schedule and excluding the violating ones with no-good rows.  This is
deliberately separate from the decomposition path it is used to check.
"""

import itertools

from gridmaint import solver
from gridmaint.caseio import DELTA_BOUND
from gridmaint.pboracle import joint_oracle

from cases import scenario_xi


def enumerate_schedules(hprime, tbar):
    for combo in itertools.product(range(1, tbar + 1), repeat=len(hprime)):
        yield dict(zip(hprime, combo))


def chance_feasible_set(inst, cfg):
    """Exact acceptance set {schedule : P(v) >= 1 - alpha} by full enumeration."""
    feasible = []
    for sched in enumerate_schedules(inst.hprime, cfg.tbar):
        if joint_oracle(sched, inst.table, cfg.rho_gen, cfg.rho_line) >= 1 - cfg.alpha:
            feasible.append(sched)
    return feasible


def extensive_solve(inst, scenarios, cfg, chance="off", fixed_schedule=None,
                    tolerance=1e-9):
    """Solve the monolithic two-stage MILP; returns (objective, schedule)."""
    net, demand = inst.net, inst.demand
    tbar, horizon = cfg.tbar, cfg.horizon_days
    hprime = inst.hprime
    kinds = inst.kinds
    bus_pos = net.bus_index()
    spec = solver.ModelSpec("extensive")

    v = {}
    for comp in hprime:
        for t in range(1, tbar + 1):
            if fixed_schedule is not None:
                val = 1.0 if fixed_schedule[comp] == t else 0.0
                v[(comp, t)] = spec.add_var(lb=val, ub=val, integer=True)
            else:
                v[(comp, t)] = spec.add_binary()
        spec.add_eq({v[(comp, t)]: 1.0 for t in range(1, tbar + 1)}, 1.0)

    if chance == "enum" and fixed_schedule is None:
        for sched in enumerate_schedules(hprime, tbar):
            if joint_oracle(sched, inst.table, cfg.rho_gen, cfg.rho_line) \
                    < 1 - cfg.alpha:
                spec.add_le({v[(h, t)]: 1.0 for h, t in sched.items()},
                            len(hprime) - 1)

    def maint_coeff(comp, t, xi):
        pred, corr = inst.maint_cost(comp)
        if t < xi:
            return pred
        if xi != tbar:
            return corr
        return 0.0

    def outage_terms(comp, xi, day):
        tau_p, tau_c = cfg.tau(kinds[comp])
        terms = {}
        for m in range(1, tbar + 1):
            if m < xi and m <= day <= m + tau_p - 1:
                terms[v[(comp, m)]] = 1.0
        if xi <= horizon and xi <= day <= xi + tau_c - 1:
            for m in range(xi, tbar + 1):
                terms[v[(comp, m)]] = terms.get(v[(comp, m)], 0.0) + 1.0
        return terms

    v_obj = {key: 0.0 for key in v}
    for k in range(scenarios.size):
        pi = float(scenarios.probs[k])
        xi_map = scenario_xi(scenarios, k)
        for comp in hprime:
            for t in range(1, tbar + 1):
                v_obj[(comp, t)] += pi * maint_coeff(comp, t, xi_map.get(comp, tbar))

        for day in range(1, horizon + 1):
            dd = demand.day(day)
            s_count = dd.shape[1]
            delta = {}
            qv = {}
            for i, bus in enumerate(net.buses):
                cost = cfg.curtail_cost if cfg.curtail_cost is not None \
                    else bus.curtail_cost
                for s in range(s_count):
                    delta[(i, s)] = spec.add_var(lb=-DELTA_BOUND, ub=DELTA_BOUND)
                    qv[(i, s)] = spec.add_var(lb=0.0, ub=float(dd[i, s]),
                                              obj=pi * cost)

            xvar, pvar = {}, {}
            for g, gen in enumerate(net.generators):
                xi = xi_map.get(gen.id, tbar)
                terms = outage_terms(gen.id, xi, day) if gen.id in hprime else {}
                always_off = gen.id not in hprime and gen.id in xi_map and \
                    _fixed_out(xi_map[gen.id], day, cfg.tau("gen")[1], horizon)
                for s in range(s_count):
                    xvar[(g, s)] = spec.add_var(
                        lb=0.0, ub=0.0 if always_off else 1.0,
                        obj=pi * gen.noload_cost, integer=True)
                    pvar[(g, s)] = spec.add_var(lb=0.0, obj=pi * gen.gen_cost)
                    uvar = spec.add_var(lb=0.0, ub=1.0, obj=pi * gen.startup_cost)
                    spec.add_le({pvar[(g, s)]: 1.0, xvar[(g, s)]: -gen.p_max}, 0.0)
                    spec.add_ge({pvar[(g, s)]: 1.0, xvar[(g, s)]: -gen.p_min}, 0.0)
                    if terms:
                        row = dict(terms)
                        row[xvar[(g, s)]] = 1.0
                        spec.add_le(row, 1.0)
                    if s >= 1:
                        spec.add_ge({uvar: 1.0, xvar[(g, s)]: -1.0,
                                     xvar[(g, s - 1)]: 1.0}, 0.0)
                        spec.add_le({pvar[(g, s)]: 1.0, pvar[(g, s - 1)]: -1.0},
                                    gen.ramp_up)
                        spec.add_le({pvar[(g, s - 1)]: 1.0, pvar[(g, s)]: -1.0},
                                    gen.ramp_down)
                        for sp in range(s + 1, min(s + gen.min_up, s_count)):
                            spec.add_le({xvar[(g, s)]: 1.0, xvar[(g, s - 1)]: -1.0,
                                         xvar[(g, sp)]: -1.0}, 0.0)
                        for sp in range(s + 1, min(s + gen.min_down, s_count)):
                            spec.add_le({xvar[(g, s - 1)]: 1.0, xvar[(g, s)]: -1.0,
                                         xvar[(g, sp)]: 1.0}, 1.0)

            fvar = {}
            for j, line in enumerate(net.lines):
                xi = xi_map.get(line.id, tbar)
                b_mw = net.line_susceptance_mw(line)
                fi, ti = bus_pos[line.from_bus], bus_pos[line.to_bus]
                if line.id in hprime:
                    line_terms = outage_terms(line.id, xi, day)
                    yv = spec.add_var(lb=0.0, ub=1.0)
                    row = dict(line_terms)
                    row[yv] = 1.0
                    spec.add_eq(row, 1.0)
                    big_m = net.big_m(line)
                    for s in range(s_count):
                        fvar[(j, s)] = spec.add_var(lb=-line.flow_limit,
                                                    ub=line.flow_limit)
                        spec.add_le({fvar[(j, s)]: 1.0, delta[(fi, s)]: -b_mw,
                                     delta[(ti, s)]: b_mw, yv: big_m}, big_m)
                        spec.add_ge({fvar[(j, s)]: 1.0, delta[(fi, s)]: -b_mw,
                                     delta[(ti, s)]: b_mw, yv: -big_m}, -big_m)
                        spec.add_le({fvar[(j, s)]: 1.0, yv: -line.flow_limit}, 0.0)
                        spec.add_ge({fvar[(j, s)]: 1.0, yv: line.flow_limit}, 0.0)
                else:
                    out = line.id in xi_map and \
                        _fixed_out(xi_map[line.id], day, cfg.tau("line")[1], horizon)
                    for s in range(s_count):
                        if out:
                            fvar[(j, s)] = spec.add_var(lb=0.0, ub=0.0)
                        else:
                            fvar[(j, s)] = spec.add_var(lb=-line.flow_limit,
                                                        ub=line.flow_limit)
                            spec.add_eq({fvar[(j, s)]: 1.0, delta[(fi, s)]: -b_mw,
                                         delta[(ti, s)]: b_mw}, 0.0)

            for i, bus in enumerate(net.buses):
                for s in range(s_count):
                    coeffs = {qv[(i, s)]: 1.0}
                    for g, gen in enumerate(net.generators):
                        if gen.bus == bus.id:
                            coeffs[pvar[(g, s)]] = 1.0
                    for j, line in enumerate(net.lines):
                        if line.from_bus == bus.id:
                            coeffs[fvar[(j, s)]] = coeffs.get(fvar[(j, s)], 0.0) - 1.0
                        if line.to_bus == bus.id:
                            coeffs[fvar[(j, s)]] = coeffs.get(fvar[(j, s)], 0.0) + 1.0
                    spec.add_eq(coeffs, float(dd[i, s]))

    for key, coeff in v_obj.items():
        spec.set_obj(v[key], coeff)
    outcome = solver.solve(spec, tolerance=tolerance)
    if outcome.status != "optimal":
        raise RuntimeError(f"extensive model ended {outcome.status}")
    schedule = None
    if fixed_schedule is None:
        schedule = {}
        for comp in hprime:
            for t in range(1, tbar + 1):
                if outcome.x[v[(comp, t)]] > 0.5:
                    schedule[comp] = t
    return float(outcome.objective), schedule


def _fixed_out(xi, day, tau_corr, horizon):
    """Unmaintained component: out for tau_corr days from an in-horizon failure."""
    return xi <= horizon and xi <= day <= xi + tau_corr - 1
