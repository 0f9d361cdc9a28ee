import json
import math

import numpy as np
import pytest

from gridmaint import caseio
from gridmaint.caseio import (CaseError, DegradationPriors, RunConfig,
                              load_config, load_demand, parse_case,
                              serialize_case, synth_demand)

from cases import CASE9, CASE_DANGLING, CASE_SINGLE_BUS


def test_parse_case9_counts():
    net = parse_case(CASE9)
    assert len(net.generators) == 3
    assert len(net.lines) == 9
    assert len(net.buses) == 9
    assert net.base_mva == 100.0


def test_parse_case9_values():
    net = parse_case(CASE9)
    g1 = net.generators[0]
    assert g1.p_max == 250.0 and g1.gen_cost == 20.0 and g1.noload_cost == 100.0
    assert g1.startup_cost == 1500.0
    # synthesized maintenance costs: pred = pmax * c * |S|, corr = 3x
    assert g1.maint_cost_pred == pytest.approx(250.0 * 20.0 * 24)
    assert g1.maint_cost_corr == pytest.approx(3 * g1.maint_cost_pred)
    line = net.lines[0]
    mean_pred = np.mean([g.maint_cost_pred for g in net.generators])
    assert line.maint_cost_pred == pytest.approx(0.1 * mean_pred)
    # big-M is B * (angle span), bit for bit as base_mva * (1 / x) * (pi - (-pi))
    # with x the branch reactance of the case file
    reactances = [0.0576, 0.092, 0.17, 0.0586, 0.1008, 0.072, 0.0625, 0.161, 0.085]
    assert [net.big_m(ln) for ln in net.lines] == [
        net.base_mva * (1.0 / x) * (math.pi - (-math.pi)) for x in reactances]


def test_single_bus_degenerate_ok():
    net = parse_case(CASE_SINGLE_BUS)
    assert len(net.buses) == 1 and len(net.lines) == 0 and len(net.generators) == 1


def test_dangling_branch_reference():
    with pytest.raises(CaseError, match="unknown bus"):
        parse_case(CASE_DANGLING)


def test_disconnected_graph_rejected():
    text = CASE_SINGLE_BUS.replace(
        "mpc.bus = [\n\t1	3	100	0	0	0	1	1	0	345	1	1.1	0.9;\n];",
        "mpc.bus = [\n\t1	3	100	0	0	0	1	1	0	345	1	1.1	0.9;\n"
        "\t2	1	50	0	0	0	1	1	0	345	1	1.1	0.9;\n];")
    with pytest.raises(CaseError, match="not connected"):
        parse_case(text)


def test_quadratic_gencost_rejected():
    text = CASE9.replace("2	1500	0	2	20	100;", "2	1500	0	3	0.1	20	100;") \
                .replace("2	2000	0	2	25	120;", "2	2000	0	3	0.2	25	120;") \
                .replace("2	3000	0	2	30	80;", "2	3000	0	3	0.3	30	80;")
    with pytest.raises(CaseError, match="degree 1"):
        parse_case(text)


def test_quadratic_gencost_with_zero_leading_term_ok():
    text = CASE9.replace("2	1500	0	2	20	100;", "2	1500	0	3	0	20	100;") \
                .replace("2	2000	0	2	25	120;", "2	2000	0	3	0	25	120;") \
                .replace("2	3000	0	2	30	80;", "2	3000	0	3	0	30	80;")
    net = parse_case(text)
    assert net.generators[0].gen_cost == 20.0


@pytest.mark.parametrize("rows", [
    # NCOST = 3 announces three coefficients, but only two follow
    ("2	1500	0	3	20	100;", "2	2000	0	3	25	120;", "2	3000	0	3	30	80;"),
    # no NCOST column at all
    ("2	1500	0;", "2	2000	0;", "2	3000	0;"),
])
def test_short_gencost_row_rejected(rows):
    text = CASE9
    for old, new in zip(("2	1500	0	2	20	100;", "2	2000	0	2	25	120;",
                         "2	3000	0	2	30	80;"), rows):
        text = text.replace(old, new)
    with pytest.raises(CaseError, match="gencost row 1: "):
        parse_case(text)


@pytest.mark.parametrize("row,field", [
    ("2	1500	0	2	20	-100;", "noload_cost"),
    ("2	-1500	0	2	20	100;", "startup_cost"),
    ("2	1500	0	2	-20	100;", "gen_cost"),
], ids=["c0", "startup", "c1"])
def test_negative_gencost_rejected_by_field(row, field):
    # the recourse lower bounds clamp at 0, which a negative cost would break
    with pytest.raises(CaseError, match=f"generator g1: {field} must be >= 0"):
        parse_case(CASE9.replace("2	1500	0	2	20	100;", row))


@pytest.mark.parametrize("field", ["gen_cost", "noload_cost", "startup_cost"])
def test_generator_rejects_negative_cost(field):
    from cases import build_net
    net = build_net()
    gen = net.generators[0]
    fields = {f: getattr(gen, f) for f in gen.__dataclass_fields__}
    with pytest.raises(CaseError, match=f"{field} must be >= 0"):
        caseio.Generator(**{**fields, field: -1.0})


@pytest.mark.parametrize("cost", [-50.0, float("nan")])
def test_bus_rejects_negative_curtail_cost(cost):
    with pytest.raises(CaseError, match="bus 1: curtail_cost must be >= 0"):
        caseio.Bus(id=1, curtail_cost=cost)


@pytest.mark.parametrize("old, new, where", [
    ("1\t4\t0\t0.0576\t0\t250", "1\t4\t0\t0.0576\t0\tnan",
     r"mpc\.branch row 1, column 6"),
    ("4\t5\t0.017\t0.092", "4\t5\t0.017\tnan", r"mpc\.branch row 2, column 4"),
    ("100\t1\t250\t10", "100\t1\tInf\t10", r"mpc\.gen row 1, column 9"),
    ("5\t1\t90\t30", "5\t1\tnan\t30", r"mpc\.bus row 5, column 3"),
    ("2\t2000\t0\t2\t25\t120;", "2\t2000\t0\t2\t-inf\t120;",
     r"mpc\.gencost row 2, column 5"),
    ("2\t3000\t0\t2\t30\t80;", "2\t3000\t0\tnan\t30\t80;",
     r"mpc\.gencost row 3, column 4"),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = nan;", r"mpc\.baseMVA = nan"),
], ids=["rateA", "reactance", "Pmax", "Pd", "c1", "NCOST", "baseMVA"])
def test_non_finite_case_numbers_are_rejected_at_parse(old, new, where):
    assert CASE9.count(old) == 1
    with pytest.raises(CaseError, match=where):
        parse_case(CASE9.replace(old, new))


def test_columns_the_parser_ignores_may_be_infinite():
    # Qmax and Qmin of every generator
    text = CASE9.replace("\t300\t-300\t", "\tInf\t-Inf\t")
    assert parse_case(text) == parse_case(CASE9)


def test_non_finite_demand_is_rejected():
    net = parse_case(CASE9)
    cfg = _tiny_cfg()
    shape = np.ones((cfg.horizon_days, cfg.subperiods))
    shape[1, 5] = np.nan
    with pytest.raises(CaseError, match="non-finite demand entry"):
        synth_demand(net, cfg, shape=shape)


def test_round_trip():
    net = parse_case(CASE9)
    again = parse_case(serialize_case(net))
    assert again == net


def test_syntax_error_reports_line():
    bad = CASE_SINGLE_BUS.replace("1	3	100", "1	oops	100")
    with pytest.raises(CaseError, match="line "):
        parse_case(bad)


# -- demand ------------------------------------------------------------------

def _tiny_cfg(**kw):
    base = dict(horizon_days=2, subperiods=24, saa_nprime=50)
    base.update(kw)
    return RunConfig(**base)


def _demand_csv(buses, days, hours, value=50.0):
    rows = ["bus,t,s,mw"]
    for b in buses:
        for t in range(1, days + 1):
            for s in range(1, hours + 1):
                rows.append(f"{b},{t},{s},{value}")
    return "\n".join(rows)


def test_load_demand_complete():
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    grid = load_demand(_demand_csv([1], 2, 24), net, cfg)
    assert grid.values.shape == (1, 2, 24)
    assert np.all(grid.values == 50.0)


def test_load_demand_duplicate_row():
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    text = _demand_csv([1], 2, 24) + "\n1,1,1,50"
    with pytest.raises(CaseError, match="duplicate"):
        load_demand(text, net, cfg)


def test_load_demand_negative():
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    text = _demand_csv([1], 2, 24).replace("1,2,24,50.0", "1,2,24,-5")
    with pytest.raises(CaseError, match="negative"):
        load_demand(text, net, cfg)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_load_demand_non_finite(bad):
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    text = _demand_csv([1], 2, 24).replace("1,2,24,50.0", f"1,2,24,{bad}")
    with pytest.raises(CaseError, match=f"row 49: non-finite demand {float(bad)}"):
        load_demand(text, net, cfg)


def test_load_demand_nan_then_duplicate_row():
    # the nan cell must not read as unfilled, letting a later row fill it
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    text = _demand_csv([1], 2, 24).replace("1,1,1,50.0", "1,1,1,nan") + "\n1,1,1,50"
    with pytest.raises(CaseError, match="row 2: non-finite demand nan"):
        load_demand(text, net, cfg)


def test_load_demand_missing_cells():
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    text = "\n".join(_demand_csv([1], 2, 24).splitlines()[:-1])
    with pytest.raises(CaseError, match="missing"):
        load_demand(text, net, cfg)


def dump_demand(grid):
    """The demand CSV ``load_demand`` reads, written from a grid."""
    rows = ["bus,t,s,mw"]
    for i, bid in enumerate(grid.bus_ids):
        for t in range(grid.periods):
            for s in range(grid.subperiods):
                rows.append(f"{bid},{t + 1},{s + 1},{grid.values[i, t, s]:.10g}")
    return "\n".join(rows) + "\n"


def test_demand_round_trip():
    net = parse_case(CASE_SINGLE_BUS)
    cfg = _tiny_cfg()
    grid = synth_demand(net, cfg)
    again = load_demand(dump_demand(grid), net, cfg)
    assert np.allclose(again.values, grid.values)


def test_synth_demand_flat_shape():
    net = parse_case(CASE_SINGLE_BUS)  # base demand 100 at the only bus
    cfg = _tiny_cfg()
    grid = synth_demand(net, cfg, shape=np.ones((2, 24)))
    assert np.all(grid.values == 100.0)


def test_synth_demand_homogeneous():
    net = parse_case(CASE9)
    cfg = _tiny_cfg()
    shape = caseio.default_weekly_shape(2, 24)
    g1 = synth_demand(net, cfg, shape)
    g2 = synth_demand(net, cfg, 2.0 * shape)
    assert np.allclose(g2.values, 2.0 * g1.values)


def test_synth_demand_seeded_repeatable():
    net = parse_case(CASE9)
    cfg = _tiny_cfg()
    g1 = synth_demand(net, cfg, seed=7, noise_sd=0.05)
    g2 = synth_demand(net, cfg, seed=7, noise_sd=0.05)
    assert np.array_equal(g1.values, g2.values)


def test_synth_demand_shape_mismatch():
    net = parse_case(CASE9)
    with pytest.raises(CaseError, match="shape"):
        synth_demand(net, _tiny_cfg(), shape=np.ones((3, 24)))


# -- config ------------------------------------------------------------------

def test_config_defaults_and_tbar():
    cfg = RunConfig()
    assert cfg.tbar == 8
    assert cfg.tau("gen") == (1, 2)


def test_config_json_round_trip():
    cfg = RunConfig(horizon_days=3, alpha=0.2, cut_family="optK")
    again = load_config(caseio.dump_config(cfg))
    assert again == cfg


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0), dict(alpha=1.0), dict(rho_gen=0), dict(epsilon=0.0),
    dict(tau_pred_gen=2, tau_corr_gen=1), dict(cut_family="bogus"),
    dict(chance_mode="x"),
    dict(significance=0.0), dict(significance=1.0), dict(threads=0),
    dict(pfail_gen=1.5), dict(epsilon=float("nan")), dict(subproblem_gap=-1.0),
    dict(subproblem_gap=float("nan")), dict(time_limit=-5.0),
    dict(time_limit=float("nan")), dict(curtail_cost=-50.0),
    dict(curtail_cost=float("inf")), dict(curtail_cost=float("nan")),
    dict(iteration_limit=-3), dict(saa_m=0), dict(saa_n=0), dict(saa_nprime=0),
    dict(saa_n=-1), dict(rho_gen=1.5), dict(saa_m=3.5), dict(threads=True),
    dict(alpha="0.1"), dict(seed=-1), dict(priors_gen=[1, 2]),
])
def test_config_invariants(bad):
    with pytest.raises(CaseError):
        RunConfig(**bad)


@pytest.mark.parametrize("key,value", [
    ("epsilon", float("nan")), ("subproblem_gap", -1.0), ("time_limit", -5.0),
    ("curtail_cost", -50.0), ("curtail_cost", float("inf")),
    ("iteration_limit", -3), ("saa_m", 0), ("saa_n", 0), ("saa_nprime", 0),
    ("rho_gen", 1.5), ("saa_m", 3.5), ("threads", True), ("alpha", "0.1"),
    ("seed", -1), ("priors_gen", [1, 2]),
    ("priors_line", {"mu0": 1, "kappa0": 1, "mu1": 1, "kappa1": 1, "sigma": 1}),
    ("priors_gen", {"mu0": 1, "kappa0": 1, "mu1": 1, "kappa1": 1, "sigma": 1,
                    "threshold": 50, "drift": 2}),
    ("priors_gen", {"mu0": "x", "kappa0": 1, "mu1": 1, "kappa1": 1, "sigma": 1,
                    "threshold": 50}),
    ("priors_line", {"mu0": 1, "kappa0": 1, "mu1": 1, "kappa1": 1, "sigma": 1,
                     "threshold": float("nan")}),
])
def test_config_error_names_the_key(key, value):
    # rejected when the config is built or read, not deep in a solve after
    # the lower-bound phase or in building the instance
    with pytest.raises(CaseError, match=key):
        RunConfig(**{key: value})
    with pytest.raises(CaseError, match=key):
        load_config(json.dumps({key: value}))


@pytest.mark.parametrize("key", ["priors_gen", "priors_line"])
@pytest.mark.parametrize("sds", [{"sigma": 0.0},
                                 {"kappa0": 0.0, "kappa1": 0.0, "sigma": 0.0}])
def test_priors_that_cannot_fit_a_lifetime_are_rejected_on_load(key, sds):
    # building the instance used to fail instead: "remaining lifetime needs a
    # positive signal sd", naming no key, or SingularPosteriorError when all
    # three sds are 0.  The priors alone stay legal (deterministic paths)
    priors = {"mu0": 15.0, "kappa0": 5.0, "mu1": 3.0, "kappa1": 0.3, "sigma": 1.0,
              "threshold": 100.0, **sds}
    with pytest.raises(CaseError, match=rf"{key}\.sigma must be positive"):
        load_config(json.dumps({key: priors}))
    with pytest.raises(CaseError, match=rf"{key}\.sigma must be positive"):
        RunConfig(**{key: DegradationPriors(**priors)})


def test_config_limits_at_zero_stay_legal():
    # iteration_limit=0 is how a run asks to stop at once (exit code 2)
    cfg = RunConfig(iteration_limit=0, time_limit=0.0, subproblem_gap=0.0,
                    curtail_cost=0.0)
    assert cfg.iteration_limit == 0


def test_config_unknown_key():
    for text in ('{"no_such_option": 1}', '{"soc_mode": "outer"}',
                 '{"aggregation": "multi"}'):
        with pytest.raises(CaseError, match="unknown config"):
            load_config(text)


def test_config_priors_parsed():
    cfg = load_config('{"priors_gen": {"mu0": 10, "kappa0": 1, "mu1": 2, '
                      '"kappa1": 0.1, "sigma": 1, "threshold": 50}}')
    assert isinstance(cfg.priors_gen, DegradationPriors)
    assert cfg.priors_gen.mu0 == 10


def test_angle_slack_shortfall_is_reported_not_assumed(caplog):
    # a weak line whose angle span cannot carry its thermal rating is flagged
    import logging
    from cases import build_net
    with caplog.at_level(logging.WARNING, logger="gridmaint.caseio"):
        build_net(n_bus=2, demands=[0.0, 0.0], susceptance=0.05,
                  flow_limit=1000.0)
    assert any("big-M may be binding" in rec.message for rec in caplog.records)
