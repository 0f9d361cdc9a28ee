import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridmaint
import gridmaint.cli
from gridmaint.cli import (EXIT_ERROR, EXIT_LIMIT, EXIT_OK, _load_context,
                           _read_schedule, main, make_parser)

from cases import CASE_SINGLE_BUS

TWO_BUS_CASE = """
mpc.baseMVA = 100;
mpc.bus = [
	1	3	40	0	0	0	1	1	0	345	1	1.1	0.9;
	2	1	60	0	0	0	1	1	0	345	1	1.1	0.9;
];
mpc.gen = [
	1	0	0	0	0	1	100	1	200	0;
	2	0	0	0	0	1	100	1	150	0;
];
mpc.branch = [
	1	2	0	0.05	0	90	0	0	0	0	1;
];
mpc.gencost = [
	2	0	0	2	10	0;
	2	0	0	2	25	0;
];
"""

BASE_CONFIG = {
    "horizon_days": 2, "subperiods": 2, "saa_n": 2, "saa_m": 2,
    "saa_nprime": 3, "epsilon": 1e-4, "alpha": 0.4, "seed": 7,
    "cut_family": "optK+", "pfail_gen": 0.0, "pfail_line": 0.0,
    "subproblem_gap": 1e-8,
}


@pytest.fixture
def workdir(tmp_path):
    case = tmp_path / "case.m"
    case.write_text(TWO_BUS_CASE)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    return tmp_path


def run_cli(workdir, *args):
    base = ["--case", str(workdir / "case.m"), "--config",
            str(workdir / "config.json"), "--synth-demand",
            "--out", str(workdir / "out")]
    return main([*args, *base])


def test_preprocess_writes_report(workdir):
    assert run_cli(workdir, "preprocess", "--flow-mode", "II") == EXIT_OK
    report = json.loads((workdir / "out" / "preprocess_report.json").read_text())
    assert report["mode"] == "II"
    assert "config_hash" in report
    csv_text = (workdir / "out" / "flow_redundancy.csv").read_text()
    assert csv_text.startswith("line,dir,scope,f_star,redundant")
    assert report["probes"] == csv_text.count("\n") - 1


def test_preprocess_reports_its_work_in_counts(workdir):
    # with pfail_line 1 the one line is no candidate, so it is probed: two
    # directions on each of the two days in mode II
    (workdir / "config.json").write_text(json.dumps(dict(BASE_CONFIG, pfail_line=1.0)))
    assert run_cli(workdir, "preprocess", "--flow-mode", "II") == EXIT_OK
    report = json.loads((workdir / "out" / "preprocess_report.json").read_text())
    csv_text = (workdir / "out" / "flow_redundancy.csv").read_text()
    assert report["probes"] == csv_text.count("\n") - 1 == 4
    assert isinstance(report["iterations"], int) and report["iterations"] > 0


def test_plan_preflow_reports_what_preprocess_reports(workdir):
    # with pfail_line 1 the one line is no candidate, so mode III probes it
    # in both directions in each of the 2 x 2 hours
    (workdir / "config.json").write_text(json.dumps(dict(BASE_CONFIG, pfail_line=1.0)))
    assert run_cli(workdir, "preprocess", "--flow-mode", "III") == EXIT_OK
    summary = json.loads((workdir / "out" / "preprocess_report.json").read_text())
    assert summary["mode"] == "III" and summary["probes"] == 8
    assert run_cli(workdir, "plan", "--preflow", "III") == EXIT_OK
    report = json.loads((workdir / "out" / "plan_report.json").read_text())
    assert report["status"] == "optimal"
    block = report["preflow"]
    assert block["probes"] > 0 and block["elapsed_s"] >= 0.0
    del block["elapsed_s"], summary["elapsed_s"], summary["config_hash"]
    assert block == summary


def test_config_hash_covers_overrides_and_repeats(workdir):
    def preprocess_hash(seed):
        assert run_cli(workdir, "preprocess", "--seed", seed) == EXIT_OK
        report = (workdir / "out" / "preprocess_report.json").read_text()
        return json.loads(report)["config_hash"]

    first = preprocess_hash("7")
    assert preprocess_hash("8") != first
    assert preprocess_hash("7") == first


def test_plan_writes_schedule_and_report(workdir):
    assert run_cli(workdir, "plan", "--chance", "exact") == EXIT_OK
    report = json.loads((workdir / "out" / "plan_report.json").read_text())
    assert report["status"] == "optimal"
    assert report["gap"] <= BASE_CONFIG["epsilon"]
    assert set(report["timings"]) == {"lower_bounds", "master", "chance",
                                      "subproblems", "cuts"}
    assert "preflow" not in report  # no --preflow, no block
    schedule = (workdir / "out" / "schedule.csv").read_text()
    assert schedule.startswith("component,period")
    scen_text = (workdir / "out" / "scenarios.csv").read_text()
    assert scen_text.startswith("component,k,xi")


def test_plan_reproducible_from_seed(workdir):
    run_cli(workdir, "plan", "--seed", "13")
    first = (workdir / "out" / "schedule.csv").read_text()
    first_obj = json.loads((workdir / "out" / "plan_report.json").read_text())
    run_cli(workdir, "plan", "--seed", "13")
    second = (workdir / "out" / "schedule.csv").read_text()
    second_obj = json.loads((workdir / "out" / "plan_report.json").read_text())
    assert first == second
    assert first_obj["objective"] == second_obj["objective"]
    assert first_obj["schedule_hash"] == second_obj["schedule_hash"]


@pytest.mark.parametrize("command,flag,value,field", [
    ("plan", "--chance", "safe", "chance_mode"),
    ("plan", "--cuts", "optK", "cut_family"),
    ("plan", "--scenarios", 9, "saa_n"),
    ("plan", "--threads", 2, "threads"),
    ("plan", "--seed", 11, "seed"),
    ("evaluate", "--test-scenarios", 9, "saa_nprime"),
    ("saa", "--M", 3, "saa_m"),
    ("saa", "--N", 9, "saa_n"),
    ("saa", "--Nprime", 9, "saa_nprime"),
    ("saa", "--threads", 2, "threads"),
])
def test_override_flag_sets_its_config_field(workdir, command, flag, value, field):
    def context(*extra):
        argv = [command, *extra, "--case", str(workdir / "case.m"), "--config",
                str(workdir / "config.json"), "--synth-demand",
                "--out", str(workdir / "out")]
        if command == "evaluate":
            argv += ["--schedule", str(workdir / "schedule.csv")]
        _, _, cfg, _, config_hash = _load_context(make_parser().parse_args(argv))
        return cfg, config_hash

    cfg, flag_hash = context(flag, str(value))
    assert getattr(cfg, field) == value
    # the flag and the same value in the config file are the same run
    (workdir / "config.json").write_text(json.dumps({**BASE_CONFIG, field: value}))
    assert context() == (cfg, flag_hash)


def test_plan_limit_exit_code(workdir):
    cfg = dict(BASE_CONFIG, iteration_limit=0)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "plan") == EXIT_LIMIT


def test_plan_invalid_flag_combination(workdir):
    cfg = dict(BASE_CONFIG, aggregation="single")
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "plan", "--cuts", "optKT++") == EXIT_ERROR


def test_plan_safe_mode(workdir):
    assert run_cli(workdir, "plan", "--chance", "safe") == EXIT_OK
    report = json.loads((workdir / "out" / "plan_report.json").read_text())
    assert report["chance_mode"] == "safe"


def test_evaluate_schedule_file(workdir):
    run_cli(workdir, "plan")
    out = workdir / "out"
    code = run_cli(workdir, "evaluate", "--schedule", str(out / "schedule.csv"),
                   "--baseline")
    assert code == EXIT_OK
    report = json.loads((out / "evaluation_report.json").read_text())
    assert 0.0 <= report["violation_freq"] <= 1.0
    assert "cost_improvement_pct" in report
    table = (out / "evaluation.csv").read_text()
    assert table.splitlines()[0].startswith("model,")
    assert any(line.startswith("deterministic,") for line in table.splitlines())


def test_evaluate_rejects_empty_schedule(workdir, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("component,period\n")
    assert run_cli(workdir, "evaluate", "--schedule", str(empty)) == EXIT_ERROR


@pytest.mark.parametrize("row", ["g2,3,4", "g1,x"])
def test_read_schedule_names_file_and_line_of_bad_row(tmp_path, row):
    path = tmp_path / "schedule.csv"
    path.write_text(f"component,period\ng1,2\n{row}\n")
    with pytest.raises(ValueError, match=rf"schedule\.csv, line 3: .*{row}"):
        _read_schedule(str(path))


def test_read_schedule_rejects_a_component_scheduled_twice(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("component,period\ng1,2\ng2,4\ng1,5\n")
    with pytest.raises(ValueError, match=r"schedule\.csv, lines 2 and 4: .*'g1'"):
        _read_schedule(str(path))


def test_evaluate_deterministic_rerun(workdir):
    run_cli(workdir, "plan")
    out = workdir / "out"
    run_cli(workdir, "evaluate", "--schedule", str(out / "schedule.csv"))
    first = json.loads((out / "evaluation_report.json").read_text())
    run_cli(workdir, "evaluate", "--schedule", str(out / "schedule.csv"))
    second = json.loads((out / "evaluation_report.json").read_text())
    assert first["total"] == second["total"]
    assert first["violation_freq"] == second["violation_freq"]


def test_saa_degenerate_zero_gap(workdir):
    case = workdir / "case.m"
    case.write_text(CASE_SINGLE_BUS)
    # thresholds at 1.0 select nothing: every sample is the no-failure world
    cfg = dict(BASE_CONFIG, saa_m=2, saa_n=1, saa_nprime=1,
               pfail_gen=1.0, pfail_line=1.0)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "saa") == EXIT_OK
    report = json.loads((workdir / "out" / "saa_report.json").read_text())
    assert report["gap_pct"] == pytest.approx(0.0, abs=1e-6)
    assert report["ci_lower"][0] <= report["ci_lower"][1]
    assert report["ci_upper"][0] <= report["ci_upper"][1]


def test_saa_rejects_single_replicate(workdir):
    assert run_cli(workdir, "saa", "--M", "1") == EXIT_ERROR


def test_unknown_config_key_is_an_error(workdir):
    (workdir / "config.json").write_text('{"bogus": 1}')
    assert run_cli(workdir, "plan") == EXIT_ERROR


def test_choice_flags_offer_what_the_program_accepts():
    from gridmaint import preflow
    from gridmaint.caseio import CHANCE_MODES, CUT_FAMILIES
    commands = next(a for a in make_parser()._actions if a.dest == "command")
    choices = {(name, a.dest): tuple(a.choices)
               for name, sub in commands.choices.items()
               for a in sub._actions if a.choices}
    assert choices == {("plan", "cut_family"): CUT_FAMILIES,
                       ("plan", "chance_mode"): CHANCE_MODES,
                       ("plan", "preflow"): ("off", *preflow.MODES),
                       ("preprocess", "flow_mode"): preflow.MODES}


def test_plan_families_agree_on_objective(workdir):
    objectives = {}
    for family in ("intLS", "optK", "optK+", "optKT++"):
        assert run_cli(workdir, "plan", "--cuts", family) == EXIT_OK
        report = json.loads((workdir / "out" / "plan_report.json").read_text())
        objectives[family] = report["objective"]
    values = list(objectives.values())
    assert all(abs(v - values[0]) <= 1e-4 * max(1.0, abs(values[0]))
               for v in values)


def test_plan_writes_cut_log(workdir):
    assert run_cli(workdir, "plan") == EXIT_OK
    report = json.loads((workdir / "out" / "plan_report.json").read_text())
    log_text = (workdir / "out" / "cuts.log").read_text()
    pooled = report["counts"]["opt_cuts"] + report["counts"]["chance_cuts"]
    assert log_text.count("\n") == pooled
    if pooled:
        assert "theta" in log_text


def test_plan_reuses_scenario_file(workdir):
    assert run_cli(workdir, "plan") == EXIT_OK
    out = workdir / "out"
    first = json.loads((out / "plan_report.json").read_text())
    scen_file = workdir / "saved_scenarios.csv"
    scen_file.write_text((out / "scenarios.csv").read_text())
    assert run_cli(workdir, "plan", "--scenario-file", str(scen_file),
                   "--seed", "99") == EXIT_OK
    second = json.loads((out / "plan_report.json").read_text())
    # identical training scenarios give the identical optimum despite the seed
    assert second["objective"] == pytest.approx(first["objective"], rel=1e-9)


def test_plan_writes_rld_parameters(workdir):
    assert run_cli(workdir, "plan") == EXIT_OK
    params = json.loads((workdir / "out" / "rld_params.json").read_text())
    assert set(params) == {"g1", "g2", "l1"}
    fitted = [p for p in params.values() if p is not None]
    assert fitted and all(p["shape_mu"] > 0 for p in fitted)


def test_saa_writes_summary_table(workdir):
    cfg = dict(BASE_CONFIG, saa_m=2, saa_n=1, saa_nprime=1,
               pfail_gen=1.0, pfail_line=1.0)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "saa") == EXIT_OK
    table = (workdir / "out" / "saa_summary.csv").read_text()
    assert table.startswith("N,ci_lb_lo,ci_lb_hi,ci_ub_lo,ci_ub_hi,gap_pct")


def test_importing_every_module_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second to import; gridmaint needs only
    # the scipy.special functions it is built on
    code = "import sys, gridmaint.cli; print('scipy.stats' in sys.modules)"
    src = Path(gridmaint.cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "False", out.stderr


def test_every_export_list_entry_resolves():
    # a name deleted from a module but left in its __all__ breaks
    # ``from module import *``
    for info in pkgutil.iter_modules(gridmaint.__path__):
        module = importlib.import_module(f"gridmaint.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"gridmaint.{info.name}.__all__ names {missing}"
