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
from gridmaint import saa
from gridmaint.cli import (EXIT_ERROR, EXIT_LIMIT, EXIT_OK, _load_context,
                           _read_schedule, main, make_parser)
from gridmaint.instance import build_instance, scenario_stream, training_scenarios

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
    write_near_failure_config(workdir)
    out = workdir / "out"
    assert run_cli(workdir, "plan", "--seed", "13") == EXIT_OK
    first = (out / "schedule.csv").read_text()
    first_scens = (out / "scenarios.csv").read_text()
    first_obj = json.loads((out / "plan_report.json").read_text())
    assert run_cli(workdir, "plan", "--seed", "13") == EXIT_OK
    second = (out / "schedule.csv").read_text()
    second_obj = json.loads((out / "plan_report.json").read_text())
    assert first == second
    assert (out / "scenarios.csv").read_text() == first_scens
    assert first_obj["objective"] == second_obj["objective"]
    assert first_obj["schedule_hash"] == second_obj["schedule_hash"]
    assert run_cli(workdir, "plan", "--seed", "14") == EXIT_OK
    assert (out / "scenarios.csv").read_text() != first_scens  # the seed is read


@pytest.mark.parametrize("command,flag,value,field", [
    ("plan", "--chance", "safe", "chance_mode"),
    ("plan", "--cuts", "optK", "cut_family"),
    ("plan", "--scenarios", 9, "saa_n"),
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


# components observed close to their failure level, so that samples from
# different streams differ on the two-bus case's two days
NEAR_FAILURE = {"mu0": 80.0, "kappa0": 5.0, "mu1": 5.0, "kappa1": 0.3,
                "sigma": 3.0, "threshold": 100.0}


def write_near_failure_config(workdir):
    """Write the base config with NEAR_FAILURE priors.  With the default
    priors every component's failure probability within the two days is
    below 1e-23, so every sample would be the no-failure world."""
    (workdir / "config.json").write_text(json.dumps(
        dict(BASE_CONFIG, priors_gen=NEAR_FAILURE, priors_line=NEAR_FAILURE)))


def command_instance(workdir, *args):
    """The instance and config that a command with ``args`` builds from the
    workdir's case and config."""
    argv = [*args, "--case", str(workdir / "case.m"), "--config",
            str(workdir / "config.json"), "--synth-demand", "--out", str(workdir / "out")]
    net, grid, cfg, _, _ = _load_context(make_parser().parse_args(argv))
    return build_instance(net, grid, cfg), cfg


def near_failure_instance(workdir, *args):
    """Write a config with NEAR_FAILURE priors; the instance and config that
    a command with ``args`` builds from it."""
    write_near_failure_config(workdir)
    return command_instance(workdir, *args)


def test_plan_solves_saa_replicate_zeros_training_set(workdir):
    # plan used to sample from default_rng(seed), the stream build_instance
    # draws the degradation histories from
    inst, cfg = near_failure_instance(workdir, "plan", "--seed", "7")
    assert run_cli(workdir, "plan", "--seed", "7") == EXIT_OK
    written = (workdir / "out" / "scenarios.csv").read_text()
    assert written == training_scenarios(inst, cfg.saa_n, scenario_stream(7, 0)).to_csv()
    assert written != training_scenarios(inst, cfg.saa_n, 7).to_csv()


def test_evaluate_scores_on_the_saa_test_set(workdir, monkeypatch):
    # evaluate used to sample from seed + 1, a stream no SAA run draws from
    inst, cfg = near_failure_instance(workdir, "plan", "--seed", "7")
    assert run_cli(workdir, "plan", "--seed", "7") == EXIT_OK
    schedule = workdir / "out" / "schedule.csv"
    assert run_cli(workdir, "evaluate", "--seed", "7",
                   "--schedule", str(schedule)) == EXIT_OK
    report = json.loads((workdir / "out" / "evaluation_report.json").read_text())
    evaluate = saa.evaluate_schedule
    test_sets = []
    monkeypatch.setattr(saa, "evaluate_schedule", lambda inst, sched, scens, *rest:
                        test_sets.append(scens) or evaluate(inst, sched, scens, *rest))
    saa.run_saa(inst, cfg)
    assert report["total"] == evaluate(inst, _read_schedule(str(schedule)),
                                       test_sets[0], None, cfg).total


def test_plan_limit_exit_code(workdir):
    cfg = dict(BASE_CONFIG, iteration_limit=0)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "plan") == EXIT_LIMIT
    # a run stopped before any incumbent has no finite objective, bound or
    # gap; the report stays RFC 8259 JSON, which has no Infinity or NaN
    text = (workdir / "out" / "plan_report.json").read_text()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(text, parse_constant=reject)
    assert report["status"] == "limit"
    assert report["objective"] is None and report["bound"] is None
    assert report["gap"] is None


def test_plan_has_no_threads_flag(capsys):
    # a plan runs on the calling thread; only saa solves replicates at once
    with pytest.raises(SystemExit):
        make_parser().parse_args(["plan", "--case", "c.m", "--synth-demand",
                                  "--threads", "2"])
    assert "--threads" in capsys.readouterr().err


def test_a_usage_error_exits_as_an_error_not_as_a_limit(capsys):
    # argparse would exit 2, which is EXIT_LIMIT: a run stopped at its limit
    assert main(["plan", "--case", "c.m", "--synth-demand",
                 "--threads", "2"]) == EXIT_ERROR
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert main(["plan", "--help"]) == EXIT_OK
    assert "--preflow" in capsys.readouterr().out


def test_a_command_must_name_its_demand_source(workdir, capsys):
    # without a source the run would plan silently on synthetic load
    argv = ["plan", "--case", str(workdir / "case.m"), "--config",
            str(workdir / "config.json"), "--out", str(workdir / "out")]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "--demand" in err and "--synth-demand" in err
    assert not (workdir / "out").exists()


def test_plan_invalid_flag_combination(workdir, caplog):
    # every cut family adds one cut per recourse variable; a config that
    # still asks for a cut form is refused as naming an unknown key
    cfg = dict(BASE_CONFIG, aggregation="single")
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "plan", "--cuts", "optKT++") == EXIT_ERROR
    assert "unknown config keys: ['aggregation']" in caplog.text


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
    write_near_failure_config(workdir)
    assert run_cli(workdir, "plan") == EXIT_OK
    out = workdir / "out"

    def evaluate(*seed):
        assert run_cli(workdir, "evaluate", "--schedule", str(out / "schedule.csv"),
                       *seed) == EXIT_OK
        return json.loads((out / "evaluation_report.json").read_text())

    first, second = evaluate(), evaluate()
    assert first["total"] == second["total"]
    assert first["violation_freq"] == second["violation_freq"]
    assert first["avg_failures"] == second["avg_failures"]
    # evaluate writes no scenarios.csv: another seed's test set shows in its
    # failure counts
    assert evaluate("--seed", "8")["avg_failures"] != first["avg_failures"]


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
    write_near_failure_config(workdir)
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
    assert (out / "scenarios.csv").read_text() == scen_file.read_text()
    assert run_cli(workdir, "plan", "--seed", "99") == EXIT_OK
    assert (out / "scenarios.csv").read_text() != scen_file.read_text()


def test_plan_writes_rld_parameters(workdir):
    assert run_cli(workdir, "plan") == EXIT_OK
    params = json.loads((workdir / "out" / "rld_params.json").read_text())
    assert set(params) == {"g1", "g2", "l1"}
    fitted = [p for p in params.values() if p is not None]
    assert fitted and all(p["shape_mu"] > 0 for p in fitted)
    # each entry holds exactly the fitted law of the instance plan builds
    inst, _ = command_instance(workdir, "plan")
    for comp, c in inst.components.items():
        assert params[comp] == (None if c.rld is None else {
            "shape_mu": c.rld.shape_mu, "scale_lambda": c.rld.scale_lambda,
            "t_obs": c.rld.t_obs}), comp


def test_saa_writes_summary_table(workdir):
    cfg = dict(BASE_CONFIG, saa_m=2, saa_n=1, saa_nprime=1,
               pfail_gen=1.0, pfail_line=1.0)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run_cli(workdir, "saa") == EXIT_OK
    table = (workdir / "out" / "saa_summary.csv").read_text()
    assert table.startswith("N,ci_lb_lo,ci_lb_hi,ci_ub_lo,ci_ub_hi,gap_pct")


def test_importing_every_module_leaves_scipy_stats_unloaded():
    # gridmaint needs two SciPy extension modules (the HiGHS bindings and the
    # ufuncs holding ndtr and log_ndtr) and loads them from their files; the
    # package inits around them load scipy.linalg, scipy.sparse and more,
    # and scipy.stats alone costs about half a second
    packages = ["scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse",
                "scipy.stats"]
    code = ("import sys, gridmaint.cli\n"
            f"print([name for name in {packages!r} if name in sys.modules])")
    src = Path(gridmaint.cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_every_export_list_entry_resolves():
    # a name deleted from a module but left in its __all__ breaks
    # ``from module import *``
    for info in pkgutil.iter_modules(gridmaint.__path__):
        module = importlib.import_module(f"gridmaint.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"gridmaint.{info.name}.__all__ names {missing}"
