import csv
import errno
import gc
import hashlib
import json
import multiprocessing
import os
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from attdiag import cli_report, decision, identification, resample, simulation
from attdiag.cli_report import RunConfig, main
from attdiag.errors import AttDiagError, ConfigError, DependencyError, WitnessError, WorkerError
from attdiag.estimators import MatchSpec
from attdiag.ingest import SOURCE_URLS
from attdiag.propensity import PropensityModel, TrimRule, fit_logistic, score_dataset
from attdiag.resample import stratified_indices
from attdiag.work import COUNTS
from conftest import (
    counted, dataset_to_text, deadline, reaped, record_float_sorts, record_forks,
    synthetic_observational,
)

# Grid edges sized to the synthetic generator's covariate ranges.
SYNTH_GRIDS = {
    "calibrated": False,
    "dataset": {"treated_source": "local", "control_source": "local"},
    "fine": {"age_edges": [16, 21, 26, 31, 36, 41, 46, 51, 56],
             "education_edges": [0, 3, 6, 9, 12, 15, 18]},
    "coarse": {"age_edges": [16, 26, 36, 46, 56],
               "education_edges": [0, 6, 12, 18]},
}


def write_synthetic_config(tmp_path: Path, *, b: int = 12, sim_n: int = 20000,
                           data_seed: int = 61, n_treated: int = 90,
                           n_control: int = 700) -> Path:
    data = synthetic_observational(seed=data_seed, n_treated=n_treated,
                                   n_control=n_control)
    treated_file = tmp_path / "treated.txt"
    control_file = tmp_path / "control.txt"
    treated_file.write_text(dataset_to_text(data.subset(data.treated)))
    control_file.write_text(dataset_to_text(data.subset(~data.treated)))
    grid_file = tmp_path / "grids.json"
    grid_file.write_text(json.dumps(SYNTH_GRIDS))
    config = tmp_path / "run.ini"
    config.write_text(
        f"""
[data]
source = local
treated_file = {treated_file}
control_file = {control_file}

[grids]
config = {grid_file}

[bounds]
tilt_deltas = 0 0.1 0.5 1.0
proxy_deltas = 0 0.5 1.0

[bootstrap]
b = {b}

[simulation]
n = {sim_n}
"""
    )
    return config


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[data]\nsource = local\nmystery = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        RunConfig.from_file(bad, seed=1, out_dir=tmp_path)
    worse = tmp_path / "worse.ini"
    worse.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        RunConfig.from_file(worse, seed=1, out_dir=tmp_path)


def test_config_requires_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_file(None, seed=None, out_dir=tmp_path)


@pytest.mark.parametrize("command", ["reproduce", "simulate"])
def test_a_negative_seed_fails_before_any_output(tmp_path, capsys, command):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--seed", "-1", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["message"] == "seed must be >= 0, got -1"
    assert not out.exists()


def test_a_config_file_not_in_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_bytes(b"[simulation]\nn = 5000 \xff\xfe\n")
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "1", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"config file {config} malformed:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini"]


def test_an_out_that_names_a_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    assert main(["simulate", "--seed", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"--out {out}: cannot make the output directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert out.read_text() == "kept\n"


def test_the_default_config_file_holds_the_built_in_defaults(tmp_path):
    shipped = RunConfig.from_file(Path(__file__).resolve().parents[1] / "configs" / "default.ini",
                                  seed=1, out_dir=tmp_path)
    built_in = RunConfig.from_file(None, seed=1, out_dir=tmp_path)
    assert shipped.raw == built_in.raw
    assert shipped.digest() == built_in.digest()


@pytest.mark.parametrize("damage", ["directory", "not_utf8"])
def test_an_unreadable_local_table_is_a_dependency_error(tmp_path, capsys, damage):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    treated = tmp_path / "treated.txt"
    treated.unlink()
    if damage == "directory":
        treated.mkdir()
    else:
        treated.write_bytes(b"1 \xff\xfe 2\n")
    assert main(["fetch", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "DependencyError"
    assert record["message"] == ("[data] treated_file missing or unreadable; "
                                 "point it at a local table")


def test_a_damaged_cache_manifest_fails_fetch_by_name(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "nsw_treated.txt").write_text("1 2 3\n")
    (cache / "manifest.json").write_text("[]")
    config = tmp_path / "remote.ini"
    config.write_text(f"[data]\nsource = remote\ncache_dir = {cache}\n")
    assert main(["fetch", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out"), "--offline"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "IntegrityError"
    assert f"{cache / 'manifest.json'} damaged" in record["message"]


def test_missing_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file(tmp_path / "nope.ini", seed=1, out_dir=tmp_path)


@pytest.mark.parametrize("key", sorted(SOURCE_URLS))
@pytest.mark.parametrize("role", ["treated", "control"])
def test_every_declared_source_can_be_named_in_a_run(tmp_path, role, key):
    config = tmp_path / "run.ini"
    config.write_text(f"[data]\nsource = remote\noffline = true\n{role}_source = {key}\n")
    cfg = RunConfig.from_file(config, seed=1, out_dir=tmp_path)
    assert cfg.get("data", f"{role}_source") == key


def test_dependency_error_for_missing_model(tmp_path, capsys):
    config = write_synthetic_config(tmp_path)
    # (commands run first, command that needs a missing artifact, its producer)
    cases = [((), "match", "propensity"), (("propensity",), "fragility", "match")]
    for i, (before, command, producer) in enumerate(cases):
        out = tmp_path / f"out{i}"
        for upstream in before:
            assert main([upstream, "--config", str(config), "--seed", "5",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        code = main([command, "--config", str(config), "--seed", "5", "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DependencyError"
        assert producer in record["message"]
    # A damaged upstream artifact: (file, its text, command that reads it, producer).
    out = tmp_path / "damaged"
    for upstream in ("propensity", "match"):
        assert main([upstream, "--config", str(config), "--seed", "5", "--out", str(out)]) == 0
    model_text = (out / "propensity_model.json").read_text()
    model_keys = json.loads(model_text)
    del model_keys["coefficients"]
    header = (out / "table1.csv").read_text().splitlines()[0]
    cases = [("propensity_model.json", model_text[:40], "match", "propensity"),
             ("propensity_model.json", "", "match", "propensity"),
             ("propensity_model.json", json.dumps(model_keys), "match", "propensity"),
             ("table1.csv", "", "fragility", "match"),
             ("table1.csv", header + "\n", "fragility", "match"),
             ("table1.csv", header + "\nfull_sample,abc,1.0,90,0\n", "fragility", "match")]
    for name, text, command, producer in cases:
        kept = (out / name).read_text()
        (out / name).write_text(text)
        capsys.readouterr()
        assert main([command, "--config", str(config), "--seed", "5", "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DependencyError"
        assert name in record["message"] and producer in record["message"]
        (out / name).write_text(kept)


def test_reproduce_parses_each_table_once(tmp_path, monkeypatch):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    calls = []
    real_parse = cli_report.parse_table

    def counting_parse(text, schema):
        calls.append(schema)
        return real_parse(text, schema)

    monkeypatch.setattr(cli_report, "parse_table", counting_parse)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2  # the treated table and the control table


def test_fragility_sorts_controls_once(tmp_path, monkeypatch):
    # Data seed 3 with a grid reaching delta = 6: the minimax decision flips
    # between 2 and 3, so the stage bisects.
    config = write_synthetic_config(tmp_path, data_seed=3)
    config.write_text(config.read_text().replace("tilt_deltas = 0 0.1 0.5 1.0",
                                                 "tilt_deltas = 0 0.5 1 2 3 4 6"))
    out = tmp_path / "out"
    for upstream in ("propensity", "match"):
        assert main([upstream, "--config", str(config), "--seed", "5",
                     "--out", str(out)]) == 0
    sorts = record_float_sorts(monkeypatch)
    assert main(["fragility", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "fragility.json").read_text())
    assert payload["baseline_decision"] == "treat"
    # The value the per-delta path (one sort per bisection step) gives.
    assert payload["fragility_delta"] == 2.02618408203125
    # The controls are sorted once, when their tilting inputs are gathered,
    # and the problem built on them does not sort again.
    assert sorts == [("argsort", 700)]


def test_tilting_stages_log_their_work(tmp_path, monkeypatch, capsys):
    # The grid of test_fragility_sorts_controls_once, so fragility bisects.
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000, data_seed=3)
    config.write_text(config.read_text().replace("tilt_deltas = 0 0.1 0.5 1.0",
                                                 "tilt_deltas = 0 0.5 1 2 3 4 6"))
    built = []
    real_problem = identification.TiltingProblem

    def recording_problem(*args):
        built.append(args)
        return real_problem(*args)

    monkeypatch.setattr(identification, "TiltingProblem", recording_problem)
    capsys.readouterr()
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    records = {r["stage"]: r for r in _log_lines(capsys.readouterr().out)}
    bounds, fragility = records["bounds"], records["fragility"]
    # Replayed on the same controls, the problem's construction and the
    # sweep's work are what the bounds line logs, and the bisection's what
    # the fragility line logs.
    [args] = built
    replay, build_work = counted(real_problem, *args)
    sweep, sweep_work = counted(replay.sweep, [0, 0.5, 1, 2, 3, 4, 6])
    # The construction's delta-0 pass scans every split point.
    assert (bounds["tilt_split_points_evaluated"]
            == build_work["tilt_split_points_evaluated"]
            + sweep_work["tilt_split_points_evaluated"]
            > replay.distinct_outcomes)
    _, bisection_work = counted(decision.fragility_index, sweep, interval_at=replay.interval)
    assert fragility["bisection_evals"] == bisection_work["bisection_evals"] > 0
    assert (fragility["tilt_split_points_evaluated"]
            == bisection_work["tilt_split_points_evaluated"] > 0)
    assert "split_points" not in (tmp_path / "out" / "report.json").read_text()


def test_fragility_on_a_grid_ending_at_infinity(tmp_path, monkeypatch):
    # The decision flips between the grid's two deltas, 0 and inf, so the
    # bisection first needs a finite upper end. An interval that raises
    # past 2,000 evaluations turns a bisection that never ends into a failure.
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000, data_seed=3)
    config.write_text(config.read_text().replace("tilt_deltas = 0 0.1 0.5 1.0",
                                                 "tilt_deltas = 0 inf"))
    real_interval = identification.TiltingProblem.interval
    problems = []

    def bounded_interval(self, delta):
        problems.append(self)
        if len(problems) > 2000:
            raise RuntimeError("the fragility bisection did not end")
        return real_interval(self, delta)

    monkeypatch.setattr(identification.TiltingProblem, "interval", bounded_interval)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    frag = json.loads((tmp_path / "out" / "fragility.json").read_text())["fragility_delta"]
    assert 0 < frag < float("inf")
    [problem] = set(problems)
    baseline = decision.minimax_rule(real_interval(problem, 0.0))
    assert decision.minimax_rule(real_interval(problem, frag)) != baseline
    assert decision.minimax_rule(real_interval(problem, frag - 1e-4)) == baseline


def test_equal_scores_fail_match_on_their_zero_spread(tmp_path, capsys):
    # With no Newton step every score is 0.5, so the caliper design's 0.2 SD
    # of the logit scores would be 0.
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    config.write_text(config.read_text() + "\n[propensity]\nmax_iter = 0\n")
    capsys.readouterr()
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["message"] == ("stage 'match' failed: the logit scores have zero "
                                 "spread, so the caliper design (0.2 SD of the logit "
                                 "scores) is undefined")


def test_simulate_writes_five_row_sweep(tmp_path):
    config = write_synthetic_config(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sim_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,observed_ate,lo,hi"
    assert len(lines) == 6  # header + the five grid deltas
    assert (out / "witness.json").exists()


def test_bounds_single_delta_reduces_to_point(tmp_path):
    config = write_synthetic_config(tmp_path)
    text = config.read_text().replace("tilt_deltas = 0 0.1 0.5 1.0",
                                      "tilt_deltas = 0")
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["propensity", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    assert main(["bounds", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    rows = (out / "sweep_tilting.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    _, lo, hi, width, _ = rows[1].split(",")
    assert abs(float(hi) - float(lo)) <= 1e-9
    assert float(width) <= 1e-9


def test_full_reproduce_pipeline_and_determinism(tmp_path):
    config = write_synthetic_config(tmp_path)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["reproduce", "--config", str(config), "--seed", "40",
                 "--out", str(out1)]) == 0
    assert main(["reproduce", "--config", str(config), "--seed", "40",
                 "--out", str(out2)]) == 0

    expected = [
        "report.json", "table1.csv", "support_72.csv", "support_42.csv",
        "pscore_hist.csv", "sweep_tilting.csv", "sweep_proxy.csv",
        "bootstrap.csv", "deciles.csv", "designs.csv", "sim_sweep.csv",
        "fragility.json", "fragility_curve.csv", "massi.json",
        "propensity_model.json", "witness.json",
        "pscore_hist.svg", "sweep_tilting.svg", "sim_sweep.svg", "fragility.svg",
    ]
    for name in expected:
        assert (out1 / name).exists(), name

    report1 = json.loads((out1 / "report.json").read_text())
    report2 = json.loads((out2 / "report.json").read_text())
    report1["metadata"].pop("timestamp")
    report2["metadata"].pop("timestamp")
    assert report1 == report2

    # header golden checks
    assert (out1 / "table1.csv").read_text().splitlines()[0] == (
        "estimation_sample,att_estimate,standard_error,n_treated_used,n_dropped"
    )
    assert (out1 / "deciles.csv").read_text().splitlines()[0] == (
        "decile,n_treated,n_control,att,se,dropped"
    )
    assert (out1 / "bootstrap.csv").read_text().splitlines()[0] == (
        "replicate,full_sample,score_trimmed"
    )
    # Every CSV artifact is valid CSV: each row as wide as its header, the
    # trimmed sample's label (which holds a comma) quoted.
    for path in out1.glob("*.csv"):
        with path.open(newline="") as table:
            rows = list(csv.reader(table))
        assert rows and all(len(row) == len(rows[0]) for row in rows), path.name
    assert (out1 / "table1.csv").read_text().splitlines()[3].startswith(
        '"score_trimmed[0.1,0.9]",')

    # The trim drops are the units whose score lies outside [0.1, 0.9].
    data = cli_report._load_data(RunConfig.from_file(config, seed=40, out_dir=out1))[0]
    scores = score_dataset(
        PropensityModel.from_json((out1 / "propensity_model.json").read_text()), data)
    dropped = (scores < 0.1) | (scores > 0.9)
    assert report1["match"]["values"]["trim_drops"] == {
        "dropped_treated": int(np.sum(dropped & data.treated)),
        "dropped_control": int(np.sum(dropped & ~data.treated))}

    # every section carries its producing module and the config digest
    digest = report1["metadata"]["config_digest"]
    for section, payload in report1.items():
        if section == "metadata":
            continue
        assert payload["module"]
        assert payload["config_digest"] == digest


def test_reproduce_cold_cache_offline_fails_at_fetch(tmp_path, capsys):
    config = tmp_path / "remote.ini"
    config.write_text(f"[data]\nsource = remote\ncache_dir = {tmp_path}/cache\n")
    out = tmp_path / "out"
    code = main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(out), "--offline"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "fetch" in record["message"]


def test_a_stage_after_fetch_on_a_cold_cache_offline_names_fetch(tmp_path, capsys):
    config = tmp_path / "remote.ini"
    config.write_text(f"[data]\nsource = remote\ncache_dir = {tmp_path}/cache\n")
    assert main(["support", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out"), "--offline"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "DependencyError"
    assert "run the fetch command first" in record["message"]


def test_seed_changes_bootstrap_but_not_estimates(tmp_path):
    config = write_synthetic_config(tmp_path, b=8, sim_n=5000)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    for seed, out in ((1, out1), (2, out2)):
        assert main(["propensity", "--config", str(config), "--seed", str(seed),
                     "--out", str(out)]) == 0
        assert main(["match", "--config", str(config), "--seed", str(seed),
                     "--out", str(out)]) == 0
        assert main(["bootstrap", "--config", str(config), "--seed", str(seed),
                     "--out", str(out)]) == 0
    # matching is seed-free
    assert (out1 / "table1.csv").read_text() == (out2 / "table1.csv").read_text()
    # bootstrap draws differ by seed
    assert (out1 / "bootstrap.csv").read_text() != (out2 / "bootstrap.csv").read_text()


def test_bootstrap_refits_use_propensity_iteration_budget(tmp_path):
    config = write_synthetic_config(tmp_path, b=8, sim_n=5000)
    capped = tmp_path / "capped.ini"
    capped.write_text(config.read_text() + "\n[propensity]\nmax_iter = 1\n")
    for cfg, out in ((config, tmp_path / "default"), (capped, tmp_path / "capped")):
        assert main(["bootstrap", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    # One Newton step leaves the refit short of the optimum, which moves the
    # replicate estimates only if the budget reaches the refits.
    assert ((tmp_path / "default" / "bootstrap.csv").read_text()
            != (tmp_path / "capped" / "bootstrap.csv").read_text())


def test_bootstrap_fits_each_replicate_once(tmp_path, capsys):
    config = write_synthetic_config(tmp_path, b=8, sim_n=5000)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["bootstrap", "--config", str(config), "--seed", "3",
                 "--out", str(out)]) == 0
    [record] = _log_lines(capsys.readouterr().out)
    cfg = RunConfig.from_file(config, seed=3, out_dir=out)
    data = cli_report._load_data(cfg)[0]
    covariates = cfg.get("propensity", "covariates")
    iterations = sum(
        fit_logistic(data.take_with_fresh_ids(stratified_indices(
            simulation._stage_rng(3, r), data.treated)), covariates).iterations
        for r in range(8))
    # One refit per replicate serves the full-sample and trimmed designs;
    # the counters are summed over the worker processes.
    assert record["fits"] == 8 and record["fit_iterations"] == iterations
    assert record["units_drawn"] == 8 * len(data)
    assert record["workers"] == min(resample.available_cpus(), 8)
    assert record["failed_by_type"] == {"full": {}, "trimmed": {}}
    rows = (out / "bootstrap.csv").read_text().splitlines()
    assert rows[0] == "replicate,full_sample,score_trimmed"
    assert len(rows) == 9
    # None of the counters enters the report values.
    assert "fits" not in json.dumps(cli_report.cmd_bootstrap(cfg)[0])


PHASES = ("draw_s", "fit_s", "score_s", "trim_s", "match_s")


def test_bootstrap_line_splits_its_cpu_seconds_by_phase(tmp_path, capsys, monkeypatch):
    config = write_synthetic_config(tmp_path, b=8, sim_n=5000)
    records = {}
    for stripes in (1, 2, 3):
        monkeypatch.setattr(resample, "available_cpus", lambda: stripes)
        capsys.readouterr()
        assert main(["bootstrap", "--config", str(config), "--seed", "3",
                     "--out", str(tmp_path / f"out{stripes}")]) == 0
        [records[stripes]] = _log_lines(capsys.readouterr().out)
    # One stripe runs in this process, on the clock cpu_s reads, and the
    # phases are disjoint parts of the stage.
    one = records[1]
    assert sum(one[phase] for phase in PHASES) <= one["cpu_s"]

    def ledger(record):
        return {key: record[key] for key in record if key in COUNTS and key != "workers"}

    for stripes, record in records.items():
        assert record["workers"] == stripes
        assert all(record[phase] >= 0 for phase in PHASES)
        # The seconds stay out of the count ledger, which every stripe count
        # fills alike.
        assert ledger(record) == ledger(one)
        assert not set(PHASES) & set(COUNTS)


def test_bootstrap_csv_pairs_estimates_by_replicate(tmp_path):
    config = write_synthetic_config(tmp_path, b=40, data_seed=45, n_treated=12,
                                    n_control=60)
    config.write_text(config.read_text() + "\n[propensity]\n"
                      "covariates = age education re74 re75\n"
                      "\n[trim]\nlow = 0.3\nhigh = 0.7\n")
    out = tmp_path / "out"
    assert main(["bootstrap", "--config", str(config), "--seed", "47",
                 "--out", str(out)]) == 0
    cfg = RunConfig.from_file(config, seed=47, out_dir=out)
    data = cli_report._load_data(cfg)[0]
    summary = resample.bootstrap_att(
        data, MatchSpec(), 40, 47, covariates=["age", "education", "re74", "re75"],
        trim_rule=TrimRule(0.3, 0.7))
    # Five replicates fail in the trimmed design only; at the parent their
    # rows held later replicates' trimmed estimates.
    assert summary.n_failed == 0 and summary.trimmed.n_failed == 5
    full = dict(zip(summary.replicates, summary.estimates))
    trimmed = dict(zip(summary.trimmed.replicates, summary.trimmed.estimates))
    rows = [row.split(",") for row in (out / "bootstrap.csv").read_text().splitlines()]
    assert rows[0] == ["replicate", "full_sample", "score_trimmed"]
    assert [int(row[0]) for row in rows[1:]] == list(range(40))
    for r, full_cell, trimmed_cell in rows[1:]:
        assert float(full_cell) == full[int(r)]
        if int(r) in trimmed:
            assert float(trimmed_cell) == trimmed[int(r)]
        else:
            assert trimmed_cell == ""


def test_reproduce_summary_counts_bootstrap_failures(tmp_path, capsys):
    # The data and trim rule of the test above: five replicates fail in
    # the trimmed design only.
    config = write_synthetic_config(tmp_path, b=40, data_seed=45, n_treated=12,
                                    n_control=60)
    config.write_text(config.read_text() + "\n[propensity]\n"
                      "covariates = age education re74 re75\n"
                      "\n[trim]\nlow = 0.3\nhigh = 0.7\n")
    capsys.readouterr()
    assert main(["reproduce", "--config", str(config), "--seed", "47",
                 "--out", str(tmp_path / "out")]) == 0
    records = _log_lines(capsys.readouterr().out)
    assert records[-1]["stage"] == "reproduce"
    assert records[-1]["failed_by_type"] == {"full": {},
                                             "trimmed": {"ValidationError": 5}}
    assert records[0]["rows"] == {"treated": 12, "control": 60}
    report = (tmp_path / "out" / "report.json").read_text()
    assert "failed_by_type" not in report and "ValidationError" not in report


def _log_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.strip().splitlines()]


def test_reproduce_builds_shared_products_once(tmp_path, monkeypatch):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    problems, maps = [], []
    real_problem, real_map = identification.TiltingProblem, cli_report.build_support_map

    def counting_problem(*args):
        problems.append(args)
        return real_problem(*args)

    def counting_map(*args):
        maps.append(args)
        return real_map(*args)

    monkeypatch.setattr(identification, "TiltingProblem", counting_problem)
    monkeypatch.setattr(cli_report, "build_support_map", counting_map)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    # bounds and fragility share one problem; support and match one fine map.
    assert len(problems) == 1
    assert len(maps) == 2  # the fine map and the coarse map


def test_fragility_releases_the_tilting_problem(tmp_path):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    cfg = RunConfig.from_file(config, seed=5, out_dir=tmp_path / "out")
    cfg.out_dir.mkdir()
    for command in (cli_report.cmd_propensity, cli_report.cmd_match, cli_report.cmd_bounds):
        command(cfg)
    data = cfg.tables[0]
    scores = data.cached(cfg.model, "scores", score_dataset)
    problem = weakref.ref(identification.tilting_problem(data, cfg.model))
    weights = weakref.ref(identification.control_tilt_inputs(data, cfg.model)[1])
    cli_report.cmd_fragility(cfg)
    gc.collect()
    # No later stage reads the problem or its inputs; deciles reads the scores.
    assert problem() is None and weights() is None

    def rebuild(model, data):
        raise AssertionError("the scores were dropped")

    assert data.cached(cfg.model, "scores", rebuild) is scores


def test_reproduce_scores_each_row_set_once(tmp_path, monkeypatch):
    b = 4
    config = write_synthetic_config(tmp_path, b=b, sim_n=5000)
    # One CPU: one stripe runs the bootstrap in this process, where the count
    # is seen.
    monkeypatch.setattr(resample, "available_cpus", lambda: 1)
    calls = []

    def counting_score(model, data):
        calls.append(len(data))
        return score_dataset(model, data)

    for module in (cli_report, identification, resample):
        monkeypatch.setattr(module, "score_dataset", counting_score)
    out = tmp_path / "out"
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["bounds"]["values"]["proxy_missing_deltas"] == []
    assert report["bootstrap"]["values"]["full"]["n_failed"] == 0
    assert report["bootstrap"]["values"]["trimmed"]["n_failed"] == 0
    # The full sample once, shared by propensity, match, the tilting
    # weights, the proxy and deciles (the Dataset caches its scores per
    # model); the overlap and trimmed samples; the proxy's 3 trimmed
    # samples; each replicate and its trimmed subset. With the default
    # config's 5 proxy deltas this is 6 + 2 * b.
    assert len(calls) == 1 + 2 + 3 + 2 * b


def test_every_stage_logs_its_clocks(tmp_path, capsys):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    capsys.readouterr()
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    records = _log_lines(capsys.readouterr().out)
    stages = [stage for stage, _, _ in cli_report._STAGES]
    assert [r["stage"] for r in records] == stages + ["reproduce"]
    for record in records:
        assert record["elapsed_s"] >= 0 and record["cpu_s"] >= 0
    summary = records[-1]
    assert sorted(summary["stages"]) == sorted(stages)
    for stage, record in zip(stages, records):
        assert summary["stages"][stage] == {"elapsed_s": record["elapsed_s"],
                                            "cpu_s": record["cpu_s"]}
    # The summary repeats the bootstrap's failures by design and type, and
    # the local fetch line counts the rows parsed from each table.
    bootstrap = records[stages.index("bootstrap")]
    assert summary["failed_by_type"] == bootstrap["failed_by_type"] == {
        "full": {}, "trimmed": {}}
    assert records[0]["mode"] == "local"
    assert records[0]["rows"] == {"treated": 90, "control": 700}
    # A stage logs its report values: fragility's payload names.
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fragility = records[stages.index("fragility")]
    assert fragility["massi_tilting"] == report["fragility"]["values"]["massi_tilting"]
    assert "bias_robustness_se_scaled" in fragility and "massi" not in fragility
    for log_only in ("elapsed_s", "failed_by_type", "rows", "mode"):
        assert log_only not in json.dumps(report)


def test_stage_lines_carry_the_work_ledger(tmp_path, capsys):
    # Without refits the bootstrap fits nothing, and its line leaves the fit
    # counts out rather than logging zeros.
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    config.write_text(config.read_text().replace("[bootstrap]\n",
                                                 "[bootstrap]\nrefit = false\n"))
    capsys.readouterr()
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    *records, summary = _log_lines(capsys.readouterr().out)
    ledger = {r["stage"]: {key: r[key] for key in r if key in COUNTS} for r in records}
    assert all(count > 0 for counts in ledger.values() for count in counts.values())
    bootstrap = ledger["bootstrap"]
    assert "fits" not in bootstrap and "fit_iterations" not in bootstrap
    # Summed over the workers: each replicate and its trimmed subset.
    assert bootstrap["matches"] == bootstrap["datasets_built"] == 8
    assert bootstrap["units_drawn"] == 4 * 790
    assert ledger["deciles"] == {}
    assert ledger["simulate"].keys() == {"sim_units_drawn", "sim_units_kept"}
    assert ledger["simulate"]["sim_units_drawn"] == 3 * 5000
    # The reproduce line carries the invocation's totals.
    total = Counter()
    for counts in ledger.values():
        total.update(counts)
    assert {key: summary[key] for key in summary if key in COUNTS} == total


def test_a_log_key_set_twice_is_a_defect(capsys):
    def command(fields):
        return lambda cfg: ({"b": 1}, fields)

    for fields in ({"b": 2}, {"cpu_s": 0.0}, {"stage": "demo"}):
        with pytest.raises(ValueError, match=r"stage 'demo' log line sets \['"):
            cli_report._run_stage("demo", command(fields), None)

    def counting(cfg):
        COUNTS["matches"] += 1
        return {}, {"matches": 5}

    with pytest.raises(ValueError, match=r"sets \['matches'\] twice"):
        cli_report._run_stage("demo", counting, None)
    assert capsys.readouterr().out == ""


def test_bad_config_value_fails_before_any_stage(tmp_path, capsys):
    config = write_synthetic_config(tmp_path)
    text = config.read_text()
    # Malformed [grids] config files, each read when the config is.
    bad_grids = {"absent": None,
                 "words": {**SYNTH_GRIDS, "fine": {**SYNTH_GRIDS["fine"], "age_edges": ["a", "b"]}},
                 "number": {**SYNTH_GRIDS, "coarse": {**SYNTH_GRIDS["coarse"], "age_edges": 5}},
                 "list": [SYNTH_GRIDS],
                 "decreasing": {**SYNTH_GRIDS,
                                "coarse": {**SYNTH_GRIDS["coarse"], "age_edges": [56, 16]}},
                 "nan": {**SYNTH_GRIDS,
                         "fine": {**SYNTH_GRIDS["fine"], "age_edges": [16, float("nan"), 56]}},
                 "no_coarse": {key: v for key, v in SYNTH_GRIDS.items() if key != "coarse"}}
    grid_cases = []
    for name, grids in bad_grids.items():
        path = tmp_path / f"{name}.json"
        if grids is not None:
            path.write_text(json.dumps(grids))
        grid_cases.append((f"[grids] config {str(path)!r}",
                           text.replace(str(tmp_path / "grids.json"), str(path))))
    # (what the message names, config text)
    cases = (("[match] caliper:", text + "\n[match]\ncaliper = abc\n"),
             ("[match] metric:", text + "\n[match]\nmetric = foo\n"),
             ("[simulation] n:", text.replace("n = 20000", "n = 1e5")),
             ("[trim] low must be < high", text + "\n[trim]\nlow = 0.95\n"),
             ("[match] n_neighbors", text + "\n[match]\nn_neighbors = 0\n"),
             ("[match] caliper must be positive", text + "\n[match]\ncaliper = -1\n"),
             ("[simulation] treat_prob", text.replace("n = 20000", "treat_prob = 1.5")),
             ("[simulation] deltas:", text.replace("n = 20000", "deltas = 2 1 0")),
             ("[simulation] deltas:", text.replace("n = 20000", "deltas = -1 0 1")),
             ("[bounds] tilt_deltas:", text.replace("tilt_deltas = 0 0.1 0.5 1.0",
                                                    "tilt_deltas = 1 0.5")),
             ("[bounds] proxy_deltas:", text.replace("proxy_deltas = 0 0.5 1.0",
                                                     "proxy_deltas = 0 nan")),
             # NaN fails every bound check; a count must be at least 1.
             ("[propensity] ridge must be >= 0", text + "\n[propensity]\nridge = nan\n"),
             ("[propensity] tol must be >= 0", text + "\n[propensity]\ntol = nan\n"),
             ("[propensity] tol must be >= 0", text + "\n[propensity]\ntol = -1e-8\n"),
             ("[propensity] max_iter must be >= 0", text + "\n[propensity]\nmax_iter = -1\n"),
             ("[propensity] hist_bins:", text + "\n[propensity]\nhist_bins = 0\n"),
             ("[simulation] epsilon must be >= 0", text.replace("n = 20000", "epsilon = nan")),
             ("[simulation] witness_threshold:",
              text.replace("n = 20000", "witness_threshold = nan")),
             # Each covariate must be a covariate column of every table the run parses.
             ("[propensity] covariates: 'foo'", text + "\n[propensity]\ncovariates = age foo\n"),
             # An intercept-only model scores every unit the same.
             ("[propensity] covariates: need at least one covariate",
              text + "\n[propensity]\ncovariates =\n"),
             ("[data] treated_source: unknown source", text.replace(
                 "source = local", "source = remote\ntreated_source = nsw_treated_original")),
             ("[data] control_source: unknown source", text.replace(
                 "source = local", "source = remote\ncontrol_source = foo_controls")),
             ("[simulation] type_proportions", text.replace(
                 "n = 20000", "proportions = nan 0.2 0.4 0.1")),
             ("[bootstrap] b:", text.replace("b = 12", "b = 0")),
             ("[bootstrap] refit: invalid value 'maybe' (expected a boolean)",
              text.replace("b = 12", "b = 12\nrefit = maybe")),
             ("[deciles] min_per_arm:", text + "\n[deciles]\nmin_per_arm = -3\n"),
             # configparser's own errors: a duplicate key, a line before any section.
             ("malformed", text.replace("b = 12", "b = 12\nb = 4")),
             ("malformed", "b = 3\n" + text),
             *grid_cases)
    for i, (named, bad_text) in enumerate(cases):
        bad = tmp_path / f"bad{i}.ini"
        bad.write_text(bad_text)
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert main(["reproduce", "--config", str(bad), "--seed", "5",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err.strip())
        assert record["error"] == "ConfigError"
        assert named in record["message"], record["message"]
        assert not out.exists()


def test_unreadable_grid_config_is_a_config_error(tmp_path, capsys):
    config = write_synthetic_config(tmp_path)
    grid_file = tmp_path / "grids.json"
    (tmp_path / "broken.json").write_text('{"fine": ')
    for i, target in enumerate((tmp_path / "absent.json", tmp_path / "broken.json")):
        other = tmp_path / f"grids{i}.ini"
        other.write_text(config.read_text().replace(str(grid_file), str(target)))
        for command in ("support", "reproduce"):
            capsys.readouterr()
            assert main([command, "--config", str(other), "--seed", "5",
                         "--out", str(tmp_path / f"out{i}")]) == 1
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigError"
            assert "[grids] config" in record["message"]
            assert str(target) in record["message"]


def test_grid_config_missing_a_key_is_a_config_error(tmp_path, capsys):
    config = write_synthetic_config(tmp_path)
    grid_file = tmp_path / "grids.json"
    no_coarse_edges = {"fine": SYNTH_GRIDS["fine"], "coarse": {}}
    for grids, missing in (({"coarse": {}}, "'fine'"), (no_coarse_edges, "'coarse.age_edges'")):
        grid_file.write_text(json.dumps(grids))
        capsys.readouterr()
        assert main(["support", "--config", str(config), "--seed", "5",
                     "--out", str(tmp_path / "out")]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "[grids] config" in record["message"] and missing in record["message"]


def test_reproduce_ignores_a_stale_model_in_out(tmp_path):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    other = write_synthetic_config(other_dir, b=4, sim_n=5000, data_seed=62)
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    assert main(["propensity", "--config", str(other), "--seed", "5",
                 "--out", str(stale)]) == 0
    for out in (stale, fresh):
        assert main(["reproduce", "--config", str(config), "--seed", "5",
                     "--out", str(out)]) == 0
    reports = [json.loads((out / "report.json").read_text()) for out in (stale, fresh)]
    for report in reports:
        report["metadata"].pop("timestamp")
    assert reports[0] == reports[1]


def test_remote_fetch_logs_one_line_with_sources(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    data = synthetic_observational(seed=61, n_treated=30, n_control=50)
    (cache / "nsw_treated.txt").write_text(dataset_to_text(data.subset(data.treated)))
    (cache / "psid_controls.txt").write_text(dataset_to_text(data.subset(~data.treated)))
    config = tmp_path / "remote.ini"
    config.write_text(f"[data]\nsource = remote\ncache_dir = {cache}\n")
    capsys.readouterr()
    assert main(["fetch", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out"), "--offline"]) == 0
    (record,) = _log_lines(capsys.readouterr().out)
    assert record["stage"] == "fetch"
    assert sorted(record["digests"]) == sorted(record["sources"]) == [
        "nsw_treated", "psid_controls"]
    assert record["sources"]["nsw_treated"]["lines"] == 30
    assert record["sources"]["psid_controls"]["url"].endswith("psid_controls.txt")


def test_remote_load_digests_each_table_by_role(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    data = synthetic_observational(seed=61, n_treated=30, n_control=50)
    files = {"treated": cache / "nsw_treated.txt", "control": cache / "psid_controls.txt"}
    files["treated"].write_text(dataset_to_text(data.subset(data.treated)))
    files["control"].write_text(dataset_to_text(data.subset(~data.treated)))
    config = tmp_path / "remote.ini"
    config.write_text(f"[data]\nsource = remote\ncache_dir = {cache}\noffline = true\n")
    cfg = RunConfig.from_file(config, seed=5, out_dir=tmp_path / "out")
    expected = {role: hashlib.sha256(path.read_bytes()).hexdigest()
                for role, path in files.items()}
    _, digests, rows = cli_report._load_data(cfg)
    assert digests == expected
    assert rows == {"treated": 30, "control": 50}
    manifest_path = cache / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert {key: entry["sha256"] for key, entry in manifest.items()} == {
        "nsw_treated": expected["treated"], "psid_controls": expected["control"]}
    # A second load checks the files against the manifest and leaves it as
    # first recorded.
    os.utime(manifest_path, (0, 0))
    assert cli_report._load_data(cfg)[1] == expected
    assert manifest_path.stat().st_mtime == 0


def _two_cpus(monkeypatch) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("case", ["succeeds", "fails_at_fetch", "fails_at_simulate",
                                  "worker_dies"])
def test_reproduce_leaves_no_worker_behind(tmp_path, monkeypatch, case):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    text = config.read_text()
    if case == "fails_at_fetch":
        text = text.replace(f"control_file = {tmp_path / 'control.txt'}\n", "")
    elif case == "fails_at_simulate":
        text += "witness_threshold = 1.5\n"  # the last section is [simulation]
    config.write_text(text)
    parent = os.getpid()

    def dying_sweep(sim_config):
        if os.getpid() != parent:
            os._exit(3)
        raise AssertionError("the simulation ran in the calling process")

    if case == "worker_dies":
        monkeypatch.setattr(cli_report, "run_sweep", dying_sweep)
    _two_cpus(monkeypatch)
    forked = record_forks(monkeypatch)
    threads = threading.active_count()
    cfg = RunConfig.from_file(config, seed=5, out_dir=tmp_path / "out")
    cfg.out_dir.mkdir()
    failures = {"fails_at_fetch": ("fetch", DependencyError, "control_file missing"),
                "fails_at_simulate": ("simulate", WitnessError, "selects nobody"),
                "worker_dies": ("simulate", WorkerError, "worker process died")}
    if case == "succeeds":
        with deadline(60):
            cli_report.cmd_reproduce(cfg)
        assert (cfg.out_dir / "sim_sweep.csv").exists()
        assert len(forked) == 2  # the simulation and the second bootstrap stripe
    else:
        stage, cause, message = failures[case]
        with pytest.raises(AttDiagError, match=f"stage '{stage}' failed: .*{message}") as info:
            with deadline(60):
                cli_report.cmd_reproduce(cfg)
        assert type(info.value.__cause__) is cause
        assert len(forked) == (1 if stage == "fetch" else 2)
    if case in ("fails_at_simulate", "worker_dies"):
        # Earlier artifacts stay; the failed stage writes nothing.
        assert (cfg.out_dir / "deciles.csv").exists()
        assert (cfg.out_dir / "bootstrap.csv").exists()
        assert not (cfg.out_dir / "sim_sweep.csv").exists()
        assert not (cfg.out_dir / "witness.json").exists()
    assert all(reaped(pid) for pid in forked)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    assert cfg.simulation is None


def test_reproduce_simulation_writes_the_standalone_bytes(tmp_path, monkeypatch, capsys):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    _two_cpus(monkeypatch)
    forked = record_forks(monkeypatch)
    capsys.readouterr()
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "reproduce")]) == 0
    records = {r["stage"]: r for r in _log_lines(capsys.readouterr().out)}
    workers = len(forked)
    assert workers == 2  # the simulation and the second bootstrap stripe
    assert main(["simulate", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "simulate")]) == 0
    (standalone,) = _log_lines(capsys.readouterr().out)
    assert len(forked) == workers  # the standalone command computes in-process
    for name in ("sim_sweep.csv", "sim_sweep.svg", "witness.json"):
        assert ((tmp_path / "reproduce" / name).read_bytes()
                == (tmp_path / "simulate" / name).read_bytes()), name
    # The worker's own seconds are logged, and kept out of report.json.
    simulate = records["simulate"]
    assert simulate["worker_s"] > 0 and "worker_s" not in standalone
    assert simulate["sim_units_drawn"] == standalone["sim_units_drawn"] == 3 * 5000
    assert "worker_s" not in (tmp_path / "reproduce" / "report.json").read_text()


@pytest.mark.parametrize("command,error", [("bootstrap", "BootstrapError"),
                                           ("reproduce", "AttDiagError")])
def test_a_failed_fork_is_a_named_error(tmp_path, monkeypatch, capsys, command, error):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    _two_cpus(monkeypatch)
    record_forks(monkeypatch, fail_after=0)
    assert main([command, "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == error
    assert "worker process could not be forked" in record["message"]
    if command == "reproduce":
        # The simulation's failed fork leaves it to its turn; the bootstrap's ends the run.
        assert record["message"].startswith("stage 'bootstrap' failed")


def _assert_same_artifacts(out_a, out_b) -> None:
    """The two output directories hold the same files with the same
    contents, `report.json`'s timestamp apart."""
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        texts = [(out / name).read_text() for out in (out_a, out_b)]
        if name == "report.json":
            texts = [json.loads(t) for t in texts]
            for report in texts:
                report["metadata"].pop("timestamp")
        assert texts[0] == texts[1], name


def test_a_failed_simulation_fork_simulates_in_process(tmp_path, monkeypatch):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "in_process")]) == 0
    _two_cpus(monkeypatch)
    pids = record_forks(monkeypatch)
    recording_fork, failed = os.fork, []

    def first_fork_fails():  # the simulation's, forked before `fetch`
        if not failed:
            failed.append(True)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return recording_fork()

    monkeypatch.setattr(os, "fork", first_fork_fails)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "forked")]) == 0
    assert len(pids) == 1  # the bootstrap's second stripe only
    assert all(reaped(pid) for pid in pids)
    _assert_same_artifacts(tmp_path / "forked", tmp_path / "in_process")


@pytest.mark.parametrize("cpus", ["one_cpu", "no_affinity_mask"])
def test_reproduce_on_one_cpu_forks_nothing(tmp_path, monkeypatch, cpus):
    config = write_synthetic_config(tmp_path, b=4, sim_n=5000)
    _two_cpus(monkeypatch)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "forked")]) == 0
    if cpus == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity")

    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["reproduce", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "in_process")]) == 0
    _assert_same_artifacts(tmp_path / "forked", tmp_path / "in_process")
