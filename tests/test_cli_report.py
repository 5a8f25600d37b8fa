import json
from pathlib import Path

import numpy as np
import pytest

from attdiag import cli_report, resample
from attdiag.cli_report import RunConfig, main
from attdiag.errors import ConfigError
from conftest import dataset_to_text, synthetic_observational

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
                           data_seed: int = 61) -> Path:
    data = synthetic_observational(seed=data_seed, n_treated=90, n_control=700)
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


def test_missing_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file(tmp_path / "nope.ini", seed=1, out_dir=tmp_path)


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
    sorted_sizes = []
    real_unique = np.unique

    def counting_unique(values, *args, **kwargs):
        # Unit-id checks pass integer arrays; the tilting sort passes the
        # float control outcomes.
        if np.asarray(values).dtype.kind == "f":
            sorted_sizes.append(len(values))
        return real_unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    assert main(["fragility", "--config", str(config), "--seed", "5",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "fragility.json").read_text())
    assert payload["baseline_decision"] == "treat"
    # The value the per-delta path (one sort per bisection step) gives.
    assert payload["fragility_delta"] == 2.02618408203125
    assert sorted_sizes == [700]


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


def test_bootstrap_fits_each_replicate_once(tmp_path, monkeypatch):
    config = write_synthetic_config(tmp_path, b=8, sim_n=5000)
    calls = []
    real_fit = resample.fit_logistic

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(resample, "fit_logistic", counting_fit)
    out = tmp_path / "out"
    assert main(["bootstrap", "--config", str(config), "--seed", "3",
                 "--out", str(out)]) == 0
    # One refit per replicate serves the full-sample and trimmed designs.
    assert len(calls) == 8
    rows = (out / "bootstrap.csv").read_text().splitlines()
    assert rows[0] == "replicate,full_sample,score_trimmed"
    assert len(rows) == 9
