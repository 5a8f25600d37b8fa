"""Tests for the benchmark's own code (generators, tracer, checks).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_reproduce_inputs_are_deterministic_per_seed(tmp_path):
    a = workloads.write_reproduce_inputs("reproduce_psid", 3, tmp_path / "a")
    b = workloads.write_reproduce_inputs("reproduce_psid", 3, tmp_path / "b")
    c = workloads.write_reproduce_inputs("reproduce_psid", 4, tmp_path / "c")
    for name in ("treated.txt", "control.txt"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
        assert (tmp_path / "a" / name).read_text() != (tmp_path / "c" / name).read_text()
    assert a["rows"] == 185 + 2490
    control_rows = (tmp_path / "a" / "control.txt").read_text().splitlines()
    assert len(control_rows) == 2490
    assert all(len(row.split()) == 10 for row in control_rows)
    assert sum(row.split()[-1] == "0.00" for row in control_rows) > 100  # mass point at zero


def test_query_inputs_are_deterministic_per_seed():
    first, again, other = (workloads.query_arms(v) for v in (5, 5, 6))
    for x, y in zip(first, again):
        assert np.array_equal(x.covariates, y.covariates)
        assert np.array_equal(x.outcome, y.outcome)
    assert not np.array_equal(first[0].outcome, other[0].outcome)
    assert [len(a.outcome) - a.treated.sum() for a in first] == list(workloads.QUERY_CONTROLS)
    stream = workloads.query_stream(5)
    assert stream == workloads.query_stream(5)
    assert stream != workloads.query_stream(6)
    block = stream[:workloads.BLOCK]
    pairs = {(q.dataset, len(q.deltas)) for q in block}
    assert len(pairs) == workloads.BLOCK  # every (dataset, grid size) once per block
    assert all(list(q.deltas) == sorted(set(q.deltas)) for q in stream)


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job]


def test_self_time_arithmetic_on_hand_built_tree():
    spans = [
        _span("cli_report.main", 0.0, 10.0, -1),         # 0
        _span("resample.bootstrap_att", 1.0, 7.0, 0),    # 1
        _span("propensity.fit_logistic", 1.5, 3.5, 1),   # 2
        _span("estimators.att_match", 4.0, 6.0, 1),      # 3
        _span("propensity.score_dataset", 4.5, 5.0, 3),  # 4
        _span("svgplot.line_chart", 8.0, 9.0, 0),        # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.5, 0.5, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)
    # Children that overlap each other are covered once.
    overlapping = [_span("a", 0.0, 4.0, -1), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 3.5, 0)]
    assert tracing.self_times(overlapping)[0] == pytest.approx(1.5)


def test_function_stats_do_not_double_count_recursion():
    spans = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 2.0, 0), _span("g", 5.0, 6.0, -1)]
    stats = tracing.function_stats(spans)
    assert stats["f"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert stats["g"]["busy_s"] == 1.0
    assert tracing.child_calls(spans, "f", "f") == 1


def test_tracer_wraps_every_importer_and_restores():
    run.import_program()
    propensity = sys.modules["attdiag.propensity"]
    resample = sys.modules["attdiag.resample"]
    cli_report = sys.modules["attdiag.cli_report"]
    original = propensity.fit_logistic
    stages, commands = list(cli_report._STAGES), dict(cli_report._COMMANDS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert propensity.fit_logistic is not original
        assert resample.fit_logistic is propensity.fit_logistic
        # Functions dispatched through module-level containers are wrapped too.
        assert cli_report._STAGES[0][1] is cli_report.cmd_fetch is not stages[0][1]
        assert cli_report._COMMANDS["reproduce"] is cli_report.cmd_reproduce
        arms = workloads.observational_arms(np.random.default_rng(0), 40, 200, 100.0, 0.3)
        data = sys.modules["attdiag"].Dataset(arms.treated, arms.outcome, arms.covariates)
        model = resample.fit_logistic(data, ["x0", "x1"])
    finally:
        tracer.uninstall()
    assert propensity.fit_logistic is original and resample.fit_logistic is original
    assert cli_report._STAGES == stages and cli_report._COMMANDS == commands
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["ingest.Dataset.__init__", "propensity.fit_logistic"]
    assert tracer.counts["ingest.Dataset.units"] == 240
    assert tracer.counts["propensity.fit_logistic.iterations"] == model.iterations


def _fake_report():
    values = {
        "match": {"table1": [{"sample": "full_sample", "tau_hat": -642.75, "se": 361.9,
                              "n_treated_used": 185, "n_dropped": 0}]},
        "bounds": {"massi_tilting": 0.0, "massi_proxy": "inf", "proxy_missing_deltas": []},
        "fragility": {"fragility_delta": 1.12, "baseline_decision": "no_treat"},
        "bootstrap": {"full": {"q025": -1317.5, "q975": 257.55, "n_failed": 0}, "b": 500},
        "deciles": {"atts": {"7": -521.07, "8": 121.65}, "dropped_deciles": [1, 2]},
        "simulate": {"observed_ates": [0.1024, 0.0957], "massi": "inf"},
    }
    report = {stage: {"module": "x", "values": v} for stage, v in values.items()}
    report["metadata"] = {"seed": 1}
    return report


def test_checker_rejects_a_perturbed_report(tmp_path):
    report = _fake_report()
    sweep = ("delta,lo,hi,width,method\n0.0,-700.5,-700.5,0.0,tilting\n"
             "1.0,-900.25,-100.0,800.25,tilting\n")
    (tmp_path / "sweep_tilting.csv").write_text(sweep)
    (tmp_path / "sweep_proxy.csv").write_text("delta,lo,hi,width,method\n")
    reference = checks.report_sections(report, tmp_path)

    def check(candidate):
        return checks.check_report(reference, checks.report_sections(candidate, tmp_path))

    assert check(report) == set()

    # Each number is held to its own magnitude, not to its neighbours'.
    assert checks.compare([25000.0, 12.5], [25000.0, 12.5 * (1 + 1e-8)]) == ["[1]"]
    assert checks.compare([0.0], [1e-13]) == []

    tiny = copy.deepcopy(report)
    tiny["match"]["values"]["table1"][0]["tau_hat"] *= 1 + 1e-12
    assert check(tiny) == set()

    for stage, mutate in (
        ("match", lambda v: v["table1"][0].__setitem__("tau_hat", -642.75 * (1 + 1e-7))),
        ("bootstrap", lambda v: v["full"].__setitem__("q975", 257.56)),
        ("deciles", lambda v: v["dropped_deciles"].append(3)),
        ("simulate", lambda v: v.__setitem__("massi", 0.5)),
        ("fragility", lambda v: v.__setitem__("baseline_decision", "treat")),
    ):
        bad = copy.deepcopy(report)
        mutate(bad[stage]["values"])
        assert check(bad) == {stage}

    (tmp_path / "sweep_tilting.csv").write_text(sweep.replace("-100.0", "-100.001"))
    assert check(report) == {"bounds"}


def test_recorded_references_cover_every_variant():
    for name in run.WORKLOADS:
        entries = checks.load_reference(name)
        assert sorted(entries, key=int) == [str(v) for v in range(workloads.VARIANTS)], name
    queries = checks.load_reference("tilting_queries")["0"]
    assert len(queries["fragility"]) == workloads.BLOCK * workloads.STREAM_BLOCKS
    assert all(len(d["intervals"]) == len(workloads.DELTA_LATTICE) for d in queries["datasets"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tilting_queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
