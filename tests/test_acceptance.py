"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities.

Criteria that operate on the real NSW/PSID sample skip with an explicit
reason when no cached copy exists, because this build environment has no
network route to the hosting server; everything else runs unconditionally.
"""

import json
import math
import time

import numpy as np
import pytest

from attdiag.calibrate import (
    COARSE_MIN_WITHOUT_TREATED,
    COARSE_TARGET,
    FINE_BOTH_SHARE_BAND,
    FINE_TARGET,
    bins_from_config,
    load_grid_config,
    run_calibration,
)
from attdiag.decision import bias_robustness
from attdiag.estimators import MatchSpec, att_ipw, att_match, design_sensitivity, default_design_suite, naive_diff
from attdiag.identification import (
    OutcomeSupport,
    curvature_bounds,
    manski_bounds,
    oracle_curvature_bounds,
    sweep_tilting,
)
from attdiag.ingest import Dataset
from attdiag.propensity import TrimRule, fit_logistic, score_dataset, trim
from attdiag.resample import bootstrap_att
from attdiag.simulation import SimConfig, nonid_witness, run_sweep
from attdiag.strata import build_support_map, restrict_to_overlap, support_share
from conftest import make_dataset, synthetic_observational

LALONDE_COVARIATES = [
    "age", "education", "black", "hispanic", "married", "nodegree", "re74", "re75",
]


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_simulation_sweep():
    start = time.monotonic()
    for seed in (0, 1, 2026):
        result = run_sweep(SimConfig(seed=seed))
        assert abs(result.observed_ates[0] - 0.1) < 0.01, seed
        assert all(lo <= 0.0 <= hi for lo, hi in zip(result.sets.lo, result.sets.hi)), seed
        assert result.sets.massi == math.inf, seed
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"3 seeds, ate(0) within 0.01 of 0.1, massi=inf, {elapsed:.2f}s")


def test_criterion_02_nonidentification_witness():
    start = time.monotonic()
    result = nonid_witness(SimConfig(seed=7, n=100_000), threshold_c=0.5)
    elapsed = time.monotonic() - start
    assert result.tv_distance < 0.01
    gap = abs(result.att_ignorable - result.att_threshold)
    assert gap > 0.1
    assert elapsed < 10.0
    _report(2, f"tv={result.tv_distance:.4f} < 0.01, att gap={gap:.3f} > 0.1, {elapsed:.2f}s")


def test_criterion_03_duality_endpoints():
    data = synthetic_observational(seed=71, n_treated=60, n_control=240)
    model = fit_logistic(data, LALONDE_COVARIATES)

    # delta = 0 equals the MAR (IPW) point to 1e-9
    sweep0 = sweep_tilting(data, model, [0.0])
    mar = att_ipw(data, model).tau_hat
    assert abs(sweep0.intervals[0].lo - mar) <= 1e-9
    assert sweep0.intervals[0].width <= 1e-9

    # delta = 40 on a bounded toy outcome set matches the empirical-support
    # worst-case form within 1e-6
    iv40 = curvature_bounds([0.1, 0.5, 0.9], np.ones(3), 0.7, 40.0)
    support_form = manski_bounds(
        Dataset([True], [0.7], np.zeros((1, 0))),
        OutcomeSupport(0.1, 0.9),
    )
    assert abs(iv40.lo - support_form.lo) <= 1e-6
    assert abs(iv40.hi - support_form.hi) <= 1e-6

    # exact set inclusion along an ascending grid
    deltas = (0.0, 0.05, 0.25, 0.8, 1.5, 3.0, 10.0)
    sweep = sweep_tilting(data, model, deltas)
    widths = [iv.width for iv in sweep.intervals]
    assert all(b >= a for a, b in zip(widths, widths[1:]))
    for prev, cur in zip(sweep.intervals, sweep.intervals[1:]):
        assert cur.lo <= prev.lo and prev.hi <= cur.hi
    _report(3, "MAR point at delta=0 (1e-9), support form at delta=40 (1e-6), "
               "exact nesting on a 7-point grid")


def test_criterion_04_monotonicity_random():
    rng = np.random.default_rng(20260808)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(1, 25))
        y = rng.normal(size=n) * float(rng.lognormal())
        w = rng.lognormal(size=n)
        d1, d2 = np.sort(rng.uniform(0.0, 5.0, size=2))
        inner = curvature_bounds(y, w, 0.0, float(d1))
        outer = curvature_bounds(y, w, 0.0, float(d2))
        if not (outer.lo <= inner.lo and inner.hi <= outer.hi):
            violations += 1
    assert violations == 0
    _report(4, "100 random datasets x random delta pairs: 0 nesting violations")


def test_criterion_05_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 16))
        y = rng.normal(size=n) * float(rng.lognormal())
        w = rng.lognormal(size=n)
        delta = float(rng.uniform(0.0, 6.0))
        tm = float(rng.normal())
        fast = curvature_bounds(y, w, tm, delta)
        slow = oracle_curvature_bounds(y, w, tm, delta)
        worst = max(worst, abs(fast.lo - slow.lo), abs(fast.hi - slow.hi))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    _report(5, f"200 instances, max endpoint discrepancy {worst:.2e} <= 1e-9, "
               f"{elapsed:.2f}s")


def test_criterion_06_table1_reproduction(lalonde_composite):
    start = time.monotonic()
    data = lalonde_composite
    model = fit_logistic(data, LALONDE_COVARIATES)
    spec = MatchSpec()
    scores = score_dataset(model, data)
    full = att_match(data, scores, spec)

    grid_cfg = load_grid_config()
    fine_map = build_support_map(data, bins_from_config(grid_cfg["fine"]))
    overlap_data = restrict_to_overlap(data, fine_map)
    overlap = att_match(overlap_data, score_dataset(model, overlap_data), spec)
    trimmed_data = trim(data, scores, TrimRule(0.1, 0.9))
    trimmed = att_match(trimmed_data, score_dataset(model, trimmed_data), spec)

    elapsed = time.monotonic() - start
    assert full.tau_hat < 0
    assert 700 <= abs(full.tau_hat) <= 1200
    assert 300 <= full.se <= 500
    estimates = [full.tau_hat, overlap.tau_hat, trimmed.tau_hat]
    assert max(estimates) - min(estimates) <= 150.0
    assert elapsed < 30.0
    _report(6, f"full={full.tau_hat:.2f} (se {full.se:.2f}), "
               f"overlap={overlap.tau_hat:.2f}, trimmed={trimmed.tau_hat:.2f}, "
               f"spread={max(estimates) - min(estimates):.2f} <= 150")


def test_criterion_07_bias_robustness_reference():
    delta = bias_robustness(-932.23, 388.09, 0.5)
    ratio = abs(-932.23) / 388.09
    assert delta == 2.5
    assert abs(ratio - 2.402) <= 0.001
    _report(7, f"delta*=2.5 on the 0.5 grid; unrounded ratio {ratio:.4f}")


def test_criterion_08_support_maps(lalonde_cache, tmp_path):
    from attdiag.ingest import load_source, merge
    from attdiag.strata import CellStatus

    grid_cfg = load_grid_config()
    if not grid_cfg.get("calibrated"):
        # shipped config predates data access: calibrate against the cache now
        grid_cfg = run_calibration(lalonde_cache, tmp_path / "grid_config.json",
                                   offline=True)
    treated = load_source(grid_cfg["dataset"]["treated_source"], lalonde_cache,
                          offline=True)
    control = load_source(grid_cfg["dataset"]["control_source"], lalonde_cache,
                          offline=True)
    data = merge(treated, control)

    fine_map = build_support_map(data, bins_from_config(grid_cfg["fine"]))
    counts = fine_map.status_counts()
    coarse_map = build_support_map(data, bins_from_config(grid_cfg["coarse"]))
    total = coarse_map.n_cells
    without_treated = int(np.sum(coarse_map.treated_counts == 0))

    if grid_cfg["fine"].get("matched") and grid_cfg["coarse"].get("matched"):
        assert fine_map.n_cells == FINE_TARGET["cells"]
        assert counts[CellStatus.BOTH] == FINE_TARGET["both"]
        assert counts[CellStatus.CONTROL_ONLY] == FINE_TARGET["control_only"]
        assert counts[CellStatus.TREATED_ONLY] == FINE_TARGET["treated_only"]
        assert counts[CellStatus.EMPTY] == FINE_TARGET["empty"]
        assert total == COARSE_TARGET["cells"]
        assert without_treated == COARSE_TARGET["without_treated"]
        _report(8, "frozen grids reproduce 37/27/1/7 and 42-cell/11 exactly")
    else:
        # documented degraded property with a written discrepancy note
        both_share = support_share(fine_map)[0]
        assert FINE_BOTH_SHARE_BAND[0] <= both_share <= FINE_BOTH_SHARE_BAND[1]
        assert without_treated >= COARSE_MIN_WITHOUT_TREATED
        note = tmp_path / "support_discrepancy.txt"
        note.write_text(
            "Calibration could not reproduce the published cell counts "
            f"exactly; degraded check used. both_share={both_share:.3f} in "
            f"{FINE_BOTH_SHARE_BAND}, treated-free cells={without_treated} "
            f">= {COARSE_MIN_WITHOUT_TREATED}.\n"
        )
        _report(8, f"degraded band: both_share={both_share:.3f}, "
                   f"treated-free={without_treated} (note at {note})")


def test_criterion_09_design_sensitivity(lalonde_composite):
    data = lalonde_composite
    model = fit_logistic(data, LALONDE_COVARIATES)
    scores = score_dataset(model, data)
    results = design_sensitivity(data, scores, default_design_suite(scores))
    for est in results:
        assert math.isfinite(est.tau_hat), est.design_tag
        assert -2100.0 <= est.tau_hat <= -800.0, est.design_tag
    _report(9, "three designs in [-2100, -800]: "
            + ", ".join(f"{e.design_tag}={e.tau_hat:.0f}" for e in results))


def test_criterion_10_bootstrap_dispersion(lalonde_composite):
    start = time.monotonic()
    data = lalonde_composite
    b = 500
    full = bootstrap_att(data, MatchSpec(), b, seed=2026,
                         covariates=LALONDE_COVARIATES,
                         trim_rule=TrimRule(0.1, 0.9))
    trimmed = full.trimmed
    elapsed = time.monotonic() - start
    assert full.mean < 0 and trimmed.mean < 0
    assert trimmed.sd < full.sd
    assert elapsed < 180.0
    _report(10, f"B=500: means {full.mean:.0f}/{trimmed.mean:.0f} < 0, "
                f"sd {trimmed.sd:.0f} < {full.sd:.0f}, {elapsed:.0f}s")


def test_criterion_11_reproduce_determinism(tmp_path):
    from attdiag.cli_report import main
    from test_cli_report import write_synthetic_config

    config = write_synthetic_config(tmp_path, b=10, sim_n=10_000)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reproduce", "--config", str(config), "--seed", "2026",
                 "--out", str(out1)]) == 0
    assert main(["reproduce", "--config", str(config), "--seed", "2026",
                 "--out", str(out2)]) == 0
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    ts_a = a["metadata"].pop("timestamp")
    b["metadata"].pop("timestamp")
    assert a == b
    _report(11, "reproduce twice with one seed: report.json identical "
                "apart from the timestamp field")


def test_criterion_11b_reproduce_determinism_real_data(lalonde_composite, tmp_path):
    # Same criterion on the real default pipeline; runs only with cached data.
    from attdiag.cli_report import main
    import os

    cache = os.environ.get("ATTDIAG_CACHE")
    if not cache:
        pytest.skip("ATTDIAG_CACHE not set; synthetic-config determinism covered above")
    config = tmp_path / "real.ini"
    config.write_text(f"[data]\nsource = remote\ncache_dir = {cache}\noffline = true\n"
                      f"\n[bootstrap]\nb = 50\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reproduce", "--config", str(config), "--seed", "2026",
                 "--out", str(out1)]) == 0
    assert main(["reproduce", "--config", str(config), "--seed", "2026",
                 "--out", str(out2)]) == 0
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    a["metadata"].pop("timestamp")
    b["metadata"].pop("timestamp")
    assert a == b
    _report(11, "real-data reproduce deterministic modulo timestamp")


def test_criterion_12_estimator_invariant_suites():
    data = synthetic_observational(seed=77, n_treated=50, n_control=200)
    model = fit_logistic(data, LALONDE_COVARIATES)

    # location/scale equivariance
    for shift, scale in ((500.0, 1.0), (0.0, 2.5), (-100.0, 4.0)):
        moved = Dataset(data.treated, scale * data.outcome + shift,
                        data.covariates, schema=data.schema)
        for fn in (lambda d: naive_diff(d),
                   lambda d: att_ipw(d, model),
                   lambda d: att_match(d, score_dataset(model, d), MatchSpec())):
            base, new = fn(data), fn(moved)
            assert new.tau_hat == pytest.approx(scale * base.tau_hat,
                                                rel=1e-12, abs=1e-9)
            assert new.se == pytest.approx(scale * base.se, rel=1e-12, abs=1e-9)

    # arm-swap antisymmetry for the naive contrast
    flipped = Dataset(~data.treated, data.outcome, data.covariates)
    assert naive_diff(flipped).tau_hat == pytest.approx(
        -naive_diff(data).tau_hat, rel=1e-12)

    # IPW equals naive when all scores are equal
    from attdiag.propensity import PropensityModel

    flat_model = PropensityModel(np.zeros(9), tuple(LALONDE_COVARIATES),
                                 True, 0, 0.0, 0.0)
    flat_scores = score_dataset(flat_model, data)
    assert np.all(flat_scores == 0.5)
    assert att_ipw(data, flat_model).tau_hat == pytest.approx(
        naive_diff(data).tau_hat, abs=1e-10)

    # logistic first-order conditions at the unpenalized optimum
    x = np.array([[1.0], [1.0], [1.0], [1.0], [0.0], [0.0], [0.0], [0.0]])
    d = [True, True, True, False, False, False, False, True]
    toy = make_dataset(d, np.zeros(8), x)
    mle = fit_logistic(toy, ["x0"], ridge=0.0, tol=1e-10)
    resid = toy.treated.astype(float) - score_dataset(mle, toy)
    design = np.column_stack([np.ones(8), toy.covariates])
    for j in range(2):
        assert abs(float(np.dot(resid, design[:, j]))) <= 1e-10 * 8 + 1e-9
    _report(12, "equivariance, antisymmetry, IPW=naive at constant scores, "
                "logistic first-order conditions")
