import numpy as np
import pytest

from attdiag import resample
from attdiag.errors import BootstrapError, EstimationError, ValidationError
from attdiag.estimators import MatchSpec, att_match, naive_diff
from attdiag.propensity import PropensityModel, TrimRule, fit_logistic, trim
from attdiag.resample import (
    bootstrap_att,
    decile_att,
    stratified_indices,
    _replicate_rng,
)
from conftest import make_dataset, synthetic_observational

COVS = ["age", "education", "re74", "re75"]


def _hand_model(intercept, slopes):
    return PropensityModel(
        coefficients=np.array([intercept, *slopes], dtype=float),
        covariate_columns=tuple(f"x{i}" for i in range(len(slopes))),
        converged=True, iterations=0, ridge=0.0, grad_max_norm=0.0,
    )


def test_stratified_resample_preserves_arm_sizes():
    data = synthetic_observational(seed=3, n_treated=37, n_control=113)
    for r in range(5):
        idx = stratified_indices(_replicate_rng(99, r), data.treated)
        replicate = data.take_with_fresh_ids(idx)
        assert replicate.n_treated == 37
        assert replicate.n_control == 113


def test_bootstrap_b1_equals_single_replicate_estimate():
    data = synthetic_observational(seed=5, n_treated=30, n_control=120)
    summary = bootstrap_att(data, True, MatchSpec(), 1, seed=7, covariates=COVS)
    replicate = data.take_with_fresh_ids(
        stratified_indices(_replicate_rng(7, 0), data.treated)
    )
    model = fit_logistic(replicate, COVS)
    direct = att_match(replicate, model, MatchSpec())
    assert summary.estimates == (direct.tau_hat,)
    assert summary.mean == direct.tau_hat
    assert summary.sd == 0.0
    assert summary.b_requested == 1 and summary.n_failed == 0
    assert summary.trimmed is None  # no trim rule, no trimmed design


def test_bootstrap_deterministic_given_seed():
    data = synthetic_observational(seed=9, n_treated=25, n_control=100)
    a = bootstrap_att(data, True, MatchSpec(), 20, seed=11, covariates=COVS)
    b = bootstrap_att(data, True, MatchSpec(), 20, seed=11, covariates=COVS)
    assert a.estimates == b.estimates
    c = bootstrap_att(data, True, MatchSpec(), 20, seed=12, covariates=COVS)
    assert a.estimates != c.estimates


def test_bootstrap_degenerate_outcomes_zero_sd():
    data = synthetic_observational(seed=13, n_treated=20, n_control=80)
    flat = make_dataset(data.treated, np.full(len(data), 7.0), data.covariates)
    summary = bootstrap_att(flat, False, MatchSpec(metric="mahalanobis"),
                            10, seed=15, model=_hand_model(0.0, [0.0] * 8))
    assert summary.sd == 0.0
    assert all(e == 0.0 for e in summary.estimates)


def test_bootstrap_failure_budget():
    data = synthetic_observational(seed=17, n_treated=20, n_control=80)
    model = fit_logistic(data, COVS)
    impossible = MatchSpec(caliper=1e-15, design_tag="strict")
    with pytest.raises(BootstrapError, match=r"^10/10 bootstrap replicates failed "
                       r"in the full-sample design \(EstimationError: 10; last: "):
        bootstrap_att(data, False, impossible, 10, seed=19, model=model)


def test_bootstrap_requires_inputs():
    data = synthetic_observational(seed=21, n_treated=10, n_control=40)
    with pytest.raises(ValidationError):
        bootstrap_att(data, True, MatchSpec(), 0, seed=1, covariates=COVS)
    with pytest.raises(ValidationError):
        bootstrap_att(data, True, MatchSpec(), 5, seed=1)  # no covariates
    with pytest.raises(ValidationError):
        bootstrap_att(data, False, MatchSpec(), 5, seed=1)  # no model


def test_bootstrap_quantiles_recomputable():
    data = synthetic_observational(seed=23, n_treated=25, n_control=100)
    summary = bootstrap_att(data, True, MatchSpec(), 40, seed=25, covariates=COVS)
    values = np.array(summary.estimates)
    assert summary.mean == pytest.approx(float(values.mean()))
    assert summary.sd == pytest.approx(float(values.std(ddof=1)))
    assert summary.q50 == pytest.approx(float(np.percentile(values, 50)))


def test_bootstrap_trim_inside_replicate():
    data = synthetic_observational(seed=27, n_treated=40, n_control=160)
    summary = bootstrap_att(data, True, MatchSpec(), 10, seed=29,
                            covariates=COVS, trim_rule=TrimRule(0.05, 0.95))
    assert summary.trimmed.n_failed == 0
    assert len(summary.trimmed.estimates) == 10
    assert summary.trimmed.b_requested == 10
    assert summary.trimmed.trimmed is None


def test_bootstrap_designs_equal_direct_per_replicate_estimates():
    data = synthetic_observational(seed=37, n_treated=40, n_control=160)
    rule = TrimRule(0.05, 0.95)
    summary = bootstrap_att(data, True, MatchSpec(), 3, seed=39,
                            covariates=COVS, trim_rule=rule)
    full, trimmed = [], []
    for r in range(3):
        replicate = data.take_with_fresh_ids(
            stratified_indices(_replicate_rng(39, r), data.treated)
        )
        model = fit_logistic(replicate, COVS)
        full.append(att_match(replicate, model, MatchSpec()).tau_hat)
        trimmed.append(att_match(trim(replicate, model, rule), model,
                                 MatchSpec()).tau_hat)
    assert summary.estimates == tuple(full)
    assert summary.trimmed.estimates == tuple(trimmed)
    assert summary.n_failed == summary.trimmed.n_failed == 0


def test_bootstrap_failed_fit_fails_both_designs(monkeypatch):
    data = synthetic_observational(seed=41, n_treated=40, n_control=160)
    real_fit = resample.fit_logistic
    calls = []

    def fit_failing_once(replicate, covariates, **kwargs):
        calls.append(len(replicate))
        if len(calls) == 2:
            raise EstimationError("no convergence")
        return real_fit(replicate, covariates, **kwargs)

    monkeypatch.setattr(resample, "fit_logistic", fit_failing_once)
    summary = bootstrap_att(data, True, MatchSpec(), 6, seed=43,
                            covariates=COVS, trim_rule=TrimRule(0.05, 0.95))
    assert len(calls) == 6  # one fit per replicate for both designs
    for design in (summary, summary.trimmed):
        assert design.n_failed == 1
        assert len(design.estimates) == 5
        assert design.b_requested == 6


def test_bootstrap_failed_trim_fails_only_the_trimmed_design():
    data = synthetic_observational(seed=45, n_treated=40, n_control=160)
    model = fit_logistic(data, COVS)
    # A rule no score can satisfy empties every trimmed replicate.
    with pytest.raises(BootstrapError, match=r"^5/5 bootstrap replicates failed in "
                       r"the score-trimmed design \(TrimmingError: 5; last: "):
        bootstrap_att(data, False, MatchSpec(), 5, seed=47, model=model,
                      trim_rule=TrimRule(0.49999, 0.5))


def test_decile_uniform_scores_balanced_data():
    rng = np.random.default_rng(31)
    n = 400
    treated = np.tile([True, False], n // 2)
    outcome = rng.normal(size=n) + treated * 2.0
    x = rng.normal(size=(n, 1))  # independent of treatment: flat scores
    data = make_dataset(treated, outcome, x)
    model = fit_logistic(data, ["x0"])
    report = decile_att(data, model, min_per_arm=5)
    assert len(report.rows) == 10
    assert not any(r.dropped for r in report.rows)
    overall = naive_diff(data).tau_hat
    for row in report.rows:
        assert row.att == pytest.approx(overall, abs=4 * row.se)


def test_decile_partition_properties():
    data = synthetic_observational(seed=33, n_treated=50, n_control=200)
    model = fit_logistic(data, COVS)
    report = decile_att(data, model)
    total = sum(r.n_treated + r.n_control for r in report.rows)
    assert total == len(data)
    sizes = [r.n_treated + r.n_control for r in report.rows]
    assert max(sizes) - min(sizes) <= 1  # near-equal split
    assert list(report.score_boundaries) == sorted(report.score_boundaries)


def test_decile_drops_thin_arms():
    # 20 units: scores increase with x; top half has no controls at all
    xs = np.linspace(-3, 3, 20)
    treated = xs > 0
    data = make_dataset(treated, np.zeros(20), [[v] for v in xs])
    model = _hand_model(0.0, [5.0])
    report = decile_att(data, model, min_per_arm=1)
    assert report.rows[0].dropped  # control-only decile
    assert report.rows[-1].dropped  # treated-only decile
    assert report.rows[0].att is None


def test_decile_constant_effect_recovered():
    rng = np.random.default_rng(35)
    n = 1000
    x = rng.normal(size=(n, 1))
    p = 1 / (1 + np.exp(-0.8 * x[:, 0]))
    treated = rng.random(n) < p
    effect = 5.0
    outcome = x[:, 0] + rng.normal(scale=0.5, size=n) + treated * effect
    data = make_dataset(treated, outcome, x)
    model = fit_logistic(data, ["x0"])
    report = decile_att(data, model, min_per_arm=5)
    for row in report.rows:
        if not row.dropped:
            assert row.att == pytest.approx(effect, abs=3 * row.se)
