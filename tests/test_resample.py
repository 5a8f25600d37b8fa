import os
import pickle

import numpy as np
import pytest

from attdiag import errors, resample
from attdiag.errors import AttDiagError, BootstrapError, EstimationError, ValidationError
from attdiag.estimators import MatchSpec, _arm_contrast, att_match, naive_diff
from attdiag.propensity import PropensityModel, TrimRule, fit_logistic, score_dataset, trim
from attdiag.resample import (
    bootstrap_att,
    decile_att,
    stratified_indices,
)
from attdiag.simulation import _stage_rng as _replicate_rng
from conftest import (
    counted, deadline, make_dataset, open_fds, reaped, record_forks, synthetic_observational,
)

COVS = ["age", "education", "re74", "re75"]


def _replicate(data, seed, r):
    return data.take_with_fresh_ids(stratified_indices(_replicate_rng(seed, r), data.treated))


def _fit_failing_on(data, seed, failing):
    """A fit_logistic that fails on the replicates `failing` of (data,
    seed), recognised by their content wherever and in whatever order they
    are fit. The message names the replicate's outcome sum."""
    targets = {_replicate(data, seed, r).outcome.tobytes() for r in failing}

    def fit(replicate, covariates, **kwargs):
        if replicate.outcome.tobytes() in targets:
            raise EstimationError(f"no convergence (outcome sum {replicate.outcome.sum()})")
        return fit_logistic(replicate, covariates, **kwargs)

    return fit


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
    summary = bootstrap_att(data, MatchSpec(), 1, seed=7, covariates=COVS)
    replicate = data.take_with_fresh_ids(
        stratified_indices(_replicate_rng(7, 0), data.treated)
    )
    model = fit_logistic(replicate, COVS)
    direct = att_match(replicate, score_dataset(model, replicate), MatchSpec())
    assert summary.estimates == (direct.tau_hat,)
    assert summary.mean == direct.tau_hat
    assert summary.sd == 0.0
    assert summary.b_requested == 1 and summary.n_failed == 0
    assert summary.trimmed is None  # no trim rule, no trimmed design


def test_bootstrap_deterministic_given_seed():
    data = synthetic_observational(seed=9, n_treated=25, n_control=100)
    a = bootstrap_att(data, MatchSpec(), 20, seed=11, covariates=COVS)
    b = bootstrap_att(data, MatchSpec(), 20, seed=11, covariates=COVS)
    assert a.estimates == b.estimates
    c = bootstrap_att(data, MatchSpec(), 20, seed=12, covariates=COVS)
    assert a.estimates != c.estimates


def test_bootstrap_degenerate_outcomes_zero_sd():
    data = synthetic_observational(seed=13, n_treated=20, n_control=80)
    flat = make_dataset(data.treated, np.full(len(data), 7.0), data.covariates)
    summary = bootstrap_att(flat, MatchSpec(metric="mahalanobis"),
                            10, seed=15, model=_hand_model(0.0, [0.0] * 8))
    assert summary.sd == 0.0
    assert all(e == 0.0 for e in summary.estimates)


def test_bootstrap_failure_budget():
    data = synthetic_observational(seed=17, n_treated=20, n_control=80)
    model = fit_logistic(data, COVS)
    impossible = MatchSpec(caliper=1e-15, design_tag="strict")
    with pytest.raises(BootstrapError, match=r"^10/10 bootstrap replicates failed "
                       r"in the full-sample design \(EstimationError: 10; last: "):
        bootstrap_att(data, impossible, 10, seed=19, model=model)


def test_bootstrap_requires_inputs():
    data = synthetic_observational(seed=21, n_treated=10, n_control=40)
    for b in (0, 2.5, True):
        with pytest.raises(ValidationError, match="b must be"):
            bootstrap_att(data, MatchSpec(), b, seed=1, covariates=COVS)
    with pytest.raises(ValidationError, match="needs a model, or covariates to refit on"):
        bootstrap_att(data, MatchSpec(), 5, seed=1)  # neither a model nor covariates


def test_bootstrap_given_a_model_scores_with_it_and_never_refits():
    data = synthetic_observational(seed=21, n_treated=10, n_control=40)
    model = fit_logistic(data, COVS)
    with_covariates, work = counted(bootstrap_att, data, MatchSpec(), 5, seed=1,
                                    model=model, covariates=COVS)
    assert (work["fits"], work["fit_iterations"]) == (0, 0)
    assert with_covariates == bootstrap_att(data, MatchSpec(), 5, seed=1, model=model)


def test_bootstrap_quantiles_recomputable():
    data = synthetic_observational(seed=23, n_treated=25, n_control=100)
    summary = bootstrap_att(data, MatchSpec(), 40, seed=25, covariates=COVS)
    values = np.array(summary.estimates)
    assert summary.mean == pytest.approx(float(values.mean()))
    assert summary.sd == pytest.approx(float(values.std(ddof=1)))
    q025, q975 = np.percentile(values, [2.5, 97.5])
    assert (summary.q025, summary.q975) == (pytest.approx(q025), pytest.approx(q975))


def test_bootstrap_trim_inside_replicate():
    data = synthetic_observational(seed=27, n_treated=40, n_control=160)
    summary = bootstrap_att(data, MatchSpec(), 10, seed=29,
                            covariates=COVS, trim_rule=TrimRule(0.05, 0.95))
    assert summary.trimmed.n_failed == 0
    assert len(summary.trimmed.estimates) == 10
    assert summary.trimmed.b_requested == 10
    assert summary.trimmed.trimmed is None


@pytest.mark.parametrize("rule,per_replicate", [(None, 1), (TrimRule(0.05, 0.95), 2)])
def test_bootstrap_scores_each_replicate_once(monkeypatch, rule, per_replicate):
    # One CPU: one stripe runs every replicate in this process, where the
    # count is seen.
    monkeypatch.setattr(resample, "available_cpus", lambda: 1)
    calls = []

    def counting_score(model, data):
        calls.append(len(data))
        return score_dataset(model, data)

    monkeypatch.setattr(resample, "score_dataset", counting_score)
    data = synthetic_observational(seed=27, n_treated=40, n_control=160)
    summary = bootstrap_att(data, MatchSpec(), 10, seed=29,
                            covariates=COVS, trim_rule=rule)
    assert summary.n_failed == 0 and (rule is None or summary.trimmed.n_failed == 0)
    # The replicate once for both designs, plus its trimmed subset.
    assert len(calls) == per_replicate * 10
    assert calls.count(200) == 10


def test_bootstrap_designs_equal_direct_per_replicate_estimates():
    data = synthetic_observational(seed=37, n_treated=40, n_control=160)
    rule = TrimRule(0.05, 0.95)
    summary = bootstrap_att(data, MatchSpec(), 3, seed=39,
                            covariates=COVS, trim_rule=rule)
    full, trimmed = [], []
    for r in range(3):
        replicate = data.take_with_fresh_ids(
            stratified_indices(_replicate_rng(39, r), data.treated)
        )
        model = fit_logistic(replicate, COVS)
        scores = score_dataset(model, replicate)
        full.append(att_match(replicate, scores, MatchSpec()).tau_hat)
        # The trimmed subset is rescored, not sliced from `scores`.
        kept = trim(replicate, scores, rule)
        trimmed.append(att_match(kept, score_dataset(model, kept), MatchSpec()).tau_hat)
    assert summary.estimates == tuple(full)
    assert summary.trimmed.estimates == tuple(trimmed)
    assert summary.n_failed == summary.trimmed.n_failed == 0


def test_bootstrap_failed_fit_fails_both_designs(monkeypatch):
    data = synthetic_observational(seed=41, n_treated=40, n_control=160)
    monkeypatch.setattr(resample, "fit_logistic", _fit_failing_on(data, 43, [1]))
    summary, work = counted(bootstrap_att, data, MatchSpec(), 6, seed=43,
                            covariates=COVS, trim_rule=TrimRule(0.05, 0.95))
    assert work["fits"] == 6  # one fit per replicate for both designs
    for design in (summary, summary.trimmed):
        assert design.failed_by_type == {"EstimationError": 1}
        assert design.n_failed == 1
        assert design.replicates == (0, 2, 3, 4, 5)
        assert design.b_requested == 6


def test_bootstrap_failed_trim_fails_only_the_trimmed_design():
    data = synthetic_observational(seed=45, n_treated=40, n_control=160)
    model = fit_logistic(data, COVS)
    # A rule no score can satisfy empties every trimmed replicate.
    with pytest.raises(BootstrapError, match=r"^5/5 bootstrap replicates failed in "
                       r"the score-trimmed design \(TrimmingError: 5; last: "):
        bootstrap_att(data, MatchSpec(), 5, seed=47, model=model,
                      trim_rule=TrimRule(0.49999, 0.5))


def test_bootstrap_summaries_carry_replicate_indices():
    data = synthetic_observational(seed=45, n_treated=12, n_control=60)
    rule = TrimRule(0.3, 0.7)
    summary = bootstrap_att(data, MatchSpec(), 40, seed=47,
                            covariates=COVS, trim_rule=rule)
    assert summary.replicates == tuple(range(40))
    assert summary.trimmed.n_failed == 5
    assert len(summary.trimmed.replicates) == len(summary.trimmed.estimates) == 35
    kept = dict(zip(summary.trimmed.replicates, summary.trimmed.estimates))
    for r in range(40):
        replicate = data.take_with_fresh_ids(
            stratified_indices(_replicate_rng(47, r), data.treated))
        model = fit_logistic(replicate, COVS)
        try:
            sample = trim(replicate, score_dataset(model, replicate), rule)
            estimate = att_match(sample, score_dataset(model, sample), MatchSpec()).tau_hat
        except AttDiagError:
            assert r not in kept
        else:
            assert kept[r] == estimate


def test_decile_uniform_scores_balanced_data():
    rng = np.random.default_rng(31)
    n = 400
    treated = np.tile([True, False], n // 2)
    outcome = rng.normal(size=n) + treated * 2.0
    x = rng.normal(size=(n, 1))  # independent of treatment: flat scores
    data = make_dataset(treated, outcome, x)
    model = fit_logistic(data, ["x0"])
    report = decile_att(data, score_dataset(model, data), min_per_arm=5)
    assert len(report.rows) == 10
    assert not any(r.dropped for r in report.rows)
    overall = naive_diff(data).tau_hat
    for row in report.rows:
        assert row.att == pytest.approx(overall, abs=4 * row.se)


def test_decile_partition_properties():
    data = synthetic_observational(seed=33, n_treated=50, n_control=200)
    model = fit_logistic(data, COVS)
    report = decile_att(data, score_dataset(model, data))
    total = sum(r.n_treated + r.n_control for r in report.rows)
    assert total == len(data)
    sizes = [r.n_treated + r.n_control for r in report.rows]
    assert max(sizes) - min(sizes) <= 1  # near-equal split


def test_decile_rows_are_the_arm_contrast_of_their_units():
    data = synthetic_observational(seed=33, n_treated=50, n_control=200)
    model = fit_logistic(data, COVS)
    scores = score_dataset(model, data)
    report = decile_att(data, scores, min_per_arm=1)
    order = np.lexsort((data.unit_ids, scores))
    kept = [row for row in report.rows if not row.dropped]
    assert kept
    for row in kept:
        idx = order[np.array_split(np.arange(len(data)), 10)[row.decile - 1]]
        treated, outcome = data.treated[idx], data.outcome[idx]
        assert (row.att, row.se) == _arm_contrast(outcome[treated], outcome[~treated])


def test_decile_rejects_min_per_arm_below_one():
    data = synthetic_observational(seed=33, n_treated=50, n_control=200)
    scores = score_dataset(fit_logistic(data, COVS), data)
    for min_per_arm in (0, -3):
        with pytest.raises(ValidationError, match="min_per_arm must be >= 1"):
            decile_att(data, scores, min_per_arm=min_per_arm)


def test_decile_drops_thin_arms():
    # 20 units: scores increase with x; top half has no controls at all
    xs = np.linspace(-3, 3, 20)
    treated = xs > 0
    data = make_dataset(treated, np.zeros(20), [[v] for v in xs])
    model = _hand_model(0.0, [5.0])
    report = decile_att(data, score_dataset(model, data), min_per_arm=1)
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
    report = decile_att(data, score_dataset(model, data), min_per_arm=5)
    for row in report.rows:
        if not row.dropped:
            assert row.att == pytest.approx(effect, abs=3 * row.se)


def test_bootstrap_work_counts_fits_iterations_and_units():
    data = synthetic_observational(seed=45, n_treated=12, n_control=60)
    summary, work = counted(bootstrap_att, data, MatchSpec(), 40, seed=47,
                            covariates=COVS, trim_rule=TrimRule(0.3, 0.7))
    iterations = sum(fit_logistic(_replicate(data, 47, r), COVS).iterations
                     for r in range(40))
    assert (work["fits"], work["fit_iterations"], work["units_drawn"]) == (
        40, iterations, 40 * 72)
    assert summary.failed_by_type == {}
    assert summary.trimmed.failed_by_type == {"ValidationError": 5}
    assert work["workers"] == min(resample.available_cpus(), 40)
    model = fit_logistic(data, COVS)
    fixed, work = counted(bootstrap_att, data, MatchSpec(), 4, seed=47, model=model)
    assert (work["fits"], work["fit_iterations"]) == (0, 0)
    assert fixed.failed_by_type == {} and fixed.trimmed is None


def _bootstrap_with_workers(monkeypatch, workers, *args, **kwargs):
    """bootstrap_att run as if this process had `workers` CPUs."""
    monkeypatch.setattr(resample, "available_cpus", lambda: workers)
    return bootstrap_att(*args, **kwargs)


def test_bootstrap_output_independent_of_worker_count(monkeypatch):
    data = synthetic_observational(seed=45, n_treated=12, n_control=60)
    rule = TrimRule(0.3, 0.7)  # fails 5 of the 40 trimmed replicates
    monkeypatch.setattr(resample, "fit_logistic", _fit_failing_on(data, 47, [3, 22]))
    (one, one_work), (two, two_work), (three, three_work) = (
        counted(_bootstrap_with_workers, monkeypatch, workers, data, MatchSpec(), 40,
                seed=47, covariates=COVS, trim_rule=rule)
        for workers in (1, 2, 3))
    assert [work.pop("workers") for work in (one_work, two_work, three_work)] == [1, 2, 3]
    assert one == two == three and hash(one) == hash(two) == hash(three)
    assert one_work == two_work == three_work
    assert one.failed_by_type == {"EstimationError": 2}
    assert one.trimmed.failed_by_type == {"EstimationError": 2, "ValidationError": 5}

    # Past the 20% budget both worker counts name the same failures, and
    # the same last one.
    monkeypatch.setattr(resample, "fit_logistic",
                        _fit_failing_on(data, 47, [1, 5, 8, 13, 21, 30, 33, 34, 39]))
    messages = []
    for workers in (1, 2, 3):
        with pytest.raises(BootstrapError) as raised:
            _bootstrap_with_workers(monkeypatch, workers, data, MatchSpec(), 40,
                                    seed=47, covariates=COVS, trim_rule=rule)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].startswith("9/40 bootstrap replicates failed in the full-sample "
                                  "design (EstimationError: 9; last: no convergence")
    assert messages[0].endswith(f"(outcome sum {_replicate(data, 47, 39).outcome.sum()}))")


def test_bootstrap_ledger_sums_the_workers_matches_and_datasets(monkeypatch):
    # Each replicate builds its draw and its trimmed subset and matches
    # both, in whichever process runs it.
    data = synthetic_observational(seed=45, n_treated=12, n_control=60)
    model = fit_logistic(data, COVS)
    works = []
    for workers in (1, 2, 3):
        _, work = counted(_bootstrap_with_workers, monkeypatch, workers, data, MatchSpec(),
                          10, seed=47, model=model, trim_rule=TrimRule(0.05, 0.95))
        assert work.pop("workers") == workers
        assert work["matches"] == work["datasets_built"] == 20
        works.append(work)
    assert works[0] == works[1] == works[2]


def test_bootstrap_worker_errors_reach_the_caller(monkeypatch):
    data = synthetic_observational(seed=9, n_treated=25, n_control=100)
    parent = os.getpid()

    def broken_fit(replicate, covariates, **kwargs):
        raise KeyError("not an AttDiagError")

    def broken_in_workers(replicate, covariates, **kwargs):
        if os.getpid() != parent:
            raise KeyError("not an AttDiagError")
        return fit_logistic(replicate, covariates, **kwargs)

    def dying_fit(replicate, covariates, **kwargs):
        # The caller's own stripe fits; a forked stripe dies.
        if os.getpid() != parent:
            os._exit(3)
        return fit_logistic(replicate, covariates, **kwargs)

    # Raised in the caller's stripe, or in a forked one and sent back.
    for fit, workers in ((broken_fit, 1), (broken_fit, 2), (broken_in_workers, 2)):
        monkeypatch.setattr(resample, "fit_logistic", fit)
        with pytest.raises(KeyError, match="not an AttDiagError"):
            _bootstrap_with_workers(monkeypatch, workers, data, MatchSpec(), 4,
                                    seed=11, covariates=COVS)
    monkeypatch.setattr(resample, "fit_logistic", dying_fit)
    with pytest.raises(BootstrapError, match="worker process died"):
        _bootstrap_with_workers(monkeypatch, 2, data, MatchSpec(), 4,
                                seed=11, covariates=COVS)


@pytest.mark.parametrize("cpus,b", [(1, 5), (2, 5), (3, 5), (3, 2)])
def test_the_caller_runs_the_first_stripe_and_forks_the_others(monkeypatch, cpus, b):
    data = synthetic_observational(seed=45, n_treated=12, n_control=60)
    parent, in_caller = os.getpid(), []

    def recording_rng(seed, r):
        if os.getpid() == parent:
            in_caller.append(r)
        return _replicate_rng(seed, r)

    monkeypatch.setattr(resample, "_stage_rng", recording_rng)
    forked = record_forks(monkeypatch)
    with deadline(60):
        summary = _bootstrap_with_workers(monkeypatch, cpus, data, MatchSpec(), b,
                                          seed=47, covariates=COVS)
    stripes = min(cpus, b)
    assert in_caller == list(range(0, b, stripes))
    assert len(forked) == stripes - 1
    assert all(reaped(pid) for pid in forked)
    assert summary.replicates == tuple(range(b))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_fork_closes_the_started_stripes_and_leaks_nothing(monkeypatch):
    data = synthetic_observational(seed=9, n_treated=25, n_control=100)
    forked = record_forks(monkeypatch, fail_after=1)
    fds = open_fds()
    with pytest.raises(BootstrapError, match="worker process could not be forked"):
        with deadline(60):
            _bootstrap_with_workers(monkeypatch, 3, data, MatchSpec(), 6,
                                    seed=11, covariates=COVS)
    assert len(forked) == 1 and reaped(forked[0])
    assert open_fds() == fds


def test_a_negative_seed_is_a_validation_error():
    data = synthetic_observational(seed=9, n_treated=25, n_control=100)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        bootstrap_att(data, MatchSpec(), 4, seed=-1, covariates=COVS)


def test_every_error_type_survives_pickling():
    # Worker processes send failed replicates' errors back pickled.
    types = [obj for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, AttDiagError)]
    assert len(types) == 20
    for error_type in types:
        exc = error_type(f"{error_type.__name__}: replicate 7 failed")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is error_type
        assert str(copy) == str(exc)
