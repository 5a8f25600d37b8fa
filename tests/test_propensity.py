import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from attdiag import estimators, propensity
from attdiag.errors import (
    ConvergenceError,
    NumericalError,
    TrimmingError,
    ValidationError,
)
from attdiag.estimators import (
    MAHALANOBIS,
    MatchSpec,
    att_match,
    default_design_suite,
    design_sensitivity,
    distinct_control_scores,
)
from attdiag.ingest import Dataset
from attdiag.propensity import (
    SCORE_CLAMP,
    PropensityModel,
    TrimRule,
    count_clamped,
    fit_logistic,
    score_dataset,
    score_histogram,
    trim,
)
from attdiag.resample import decile_att
from conftest import make_dataset, synthetic_observational


def _binary_cell_dataset():
    # P(D=1 | X=1) = 3/4, P(D=1 | X=0) = 1/4 by construction
    x = np.array([[1], [1], [1], [1], [0], [0], [0], [0]], dtype=float)
    d = [True, True, True, False, False, False, False, True]
    return make_dataset(d, np.zeros(8), x)


def _hand_model(intercept, slopes):
    return PropensityModel(
        coefficients=np.array([intercept, *slopes], dtype=float),
        covariate_columns=tuple(f"x{i}" for i in range(len(slopes))),
        converged=True, iterations=0, ridge=0.0, grad_max_norm=0.0,
    )


def test_closed_form_log_odds():
    model = fit_logistic(_binary_cell_dataset(), ["x0"], ridge=0.0)
    assert model.converged
    assert model.coefficients[0] == pytest.approx(math.log(1 / 3), abs=1e-8)
    assert model.coefficients[1] == pytest.approx(math.log(3) - math.log(1 / 3), abs=1e-8)


def test_independent_treatment_scores_near_rate():
    rng = np.random.default_rng(0)
    n = 4000
    x = rng.normal(size=(n, 2))
    d = rng.random(n) < 0.4
    data = make_dataset(d, np.zeros(n), x)
    model = fit_logistic(data, ["x0", "x1"])
    scores = score_dataset(model, data)
    assert np.mean(scores) == pytest.approx(d.mean(), abs=0.01)
    assert np.max(np.abs(model.coefficients[1:])) < 0.1


def test_first_order_conditions_at_convergence():
    data = _binary_cell_dataset()
    model = fit_logistic(data, ["x0"], ridge=0.0, tol=1e-10)
    scores = score_dataset(model, data)
    resid = data.treated.astype(float) - scores
    design = np.column_stack([np.ones(len(data)), data.covariates])
    for j in range(design.shape[1]):
        assert abs(np.dot(resid, design[:, j])) <= 1e-10 * len(data) + 1e-9


def test_ridge_path_shrinks_monotonically():
    data = synthetic_observational(seed=2, n_treated=80, n_control=200)
    covs = ["age", "education", "re75"]
    norms = [
        float(np.linalg.norm(fit_logistic(data, covs, ridge=r).coefficients[1:]))
        for r in (0.0, 1.0, 100.0)
    ]
    assert norms[0] >= norms[1] >= norms[2]
    assert norms[2] < norms[0]


def test_fit_is_deterministic():
    data = synthetic_observational(seed=4, n_treated=60, n_control=180)
    covs = ["age", "education", "married", "re74", "re75"]
    a = fit_logistic(data, covs)
    b = fit_logistic(data, covs)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_perfect_separation_raises_and_ridge_rescues():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
    d = [False, False, False, False, True, True, True, True]
    data = make_dataset(d, np.zeros(8), x)
    with pytest.raises(ConvergenceError, match="ridge"):
        fit_logistic(data, ["x0"], ridge=0.0)
    model = fit_logistic(data, ["x0"], ridge=1e-2)
    assert np.isfinite(model.coefficients).all()


def test_collinear_covariates_at_ridge_zero_raise_a_named_error():
    # Identical columns make every Newton system singular. The solve's
    # failure must surface as ConvergenceError, with no RuntimeWarning
    # (which the suite makes an error) on the way.
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    d = [False, True, False, False, True, True, False, True]
    data = make_dataset(d, np.zeros(8), np.column_stack([x, x]))
    with pytest.raises(ConvergenceError, match="collinear covariates.*ridge"):
        fit_logistic(data, ["x0", "x1"], ridge=0.0)
    assert np.isfinite(fit_logistic(data, ["x0", "x1"], ridge=1e-2).coefficients).all()


def test_constant_column_is_rank_deficient():
    data = make_dataset([True, False, True, False], np.zeros(4),
                        np.ones((4, 1)))
    with pytest.raises(NumericalError, match="constant"):
        fit_logistic(data, ["x0"])


def _one_unit(*covariates):
    return make_dataset([True], [0.0], [covariates])


def test_score_zero_coefficients_is_half():
    model = _hand_model(0.0, [0.0, 0.0])
    assert score_dataset(model, _one_unit(3.0, -2.0))[0] == 0.5


def test_score_closed_form_plugin():
    model = _hand_model(math.log(1 / 3), [math.log(9)])
    assert score_dataset(model, _one_unit(1.0))[0] == pytest.approx(0.75, abs=1e-12)


def test_score_monotone_in_positive_coefficient():
    model = _hand_model(0.0, [2.0])
    low = score_dataset(model, _one_unit(0.1))[0]
    high = score_dataset(model, _one_unit(0.9))[0]
    assert high > low


def test_score_column_mismatch():
    model = _hand_model(0.0, [1.0, 1.0])
    with pytest.raises(ValidationError, match="x1"):
        score_dataset(model, _one_unit(1.0))


def test_score_clamping_counted():
    model = _hand_model(500.0, [0.0])
    data = make_dataset([True, False], [0.0, 0.0], [[0.0], [0.0]])
    scores = score_dataset(model, data)
    assert np.all(scores < 1.0)
    assert count_clamped(scores) == 2


def test_score_consumers_reject_missing_or_wrong_length_scores():
    data = synthetic_observational(seed=6, n_treated=20, n_control=60)
    scores = score_dataset(fit_logistic(data, ["age", "re75"]), data)
    consumers = [
        lambda s: trim(data, s, TrimRule(0.0, 1.0)),
        lambda s: score_histogram(data, s, 4),
        lambda s: att_match(data, s, MatchSpec()),
        lambda s: design_sensitivity(data, s, [MatchSpec(metric="mahalanobis")]),
        lambda s: distinct_control_scores(data, s),
        lambda s: decile_att(data, s),
        default_design_suite,  # has no data to count the scores against
    ]
    # Scores outside (0, 1), NaN included, at a treated unit and a control.
    outside = [np.where(np.isin(np.arange(len(data)), [3, 40]), value, scores)
               for value in (math.nan, 0.0, 1.0, -0.25, 1.5, math.inf)]
    for consume in consumers:
        consume(scores)
        bad = [None, scores.reshape(-1, 1), *outside]
        if consume is not default_design_suite:
            bad += [scores[:-1], np.append(scores, 0.5)]
        for bad_scores in bad:
            with pytest.raises(ValidationError, match="scores"):
                consume(bad_scores)
    # A mahalanobis match reads no scores.
    assert np.isfinite(att_match(data, None, MatchSpec(metric="mahalanobis")).tau_hat)
    # Scores that score_dataset clamps stay inside (0, 1) and pass.
    extreme = PropensityModel(np.array([0.0, 50.0, 0.0]), ("age", "re75"),
                              converged=True, iterations=0, ridge=0.0)
    clamped = score_dataset(extreme, data)
    assert count_clamped(clamped) == len(data)
    assert len(trim(data, clamped, TrimRule(0.0, 1.0))) == len(data)


def test_check_scores_names_a_count_of_zero():
    with pytest.raises(ValidationError, match="need 0 scores"):
        propensity._check_scores(np.array([0.5]), 0)
    assert propensity._check_scores(np.empty(0), 0).shape == (0,)


@pytest.mark.parametrize("option", [
    {"ridge": math.nan}, {"ridge": -1e-3}, {"tol": math.nan}, {"tol": -1.0},
    {"max_iter": -1},
], ids=str)
def test_fit_logistic_rejects_fit_options_below_zero_or_nan(option):
    data = synthetic_observational(seed=6, n_treated=40, n_control=120)
    [name] = option
    with pytest.raises(ValidationError, match=f"{name} must be >= 0"):
        fit_logistic(data, ["age", "re75"], **option)


@pytest.mark.parametrize("count", [2.5, 3.0, True], ids=repr)
def test_counts_must_be_integers(count):
    data = synthetic_observational(seed=6, n_treated=40, n_control=120)
    scores = score_dataset(fit_logistic(data, ["age", "re75"]), data)
    with pytest.raises(ValidationError, match="max_iter must be an integer"):
        fit_logistic(data, ["age", "re75"], max_iter=count)
    with pytest.raises(ValidationError, match="n_bins must be an integer"):
        score_histogram(data, scores, count)
    with pytest.raises(ValidationError, match="min_per_arm must be an integer"):
        decile_att(data, scores, min_per_arm=count)


def test_model_rejects_a_nan_ridge():
    with pytest.raises(ValidationError, match="ridge must be >= 0"):
        PropensityModel(np.zeros(2), ("age",), converged=True, iterations=0, ridge=math.nan)


def test_trim_rule_validation():
    with pytest.raises(ValidationError):
        TrimRule(0.9, 0.1)
    with pytest.raises(ValidationError):
        TrimRule(-0.1, 0.5)


def test_trim_full_rule_is_identity():
    data = synthetic_observational(seed=6, n_treated=40, n_control=120)
    model = fit_logistic(data, ["age", "re75"])
    kept = trim(data, score_dataset(model, data), TrimRule(0.0, 1.0))
    assert len(kept) == len(data)


def test_trim_hand_scores():
    # scores 0.05 / 0.5 / 0.95 via a single covariate
    model = _hand_model(0.0, [1.0])
    xs = [math.log(0.05 / 0.95), 0.0, math.log(0.95 / 0.05)]
    data = make_dataset([True, False, True], np.zeros(3), [[v] for v in xs])
    kept = trim(data, score_dataset(model, data), TrimRule(0.1, 0.9))
    assert kept.unit_ids.tolist() == [1]
    with pytest.raises(TrimmingError):
        trim(data, score_dataset(model, data), TrimRule(0.40, 0.45))


def test_trim_widening_is_monotone():
    data = synthetic_observational(seed=8, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    narrow = trim(data, score_dataset(model, data), TrimRule(0.2, 0.8))
    wide = trim(data, score_dataset(model, data), TrimRule(0.1, 0.9))
    assert set(narrow.unit_ids.tolist()) <= set(wide.unit_ids.tolist())


def test_histogram_single_bin_equals_arm_sizes():
    data = synthetic_observational(seed=10, n_treated=30, n_control=90)
    model = fit_logistic(data, ["age", "re75"])
    t_counts, c_counts, edges = score_histogram(data, score_dataset(model, data), 1)
    assert t_counts.tolist() == [30]
    assert c_counts.tolist() == [90]
    assert edges.tolist() == [0.0, 1.0]


def test_histogram_hand_placement():
    model = _hand_model(0.0, [1.0])
    xs = [math.log(0.05 / 0.95), 0.0, math.log(0.95 / 0.05)]
    data = make_dataset([True, False, True], np.zeros(3), [[v] for v in xs])
    t_counts, c_counts, _ = score_histogram(data, score_dataset(model, data), 10)
    assert t_counts.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert c_counts.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]


def test_histogram_counts_sum_to_arm_sizes():
    data = synthetic_observational(seed=12, n_treated=45, n_control=135)
    model = fit_logistic(data, ["age", "education", "re75"])
    t_counts, c_counts, _ = score_histogram(data, score_dataset(model, data), 17)
    assert t_counts.sum() == 45 and c_counts.sum() == 135


def test_model_json_round_trip():
    data = _binary_cell_dataset()
    model = fit_logistic(data, ["x0"], ridge=0.0)
    restored = PropensityModel.from_json(model.to_json())
    assert np.array_equal(restored.coefficients, model.coefficients)
    assert restored.covariate_columns == model.covariate_columns
    assert restored.converged == model.converged


def test_model_is_frozen_with_read_only_coefficients():
    coefficients = np.array([0.5, -1.0])
    model = _hand_model(0.5, [-1.0])
    given = PropensityModel(coefficients, ("x0",), True, 0, 0.0)
    coefficients[0] = 9.0  # the model keeps a copy
    assert given.coefficients[0] == 0.5
    for m in (model, given):
        with pytest.raises(ValueError):
            m.coefficients[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.ridge = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.coefficients = np.zeros(2)
    # Equality and hash are the object's own, so each model is its own key.
    assert model != given and model == model
    assert len({model, given}) == 2


# Results must not depend on how the covariates lie in memory. The oracles
# below compute the fit, the scores and the Mahalanobis coordinates with
# plain expressions on a row-major matrix x (a gathered copy for the fit and
# the scores, `column_stack` for the design), and every number must equal
# theirs bit for bit.

def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _oracle_fit(x, treated, ridge=1e-8, tol=1e-8, max_iter=100):
    x_raw = x[:, list(range(x.shape[1]))]
    y = treated.astype(float)
    n, p = x_raw.shape
    mu, sd = x_raw.mean(axis=0), x_raw.std(axis=0)
    design = np.column_stack([np.ones(n), (x_raw - mu) / sd])
    beta = np.zeros(p + 1)
    for step in range(max_iter + 1):
        prob = 1.0 / (1.0 + np.exp(-np.clip(design @ beta, -30.0, 30.0)))
        grad = design.T @ (y - prob)
        grad[1:] -= ridge * beta[1:]
        if float(np.max(np.abs(grad))) <= tol or step == max_iter:
            break
        weight = prob * (1.0 - prob)
        hessian = design.T @ (design * weight[:, None])
        hessian[1:, 1:] += ridge * np.eye(p)
        beta += np.linalg.solve(hessian, grad)
    intercept = beta[0] - float(np.dot(beta[1:], mu / sd))
    return np.concatenate([[intercept], beta[1:] / sd])


def _oracle_scores(coefficients, x):
    eta = coefficients[0] + x[:, list(range(x.shape[1]))] @ coefficients[1:]
    return np.clip(1.0 / (1.0 + np.exp(-np.clip(eta, -30.0, 30.0))),
                   SCORE_CLAMP, 1.0 - SCORE_CLAMP)


def _oracle_whitened(x):
    p = x.shape[1]
    chol = np.linalg.cholesky(np.cov(x, rowvar=False, ddof=1).reshape(p, p))
    return np.linalg.solve(chol, x.T).T


def _oracle_match(z, treated, outcome):
    """1-NN with replacement from the full distance matrix (first minimum,
    so the lowest control id), as (tau_hat, se)."""
    zt, zc = z[treated], z[~treated]
    nearest = np.argmin(np.sqrt(((zt[:, None, :] - zc[None, :, :]) ** 2).sum(axis=2)),
                        axis=1)
    diffs = outcome[treated] - outcome[~treated][nearest]
    se = float(np.std(diffs, ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
    return float(np.mean(diffs)), se


def _fittable(x, treated) -> bool:
    return 0 < treated.sum() < len(treated) and bool(np.all(x.std(axis=0) > 0))


def _assert_matches_row_major_oracle(data, x, treated, outcome):
    """`data` holds rows x (row-major), `treated` and `outcome`."""
    assert data.covariates.flags.f_contiguous
    assert np.shares_memory(data.covariate_matrix(data.covariate_columns), data.covariates)
    model = fit_logistic(data, data.covariate_columns)
    coefficients = _oracle_fit(x, treated)
    assert np.array_equal(_bits(model.coefficients), _bits(coefficients))
    scores = score_dataset(model, data)
    oracle_scores = _oracle_scores(coefficients, x)
    assert np.array_equal(_bits(scores), _bits(oracle_scores))
    logit = att_match(data, scores, MatchSpec())
    oracle_logit = _oracle_match(np.log(oracle_scores / (1.0 - oracle_scores))[:, None],
                                 treated, outcome)
    assert np.array_equal(_bits([logit.tau_hat, logit.se]), _bits(oracle_logit))
    try:
        whitened = _oracle_whitened(x)
    except np.linalg.LinAlgError:
        with pytest.raises(NumericalError):
            att_match(data, None, MatchSpec(metric=MAHALANOBIS))
        return
    assert np.array_equal(
        _bits(estimators._match_coordinates(data, None, MAHALANOBIS)), _bits(whitened))
    mahalanobis = att_match(data, None, MatchSpec(metric=MAHALANOBIS))
    assert np.array_equal(_bits([mahalanobis.tau_hat, mahalanobis.se]),
                          _bits(_oracle_match(whitened, treated, outcome)))


_COLUMN_KINDS = ("integer", "normal", "earnings", "binary")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(12, 300), kinds=st.lists(st.sampled_from(_COLUMN_KINDS),
                                              min_size=1, max_size=6),
       share=st.floats(0.1, 0.6), seed=st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_the_covariate_layout(n, kinds, share, seed):
    rng = np.random.default_rng(seed)
    draw = {
        "integer": lambda: rng.integers(16, 56, n).astype(float),
        "normal": lambda: rng.normal(rng.normal(0.0, 10.0), rng.lognormal(0.0, 2.0), n),
        "earnings": lambda: np.where(rng.random(n) < 0.4, 0.0,
                                     np.round(rng.gamma(2.0, 5000.0, n), 2)),
        "binary": lambda: (rng.random(n) < 0.3).astype(float),
    }
    x = np.column_stack([draw[kind]() for kind in kinds])
    treated = rng.random(n) < share + 0.3 * (x[:, 0] > np.median(x[:, 0]))
    outcome = np.round(rng.normal(5000.0, 3000.0, n), 2)
    assume(_fittable(x, treated))
    p = x.shape[1]
    strided = np.zeros((2 * n, 2 * p))[::2, ::2]
    strided[...] = x
    for covariates in (x, np.asfortranarray(x), strided):
        data = Dataset(treated, outcome, covariates)
        _assert_matches_row_major_oracle(data, x, treated, outcome)
    # Row selections gather the column-major storage into new column-major
    # storage; they must give what the same rows of x give.
    mask = rng.random(n) < 0.7
    draws = rng.integers(0, n, n)
    for rows, selected in ((mask, data.subset(mask)),
                           (draws, data.take_with_fresh_ids(draws))):
        if _fittable(x[rows], treated[rows]):
            _assert_matches_row_major_oracle(selected, x[rows], treated[rows],
                                             outcome[rows])
