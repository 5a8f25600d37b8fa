import math

import numpy as np
import pytest

from attdiag.errors import (
    ConvergenceError,
    NumericalError,
    TrimmingError,
    ValidationError,
)
from attdiag.propensity import (
    PropensityModel,
    TrimRule,
    count_clamped,
    fit_logistic,
    score_dataset,
    score_histogram,
    trim,
)
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


def test_trim_rule_validation():
    with pytest.raises(ValidationError):
        TrimRule(0.9, 0.1)
    with pytest.raises(ValidationError):
        TrimRule(-0.1, 0.5)


def test_trim_full_rule_is_identity():
    data = synthetic_observational(seed=6, n_treated=40, n_control=120)
    model = fit_logistic(data, ["age", "re75"])
    kept = trim(data, model, TrimRule(0.0, 1.0))
    assert len(kept) == len(data)


def test_trim_hand_scores():
    # scores 0.05 / 0.5 / 0.95 via a single covariate
    model = _hand_model(0.0, [1.0])
    xs = [math.log(0.05 / 0.95), 0.0, math.log(0.95 / 0.05)]
    data = make_dataset([True, False, True], np.zeros(3), [[v] for v in xs])
    kept = trim(data, model, TrimRule(0.1, 0.9))
    assert kept.unit_ids.tolist() == [1]
    with pytest.raises(TrimmingError):
        trim(data, model, TrimRule(0.40, 0.45))


def test_trim_widening_is_monotone():
    data = synthetic_observational(seed=8, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    narrow = trim(data, model, TrimRule(0.2, 0.8))
    wide = trim(data, model, TrimRule(0.1, 0.9))
    assert set(narrow.unit_ids.tolist()) <= set(wide.unit_ids.tolist())


def test_histogram_single_bin_equals_arm_sizes():
    data = synthetic_observational(seed=10, n_treated=30, n_control=90)
    model = fit_logistic(data, ["age", "re75"])
    t_counts, c_counts, edges = score_histogram(data, model, 1)
    assert t_counts.tolist() == [30]
    assert c_counts.tolist() == [90]
    assert edges.tolist() == [0.0, 1.0]


def test_histogram_hand_placement():
    model = _hand_model(0.0, [1.0])
    xs = [math.log(0.05 / 0.95), 0.0, math.log(0.95 / 0.05)]
    data = make_dataset([True, False, True], np.zeros(3), [[v] for v in xs])
    t_counts, c_counts, _ = score_histogram(data, model, 10)
    assert t_counts.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert c_counts.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]


def test_histogram_counts_sum_to_arm_sizes():
    data = synthetic_observational(seed=12, n_treated=45, n_control=135)
    model = fit_logistic(data, ["age", "education", "re75"])
    t_counts, c_counts, _ = score_histogram(data, model, 17)
    assert t_counts.sum() == 45 and c_counts.sum() == 135


def test_model_json_round_trip():
    data = _binary_cell_dataset()
    model = fit_logistic(data, ["x0"], ridge=0.0)
    restored = PropensityModel.from_json(model.to_json())
    assert np.array_equal(restored.coefficients, model.coefficients)
    assert restored.covariate_columns == model.covariate_columns
    assert restored.converged == model.converged
