"""Treatment-assignment model: ridge-penalized logistic fit, scoring, trimming.

The fit runs iteratively reweighted least squares (Newton) on an
internally z-scored design for conditioning; reported coefficients are on
the raw covariate scale. The ridge penalty applies to the standardized
slopes, never the intercept, so ridge=0 is the exact MLE. `trim` and
`score_histogram` take `scores`, one per unit, as `score_dataset` returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    NumericalError,
    TrimmingError,
    ValidationError,
)
from .ingest import Dataset

SCORE_CLAMP = 1e-12  # keeps odds weights e/(1-e) finite

# |standardized coefficient| beyond this with ridge=0 means the likelihood
# is climbing without bound (perfect separation).
_SEPARATION_NORM = 40.0


@dataclass
class PropensityModel:
    """Fitted logistic coefficients for P(treated | covariates)."""

    coefficients: np.ndarray  # intercept first, raw covariate scale
    covariate_columns: tuple[str, ...]
    converged: bool
    iterations: int
    ridge: float
    grad_max_norm: float = float("nan")  # standardized-scale gradient at exit

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.covariate_columns = tuple(self.covariate_columns)
        if self.coefficients.shape != (len(self.covariate_columns) + 1,):
            raise ValidationError("coefficient length must be covariate count + 1")
        if self.ridge < 0:
            raise ValidationError("ridge must be >= 0")

    def to_json(self) -> str:
        return json.dumps(
            {
                "coefficients": self.coefficients.tolist(),
                "covariate_columns": list(self.covariate_columns),
                "converged": self.converged,
                "iterations": self.iterations,
                "ridge": self.ridge,
                "grad_max_norm": self.grad_max_norm,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PropensityModel":
        raw = json.loads(text)
        return cls(
            coefficients=np.array(raw["coefficients"], dtype=float),
            covariate_columns=tuple(raw["covariate_columns"]),
            converged=bool(raw["converged"]),
            iterations=int(raw["iterations"]),
            ridge=float(raw["ridge"]),
            grad_max_norm=float(raw["grad_max_norm"]),
        )


@dataclass(frozen=True)
class TrimRule:
    """Retain units with score in [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.low < 1.0):
            raise ValidationError("low must be in [0, 1)")
        if not (0.0 < self.high <= 1.0):
            raise ValidationError("high must be in (0, 1]")
        if self.low >= self.high:
            raise ValidationError("low must be < high")


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -30.0, 30.0)))


def fit_logistic(data: Dataset, covariates, ridge: float = 1e-8,
                 tol: float = 1e-8, max_iter: int = 100) -> PropensityModel:
    """Maximize the ridge-penalized Bernoulli log-likelihood by IRLS.

    Args:
        data: dataset with both arms present.
        covariates: covariate column names entering the linear index.
        ridge: L2 penalty on standardized slopes; 0 gives the exact MLE.
        tol: convergence threshold on the max-norm of the (standardized)
            penalized gradient.
        max_iter: Newton update budget.

    Raises:
        ConvergenceError: apparent perfect separation with ridge=0.
        NumericalError: rank-deficient normal equations.
    """
    covariates = tuple(covariates)
    if ridge < 0:
        raise ValidationError("ridge must be >= 0")
    data.require_both_arms("fit_logistic")
    x_raw = data.covariate_matrix(covariates)
    if x_raw.size and not np.all(np.isfinite(x_raw)):
        raise ValidationError("design matrix has non-finite entries")
    y = data.treated.astype(float)
    n, p = x_raw.shape

    mu = x_raw.mean(axis=0)
    sd = x_raw.std(axis=0)
    if np.any(sd == 0):
        j = int(np.argmax(sd == 0))
        raise NumericalError(
            f"covariate {covariates[j]!r} is constant; normal equations are rank-deficient"
        )
    design = np.column_stack([np.ones(n), (x_raw - mu) / sd])

    beta = np.zeros(p + 1)
    converged = False
    iterations = 0
    grad_norm = np.inf
    for step_count in range(max_iter + 1):
        prob = _sigmoid(design @ beta)
        grad = design.T @ (y - prob)
        grad[1:] -= ridge * beta[1:]
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= tol:
            converged = True
            break
        if step_count == max_iter:
            break
        weight = prob * (1.0 - prob)
        hessian = design.T @ (design * weight[:, None])
        hessian[1:, 1:] += ridge * np.eye(p)
        try:
            delta = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            if ridge == 0:
                raise ConvergenceError(
                    "singular Newton system at ridge=0 (likely perfect "
                    "separation); refit with ridge > 0"
                ) from None
            raise NumericalError("normal equations are rank-deficient") from None
        beta += delta
        iterations = step_count + 1
        if ridge == 0 and np.max(np.abs(beta)) > _SEPARATION_NORM:
            raise ConvergenceError(
                "coefficients diverging at ridge=0 (perfect separation); "
                "refit with ridge > 0"
            )

    if ridge == 0:
        # A saturating fit (probabilities at 0/1 for every unit) means the
        # data are separated and the unpenalized MLE does not exist; the
        # linked-index clipping would otherwise silence the gradient.
        prob = _sigmoid(design @ beta)
        if float(np.max(np.abs(y - prob))) < 1e-6:
            raise ConvergenceError(
                "fitted probabilities saturated at 0/1 for every unit "
                "(perfect separation); refit with ridge > 0"
            )

    slopes = beta[1:] / sd
    intercept = beta[0] - float(np.dot(beta[1:], mu / sd))
    return PropensityModel(
        coefficients=np.concatenate([[intercept], slopes]),
        covariate_columns=covariates,
        converged=converged,
        iterations=iterations,
        ridge=ridge,
        grad_max_norm=grad_norm,
    )


def score_dataset(model: PropensityModel, data: Dataset) -> np.ndarray:
    """Vectorized scores for every unit, clamped inside (0, 1)."""
    x = data.covariate_matrix(model.covariate_columns)
    eta = model.coefficients[0] + x @ model.coefficients[1:]
    return np.clip(_sigmoid(eta), SCORE_CLAMP, 1.0 - SCORE_CLAMP)


def count_clamped(scores: np.ndarray) -> int:
    """How many scores sit at the clamp boundary (reported, not hidden)."""
    return int(np.sum((scores <= SCORE_CLAMP) | (scores >= 1.0 - SCORE_CLAMP)))


def _check_scores(scores, n_units: int | None = None) -> np.ndarray:
    """`scores` as a float vector, of `n_units` entries when given."""
    shape = np.shape(scores)  # () for None
    if len(shape) != 1 or n_units not in (None, shape[0]):
        raise ValidationError(f"need {n_units or 'a vector of'} scores, got "
                              f"{type(scores).__name__} of shape {shape}")
    return np.asarray(scores, dtype=float)


def trim(data: Dataset, scores, rule: TrimRule) -> Dataset:
    """Retain units whose score lies in [rule.low, rule.high]."""
    scores = _check_scores(scores, len(data))
    keep = (scores >= rule.low) & (scores <= rule.high)
    if not np.any(keep):
        raise TrimmingError(f"trim rule [{rule.low}, {rule.high}] retained no units")
    return data.subset(keep)


def score_histogram(data: Dataset, scores, n_bins: int):
    """Equal-width score histograms over [0, 1], one per arm.

    Returns (treated_counts, control_counts, edges); counts sum to the
    respective arm sizes.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    scores = _check_scores(scores, len(data))
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    treated_counts, _ = np.histogram(scores[data.treated], bins=edges)
    control_counts, _ = np.histogram(scores[~data.treated], bins=edges)
    return treated_counts, control_counts, edges
