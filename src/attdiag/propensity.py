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
    check_count,
)
from .ingest import Dataset

SCORE_CLAMP = 1e-12  # keeps odds weights e/(1-e) finite

# |standardized coefficient| beyond this with ridge=0 means the likelihood
# is climbing without bound (perfect separation).
_SEPARATION_NORM = 40.0


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Fitted logistic coefficients for P(treated | covariates).

    Frozen, with read-only `coefficients` (a copy of those given), and
    equal only to itself: a model cannot change after it is built, so a
    Dataset can key what the model determines on it (`Dataset.cached`). A
    second model with the same coefficients is another key."""

    coefficients: np.ndarray  # intercept first, raw covariate scale
    covariate_columns: tuple[str, ...]
    converged: bool
    iterations: int
    ridge: float
    grad_max_norm: float = float("nan")  # standardized-scale gradient at exit

    def __post_init__(self):
        coefficients = np.array(self.coefficients, dtype=float)
        coefficients.flags.writeable = False
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        if self.coefficients.shape != (len(self.covariate_columns) + 1,):
            raise ValidationError("coefficient length must be covariate count + 1")
        if not self.ridge >= 0:  # also catches NaN
            raise ValidationError(f"ridge must be >= 0, got {self.ridge}")

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
    """1 / (1 + exp(-clip(eta, -30, 30))), computed in place: `eta` is
    overwritten and returned."""
    np.maximum(eta, -30.0, out=eta)
    np.minimum(eta, 30.0, out=eta)
    np.negative(eta, out=eta)
    np.exp(eta, out=eta)
    eta += 1.0
    return np.divide(1.0, eta, out=eta)


def _check_fit_options(ridge: float, tol: float, max_iter: int) -> None:
    """Raise ValidationError unless ridge, tol and max_iter are all >= 0
    (NaN fails) and max_iter is an integer: a NaN ridge gives NaN
    coefficients, a NaN or negative tol never converges, and a negative
    max_iter takes no step from beta = 0."""
    for name, value in (("ridge", ridge), ("tol", tol)):
        if not value >= 0:  # also catches NaN
            raise ValidationError(f"{name} must be >= 0, got {value}")
    check_count("max_iter", max_iter, 0)


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
        ValidationError: a fit option below 0 or NaN (`_check_fit_options`).
        ConvergenceError: apparent perfect separation, or collinear
            covariates, with ridge=0.
        NumericalError: rank-deficient normal equations.
    """
    covariates = tuple(covariates)
    _check_fit_options(ridge, tol, max_iter)
    data.require_both_arms("fit_logistic")
    x_raw = data.covariate_matrix(covariates)
    if x_raw.size and not np.all(np.isfinite(x_raw)):
        raise ValidationError("design matrix has non-finite entries")
    y = data.treated.astype(float)
    n, p = x_raw.shape

    # The matrix products' sums depend on the layout, so the design keeps
    # the one it has always had: column-major, or row-major when x_raw is
    # row-major too (a single column).
    design = np.empty((n, p + 1), order="C" if x_raw.flags.c_contiguous else "F")
    design[:, 0] = 1.0
    centred = design[:, 1:]
    mu = x_raw.mean(axis=0)
    np.subtract(x_raw, mu, out=centred)
    # np.std's own steps on the centred columns, so its floats, centred once.
    sd = np.sqrt(np.mean(centred * centred, axis=0))
    if np.any(sd == 0):
        j = int(np.argmax(sd == 0))
        raise NumericalError(
            f"covariate {covariates[j]!r} is constant; normal equations are rank-deficient"
        )
    centred /= sd
    # Each Newton step fills this with the weighted design. It keeps the
    # design's layout, on which the Hessian product's sums depend.
    weighted = np.empty_like(design)

    beta = np.zeros(p + 1)
    converged = False
    iterations = 0
    grad_norm = np.inf
    for step_count in range(max_iter + 1):
        prob = _sigmoid(design @ beta)
        grad = design.T @ (y - prob)
        grad[1:] -= ridge * beta[1:]
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= tol:
            converged = True
            break
        if step_count == max_iter:
            break
        weight = prob * (1.0 - prob)
        hessian = design.T @ np.multiply(design, weight[:, None], out=weighted)
        # The slopes' diagonal: entries (i, i) for i >= 1 of the new
        # row-major matrix.
        hessian.ravel()[p + 2::p + 2] += ridge
        try:
            delta = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            if ridge == 0:
                raise ConvergenceError(
                    "singular Newton system at ridge=0 (perfect separation "
                    "or collinear covariates); refit with ridge > 0"
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
    eta = x @ model.coefficients[1:]
    eta += model.coefficients[0]
    scores = _sigmoid(eta)
    np.maximum(scores, SCORE_CLAMP, out=scores)
    return np.minimum(scores, 1.0 - SCORE_CLAMP, out=scores)


def count_clamped(scores: np.ndarray) -> int:
    """How many scores sit at the clamp boundary (reported, not hidden)."""
    return int(np.sum((scores <= SCORE_CLAMP) | (scores >= 1.0 - SCORE_CLAMP)))


def _check_scores(scores, n_units: int | None = None) -> np.ndarray:
    """`scores` as a float vector, of `n_units` entries when given, each
    strictly inside (0, 1) as `score_dataset` clamps them (NaN fails)."""
    shape = np.shape(scores)  # () for None
    if len(shape) != 1 or n_units not in (None, shape[0]):
        wanted = "a vector of" if n_units is None else n_units
        raise ValidationError(f"need {wanted} scores, got "
                              f"{type(scores).__name__} of shape {shape}")
    scores = np.asarray(scores, dtype=float)
    inside = (scores > 0.0) & (scores < 1.0)
    if not inside.all():
        raise ValidationError(f"scores must lie in (0, 1), got {scores[~inside][0]} "
                              f"at position {int(np.argmin(inside))}")
    return scores


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
    check_count("n_bins", n_bins, 1)
    scores = _check_scores(scores, len(data))
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    treated_counts, _ = np.histogram(scores[data.treated], bins=edges)
    control_counts, _ = np.histogram(scores[~data.treated], bins=edges)
    return treated_counts, control_counts, edges
