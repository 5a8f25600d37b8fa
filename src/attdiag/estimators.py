"""Point estimators of the ATT: matching, inverse-probability weighting,
and the naive difference in arm means.

Matching follows the 1-nearest-neighbor-with-replacement convention on the
logit of the propensity score unless told otherwise; ties break to the
lowest control unit id so every estimator is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NumericalError, ValidationError
from .ingest import Dataset
from .propensity import PropensityModel, score_dataset

LOGIT_SCORE = "logit_score"
MAHALANOBIS = "mahalanobis"


@dataclass(frozen=True)
class MatchSpec:
    """Options for nearest-neighbor matching."""

    metric: str = LOGIT_SCORE
    caliper: float | None = None  # on the metric scale
    with_replacement: bool = True
    n_neighbors: int = 1
    design_tag: str = ""

    def __post_init__(self):
        if self.metric not in (LOGIT_SCORE, MAHALANOBIS):
            raise ValidationError(f"unknown metric {self.metric!r}")
        if self.caliper is not None and not self.caliper > 0:
            raise ValidationError("caliper must be positive when given")
        if self.n_neighbors < 1:
            raise ValidationError("n_neighbors must be >= 1")
        if not self.design_tag:
            bits = [f"nn{self.n_neighbors}", self.metric]
            if self.caliper is not None and np.isfinite(self.caliper):
                bits.append(f"caliper={self.caliper:.6g}")
            if not self.with_replacement:
                bits.append("no_replacement")
            object.__setattr__(self, "design_tag", "_".join(bits))


@dataclass(frozen=True)
class AttEstimate:
    """ATT point estimate with its standard error and sample accounting."""

    tau_hat: float
    se: float
    n_treated_used: int
    n_dropped: int
    design_tag: str


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p / (1.0 - p))


def _match_coordinates(data: Dataset, model: PropensityModel | None,
                       metric: str) -> np.ndarray:
    if metric == LOGIT_SCORE:
        if model is None:
            raise ValidationError("logit_score matching needs a fitted model")
        return _logit(score_dataset(model, data)).reshape(-1, 1)
    x = data.covariates
    if x.shape[1] == 0:
        raise ValidationError("mahalanobis matching needs covariates")
    cov = np.cov(x, rowvar=False, ddof=1).reshape(x.shape[1], x.shape[1])
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError("pooled covariate covariance is singular") from None
    # Whitened coordinates: Euclidean distance == Mahalanobis distance.
    return np.linalg.solve(chol, x.T).T


def att_match(data: Dataset, model: PropensityModel | None, spec: MatchSpec) -> AttEstimate:
    """Nearest-neighbor matching estimate of the ATT.

    Each treated unit is matched to its spec.n_neighbors nearest controls
    under the metric; with a caliper, treated units with no control inside
    it are dropped and counted (the estimand becomes the ATT on the matched
    subset). The SE treats matched differences as independent.
    """
    data.require_both_arms("att_match")
    coords = _match_coordinates(data, model, spec.metric)
    t_mask = data.treated
    zt, zc = coords[t_mask], coords[~t_mask]
    yt, yc = data.outcome[t_mask], data.outcome[~t_mask]
    ids_t, ids_c = data.unit_ids[t_mask], data.unit_ids[~t_mask]
    # Controls sorted by unit id: the first minimum along a distance row is
    # then the lowest-id control, which implements the tie-break.
    c_order = np.argsort(ids_c, kind="stable")
    zc, yc = zc[c_order], yc[c_order]
    n_t, n_c = len(yt), len(yc)
    k = spec.n_neighbors
    caliper = spec.caliper if spec.caliper is not None else np.inf

    # Distance matrix is fine at this scale (treated count is small).
    dist = np.sqrt(((zt[:, None, :] - zc[None, :, :]) ** 2).sum(axis=2))

    if spec.with_replacement and k == 1:
        nearest = np.argmin(dist, axis=1)
        d_min = dist[np.arange(n_t), nearest]
        kept = d_min <= caliper
        diffs = yt[kept] - yc[nearest[kept]]
        n_used = int(kept.sum())
    else:
        # Greedy in treated unit-id order so no-replacement matching is
        # deterministic.
        diffs_list = []
        available = np.ones(n_c, dtype=bool)
        for i in np.argsort(ids_t, kind="stable"):
            row = dist[i]
            order = np.argsort(row, kind="stable")
            chosen = []
            for j in order:
                if row[j] > caliper:
                    break  # sorted by distance: nothing further is eligible
                if not spec.with_replacement and not available[j]:
                    continue
                chosen.append(j)
                if len(chosen) == k:
                    break
            if not chosen:
                continue
            if not spec.with_replacement:
                available[chosen] = False
            diffs_list.append(yt[i] - float(np.mean(yc[chosen])))
        diffs = np.asarray(diffs_list)
        n_used = len(diffs_list)

    if n_used == 0:
        raise EstimationError("every treated unit was dropped; no matches found")
    tau = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1) / np.sqrt(n_used)) if n_used > 1 else 0.0
    return AttEstimate(
        tau_hat=tau, se=se, n_treated_used=n_used,
        n_dropped=n_t - n_used, design_tag=spec.design_tag,
    )


def att_ipw(data: Dataset, model: PropensityModel) -> AttEstimate:
    """Inverse-probability-weighted ATT: treated mean minus the
    odds-weighted control mean, weights e(x)/(1 - e(x))."""
    data.require_both_arms("att_ipw")
    scores = score_dataset(model, data)
    t_mask = data.treated
    yt = data.outcome[t_mask]
    yc = data.outcome[~t_mask]
    w = scores[~t_mask] / (1.0 - scores[~t_mask])
    w_sum = float(np.sum(w))
    if not np.isfinite(w_sum) or w_sum <= 0:
        raise EstimationError("degenerate IPW weights (sum ~ 0 or non-finite)")
    mu0 = float(np.dot(w, yc) / w_sum)
    tau = float(np.mean(yt)) - mu0
    var_t = float(np.var(yt, ddof=1)) / len(yt) if len(yt) > 1 else 0.0
    var_c = float(np.sum((w * (yc - mu0)) ** 2)) / w_sum**2
    return AttEstimate(
        tau_hat=tau, se=float(np.sqrt(var_t + var_c)),
        n_treated_used=len(yt), n_dropped=0, design_tag="ipw",
    )


def naive_diff(data: Dataset) -> AttEstimate:
    """Difference in arm means with the two-sample standard error."""
    data.require_both_arms("naive_diff")
    yt = data.outcome[data.treated]
    yc = data.outcome[~data.treated]
    var_t = float(np.var(yt, ddof=1)) / len(yt) if len(yt) > 1 else 0.0
    var_c = float(np.var(yc, ddof=1)) / len(yc) if len(yc) > 1 else 0.0
    return AttEstimate(
        tau_hat=float(np.mean(yt) - np.mean(yc)),
        se=float(np.sqrt(var_t + var_c)),
        n_treated_used=len(yt), n_dropped=0, design_tag="naive_diff",
    )


def design_sensitivity(data: Dataset, model: PropensityModel | None,
                       designs) -> list[AttEstimate]:
    """One estimate per matching design; per-design failures are recorded
    in the output (NaN estimate with a tagged reason), never raised."""
    designs = list(designs)
    if not designs:
        raise ValidationError("designs must be non-empty")
    out = []
    for spec in designs:
        try:
            out.append(att_match(data, model, spec))
        except Exception as exc:  # captured per design by contract
            out.append(AttEstimate(
                tau_hat=float("nan"), se=float("nan"), n_treated_used=0,
                n_dropped=data.n_treated,
                design_tag=f"{spec.design_tag}|failed:{type(exc).__name__}",
            ))
    return out


def default_design_suite(data: Dataset, model: PropensityModel) -> list[MatchSpec]:
    """The three comparison designs: plain logit 1-NN, logit 1-NN with a
    0.2-SD caliper, and Mahalanobis 1-NN."""
    z = _logit(score_dataset(model, data))
    caliper = 0.2 * float(np.std(z, ddof=1))
    return [
        MatchSpec(metric=LOGIT_SCORE, design_tag="nn_logit"),
        MatchSpec(metric=LOGIT_SCORE, caliper=caliper, design_tag="nn_logit_caliper"),
        MatchSpec(metric=MAHALANOBIS, design_tag="nn_mahalanobis"),
    ]


def estimates_to_csv_rows(estimates, labels=None) -> list[list]:
    """Rows matching the sample-restriction table layout."""
    rows = [["estimation_sample", "att_estimate", "standard_error",
             "n_treated_used", "n_dropped"]]
    for i, est in enumerate(estimates):
        label = labels[i] if labels else est.design_tag
        rows.append([label, est.tau_hat, est.se, est.n_treated_used, est.n_dropped])
    return rows
