"""Point estimators of the ATT: matching, inverse-probability weighting,
and the naive difference in arm means.

Matching follows the 1-nearest-neighbor-with-replacement convention on the
logit of the given propensity scores unless told otherwise; ties break to the
lowest control unit id so every estimator is deterministic. Matching never
holds the n_treated x n_control distance matrix: 1-NN on one coordinate
searches the controls' sorted distinct values, 1-NN on several coordinates
(Mahalanobis) searches outward from each treated row's place among the
controls sorted on the first coordinate and stops where that coordinate's
gap alone exceeds the best distance, and the greedy path computes one
treated unit's distance row at a time. Every path computes a distance as
`sqrt(sum((zt - zc) ** 2))`, so each picks the control the full matrix's
`argmin` would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttDiagError, EstimationError, NumericalError, ValidationError
from .ingest import Dataset
from .propensity import PropensityModel, _check_scores, score_dataset

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


def _match_coordinates(data: Dataset, scores, metric: str) -> np.ndarray:
    if metric == LOGIT_SCORE:
        return _logit(_check_scores(scores, len(data))).reshape(-1, 1)
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


# Controls a multi-coordinate 1-NN search examines first on each side of a
# treated row's place among the sorted controls; each later step doubles.
# On a CPS-shaped table of 30,000 controls a search needs about 1,500
# controls to a side, three steps from this start.
_WINDOW = 256


def _distances(zt: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of zt to each row of zc."""
    return np.sqrt(((zt[:, None, :] - zc[None, :, :]) ** 2).sum(axis=2))


def _sorted_distinct(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D array in increasing order, each with the
    lowest index that holds it."""
    order = np.argsort(z, kind="stable")
    ordered = z[order]
    first = np.ones(len(z), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first], order[first]


def _nearest_on_line(zt: np.ndarray, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest control (lowest index among equally near ones) and its
    distance for each treated point, on one coordinate.

    Each treated point compares the nearest distinct control value below it
    and the nearest at or above it, found by `searchsorted`. The distance
    keeps the `sqrt((zt - zc) ** 2)` form of `_distances`, so the result is
    the `argmin` of the full distance row. Rounding in `zt - zc` can give
    further distinct values the same distance; a distance never shrinks
    moving away from zt, so checking one more value on each side finds
    every such row, and those rows search all distinct values.
    """
    values, owner = _sorted_distinct(zc)
    last = len(values) - 1
    pos = np.searchsorted(values, zt)

    def at(i):
        i = np.clip(i, 0, last)
        return owner[i], np.sqrt((zt - values[i]) ** 2)

    below, d_below = at(pos - 1)
    above, d_above = at(pos)
    take_below = (d_below < d_above) | ((d_below == d_above) & (below < above))
    nearest = np.where(take_below, below, above)
    d_min = np.minimum(d_below, d_above)
    tied = (((pos >= 2) & (at(pos - 2)[1] == d_min))
            | ((pos < last) & (at(pos + 1)[1] == d_min)))
    for i in np.flatnonzero(tied):
        nearest[i] = owner[np.sqrt((zt[i] - values) ** 2) == d_min[i]].min()
    return nearest, d_min


def _nearest_pruned(zt: np.ndarray, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest control (lowest index among equally near ones) and its
    distance for each treated row, on several coordinates.

    The controls are stable-sorted once on the first coordinate. Each
    treated row searches outward from its `searchsorted` place, `_WINDOW`
    controls to a side first and twice as many at each later step. A side
    stops once the first-coordinate gap `sqrt((zt0 - zc0) ** 2)` to its next
    control exceeds the best distance so far. The gap never exceeds that
    control's distance, since the rounded sum of non-negative squares is no
    smaller than any of its terms, and it only grows further out; so every
    control left out is strictly farther than the best and cannot tie.
    Distances use the arithmetic of `_distances`, so the result is the
    `argmin` of the full distance row.
    """
    order = np.argsort(zc[:, 0], kind="stable")
    keys, zs = zc[order, 0], zc[order]
    last = len(keys) - 1
    nearest = np.empty(len(zt), dtype=np.intp)
    d_min = np.empty(len(zt))
    for i, z in enumerate(zt):
        # Distances of the sorted controls lo..hi-1, the ones searched so far.
        lo = hi = int(np.searchsorted(keys, z[0]))
        dist, best, step = np.empty(0), np.inf, _WINDOW
        while True:
            # First-coordinate gaps to the next control out on each side.
            edge = keys[[max(lo - 1, 0), min(hi, last)]]
            gap_lo, gap_hi = np.sqrt((z[0] - edge) ** 2)
            new_lo = max(lo - step, 0) if lo > 0 and gap_lo <= best else lo
            new_hi = min(hi + step, last + 1) if hi <= last and gap_hi <= best else hi
            if (new_lo, new_hi) == (lo, hi):
                break
            dist = np.concatenate([_distances(z[None], zs[new_lo:lo])[0], dist,
                                   _distances(z[None], zs[hi:new_hi])[0]])
            lo, hi, step = new_lo, new_hi, 2 * step
            best = dist.min()
        d_min[i] = best
        nearest[i] = order[lo + np.flatnonzero(dist == best)].min()
    return nearest, d_min


def distinct_control_scores(data: Dataset, scores) -> int:
    """How many distinct control values a logit_score 1-NN match searches."""
    z = _logit(_check_scores(scores, len(data)))
    return len(_sorted_distinct(z[~data.treated])[0])


def att_match(data: Dataset, scores, spec: MatchSpec) -> AttEstimate:
    """Nearest-neighbor matching estimate of the ATT.

    Each treated unit is matched to its spec.n_neighbors nearest controls
    under the metric (logit_score reads `scores`, one per unit; mahalanobis
    reads none, so None is accepted). With a caliper, treated units with no
    control inside it are dropped and counted (the estimand becomes the ATT
    on the matched subset). The SE treats matched differences as independent.

    No path builds the n_treated x n_control distance matrix. 1-NN with
    replacement on one coordinate (logit_score, or one covariate) searches
    the controls' sorted distinct values; on more coordinates it computes
    distances only for the controls whose first-coordinate gap to the
    treated unit is at most the best distance found so far. The greedy path
    (n_neighbors > 1 or no replacement) computes each treated unit's
    distance row when it reaches that unit. All paths use the same distance
    arithmetic.
    """
    data.require_both_arms("att_match")
    coords = _match_coordinates(data, scores, spec.metric)
    t_mask = data.treated
    zt, zc = coords[t_mask], coords[~t_mask]
    yt, yc = data.outcome[t_mask], data.outcome[~t_mask]
    ids_t, ids_c = data.unit_ids[t_mask], data.unit_ids[~t_mask]
    # Controls sorted by unit id: the lowest index among equally near
    # controls is then the lowest id, which implements the tie-break.
    c_order = np.argsort(ids_c, kind="stable")
    zc, yc = zc[c_order], yc[c_order]
    n_t, n_c = len(yt), len(yc)
    k = spec.n_neighbors
    caliper = spec.caliper if spec.caliper is not None else np.inf

    if spec.with_replacement and k == 1:
        if coords.shape[1] == 1:
            nearest, d_min = _nearest_on_line(zt[:, 0], zc[:, 0])
        else:
            nearest, d_min = _nearest_pruned(zt, zc)
        kept = d_min <= caliper
        diffs = yt[kept] - yc[nearest[kept]]
        n_used = int(kept.sum())
    else:
        # Greedy in treated unit-id order so no-replacement matching is
        # deterministic.
        diffs_list = []
        available = np.ones(n_c, dtype=bool)
        for i in np.argsort(ids_t, kind="stable"):
            row = _distances(zt[i:i + 1], zc)[0]
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


def _arm_contrast(yt: np.ndarray, yc: np.ndarray) -> tuple[float, float]:
    """Difference in arm means and its standard error; a one-unit arm adds no variance."""
    var_t = float(np.var(yt, ddof=1)) / len(yt) if len(yt) > 1 else 0.0
    var_c = float(np.var(yc, ddof=1)) / len(yc) if len(yc) > 1 else 0.0
    return float(np.mean(yt) - np.mean(yc)), float(np.sqrt(var_t + var_c))


def naive_diff(data: Dataset) -> AttEstimate:
    """Difference in arm means with the two-sample standard error."""
    data.require_both_arms("naive_diff")
    yt = data.outcome[data.treated]
    tau, se = _arm_contrast(yt, data.outcome[~data.treated])
    return AttEstimate(tau_hat=tau, se=se, n_treated_used=len(yt), n_dropped=0,
                       design_tag="naive_diff")


def design_sensitivity(data: Dataset, scores, designs) -> list[AttEstimate]:
    """One estimate per matching design. A design that fails with an
    AttDiagError is recorded in the output (NaN estimate, its tag naming the
    error type); bad scores, and any other exception (a defect), propagate."""
    designs = list(designs)
    if not designs:
        raise ValidationError("designs must be non-empty")
    scores = _check_scores(scores, len(data))
    out = []
    for spec in designs:
        try:
            out.append(att_match(data, scores, spec))
        except AttDiagError as exc:
            out.append(AttEstimate(
                tau_hat=float("nan"), se=float("nan"), n_treated_used=0,
                n_dropped=data.n_treated,
                design_tag=f"{spec.design_tag}|failed:{type(exc).__name__}",
            ))
    return out


def default_design_suite(scores) -> list[MatchSpec]:
    """The three comparison designs: plain logit 1-NN, logit 1-NN with a
    caliper of 0.2 SD of the logit `scores`, and Mahalanobis 1-NN."""
    z = _logit(_check_scores(scores))
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
