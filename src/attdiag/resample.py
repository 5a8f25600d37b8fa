"""Bootstrap distributions of the ATT and score-decile stratified estimates.

Resampling is stratified by arm so every replicate keeps both arms at
their original sizes; each replicate draws from its own spawned RNG
stream, making the estimates vector independent of execution order.
`bootstrap_att` draws and (re)fits each replicate once and evaluates the
full-sample design and, given a trim rule, the score-trimmed design on
that one replicate and model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import AttDiagError, BootstrapError, ValidationError
from .estimators import MatchSpec, att_match
from .ingest import Dataset
from .propensity import PropensityModel, TrimRule, fit_logistic, score_dataset, trim


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate estimates with summary statistics.

    estimates holds the successful replicates and replicates their indices
    in 0..b_requested-1, in the same order; failures are excluded and
    counted in n_failed (b_requested = len(estimates) + n_failed). trimmed
    is the score-trimmed design's summary over the same replicates, or None
    when no trim rule was given.
    """

    estimates: tuple[float, ...]
    replicates: tuple[int, ...]
    mean: float
    sd: float
    q025: float
    q975: float
    b_requested: int
    n_failed: int
    trimmed: BootstrapSummary | None = None


@dataclass(frozen=True)
class DecileRow:
    decile: int  # 1..10
    n_treated: int
    n_control: int
    att: float | None
    se: float | None
    dropped: bool


@dataclass(frozen=True)
class DecileReport:
    rows: tuple[DecileRow, ...]


def _replicate_rng(seed: int, r: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(r),))
    return np.random.Generator(np.random.Philox(seq))


def stratified_indices(rng: np.random.Generator, treated: np.ndarray) -> np.ndarray:
    """With-replacement resample preserving each arm's size exactly."""
    idx_t = np.flatnonzero(treated)
    idx_c = np.flatnonzero(~treated)
    draw_t = rng.choice(idx_t, size=len(idx_t), replace=True)
    draw_c = rng.choice(idx_c, size=len(idx_c), replace=True)
    return np.concatenate([draw_t, draw_c])


def _summarize(design: str, replicates: list, estimates: list, failures: list,
               b: int) -> BootstrapSummary:
    """One design's summary; more than 20% failed replicates aborts."""
    if len(failures) > 0.2 * b:
        counts = Counter(type(exc).__name__ for exc in failures)
        per_type = ", ".join(f"{name}: {n}" for name, n in counts.items())
        raise BootstrapError(
            f"{len(failures)}/{b} bootstrap replicates failed in the {design} "
            f"design ({per_type}; last: {failures[-1]})"
        )
    values = np.asarray(estimates)
    q025, q975 = np.percentile(values, [2.5, 97.5])
    return BootstrapSummary(
        estimates=tuple(float(v) for v in values),
        replicates=tuple(replicates),
        mean=float(np.mean(values)),
        sd=float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
        q025=float(q025), q975=float(q975),
        b_requested=b, n_failed=len(failures),
    )


def bootstrap_att(data: Dataset, model_fit_per_replicate: bool,
                  estimator_spec: MatchSpec, b: int, seed: int, *,
                  covariates=None, model: PropensityModel | None = None,
                  ridge: float = 1e-8, tol: float = 1e-8, max_iter: int = 100,
                  trim_rule: TrimRule | None = None) -> BootstrapSummary:
    """Stratified bootstrap of the matching ATT.

    Each replicate is drawn once. When model_fit_per_replicate is true the
    propensity model is refit on it once (covariates required); otherwise
    `model` scores every replicate. The full-sample estimate and, when
    trim_rule is given, the score-trimmed estimate (trim, then match) both
    use that one replicate and model; the trimmed design's summary is the
    result's `trimmed`. A failed fit fails the replicate in both designs, a
    failed trim or match only in its own. More than 20% failed replicates
    in a design aborts, the full-sample design checked first.
    """
    if b < 1:
        raise ValidationError("b must be >= 1")
    data.require_both_arms("bootstrap_att")
    if model_fit_per_replicate:
        if covariates is None:
            raise ValidationError("per-replicate refit needs covariate names")
    elif model is None:
        raise ValidationError("model required when model_fit_per_replicate is false")

    # One (replicates, estimates, failures) triple per design: full sample,
    # then trimmed.
    rules = (None, trim_rule) if trim_rule else (None,)
    results = [([], [], []) for _ in rules]
    for r in range(b):
        rng = _replicate_rng(seed, r)
        replicate = data.take_with_fresh_ids(stratified_indices(rng, data.treated))
        try:
            rep_model = (
                fit_logistic(replicate, covariates, ridge=ridge, tol=tol,
                             max_iter=max_iter)
                if model_fit_per_replicate else model
            )
        except AttDiagError as exc:
            for _, _, failures in results:
                failures.append(exc)
            continue
        for rule, (replicates, estimates, failures) in zip(rules, results):
            try:
                sample = trim(replicate, rep_model, rule) if rule else replicate
                estimate = att_match(sample, rep_model, estimator_spec).tau_hat
            except AttDiagError as exc:
                failures.append(exc)
            else:
                replicates.append(r)
                estimates.append(estimate)
    summaries = [_summarize(design, *outcome, b) for design, outcome
                 in zip(("full-sample", "score-trimmed"), results)]
    return replace(summaries[0], trimmed=summaries[1] if trim_rule else None)


def decile_att(data: Dataset, model: PropensityModel, min_per_arm: int = 5) -> DecileReport:
    """Arm-mean contrasts within propensity-score deciles.

    Units sort by (score, unit_id) and split into ten near-equal groups; a
    decile is dropped (att/se None) when either arm has fewer than
    min_per_arm units. Dropped deciles are data, not errors.
    """
    scores = score_dataset(model, data)
    order = np.lexsort((data.unit_ids, scores))
    groups = np.array_split(order, 10)
    rows = []
    for g, idx in enumerate(groups, start=1):
        treated = data.treated[idx]
        outcome = data.outcome[idx]
        n_t = int(treated.sum())
        n_c = int(len(idx) - n_t)
        if n_t < min_per_arm or n_c < min_per_arm:
            rows.append(DecileRow(g, n_t, n_c, None, None, dropped=True))
            continue
        yt, yc = outcome[treated], outcome[~treated]
        var_t = float(np.var(yt, ddof=1)) / n_t if n_t > 1 else 0.0
        var_c = float(np.var(yc, ddof=1)) / n_c if n_c > 1 else 0.0
        rows.append(DecileRow(
            g, n_t, n_c,
            att=float(np.mean(yt) - np.mean(yc)),
            se=float(np.sqrt(var_t + var_c)),
            dropped=False,
        ))
    return DecileReport(rows=tuple(rows))
