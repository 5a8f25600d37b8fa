"""Bootstrap distributions of the ATT and score-decile stratified estimates.

Resampling is stratified by arm so every replicate keeps both arms at
their original sizes; each replicate draws from its own spawned RNG
stream, making the estimates vector independent of execution order.
`bootstrap_att` draws, (re)fits and scores each replicate once and
evaluates the full-sample design and, given a trim rule, the score-trimmed
design on that one replicate, model and scoring.

The replicates run in one stripe per CPU this process may run on, stripe
w taking every stripes-th replicate from w. The caller runs stripe 0 and
forks a `work.Forked` worker for each other stripe, which inherits the
dataset and model instead of receiving a pickled copy. Results are put back
in replicate order before they are summarized, so the output is
byte-identical for any number of stripes. Only the caller's stripe is seen
by what counts calls in the caller; each worker returns what it added to the
work ledger (`work.COUNTS`) and to the CPU seconds per replicate phase
(`work.CPU_SECONDS`) with its replicates, and the caller adds them there.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AttDiagError, BootstrapError, ValidationError, WorkerError, check_count
from .estimators import MatchSpec, _arm_contrast, att_match
from .ingest import Dataset
from .propensity import PropensityModel, TrimRule, _check_scores, fit_logistic, score_dataset, trim
from .simulation import _stage_rng
from .work import COUNTS, CPU_SECONDS, Forked, available_cpus, lap_clock


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate estimates with summary statistics.

    estimates holds the successful replicates and replicates their indices
    in 0..b_requested-1, in the same order; failures are excluded and
    counted in n_failed (b_requested = len(estimates) + n_failed), and
    failed_by_type maps each error type to its failed replicates. trimmed
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
    failed_by_type: dict = field(hash=False)
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


def stratified_indices(rng: np.random.Generator, treated: np.ndarray) -> np.ndarray:
    """With-replacement resample preserving each arm's size exactly."""
    idx_t = np.flatnonzero(treated)
    idx_c = np.flatnonzero(~treated)
    draw_t = rng.choice(idx_t, size=len(idx_t), replace=True)
    draw_c = rng.choice(idx_c, size=len(idx_c), replace=True)
    return np.concatenate([draw_t, draw_c])


def _summarize(design: str, outcomes: list, b: int) -> BootstrapSummary:
    """One design's summary of its (replicate, estimate or the AttDiagError
    that failed it) pairs; more than 20% failed replicates aborts."""
    failures = [out for _, out in outcomes if isinstance(out, AttDiagError)]
    kept = [(r, out) for r, out in outcomes if not isinstance(out, AttDiagError)]
    counts = Counter(type(exc).__name__ for exc in failures)
    if len(failures) > 0.2 * b:
        per_type = ", ".join(f"{name}: {n}" for name, n in counts.items())
        raise BootstrapError(
            f"{len(failures)}/{b} bootstrap replicates failed in the {design} "
            f"design ({per_type}; last: {failures[-1]})"
        )
    values = np.asarray([estimate for _, estimate in kept])
    q025, q975 = np.percentile(values, [2.5, 97.5])
    return BootstrapSummary(
        estimates=tuple(float(v) for v in values),
        replicates=tuple(r for r, _ in kept),
        mean=float(np.mean(values)),
        sd=float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
        q025=float(q025), q975=float(q975),
        b_requested=b, n_failed=len(failures), failed_by_type=dict(counts),
    )


def _run_replicates(data: Dataset, estimator_spec: MatchSpec, seed: int, covariates,
                    model: PropensityModel | None, fit_options: dict, rules: tuple,
                    indices) -> list:
    """Draw, fit (when `model` is None) and match the replicates in `indices`.

    Returns one (r, outcomes) per replicate, outcomes holding per design in
    `rules` order the estimate or the AttDiagError that failed it. A failed
    fit fails the replicate in every design, a failed trim or match only in
    its own. The CPU seconds of each phase go to `CPU_SECONDS`: `draw_s`
    (the stream, the indices and the replicate Dataset), `fit_s`, `score_s`,
    and per design `trim_s` (the trim and the rescore) and `match_s`; a
    phase that raised is charged to none.
    """
    results = []
    lap = lap_clock()
    for r in indices:
        rng = _stage_rng(seed, r)
        replicate = data.take_with_fresh_ids(stratified_indices(rng, data.treated))
        COUNTS["units_drawn"] += len(replicate)
        CPU_SECONDS["draw_s"] += lap()
        try:
            rep_model = model
            if model is None:
                COUNTS["fits"] += 1
                rep_model = fit_logistic(replicate, covariates, **fit_options)
                COUNTS["fit_iterations"] += rep_model.iterations
            CPU_SECONDS["fit_s"] += lap()
            scores = score_dataset(rep_model, replicate)
            CPU_SECONDS["score_s"] += lap()
        except AttDiagError as exc:
            lap()
            results.append((r, (exc,) * len(rules)))
            continue
        outcomes = []
        for rule in rules:
            try:
                sample, sample_scores = replicate, scores
                if rule:
                    sample = trim(replicate, scores, rule)
                    sample_scores = score_dataset(rep_model, sample)
                    CPU_SECONDS["trim_s"] += lap()
                outcomes.append(att_match(sample, sample_scores, estimator_spec).tau_hat)
                CPU_SECONDS["match_s"] += lap()
            except AttDiagError as exc:
                lap()
                outcomes.append(exc)
        results.append((r, tuple(outcomes)))
    return results


def bootstrap_att(data: Dataset, estimator_spec: MatchSpec, b: int, seed: int, *,
                  covariates=None, model: PropensityModel | None = None,
                  ridge: float = 1e-8, tol: float = 1e-8, max_iter: int = 100,
                  trim_rule: TrimRule | None = None) -> BootstrapSummary:
    """Stratified bootstrap of the matching ATT.

    Each replicate is drawn once. A given `model` scores every replicate;
    without one the propensity model is refit on each replicate, once, on
    `covariates` with the ridge, tol and max_iter fit options. The replicate
    is scored once. The full-sample estimate matches on those scores and,
    when trim_rule is given, the score-trimmed estimate trims on them, then
    scores and matches the kept units; its summary is the result's
    `trimmed`. A failed fit fails the replicate in both designs, a failed
    trim or match only in its own. More than 20% failed replicates in a
    design aborts, the full-sample design checked first. The replicates run
    in one stripe per available CPU, the first in the caller and each other
    in a forked worker; a worker that cannot be forked or dies raises
    BootstrapError. The work ledger (`work.COUNTS`) gains the `workers`
    that ran replicates (the caller included), refits, Newton steps and
    units drawn, and every count the replicates add, and `work.CPU_SECONDS`
    the CPU seconds of each replicate phase, over all stripes.
    """
    check_count("b", b, 1)
    check_count("seed", seed, 0)
    data.require_both_arms("bootstrap_att")
    if model is None and covariates is None:
        raise ValidationError("bootstrap_att needs a model, or covariates to refit on")

    rules = (None, trim_rule) if trim_rule else (None,)
    job = functools.partial(
        _run_replicates, data, estimator_spec, seed, covariates, model,
        {"ridge": ridge, "tol": tol, "max_iter": max_iter}, rules)
    stripes = min(available_cpus(), b)
    COUNTS["workers"] += stripes
    pool = []
    try:
        for w in range(1, stripes):
            pool.append(Forked(job, range(w, b, stripes)))
        chunks = [job(range(0, b, stripes))] + [worker.result() for worker in pool]
    except WorkerError as exc:
        raise BootstrapError(f"a bootstrap {exc}") from None
    finally:
        for worker in pool:
            worker.close()
    results = sorted((result for chunk in chunks for result in chunk),
                     key=lambda result: result[0])
    full, *trimmed = [_summarize(design, [(r, outcomes[d]) for r, outcomes in results], b)
                      for d, design in zip(range(len(rules)), ("full-sample", "score-trimmed"))]
    return replace(full, trimmed=trimmed[0] if trimmed else None)


def decile_att(data: Dataset, scores, min_per_arm: int = 5) -> DecileReport:
    """Arm-mean contrasts within propensity-score deciles.

    Units sort by (score, unit_id) and split into ten near-equal groups;
    each decile's att and se are the difference in arm means and its
    two-sample standard error, as `naive_diff` computes them. A decile is
    dropped (att/se None) when either arm has fewer than min_per_arm units.
    Dropped deciles are data, not errors. min_per_arm must be >= 1, so no
    kept decile has an empty arm.
    """
    check_count("min_per_arm", min_per_arm, 1)
    order = np.lexsort((data.unit_ids, _check_scores(scores, len(data))))
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
        att, se = _arm_contrast(outcome[treated], outcome[~treated])
        rows.append(DecileRow(g, n_t, n_c, att=att, se=se, dropped=False))
    return DecileReport(rows=tuple(rows))
