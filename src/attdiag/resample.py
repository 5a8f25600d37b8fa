"""Bootstrap distributions of the ATT and score-decile stratified estimates.

Resampling is stratified by arm so every replicate keeps both arms at
their original sizes; each replicate draws from its own spawned RNG
stream, making the estimates vector independent of execution order.
`bootstrap_att` draws, (re)fits and scores each replicate once and
evaluates the full-sample design and, given a trim rule, the score-trimmed
design on that one replicate, model and scoring.

The replicates are spread over the CPUs this process may run on, in
worker processes forked from the caller, so they inherit the dataset and
model instead of receiving a pickled copy. Results are put back in
replicate order before they are summarized, so the output is
byte-identical for any worker count. Work done inside a worker is not
seen by anything that counts calls in the caller; `BootstrapSummary.work`
carries the bootstrap's own counters, summed over the workers.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AttDiagError, BootstrapError, ValidationError
from .estimators import MatchSpec, _arm_contrast, att_match
from .ingest import Dataset
from .propensity import PropensityModel, TrimRule, _check_scores, fit_logistic, score_dataset, trim


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate estimates with summary statistics.

    estimates holds the successful replicates and replicates their indices
    in 0..b_requested-1, in the same order; failures are excluded and
    counted in n_failed (b_requested = len(estimates) + n_failed). trimmed
    is the score-trimmed design's summary over the same replicates, or None
    when no trim rule was given. work is the run's BootstrapWork, set on
    the full-sample summary only and left out of comparisons.
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
    work: BootstrapWork | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BootstrapWork:
    """What one bootstrap_att call did, summed over its worker processes.

    workers is 1 when the replicates ran in the calling process. fits
    counts refit attempts and fit_iterations the Newton steps of the fits
    that returned; units_drawn counts the units of every replicate drawn.
    failed_by_type maps each design ("full", "trimmed") to its failed
    replicates per error type.
    """

    workers: int
    fits: int
    fit_iterations: int
    units_drawn: int
    failed_by_type: dict


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


def _run_replicates(data: Dataset, model_fit_per_replicate: bool,
                    estimator_spec: MatchSpec, seed: int, covariates,
                    model: PropensityModel | None, fit_options: dict, rules: tuple,
                    indices) -> tuple[list, Counter]:
    """Draw, fit and match the replicates in `indices`.

    Returns (results, counts): one (r, outcomes) per replicate, outcomes
    holding per design in `rules` order the estimate or the AttDiagError
    that failed it, and the work counters. A failed fit fails the
    replicate in every design, a failed trim or match only in its own.
    """
    results, counts = [], Counter()
    for r in indices:
        rng = _replicate_rng(seed, r)
        replicate = data.take_with_fresh_ids(stratified_indices(rng, data.treated))
        counts["units_drawn"] += len(replicate)
        try:
            if model_fit_per_replicate:
                counts["fits"] += 1
                rep_model = fit_logistic(replicate, covariates, **fit_options)
                counts["fit_iterations"] += rep_model.iterations
            else:
                rep_model = model
            scores = score_dataset(rep_model, replicate)
        except AttDiagError as exc:
            results.append((r, (exc,) * len(rules)))
            continue
        outcomes = []
        for rule in rules:
            try:
                sample = trim(replicate, scores, rule) if rule else replicate
                sample_scores = score_dataset(rep_model, sample) if rule else scores
                outcomes.append(att_match(sample, sample_scores, estimator_spec).tau_hat)
            except AttDiagError as exc:
                outcomes.append(exc)
        results.append((r, tuple(outcomes)))
    return results, counts


def _worker_count(b: int) -> int:
    """Worker processes for b replicates: one per CPU this process may run
    on. Without an affinity mask (macOS, Windows) the replicates run in the
    calling process."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), b)


# The bound _run_replicates a forked worker runs, set by its initializer.
_worker_job = None


def _set_worker_job(job) -> None:
    global _worker_job
    _worker_job = job


def _run_worker_job(indices):
    return _worker_job(indices)


def _run_pool(job, b: int, workers: int) -> list:
    """job's (results, counts) per worker, each worker taking every
    workers-th replicate. The pool forks explicitly: another start method
    would pickle the job, dataset included, into every worker."""
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_job, initargs=(job,))
    with pool:
        try:
            return list(pool.map(_run_worker_job,
                                 [range(w, b, workers) for w in range(workers)]))
        except BrokenProcessPool as exc:
            raise BootstrapError(
                f"a bootstrap worker process died before returning its replicates ({exc})"
            ) from None


def bootstrap_att(data: Dataset, model_fit_per_replicate: bool,
                  estimator_spec: MatchSpec, b: int, seed: int, *,
                  covariates=None, model: PropensityModel | None = None,
                  ridge: float = 1e-8, tol: float = 1e-8, max_iter: int = 100,
                  trim_rule: TrimRule | None = None) -> BootstrapSummary:
    """Stratified bootstrap of the matching ATT.

    Each replicate is drawn once. When model_fit_per_replicate is true the
    propensity model is refit on it once (covariates required); otherwise
    `model` scores every replicate. The replicate is scored once. The
    full-sample estimate matches on those scores and, when trim_rule is
    given, the score-trimmed estimate trims on them, then scores and matches
    the kept units; its summary is the result's `trimmed`. A failed fit
    fails the replicate in both designs, a failed trim or match only in its
    own. More than 20% failed replicates in a design aborts, the full-sample
    design checked first. The replicates run in forked worker processes, one
    per available CPU; a worker that dies raises BootstrapError.
    """
    if b < 1:
        raise ValidationError("b must be >= 1")
    data.require_both_arms("bootstrap_att")
    if model_fit_per_replicate:
        if covariates is None:
            raise ValidationError("per-replicate refit needs covariate names")
    elif model is None:
        raise ValidationError("model required when model_fit_per_replicate is false")

    rules = (None, trim_rule) if trim_rule else (None,)
    job = functools.partial(
        _run_replicates, data, model_fit_per_replicate, estimator_spec, seed,
        covariates, model, {"ridge": ridge, "tol": tol, "max_iter": max_iter}, rules)
    workers = _worker_count(b)
    chunks = [job(range(b))] if workers == 1 else _run_pool(job, b, workers)
    results = sorted((result for chunk, _ in chunks for result in chunk),
                     key=lambda result: result[0])
    counts = sum((chunk_counts for _, chunk_counts in chunks), Counter())

    # One (replicates, estimates, failures) triple per design: full sample,
    # then trimmed.
    per_design = []
    for d in range(len(rules)):
        replicates, estimates, failures = [], [], []
        for r, outcomes in results:
            if isinstance(outcomes[d], AttDiagError):
                failures.append(outcomes[d])
            else:
                replicates.append(r)
                estimates.append(outcomes[d])
        per_design.append((replicates, estimates, failures))
    work = BootstrapWork(
        workers=workers, fits=counts["fits"], fit_iterations=counts["fit_iterations"],
        units_drawn=counts["units_drawn"],
        failed_by_type={name: dict(Counter(type(exc).__name__ for exc in failures))
                        for name, (_, _, failures) in zip(("full", "trimmed"), per_design)})
    full, *trimmed = [_summarize(design, *outcome, b) for design, outcome
                      in zip(("full-sample", "score-trimmed"), per_design)]
    return replace(full, trimmed=trimmed[0] if trimmed else None, work=work)


def decile_att(data: Dataset, scores, min_per_arm: int = 5) -> DecileReport:
    """Arm-mean contrasts within propensity-score deciles.

    Units sort by (score, unit_id) and split into ten near-equal groups;
    each decile's att and se are the difference in arm means and its
    two-sample standard error, as `naive_diff` computes them. A decile is
    dropped (att/se None) when either arm has fewer than min_per_arm units.
    Dropped deciles are data, not errors.
    """
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
