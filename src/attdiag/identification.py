"""Identified sets for the ATT under restrictions on outcome-dependent
selection.

The selection class bounds the log-ratio of selection probabilities across
outcome values by delta. Its operational consequence for the ATT is a
multiplicative tilt t_i in [1, e^delta] on each control unit's weight: the
counterfactual control mean ranges over tilted weighted means

    mu0(t) = sum(t_i w_i y_i) / sum(t_i w_i).

Maximizing or minimizing mu0 over the box is a linear-fractional program
whose optimum sits at a box vertex, and the optimal vertex is a threshold
rule in the outcome: tilt the top (or bottom) of the sorted outcomes.
The sort, the tie-collapse and the prefix sums depend on the controls
only, not on delta, so `TiltingProblem` builds them once and each delta is
one exact O(n) scan of all split points over them: a sweep or a fragility
bisection sorts the controls once. `curvature_bounds` is the one-delta
form. A brute-force vertex enumeration is kept alongside as an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    SizeError,
    SupportError,
    TrimmingError,
    EstimationError,
    ValidationError,
)
from .estimators import MatchSpec, att_match
from .ingest import Dataset
from .propensity import PropensityModel, TrimRule, score_dataset, trim

# exp cap: beyond this the tilted extremes equal the support limits to
# machine precision, and exp would overflow around 709.
_MAX_EXP = 500.0

TILTING = "tilting"
TRIMMING_PROXY = "trimming_proxy"


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValidationError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class OutcomeSupport:
    """Declared support [y_lo, y_hi] of the outcome variable."""

    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.y_lo <= self.y_hi):
            raise ValidationError("y_lo must be <= y_hi")


@dataclass(frozen=True)
class CurvatureSweep:
    """Identified sets along an ascending delta grid.

    massi is the smallest grid delta whose interval excludes zero (+inf if
    none does). For the tilting method intervals are exactly nested;
    trimming-proxy sweeps may violate width monotonicity, and those grid
    indices are recorded rather than enforced. Deltas whose interval could
    not be computed (empty trimmed sample) appear in missing_deltas.
    """

    deltas: tuple[float, ...]
    intervals: tuple[Interval, ...]
    massi: float
    method_tag: str
    missing_deltas: tuple[float, ...] = ()
    width_violations: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.deltas) != len(self.intervals):
            raise ValidationError("deltas and intervals must align")
        if any(b <= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValidationError("deltas must be strictly increasing")


def massi_from_intervals(deltas, intervals) -> float:
    """Smallest delta whose interval excludes zero, else +inf."""
    for delta, interval in zip(deltas, intervals):
        if not interval.contains(0.0):
            return float(delta)
    return math.inf


def manski_bounds(data: Dataset, support: OutcomeSupport) -> Interval:
    """Worst-case ATT bounds using only the outcome support.

    The unobserved counterfactual mean for the treated can sit anywhere in
    [y_lo, y_hi], so the ATT lies in
    [mean(Y | treated) - y_hi, mean(Y | treated) - y_lo].
    """
    if data.n_treated == 0:
        raise ValidationError("manski_bounds needs a non-empty treated arm")
    if len(data):
        out_lo = float(data.outcome.min())
        out_hi = float(data.outcome.max())
        if out_lo < support.y_lo or out_hi > support.y_hi:
            raise SupportError(
                f"observed outcomes span [{out_lo}, {out_hi}], outside declared "
                f"support [{support.y_lo}, {support.y_hi}]"
            )
    m1 = float(np.mean(data.outcome[data.treated]))
    return Interval(m1 - support.y_hi, m1 - support.y_lo)


def _check_delta(delta) -> None:
    if not (delta >= 0):  # also catches NaN
        raise DomainError(f"delta must be >= 0, got {delta}")


def _check_tilt_inputs(control_outcomes, base_weights, delta=None):
    """Validated float arrays (outcomes, weights); `delta` is checked too
    when given."""
    y = np.asarray(control_outcomes, dtype=float)
    w = np.asarray(base_weights, dtype=float)
    if y.ndim != 1 or w.shape != y.shape:
        raise ValidationError("outcomes and weights must be equal-length vectors")
    if y.size < 1:
        raise ValidationError("need at least one control outcome")
    if not np.all(w > 0):
        raise ValidationError("base weights must be strictly positive")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(w)):
        raise ValidationError("outcomes and weights must be finite")
    if delta is not None:
        _check_delta(delta)
    return y, w


class TiltingProblem:
    """The tilting bounds of one control sample, for any delta.

    The constructor validates the inputs, sorts the control outcomes,
    collapses ties and takes prefix sums once; `interval(delta)` is then
    one O(n) scan over those sums, so a sweep or a bisection over delta
    sorts once in total.
    """

    def __init__(self, control_outcomes, base_weights, treated_mean: float):
        y, w = _check_tilt_inputs(control_outcomes, base_weights)
        # The bounds are scale-invariant. Scaling by the power of two that puts
        # the largest weight in [0.5, 1) is exact for normal-range weights, so
        # their bounds stay bit-identical, while e^delta times the sums can no
        # longer overflow and subnormal weights keep their digits.
        w = np.ldexp(w, -np.frexp(w.max())[1])
        # Collapse equal outcomes (weights add): splitting a tied block across
        # the threshold adds only redundant vertices, and deduping keeps tied
        # data (common with mass points like zero earnings) exactly stable in
        # delta.
        ys, inverse = np.unique(y, return_inverse=True)
        ws = np.bincount(inverse, weights=w)
        wy = ws * ys
        # prefix[k] = sum of the first k sorted entries (prefix[0] = 0), and
        # suffix[k] = total - prefix[k], the sum from entry k on. Taking the
        # differences once here gives the same floats a per-delta scan would.
        prefix_w = np.concatenate([[0.0], np.cumsum(ws)])
        prefix_wy = np.concatenate([[0.0], np.cumsum(wy)])
        self._prefix_w, self._prefix_wy = prefix_w, prefix_wy
        self._suffix_w = prefix_w[-1] - prefix_w
        self._suffix_wy = prefix_wy[-1] - prefix_wy
        self.treated_mean = treated_mean
        self.distinct_outcomes = ys.size

    def interval(self, delta: float) -> Interval:
        """Exact ATT bounds under tilt factors in [1, e^delta]."""
        _check_delta(delta)
        e_delta = math.exp(min(delta, _MAX_EXP))
        # Tilt the suffix [k:] to raise mu0, k = 1..n: k=n is the exact
        # untilted vertex, and the skipped k=0 (everything tilted) equals it
        # mathematically because a constant tilt cancels in the ratio;
        # skipping it keeps the computed bounds exactly nested across delta.
        num_hi = self._prefix_wy[1:] + e_delta * self._suffix_wy[1:]
        den_hi = self._prefix_w[1:] + e_delta * self._suffix_w[1:]
        mu_max = float(np.max(num_hi / den_hi))
        # Tilt the prefix [:k] to lower mu0, k = 0..n-1; k=0 is the untilted
        # vertex.
        num_lo = e_delta * self._prefix_wy[:-1] + self._suffix_wy[:-1]
        den_lo = e_delta * self._prefix_w[:-1] + self._suffix_w[:-1]
        mu_min = float(np.min(num_lo / den_lo))
        return Interval(self.treated_mean - mu_max, self.treated_mean - mu_min)

    def sweep(self, deltas) -> CurvatureSweep:
        """Identified sets along an ascending delta grid. Nesting across the
        grid is asserted, not assumed."""
        deltas = _validate_delta_grid(deltas)
        raw = [self.interval(d) for d in deltas]
        intervals = [raw[0]]
        for cur in raw[1:]:
            prev = intervals[-1]
            # The true sets are nested; float evaluation can under-cover by a
            # few ulp on near-flat candidates, which the outward snap absorbs.
            # Any larger violation is a bug and must surface.
            scale = max(abs(prev.lo), abs(prev.hi), abs(cur.lo), abs(cur.hi), 1.0)
            if max(cur.lo - prev.lo, prev.hi - cur.hi) > 1e-9 * scale:
                raise NumericalError(
                    "tilting intervals failed to nest along the delta grid"
                )
            intervals.append(Interval(min(cur.lo, prev.lo), max(cur.hi, prev.hi)))
        return CurvatureSweep(
            deltas=deltas,
            intervals=tuple(intervals),
            massi=massi_from_intervals(deltas, intervals),
            method_tag=TILTING,
        )


def curvature_bounds(control_outcomes, base_weights, treated_mean: float,
                     delta: float) -> Interval:
    """Exact ATT bounds under tilt factors in [1, e^delta] on control weights.

    The extremal tilt puts e^delta on a suffix (to raise the control mean)
    or a prefix (to lower it) of the sorted outcomes, because a
    linear-fractional objective over a box attains its optimum at a vertex
    and the optimal vertex thresholds on the outcome. This builds a
    `TiltingProblem` (one sort) for a single delta; to evaluate many deltas
    on the same controls, build the problem once and call its `interval`.
    """
    return TiltingProblem(control_outcomes, base_weights, treated_mean).interval(delta)


def oracle_curvature_bounds(control_outcomes, base_weights, treated_mean: float,
                            delta: float) -> Interval:
    """Brute-force check of curvature_bounds by enumerating all 2^n tilt
    vertices (each tilt at 1 or e^delta). n <= 20."""
    y, w = _check_tilt_inputs(control_outcomes, base_weights, delta)
    n = y.size
    if n > 20:
        raise SizeError(f"vertex enumeration needs n <= 20, got {n}")
    e_delta = math.exp(min(delta, _MAX_EXP))
    wy = w * y
    mu_min, mu_max = math.inf, -math.inf
    total = 1 << n
    block = 1 << 16
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.uint64)
        bits = (codes[:, None] >> shifts) & np.uint64(1)
        tilt = np.where(bits == 1, e_delta, 1.0)
        mu = (tilt @ wy) / (tilt @ w)
        mu_min = min(mu_min, float(mu.min()))
        mu_max = max(mu_max, float(mu.max()))
    return Interval(treated_mean - mu_max, treated_mean - mu_min)


def _validate_delta_grid(deltas) -> tuple[float, ...]:
    """The grid as floats, checked non-empty, from >= 0 and strictly
    increasing (a NaN fails); every delta grid, the simulation's included."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValidationError("delta grid must be non-empty")
    if not deltas[0] >= 0:
        raise DomainError("deltas must start at >= 0")
    if not all(b > a for a, b in zip(deltas, deltas[1:])):
        raise ValidationError("deltas must be strictly increasing")
    return deltas


def control_tilt_inputs(data: Dataset, model: PropensityModel):
    """(control outcomes, odds base weights, treated mean) for ATT tilting."""
    data.require_both_arms("tilting sweep")
    scores = score_dataset(model, data)
    controls = ~data.treated
    w = scores[controls] / (1.0 - scores[controls])
    y = data.outcome[controls]
    treated_mean = float(np.mean(data.outcome[data.treated]))
    return y, w, treated_mean


def sweep_tilting(data: Dataset, model: PropensityModel, deltas) -> CurvatureSweep:
    """Identified sets along a delta grid via exact tilting bounds.

    Base weights are the ATT counterfactual odds e(x)/(1 - e(x)) over
    controls, so delta=0 reproduces the IPW point estimate. The controls are
    sorted once for the whole grid (see `TiltingProblem.sweep`).
    """
    return TiltingProblem(*control_tilt_inputs(data, model)).sweep(deltas)


def default_delta_to_trim(delta: float) -> TrimRule:
    """Symmetric score trim standing in for a curvature bound: delta=0 keeps
    everything; each unit of delta pushes the band in by a tenth, capped
    short of the degenerate half-open band."""
    low = min(delta / 10.0, 0.499)
    return TrimRule(low=low, high=1.0 - low)


def sweep_trimming_proxy(data: Dataset, model: PropensityModel, deltas,
                         match_spec: MatchSpec | None = None) -> CurvatureSweep:
    """Identified-set proxy: per delta, trim to `default_delta_to_trim(delta)`
    and report the matching estimate plus/minus its standard error (zero
    half-width at delta=0, the point-identified case). Width monotonicity is
    checked and recorded, not enforced; deltas whose trimmed sample is empty
    or cannot be matched become missing points. `data` is scored once.
    """
    deltas = _validate_delta_grid(deltas)
    spec = match_spec or MatchSpec()
    scores = score_dataset(model, data)
    kept_deltas: list[float] = []
    intervals: list[Interval] = []
    missing: list[float] = []
    for delta in deltas:
        try:
            sample = trim(data, scores, default_delta_to_trim(delta))
            est = att_match(sample, score_dataset(model, sample), spec)
        except (TrimmingError, EstimationError, ValidationError):
            missing.append(delta)
            continue
        half_width = 0.0 if delta == 0 else est.se
        kept_deltas.append(delta)
        intervals.append(Interval(est.tau_hat - half_width, est.tau_hat + half_width))
    violations = tuple(
        i for i in range(1, len(intervals))
        if intervals[i].width < intervals[i - 1].width
    )
    return CurvatureSweep(
        deltas=tuple(kept_deltas),
        intervals=tuple(intervals),
        massi=massi_from_intervals(kept_deltas, intervals),
        method_tag=TRIMMING_PROXY,
        missing_deltas=tuple(missing),
        width_violations=violations,
    )


def fixed_radius_sets(observed_ates, epsilon: float) -> list[Interval]:
    """Interval of half-width epsilon around each observed effect."""
    if not (epsilon >= 0):  # also catches NaN
        raise DomainError("epsilon must be >= 0")
    ates = np.asarray(observed_ates, dtype=float)
    return [Interval(float(a) - epsilon, float(a) + epsilon) for a in ates]


def sweep_to_csv_rows(sweep: CurvatureSweep) -> list[list]:
    rows = [["delta", "lo", "hi", "width", "method"]]
    for delta, interval in zip(sweep.deltas, sweep.intervals):
        rows.append([delta, interval.lo, interval.hi, interval.width, sweep.method_tag])
    return rows
