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
The tie-collapse and the prefix sums depend on the controls only, not on
delta, so `TiltingProblem` builds them once for a whole sweep or
fragility bisection. The scores and the problem are built once per
(Dataset, propensity model) pair and kept on the Dataset
(`Dataset.cached`), so repeated sweeps and IPW estimates on the same pair
reuse them; a `PropensityModel` is frozen and a problem never changes once
built (its work goes to the ledger), so none can go stale. The problem
owns its inputs, the controls sorted by outcome once (`control_tilt_inputs`
returns them), so it collapses ties in one pass; only unordered input
given to a `TiltingProblem` is sorted.
Per delta and side, a Dinkelbach iteration on those sums finds the
optimal threshold in a few steps: the bound is the best ratio it visits or
finds next to where it stops, which is a full scan's to within rounding.
Delta 0, where every exact ratio is the same, scans every split point, once
per problem, when it is built; every query at delta 0 reads those bounds.
A sweep runs all its deltas and both sides as arrays.
`curvature_bounds` is the one-delta form. Given the very objects
`control_tilt_inputs` returned for a pair whose `tilting_problem` is
alive, it evaluates that problem; on any other input it builds one. A
brute-force vertex enumeration is kept alongside as an independent oracle.
"""

from __future__ import annotations

import math
import weakref
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
from .ingest import Dataset, _read_only
from .propensity import PropensityModel, TrimRule, score_dataset, trim
from .work import COUNTS

# exp cap: beyond this the tilted extremes equal the support limits to
# machine precision, and exp would overflow around 709.
_MAX_EXP = 500.0
# Dinkelbach steps allowed per side and delta, and the split points evaluated
# on each side of where the iteration stops.
_CENTRE_STEPS = 32
_NEIGHBOURS = 2

TILTING = "tilting"
TRIMMING_PROXY = "trimming_proxy"

# The problems `tilting_problem` built, keyed by the id of their control
# outcomes, for `curvature_bounds` to reuse. Their inputs are read-only
# views made with the problem, so they cannot change under it. Held weakly,
# an entry goes when its Dataset drops the problem; a problem holds its
# inputs, so the id cannot pass to another object while the entry lives.
_PROBLEMS = weakref.WeakValueDictionary()


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


def _check_tilt_inputs(control_outcomes, base_weights, treated_mean):
    """Validated float arrays (outcomes, weights), with `treated_mean`
    checked finite."""
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
    if not math.isfinite(treated_mean):
        raise ValidationError(f"treated_mean must be finite, got {treated_mean}")
    return y, w


class TiltingProblem:
    """The tilting bounds of one control sample, for any delta.

    The constructor validates the inputs, collapses tied outcomes, takes
    prefix and suffix sums once (outcomes in non-decreasing order, as
    `control_tilt_inputs` returns them, in one pass, any other order after
    a sort) and makes the delta-0 pass over every split point (see
    `interval`), so a problem costs O(m) whatever deltas it is asked.
    `interval(delta)` then evaluates the sums at a few split points, none
    at delta 0, and `sweep` gives its floats at each delta of a grid from
    one array pass. Neither changes the problem; the ledger counts the
    ratios evaluated as `tilt_split_points_evaluated`, and each problem
    built as `tilt_problems_built`. The problem keeps the three input
    objects it was given, so `curvature_bounds` can tell them and
    `control_tilt_inputs` return them.
    """

    def __init__(self, control_outcomes, base_weights, treated_mean: float):
        y, w = _check_tilt_inputs(control_outcomes, base_weights, treated_mean)
        COUNTS["tilt_problems_built"] += 1
        self._inputs = (control_outcomes, base_weights, treated_mean)
        # The bounds are scale-invariant. Scaling by the power of two that puts
        # the largest weight in [0.5, 1) is exact for normal-range weights, so
        # their bounds stay bit-identical, while e^delta times the sums can no
        # longer overflow and subnormal weights keep their digits.
        w = np.ldexp(w, -np.frexp(w.max())[1])
        # Collapse equal outcomes (weights add): splitting a tied block across
        # the threshold adds only redundant vertices, and deduping keeps tied
        # data (common with mass points like zero earnings) exactly stable in
        # delta. Input out of outcome order is put in stable outcome order
        # first; a new value then starts where the outcome changes, and
        # bincount adds each tie group's weights in row order.
        if not np.all(y[1:] >= y[:-1]):
            order = np.argsort(y, kind="stable")
            y, w = y[order], w[order]
        new = np.concatenate(([True], y[1:] != y[:-1]))
        ys = y[new]
        ws = np.bincount(np.cumsum(new) - 1, weights=w)
        m = ys.size
        # Row 0 of each buffer holds the prefix sums (prefix[k] = the sum of the
        # first k sorted entries, prefix[0] = 0), row 1 the suffix sums
        # (total - prefix[k], the sum from entry k on): a per-delta scan's floats.
        self._w, self._wy = np.empty((2, m + 1)), np.empty((2, m + 1))
        for sums, terms in ((self._w, ws), (self._wy, ws * ys)):
            sums[0, 0] = 0.0
            np.cumsum(terms, out=sums[0, 1:])
            np.subtract(sums[0, -1], sums[0], out=sums[1])
        self._ys = ys
        self._untilted_mean = float(self._wy[0, -1] / self._w[0, -1])
        # The delta-0 bounds from every split point k = 0..m, where the two
        # sides' ratios are the same floats (the untilted and tilted sums trade
        # places), so one pass serves both: (side 0's max, side 1's min).
        ratios = (self._wy[0] + self._wy[1]) / (self._w[0] + self._w[1])
        COUNTS["tilt_split_points_evaluated"] += ratios.size
        self._at_zero = (float(ratios[1:].max()), float(ratios[:-1].min()))
        self.treated_mean = treated_mean
        self.distinct_outcomes = m

    def _side(self, side):
        """(sign that makes its extreme a maximum, first and last split point)
        of `side`, an int or an array. Side 0 raises mu0 by tilting the
        suffix [k:], k = 1..m (k=m is the untilted vertex; k=0 equals it and
        is skipped to keep the bounds nested); side 1 lowers it by tilting
        the prefix [:k], k = 0..m-1."""
        return 1 - 2 * side, 1 - side, self.distinct_outcomes - side

    def _ratio(self, side, e_delta, at):
        """`side`'s ratios at split points `at`, all broadcast: untilted sums
        from buffer row `side`, tilted ones from row `1 - side`."""
        w, wy = self._w, self._wy
        return ((wy[side, at] + e_delta * wy[1 - side, at])
                / (w[side, at] + e_delta * w[1 - side, at]))

    def interval(self, delta: float) -> Interval:
        """ATT bounds under tilt factors in [1, e^delta].

        The bounds are the extremes over the split points k of the ratio
        R(k) = (untilted sum of w*y + e^delta * tilted sum of w*y) /
               (untilted sum of w + e^delta * tilted sum of w).
        The maximum is the fixed point of Dinkelbach's iteration (Dinkelbach
        1967): the vertex optimal for ratio mu tilts the outcomes beyond mu,
        so jump to that split point, take its ratio as the new mu, repeat.
        Each side stops when the split point repeats, when the ratio fails
        to rise (rounding near a flat optimum; without this, large deltas
        cycle), or after `_CENTRE_STEPS` steps. Its bound, the best ratio
        visited or at the `_NEIGHBOURS` split points either side of where it
        stopped, is a full scan's maximum to within the rounding of a flat
        optimum (at worst about 1e-13 max|y| on adversarial data).

        At delta 0 every exact ratio is the untilted mean, so there is no
        optimum to iterate to: the bounds are the floats of a scan of every
        split point, a few ulp from that mean. The constructor made that
        scan, so delta 0 evaluates nothing here.
        """
        _check_delta(delta)
        e_delta = math.exp(min(delta, _MAX_EXP))
        mu_max, mu_min = (self._at_zero if e_delta == 1.0 else
                          (self._extreme(0, e_delta), self._extreme(1, e_delta)))
        return Interval(self.treated_mean - mu_max, self.treated_mean - mu_min)

    def _extreme(self, side: int, e_delta: float) -> float:
        """One side's bound at one delta e^delta > 1 (see `interval`)."""
        sign, first, last = self._side(side)
        k, mu, best = -1, self._untilted_mean, sign * self._untilted_mean
        evaluated = 0
        for _ in range(_CENTRE_STEPS):
            k_next = min(max(int(self._ys.searchsorted(mu)), first), last)
            if k_next == k:
                break
            k = k_next
            value = sign * self._ratio(side, e_delta, k)
            evaluated += 1
            if not value > best:
                break
            best, mu = value, sign * value
        at = slice(max(first, k - _NEIGHBOURS), min(last, k + _NEIGHBOURS) + 1)
        top = (sign * self._ratio(side, e_delta, at)).max()
        COUNTS["tilt_split_points_evaluated"] += evaluated + at.stop - at.start
        return sign * float(best if best > top else top)

    def _extremes(self, e_delta: np.ndarray) -> np.ndarray:
        """`_extreme` of both sides at every delta, as a (2, deltas) array: all
        rows' Dinkelbach iterations at once, then one gather of their neighbours."""
        n = e_delta.size
        rows = np.flatnonzero(np.tile(e_delta, 2) != 1.0)  # (side, delta) as side * n + delta
        side, e = rows // n, e_delta[rows % n]
        sign, first, last = self._side(side)
        k = np.full(rows.size, -1)  # no split point yet, so the first step always moves
        best = sign * self._untilted_mean
        moving, mu = np.arange(rows.size), np.full(rows.size, self._untilted_mean)
        for _ in range(_CENTRE_STEPS):
            k_next = np.clip(self._ys.searchsorted(mu), first[moving], last[moving])
            moved = k_next != k[moving]
            moving, k_next = moving[moved], k_next[moved]
            if not moving.size:
                break
            k[moving] = k_next
            value = sign[moving] * self._ratio(side[moving], e[moving], k_next)
            COUNTS["tilt_split_points_evaluated"] += moving.size
            rose = value > best[moving]
            moving, value = moving[rose], value[rose]
            best[moving] = value
            mu = sign[moving] * value
        at = np.clip(k[:, None] + np.arange(-_NEIGHBOURS, _NEIGHBOURS + 1),
                     first[:, None], last[:, None])
        top = (sign[:, None] * self._ratio(side[:, None], e[:, None], at)).max(axis=1)
        COUNTS["tilt_split_points_evaluated"] += int((at[:, -1] - at[:, 0] + 1).sum())
        bounds = np.empty(2 * n)
        bounds[rows] = sign * np.where(best > top, best, top)
        bounds = bounds.reshape(2, n)
        bounds[:, e_delta == 1.0] = np.reshape(self._at_zero, (2, 1))
        return bounds

    def sweep(self, deltas) -> CurvatureSweep:
        """Identified sets along an ascending delta grid, `interval`'s at
        each delta. Nesting across the grid is asserted, not assumed."""
        deltas = _validate_delta_grid(deltas)
        e_delta = np.array([math.exp(min(d, _MAX_EXP)) for d in deltas])
        mu_max, mu_min = self._extremes(e_delta).tolist()
        raw = [Interval(self.treated_mean - hi, self.treated_mean - lo)
               for hi, lo in zip(mu_max, mu_min)]
        intervals = [raw[0]]
        for cur in raw[1:]:
            prev = intervals[-1]
            # The true sets are nested; float evaluation can under-cover by a
            # few ulp on near-flat candidates, which the outward snap absorbs.
            # Any larger violation is a bug and must surface.
            scale = max(abs(prev.lo), abs(prev.hi), abs(cur.lo), abs(cur.hi), 1.0)
            if max(cur.lo - prev.lo, prev.hi - cur.hi) > 1e-9 * scale:
                raise NumericalError("tilting intervals failed to nest along the delta grid")
            intervals.append(Interval(min(cur.lo, prev.lo), max(cur.hi, prev.hi)))
        return CurvatureSweep(deltas=deltas, intervals=tuple(intervals),
                              massi=massi_from_intervals(deltas, intervals), method_tag=TILTING)


def curvature_bounds(control_outcomes, base_weights, treated_mean: float,
                     delta: float) -> Interval:
    """ATT bounds under tilt factors in [1, e^delta] on control weights.

    The extremal tilt puts e^delta on a suffix (to raise the control mean)
    or a prefix (to lower it) of the sorted outcomes, because a
    linear-fractional objective over a box attains its optimum at a vertex
    and the optimal vertex thresholds on the outcome. The bounds are those
    of `TiltingProblem.interval`, a threshold scan's to within rounding.
    Given the very three objects `control_tilt_inputs(data, model)`
    returned, while the pair's `tilting_problem` lives, this evaluates that
    problem. Any other input (a copy, a writable array, an equal but
    distinct `treated_mean`) gets a `TiltingProblem` of its own, which sorts
    the outcomes only when they are not already in non-decreasing order
    and makes the O(m) delta-0 pass whatever the delta; to evaluate many
    deltas on such controls, build the problem once and call its
    `interval`. Either way the interval is the same float.
    """
    inputs = (control_outcomes, base_weights, treated_mean)
    problem = _PROBLEMS.get(id(control_outcomes))
    if problem is None or not all(a is b for a, b in zip(problem._inputs, inputs)):
        problem = TiltingProblem(*inputs)
    return problem.interval(delta)


def oracle_curvature_bounds(control_outcomes, base_weights, treated_mean: float,
                            delta: float) -> Interval:
    """Brute-force check of curvature_bounds by enumerating all 2^n tilt
    vertices (each tilt at 1 or e^delta). n <= 20."""
    y, w = _check_tilt_inputs(control_outcomes, base_weights, treated_mean)
    _check_delta(delta)
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
    """(control outcomes, odds base weights, treated mean) for ATT tilting,
    the very objects `tilting_problem(data, model)` was built on: the
    controls in stable outcome order (outcomes non-decreasing, ties in row
    order), the arrays read-only. The first call on a pair builds its
    problem, O(m) with the delta-0 pass; later calls are one cache lookup."""
    return tilting_problem(data, model)._inputs


def _registered_problem(model: PropensityModel, data: Dataset) -> TiltingProblem:
    data.require_both_arms("tilting sweep")
    controls = np.flatnonzero(~data.treated)
    order = controls[np.argsort(data.outcome[controls], kind="stable")]
    control_scores = data.cached(model, "scores", score_dataset)[order]
    y = _read_only(data.outcome[order])
    w = _read_only(control_scores / (1.0 - control_scores))
    treated_mean = float(np.mean(data.outcome[data.treated]))
    problem = _PROBLEMS[id(y)] = TiltingProblem(y, w, treated_mean)
    return problem


def tilting_problem(data: Dataset, model: PropensityModel) -> TiltingProblem:
    """The `TiltingProblem` of the (Dataset, model) pair, built once and kept
    on the Dataset (`Dataset.cached`), so every sweep and bisection on the
    pair shares it, `curvature_bounds` on its inputs included."""
    return data.cached(model, "tilting_problem", _registered_problem)


def sweep_tilting(data: Dataset, model: PropensityModel, deltas) -> CurvatureSweep:
    """Identified sets along a delta grid via exact tilting bounds.

    Base weights are the ATT counterfactual odds e(x)/(1 - e(x)) over
    controls, so delta=0 reproduces the IPW point estimate. The pair's one
    `tilting_problem` serves every grid (see `TiltingProblem.sweep`).
    """
    return tilting_problem(data, model).sweep(deltas)


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
    or cannot be matched become missing points. `data` is scored once per
    model (`Dataset.cached`).
    """
    deltas = _validate_delta_grid(deltas)
    spec = match_spec or MatchSpec()
    scores = data.cached(model, "scores", score_dataset)
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
