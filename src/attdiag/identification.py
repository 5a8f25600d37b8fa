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
Per delta and side, the optimal threshold is one lookup among breakpoints
the problem computes once from the same sums (`TiltingProblem.interval`),
and the bound is the best ratio next to it, a full scan's to within
rounding. Delta 0, where every exact ratio is the same, scans every split
point, once per problem, when it is built; every query at delta 0 reads
those bounds. A sweep takes one lookup and one gather for all its deltas, one
delta Python floats. Sums that could overflow are scaled by a power of two.
Every delta sweep is a `CurvatureSweep` of its grid and interval ends, from
which its massi, decisions, CSV rows and charts are read.
`curvature_bounds` is the one-delta form. Given the very objects
`control_tilt_inputs` returned for a pair whose `tilting_problem` is
alive, it evaluates that problem; on any other input it builds one. A
brute-force vertex enumeration is kept alongside as an independent oracle.
"""

from __future__ import annotations

import math
import operator
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
# The split points evaluated on each side of a bound's breakpoint, as offsets.
_NEIGHBOURS = 2
_WINDOW = np.arange(-_NEIGHBOURS, _NEIGHBOURS + 1)
# A suffix sum taken as total - prefix carries about 2^-52 of the total in
# rounding, more than 2^-32 of a suffix weight below 2^-20 of the total. In
# that top tail, which large deltas tilt, the suffix rows are summed from the top.
_TAIL = 2.0 ** -20
# Side 0 raises mu0 by tilting the suffix [k:] of the sorted outcomes, k = 1..m
# (k = m is the untilted vertex; k = 0 equals it and is skipped to keep the
# bounds nested); side 1 lowers it by tilting the prefix [:k], k = 0..m-1. Per
# side: its first k, and the `_sums` rows of its untilted and tilted w, then w*y.
_FIRST = np.array([1, 0])[:, None, None]
_SIDE_ROWS = ((0, 1, 2, 3), (1, 0, 3, 2))
_ROWS = np.array(_SIDE_ROWS).T[:, :, None, None]

TILTING = "tilting"
TRIMMING_PROXY = "trimming_proxy"
FIXED_RADIUS = "fixed_radius"
BIAS_TOLERANCE = "bias_tolerance"

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
    """The sets [lo[i], hi[i]] along an ascending delta grid: the one type of
    every delta sweep (tilting, trimming proxy, fixed radius, bias tolerance).

    The grid follows `_validate_delta_grid`'s rule, but may be empty (a proxy
    sweep that lost every delta). Tilting intervals are exactly nested;
    trimming-proxy sweeps may shrink in width, at the recorded indices
    width_violations, and skip deltas whose trimmed sample is empty
    (missing_deltas).
    """

    deltas: tuple[float, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    method_tag: str
    missing_deltas: tuple[float, ...] = ()
    width_violations: tuple[int, ...] = ()

    def __post_init__(self):
        deltas = _validate_delta_grid(self.deltas) if len(self.deltas) else ()
        lo, hi = tuple(self.lo), tuple(self.hi)
        if not len(deltas) == len(lo) == len(hi):
            raise ValidationError("deltas, lo and hi must align")
        if not all(map(operator.le, lo, hi)):  # a NaN fails
            raise ValidationError("interval endpoints out of order")
        for name, value in (("deltas", deltas), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)

    @property
    def massi(self) -> float:
        """The smallest grid delta whose interval excludes zero, +inf if none does."""
        return next((d for d, lo, hi in zip(self.deltas, self.lo, self.hi)
                     if not lo <= 0.0 <= hi), math.inf)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The sets as `Interval`s, built on each call."""
        return tuple(map(Interval, self.lo, self.hi))


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
    a sort), makes the delta-0 pass and computes the breakpoints (see
    `interval`), so a problem costs O(m) whatever deltas it is asked.
    `interval(delta)` then evaluates at most 2 * _NEIGHBOURS + 1 split
    points per side, none at delta 0, and `sweep` gives its floats at each
    delta of a grid from one array pass. Neither changes the problem; the
    ledger counts the ratios evaluated as `tilt_split_points_evaluated`,
    and each problem built as `tilt_problems_built`. The problem keeps the
    three input objects it was given, so `curvature_bounds` can tell them
    and `control_tilt_inputs` return them.
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
        # e^delta (below 2^722) times a sum of w*y, and the outcome gaps behind
        # the breakpoints, stay finite while max|y| * (m + 1) < 2^300. Outcomes
        # past that are scaled by an exact power of two, and the bounds back.
        shift = min(0, 300 - math.frexp(max(-ys[0], ys[-1]))[1] - math.frexp(m + 1)[1])
        ys = np.ldexp(ys, shift) if shift else ys
        self._scale = math.ldexp(1.0, -shift)
        # Rows 0 and 1 of `_sums` hold the prefix and suffix sums of w, rows 2 and 3
        # those of w*y (prefix[k] = the sum of the first k sorted entries, prefix[0]
        # = 0; suffix[k] = total - prefix[k], the sum from entry k on).
        self._sums = np.empty((4, m + 1))
        self._w, self._wy = self._sums[:2], self._sums[2:]
        for sums, terms in ((self._w, ws), (self._wy, ws * ys)):
            sums[0, 0] = 0.0
            np.cumsum(terms, out=sums[0, 1:])
            np.subtract(sums[0, -1], sums[0], out=sums[1])
        self._ys = ys
        # The delta-0 bounds from every split point k = 0..m, where the two
        # sides' ratios are the same floats (the untilted and tilted sums trade
        # places), so one pass serves both: (side 0's max, side 1's min).
        ratios = (self._wy[0] + self._wy[1]) / (self._w[0] + self._w[1])
        COUNTS["tilt_split_points_evaluated"] += ratios.size
        self._at_zero = (float(ratios[1:].max()), float(ratios[:-1].min()))
        # The suffix weights summed from the top keep their digits however
        # small the tail gets. Past the delta-0 pass, the top tail's suffix
        # rows come from the top too (see _TAIL); `tail` is its first entry.
        top = np.zeros(m + 1)
        np.cumsum(ws[::-1], out=top[-2::-1])
        tail = int(np.count_nonzero(top >= _TAIL * self._w[0, -1]))
        self._w[1, tail:] = top[tail:]
        np.cumsum((ws[tail:] * ys[tail:])[::-1], out=self._wy[1, tail:m][::-1])
        # Side 0's optimal split point passes y_j once e^delta exceeds
        # e_j = sum_{i<j} w_i (y_j - y_i) / sum_{i>j} w_i (y_i - y_j), where the
        # tilted mean of the entries above j reaches y_j; side 1's once
        # e^-delta does. Both sums are cumulative sums of non-negative terms,
        # gap * prefix weight from the bottom and gap * suffix weight from the
        # top, so e_j never decreases; with no weight above j, e_j = inf.
        num = np.zeros(m)
        np.subtract(ys[1:], ys[:-1], out=num[1:])  # the gaps, until summed
        top[1:m] *= num[1:]
        np.cumsum(top[-2:0:-1], out=top[-2:0:-1])
        np.cumsum(num * self._w[0, :m], out=num)
        self._breaks = np.full(m, np.inf)
        with np.errstate(over="ignore"):
            np.divide(num, top[1:], out=self._breaks, where=top[1:] > 0.0)
        self.treated_mean = treated_mean
        self.distinct_outcomes = m

    def interval(self, delta: float) -> Interval:
        """ATT bounds under tilt factors in [1, e^delta].

        The bounds are the extremes over the split points k of the ratio
        R(k) = (untilted sum of w*y + e^delta * tilted sum of w*y) /
               (untilted sum of w + e^delta * tilted sum of w).
        The vertex optimal for ratio mu tilts the outcomes beyond mu
        (Dinkelbach 1967), so the optimal split point passes y_j where the
        optimum reaches y_j: for side 0 at e^delta = e_j, for side 1 at
        e^-delta = e_j, breakpoints the constructor computed. Each side is
        one lookup among them, and its bound the best ratio at the
        `_NEIGHBOURS` split points either side of the one found, which
        absorb the breakpoints' rounding: a full scan's extreme to within the
        rounding of a flat optimum (at worst about 1e-13 max|y|).

        At delta 0 every exact ratio is the untilted mean: the bounds are the
        floats of the constructor's scan of every split point, a few ulp
        from that mean, so delta 0 evaluates nothing here.
        """
        _check_delta(delta)
        e_delta = math.exp(min(delta, _MAX_EXP))
        mu_max, mu_min = (self._at_zero if e_delta == 1.0 else
                          (self._extreme(0, e_delta), self._extreme(1, e_delta)))
        return Interval(self.treated_mean - self._scale * mu_max,
                        self.treated_mean - self._scale * mu_min)

    def _extreme(self, side: int, e_delta: float) -> float:
        """One side's bound at one delta e^delta > 1 (see `interval`), in Python
        floats: the IEEE-754 operations of `_extremes`, in order, so its float."""
        k = int(self._breaks.searchsorted(1.0 / e_delta if side else e_delta))
        at = slice(max(1 - side, k - _NEIGHBOURS),
                   min(self.distinct_outcomes - side, k + _NEIGHBOURS) + 1)
        COUNTS["tilt_split_points_evaluated"] += at.stop - at.start
        sums = self._sums[:, at].tolist()
        ratios = [(wy + e_delta * tilted_wy) / (w + e_delta * tilted_w)
                  for w, tilted_w, wy, tilted_wy in zip(*(sums[r] for r in _SIDE_ROWS[side]))]
        return min(ratios) if side else max(ratios)

    def _extremes(self, e_delta: np.ndarray) -> np.ndarray:
        """(2, deltas) array of both sides' `_extreme` at non-decreasing e^delta: the
        1s lead and read the delta-0 bounds, the rest one lookup and one gather."""
        zero = int(e_delta.searchsorted(1.0, "right"))
        bounds = np.empty((2, e_delta.size))
        bounds[0, :zero], bounds[1, :zero] = self._at_zero
        e = e_delta[zero:, None]
        at = self._breaks.searchsorted(np.concatenate((e, 1.0 / e))).reshape(2, -1, 1) + _WINDOW
        np.minimum(np.maximum(at, _FIRST, out=at), _FIRST + (self.distinct_outcomes - 1), out=at)
        w, tilted_w, wy, tilted_wy = self._sums[_ROWS, at]
        ratios = (wy + e * tilted_wy) / (w + e * tilted_w)
        bounds[0, zero:], bounds[1, zero:] = ratios[0].max(axis=1), ratios[1].min(axis=1)
        COUNTS["tilt_split_points_evaluated"] += int((at[..., -1] - at[..., 0] + 1).sum())
        return bounds

    def sweep(self, deltas) -> CurvatureSweep:
        """Identified sets along an ascending delta grid, `interval`'s at
        each delta. Nesting across the grid is asserted, not assumed."""
        deltas = _validate_delta_grid(deltas)
        e_delta = np.array([math.exp(min(d, _MAX_EXP)) for d in deltas])
        lo, hi = self.treated_mean - self._scale * self._extremes(e_delta)
        if not np.all(lo <= hi):
            raise ValidationError("tilting interval endpoints out of order")
        # The true sets are nested; float evaluation can under-cover by a few
        # ulp on near-flat candidates, which the outward snap to the running
        # extremes absorbs. Any larger violation is a bug and must surface.
        outer_lo, outer_hi = np.minimum.accumulate(lo), np.maximum.accumulate(hi)
        gap = np.maximum(lo[1:] - outer_lo[:-1], outer_hi[:-1] - hi[1:])
        if not np.all(gap <= 0.0):
            scale = np.abs([outer_lo[:-1], outer_hi[:-1], lo[1:], hi[1:]]).max(axis=0, initial=1.0)
            if np.any(gap > 1e-9 * scale):
                raise NumericalError("tilting intervals failed to nest along the delta grid")
        return CurvatureSweep(deltas=deltas, lo=outer_lo.tolist(), hi=outer_hi.tolist(),
                              method_tag=TILTING)


def curvature_bounds(control_outcomes, base_weights, treated_mean: float,
                     delta: float) -> Interval:
    """ATT bounds under tilt factors in [1, e^delta] on control weights.

    The extremal tilt puts e^delta on a suffix (to raise the control mean)
    or a prefix (to lower it) of the sorted outcomes, because a
    linear-fractional objective over a box attains its optimum at a vertex
    and the optimal vertex thresholds on the outcome. The bounds are those
    of `TiltingProblem.interval`, a threshold scan's to within rounding,
    from at most 2 * _NEIGHBOURS + 1 split points per side. Given the very
    three objects `control_tilt_inputs(data, model)` returned, while the
    pair's `tilting_problem` lives, this evaluates that problem. Any other
    input (a copy, a writable array, an equal but distinct `treated_mean`)
    gets a `TiltingProblem` of its own, which sorts the outcomes only when
    they are not already in non-decreasing order and makes the O(m) delta-0
    pass and breakpoints whatever the delta; to evaluate many deltas on such
    controls, build the problem once and call its `interval`. Either way the
    interval is the same float.
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
    increasing (a NaN fails); every delta grid, a `CurvatureSweep`'s included."""
    deltas = tuple(map(float, deltas))
    if not deltas:
        raise ValidationError("delta grid must be non-empty")
    if not deltas[0] >= 0:
        raise DomainError("deltas must start at >= 0")
    if not all(map(operator.lt, deltas, deltas[1:])):
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
    kept_deltas, lo, hi, missing = [], [], [], []
    for delta in deltas:
        try:
            sample = trim(data, scores, default_delta_to_trim(delta))
            est = att_match(sample, score_dataset(model, sample), spec)
        except (TrimmingError, EstimationError, ValidationError):
            missing.append(delta)
            continue
        half_width = 0.0 if delta == 0 else est.se
        kept_deltas.append(delta)
        lo.append(est.tau_hat - half_width)
        hi.append(est.tau_hat + half_width)
    widths = [b - a for a, b in zip(lo, hi)]
    violations = tuple(i for i in range(1, len(widths)) if widths[i] < widths[i - 1])
    return CurvatureSweep(deltas=kept_deltas, lo=lo, hi=hi, method_tag=TRIMMING_PROXY,
                          missing_deltas=tuple(missing), width_violations=violations)


def sweep_to_csv_rows(sweep: CurvatureSweep) -> list[list]:
    return [["delta", "lo", "hi", "width", "method"]] + [
        [delta, lo, hi, hi - lo, sweep.method_tag]
        for delta, lo, hi in zip(sweep.deltas, sweep.lo, sweep.hi)]
