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
fragility bisection. The sort happens once per `Dataset`:
`control_tilt_inputs` returns the controls in the Dataset's cached
outcome order, and a `TiltingProblem` given ordered outcomes collapses
ties in one pass; only unordered input is sorted. Per delta it evaluates
the split points' ratios only in a window around the optimal threshold,
which a Dinkelbach iteration locates, and widens the window until a rounding
certificate proves that no split point outside it computes a more extreme
value. The bounds are therefore the floats a scan of every split point
would return, at the cost of the window; where nothing narrower can be
certified (delta 0, for one) the window grows into that full scan.
`curvature_bounds` is the one-delta form. A brute-force vertex enumeration
is kept alongside as an independent oracle.
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
# Unit roundoff and subnormal spacing of float64, for the rounding bound.
_U = 2.0 ** -53
_ETA = 2.0 ** -1074
# Dinkelbach steps allowed when centring a window, and the window's first
# half-width in split points; both affect speed only.
_CENTRE_STEPS = 32
_FIRST_HALF_WIDTH = 16

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


def _check_tilt_inputs(control_outcomes, base_weights, treated_mean, delta=None):
    """Validated float arrays (outcomes, weights), with `treated_mean`
    checked finite; `delta` is checked too when given."""
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
    if delta is not None:
        _check_delta(delta)
    return y, w


class TiltingProblem:
    """The tilting bounds of one control sample, for any delta.

    The constructor validates the inputs, collapses tied outcomes and
    takes prefix sums once: outcomes in non-decreasing order (as
    `control_tilt_inputs` returns them) in one pass, any other order after
    a sort. `interval(delta)` then evaluates those sums at a certified
    window of split points around the optimal threshold, so a sweep or a
    bisection over delta builds them once in total.
    `split_points_evaluated` counts the split points `interval` has
    evaluated (both sides, every window tried) and `full_scans` the sides
    whose window had to grow to every split point.
    """

    def __init__(self, control_outcomes, base_weights, treated_mean: float):
        y, w = _check_tilt_inputs(control_outcomes, base_weights, treated_mean)
        # The bounds are scale-invariant. Scaling by the power of two that puts
        # the largest weight in [0.5, 1) is exact for normal-range weights, so
        # their bounds stay bit-identical, while e^delta times the sums can no
        # longer overflow and subnormal weights keep their digits. It also
        # makes the weight total, and so every denominator, at least 0.5.
        w = np.ldexp(w, -np.frexp(w.max())[1])
        # Collapse equal outcomes (weights add): splitting a tied block across
        # the threshold adds only redundant vertices, and deduping keeps tied
        # data (common with mass points like zero earnings) exactly stable in
        # delta. Ordered input needs no sort: a new value starts where the
        # outcome changes. bincount adds each tie group's weights in input
        # order, so input in stable outcome order gives the floats that
        # np.unique on the rows in their original order gives.
        if np.all(y[1:] >= y[:-1]):
            new = np.concatenate(([True], y[1:] != y[:-1]))
            ys, inverse = y[new], np.cumsum(new) - 1
        else:
            ys, inverse = np.unique(y, return_inverse=True)
        ws = np.bincount(inverse, weights=w)
        wy = ws * ys
        # prefix[k] = sum of the first k sorted entries (prefix[0] = 0), and
        # suffix[k] = total - prefix[k], the sum from entry k on. Taking the
        # differences once here gives the same floats a per-delta scan would.
        prefix_w = np.concatenate([[0.0], np.cumsum(ws)])
        prefix_wy = np.concatenate([[0.0], np.cumsum(wy)])
        self._prefix_w, self._prefix_wy = prefix_w, prefix_wy
        suffix_w, suffix_wy = prefix_w[-1] - prefix_w, prefix_wy[-1] - prefix_wy
        m = ys.size
        # Each side as (untilted sums, tilted sums, first and last split
        # point, sign that turns its extreme into a maximum). Raising mu0
        # tilts the suffix [k:], k = 1..m: k=m is the exact untilted vertex,
        # and the skipped k=0 (everything tilted) equals it mathematically
        # because a constant tilt cancels in the ratio; skipping it keeps the
        # computed bounds exactly nested across delta. Lowering mu0 tilts the
        # prefix [:k], k = 0..m-1, where k=0 is the untilted vertex.
        self._sides = ((prefix_w, prefix_wy, suffix_w, suffix_wy, 1, m, 1.0),
                       (suffix_w, suffix_wy, prefix_w, prefix_wy, 0, m - 1, -1.0))
        self._ys = ys
        self._untilted_mean = float(prefix_wy[-1] / prefix_w[-1])
        self._y_max = float(max(-ys[0], ys[-1]))
        self._total_w = float(prefix_w[-1])
        self.treated_mean = treated_mean
        self.distinct_outcomes = m
        self.split_points_evaluated = 0
        self.full_scans = 0

    def interval(self, delta: float) -> Interval:
        """Exact ATT bounds under tilt factors in [1, e^delta].

        The bounds are the largest and smallest of the ratios
        (untilted sum of w*y + e^delta * tilted sum of w*y) /
        (untilted sum of w + e^delta * tilted sum of w) over the split
        points, bit for bit as a scan of every split point computes them,
        though only a window of them is evaluated. Why the window suffices:

        Let R(k) be split point k's ratio in exact arithmetic on the same
        inputs, and fl(k) the float computed. Raising mu0, untilting entry
        j = k-1 changes the ratio by
            R(k) - R(k-1) = (e^delta - 1) w_j (R(k) - y_j) / D(k-1),
        with D(k-1) > 0 the denominator. So R rises while y_j < R(k), and
        once it stops rising the sorted y_j stay at or above R: R is
        non-decreasing up to its maximum and non-increasing after it. (The
        lower side mirrors this; its ratios are negated so both sides seek
        a maximum.) Let E >= |fl(k) - R(k)| at every split point
        (`_rounding_bound`). If a window [a, b] computes the maximum M and
        fl(a) < M - 2E, then R(a) <= fl(a) + E < M - E, which is at most R
        at the window's argmax; so a lies where R is still rising, and each
        k < a has fl(k) <= R(k) + E <= R(a) + E <= fl(a) + 2E < M. The
        same holds to the right of b, and an edge at the first or last
        split point needs no check. The test is made as fl(M - fl(a)) > 2E
        with E inflated enough to absorb that subtraction's rounding.

        The window starts at the threshold of a Dinkelbach iteration (the
        vertex optimal for ratio mu tilts the outcomes beyond mu: jump to
        that split point, re-evaluate mu, stop when the split point
        repeats) and its width grows fourfold until both edges pass or it
        spans every split point, which is the full scan. The centre affects
        speed only. A window spanning everything is taken as it stands.
        Where nothing narrower can pass, the full scan comes first, with no
        centring: at e^delta = 1 (delta 0) every R(k) is equal, and a
        non-finite bound (very large delta, sums near overflow) fails every
        check.
        """
        _check_delta(delta)
        e_delta = math.exp(min(delta, _MAX_EXP))
        gap = 2.0 * self._rounding_bound(e_delta)
        mu_max, mu_min = (self._extreme(side, e_delta, gap) for side in self._sides)
        return Interval(self.treated_mean - mu_max, self.treated_mean - mu_min)

    def _rounding_bound(self, e_delta: float) -> float:
        """E >= |fl(k) - R(k)| at every split point k (see `interval`), or
        inf where no useful bound is proven.

        With u = 2^-53, eta = 2^-1074 the subnormal spacing, m split
        points, g = (m + 2) u, Y = max |y| and W the weight total, assume
        (1 + e^delta) g <= 0.05. Every denominator is at least W, and W is
        at least 0.5 after the scaling in the constructor. Then:
          - a prefix sum of w is within 1.03 g W of the exact one (any
            summation order: gamma_{m-1} times the sum of |terms|), and a
            prefix sum of the rounded products w*y within 1.03 g W Y + m eta
            of the exact products' sum (each product adds u|wy| + eta/2);
          - a suffix, total minus prefix, is within 2.6 g W Y + 3 m eta;
          - a numerator, prefix + fl(e^delta * suffix), is within
            3.8 (1 + e^delta) g W Y + 3 ((1 + e^delta) m + 1) eta, and a
            denominator within 3.8 (1 + e^delta) g W + eta, so a computed
            denominator is at least 0.75 W;
          - the quotient of the computed terms is then within
            (err_num + Y err_den) / (0.75 W) of R, as |R| <= Y, and the
            division adds at most u (1.1 Y) + eta/2.
        The total is below 11 (1 + e^delta) g Y + (8 (1 + e^delta) m + 3 Y + 9)
        eta. The bound returned, 16 (1 + e^delta) g Y
        + 8 ((1 + e^delta)(m + 2) + Y + 1) eta, exceeds that by enough to
        absorb its own rounding and the certificate's. Where the assumption
        fails, or (1 + e^delta) W Y comes near overflow, it is inf.
        """
        m, y_max = self.distinct_outcomes, self._y_max
        g = (m + 2) * _U
        tilt = 1.0 + e_delta
        if tilt * g > 0.05 or not math.isfinite(2.0 * tilt * self._total_w * y_max):
            return math.inf
        return 16.0 * tilt * g * y_max + 8.0 * (tilt * (m + 2) + y_max + 1.0) * _ETA

    def _extreme(self, side, e_delta: float, gap: float) -> float:
        """One side's bound: the largest of `sign` times its ratios, times
        `sign`, from the first window whose edges clear `gap` (see
        `interval`)."""
        base_w, base_wy, tilt_w, tilt_wy, first, last, sign = side

        def ratio(at):  # at a split point or a slice of them; the full scan's expressions
            return (base_wy[at] + e_delta * tilt_wy[at]) / (base_w[at] + e_delta * tilt_w[at])

        # Where no window narrower than all split points can pass, the first
        # window is all of them.
        k, half = first, last - first
        if e_delta != 1.0 and gap < math.inf:
            k, mu = None, self._untilted_mean
            for _ in range(_CENTRE_STEPS):
                k_next = min(max(int(self._ys.searchsorted(mu)), first), last)
                if k_next == k:
                    break
                k = k_next
                mu = ratio(k)
            half = _FIRST_HALF_WIDTH
        while True:
            a, b = max(first, k - half), min(last, k + half)
            if 2 * (b - a) >= last - first:  # past half of them: take them all
                a, b = first, last
            values = sign * ratio(slice(a, b + 1))
            self.split_points_evaluated += values.size
            best = values.max()
            if a == first and b == last:
                self.full_scans += 1
                return sign * float(best)
            if ((a == first or best - values[0] > gap)
                    and (b == last or best - values[-1] > gap)):
                return sign * float(best)
            half *= 4

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
    `TiltingProblem` for a single delta, which sorts the outcomes only when
    they are not already in non-decreasing order (those of
    `control_tilt_inputs` are); to evaluate many deltas on the same
    controls, build the problem once and call its `interval`.
    """
    return TiltingProblem(control_outcomes, base_weights, treated_mean).interval(delta)


def oracle_curvature_bounds(control_outcomes, base_weights, treated_mean: float,
                            delta: float) -> Interval:
    """Brute-force check of curvature_bounds by enumerating all 2^n tilt
    vertices (each tilt at 1 or e^delta). n <= 20."""
    y, w = _check_tilt_inputs(control_outcomes, base_weights, treated_mean, delta)
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
    """(control outcomes, odds base weights, treated mean) for ATT tilting.

    The controls come in `data.control_outcome_order()`: outcomes
    non-decreasing, ties in row order. That order is sorted once per
    Dataset, so a `TiltingProblem` built on these inputs does not sort."""
    data.require_both_arms("tilting sweep")
    scores = score_dataset(model, data)
    order = data.control_outcome_order()
    control_scores = scores[order]
    w = control_scores / (1.0 - control_scores)
    y = data.outcome[order]
    treated_mean = float(np.mean(data.outcome[data.treated]))
    return y, w, treated_mean


def sweep_tilting(data: Dataset, model: PropensityModel, deltas) -> CurvatureSweep:
    """Identified sets along a delta grid via exact tilting bounds.

    Base weights are the ATT counterfactual odds e(x)/(1 - e(x)) over
    controls, so delta=0 reproduces the IPW point estimate. One
    `TiltingProblem` serves the whole grid (see `TiltingProblem.sweep`), and
    the controls come in the Dataset's cached outcome order.
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
