"""Minimax policy choice over an identified set, decision fragility, and the
standard-error-scaled bias tolerance.

The two-action problem: utility equals the realized effect under Treat and
zero under NoTreat, so worst-case regret over an interval [lo, hi] is
max(0, -lo) for Treat and max(0, hi) for NoTreat. Ties resolve to NoTreat
(status quo). `_treats` states the rule once, on an interval's two ends, so
the flip scan reads a sweep's lo and hi without building an interval.
"""

from __future__ import annotations

import enum
import math

from .errors import ValidationError
from .identification import BIAS_TOLERANCE, CurvatureSweep, Interval
from .work import COUNTS

# fragility_index bisects until the flip point is bracketed this tightly.
_BISECTION_TOL = 1e-4


class PolicyDecision(enum.Enum):
    TREAT = "treat"
    NO_TREAT = "no_treat"


def _treats(lo: float, hi: float) -> bool:
    """Treat regrets max(0, -lo) less than NoTreat max(0, hi); a tie is NoTreat."""
    return max(0.0, -lo) < max(0.0, hi)


def minimax_rule(interval: Interval) -> PolicyDecision:
    """The action of least worst-case regret over the interval (`_treats`)."""
    return PolicyDecision.TREAT if _treats(interval.lo, interval.hi) else PolicyDecision.NO_TREAT


def fragility_index(sweep: CurvatureSweep, interval_at=None) -> float:
    """Smallest grid delta at which the minimax decision flips away from the
    baseline (the decision at the smallest delta), +inf if it never does.

    When `interval_at` (a callable delta -> Interval) is given the flip
    point is refined by bisection between the straddling grid points, and
    the result is the upper end of the final bracket: a delta whose
    decision differs from the baseline, at most `_BISECTION_TOL` above the
    flip point, or less far when the bracket cannot be halved further in
    floating point. When the flip's grid cell ends at +inf, a finite upper
    end is found first, by doubling from max(lower end, 1) until the
    decision differs; if the doubling reaches +inf first, so does the
    result. The ledger counts every `interval_at` call as
    `bisection_evals`. As everywhere, a tie in worst-case regret goes to
    NoTreat.
    """
    if not sweep.deltas:
        raise ValidationError("sweep is empty")
    treats = list(map(_treats, sweep.lo, sweep.hi))
    baseline = treats[0]
    if (not baseline) not in treats:
        return math.inf
    flip_idx = treats.index(not baseline)
    flip_delta = float(sweep.deltas[flip_idx])
    if interval_at is None:
        return flip_delta

    def flips(delta: float) -> bool:
        COUNTS["bisection_evals"] += 1
        interval = interval_at(delta)
        return _treats(interval.lo, interval.hi) != baseline

    lo = float(sweep.deltas[flip_idx - 1])
    hi = flip_delta
    if math.isinf(hi):
        hi = max(lo, 1.0)
        while hi == lo or not flips(hi):
            lo, hi = hi, 2.0 * hi
            if math.isinf(hi):
                return math.inf
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if flips(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bias_robustness(tau_hat: float, se: float, grid_step: float = 0.5) -> float:
    """Smallest grid multiple of grid_step such that zero enters
    [tau_hat - delta*se, tau_hat + delta*se].

    Equals ceil((|tau_hat|/se) / grid_step) * grid_step, stepped up where
    rounding falls short, so the returned delta always satisfies
    delta*se >= |tau_hat|. Returns math.inf when |tau_hat|/se/grid_step
    overflows a float: no grid index a float can hold reaches the ratio.
    """
    if not 0 < se < math.inf:  # a NaN fails; 0 * inf would be NaN below
        raise ValidationError(f"se must be finite and > 0, got {se}")
    if not (grid_step > 0):
        raise ValidationError("grid_step must be > 0")
    if not math.isfinite(tau_hat):
        raise ValidationError("tau_hat must be finite")
    if tau_hat == 0.0:
        return 0.0
    ratio = abs(tau_hat) / se
    steps = ratio / grid_step - 1e-12
    if steps == math.inf:
        return math.inf
    steps = max(0, math.ceil(steps))
    delta = steps * grid_step
    while delta * se < abs(tau_hat):  # ratio underflow or grid-point rounding
        # past 2**53 steps the next index rounds to this delta: move one ulp
        steps += 1
        delta = max(steps * grid_step, math.nextafter(delta, math.inf))
    return delta


def bias_robustness_curve(tau_hat: float, se: float, deltas) -> CurvatureSweep:
    """The sets [tau_hat - delta*se, tau_hat + delta*se] along a delta grid
    (the bias-tolerance plot)."""
    deltas = tuple(deltas)
    return CurvatureSweep(deltas=deltas, lo=[tau_hat - d * se for d in deltas],
                          hi=[tau_hat + d * se for d in deltas], method_tag=BIAS_TOLERANCE)
