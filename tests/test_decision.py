import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from attdiag.decision import (
    PolicyDecision,
    bias_robustness,
    bias_robustness_curve,
    fragility_index,
    minimax_rule,
)
from attdiag.errors import ValidationError
from attdiag.identification import CurvatureSweep, Interval
from conftest import counted


def _sweep(deltas, intervals, tag="tilting"):
    return CurvatureSweep(deltas=tuple(deltas), lo=[iv.lo for iv in intervals],
                          hi=[iv.hi for iv in intervals], method_tag=tag)


def test_minimax_negative_interval_means_no_treat():
    assert minimax_rule(Interval(-2.0, -1.0)) is PolicyDecision.NO_TREAT


def test_minimax_positive_interval_means_treat():
    assert minimax_rule(Interval(1.0, 2.0)) is PolicyDecision.TREAT


def test_minimax_mixed_interval_hand_arithmetic():
    # Treat regrets 1, NoTreat regrets 3.
    assert minimax_rule(Interval(-1.0, 3.0)) is PolicyDecision.TREAT


def test_minimax_tie_resolves_to_no_treat():
    assert minimax_rule(Interval(-1.0, 1.0)) is PolicyDecision.NO_TREAT


@settings(max_examples=100, deadline=None)
@given(lo=st.floats(-100, 100), width=st.floats(0, 100),
       k=st.integers(-10, 10).map(lambda e: 2.0 ** e))
def test_minimax_scale_invariance(lo, width, k):
    # Scaling by a power of two is exact unless a product leaves the normal
    # range, where rounding can turn a tiny endpoint into zero and a
    # strict preference into a tie.
    iv = Interval(lo, lo + width)
    assume(all(v == 0.0 or abs(k * v) >= sys.float_info.min for v in (iv.lo, iv.hi)))
    scaled = Interval(k * iv.lo, k * iv.hi)
    assert minimax_rule(iv) == minimax_rule(scaled)


def test_minimax_subnormal_upside_still_treats():
    # The smallest positive upside is still strictly better than none.
    assert minimax_rule(Interval(0.0, 5e-324)) is PolicyDecision.TREAT


def test_fragility_all_negative_never_flips():
    sweep = _sweep([0.0, 1.0, 2.0],
                   [Interval(-3, -1), Interval(-4, -0.5), Interval(-5, -0.1)])
    assert fragility_index(sweep) == math.inf


def test_fragility_flip_on_grid():
    # baseline Treat at delta=0; NoTreat once the downside dominates
    sweep = _sweep([0.0, 1.0, 1.5],
                   [Interval(1.0, 1.0), Interval(-0.5, 1.2), Interval(-9.0, 1.5)])
    assert fragility_index(sweep) == 1.5


def test_fragility_bisection_refines_flip():
    flip_at = 1.2345

    def interval_at(delta):
        # Treat is optimal until |lo| exceeds hi at delta = flip_at
        return Interval(-delta, flip_at)

    deltas = [0.0, 1.0, 1.5]
    sweep = _sweep(deltas, [interval_at(d) for d in deltas])
    refined = fragility_index(sweep, interval_at=interval_at)
    assert 1.0 < refined < 1.5
    assert refined == pytest.approx(flip_at, abs=1e-3)


def _bounded(interval_at, calls=2000):
    """`interval_at` that raises once called more than `calls` times, so a
    bisection that never ends fails instead of hanging."""
    left = iter(range(calls))

    def call(delta):
        if next(left, None) is None:
            raise RuntimeError(f"interval_at called more than {calls} times")
        return interval_at(delta)
    return call


def _treat_below(flip_at):
    # Treat regrets delta, NoTreat regrets flip_at: Treat below flip_at,
    # NoTreat from there on (a tie goes to NoTreat).
    return lambda delta: Interval(-delta, flip_at)


@pytest.mark.parametrize("deltas, flip_at", [
    ([0.0, math.inf], 3.7),       # doubles 1, 2, 4, then bisects (2, 4)
    ([0.0, 0.25, math.inf], 0.6),  # flips at the first doubling step, 1
    ([0.0, 5.0, math.inf], 37.0),  # starts from the lower end: 10, 20, 40
])
def test_fragility_bisects_a_grid_cell_ending_at_infinity(deltas, flip_at):
    interval_at = _treat_below(flip_at)
    sweep = _sweep(deltas, [interval_at(d) for d in deltas])
    calls = []
    refined, work = counted(fragility_index, sweep,
                            interval_at=_bounded(lambda d: calls.append(d) or interval_at(d)))
    assert flip_at <= refined <= flip_at + 1e-4
    assert work["bisection_evals"] == len(calls)


def test_fragility_is_infinite_when_doubling_never_flips():
    # Treat at every finite delta; only the interval at +inf flips.
    interval_at = _treat_below(math.inf)
    sweep = _sweep([0.0, math.inf], [interval_at(0.0), interval_at(math.inf)])
    assert fragility_index(sweep) == math.inf
    refined, work = counted(fragility_index, sweep, interval_at=_bounded(interval_at))
    assert refined == math.inf
    assert work["bisection_evals"] == 1024  # 1, 2, ..., 2^1023


def test_fragility_ends_when_the_bracket_is_below_float_spacing():
    # Floats near 1e15 are 0.125 apart, so the bracket never narrows to the
    # tolerance; the bisection stops once no float lies strictly inside it.
    interval_at = _treat_below(1e15)
    sweep = _sweep([0.0, 2e15], [interval_at(0.0), interval_at(2e15)])
    assert fragility_index(sweep, interval_at=_bounded(interval_at)) == 1e15


def test_fragility_monotone_under_widening():
    deltas = [0.0, 1.0, 2.0]
    base = [Interval(0.5, 1.0), Interval(-2.0, 1.0), Interval(-3.0, 1.0)]
    widened = [Interval(0.5, 1.0), Interval(-2.5, 1.5), Interval(-3.5, 1.5)]
    frag_base = fragility_index(_sweep(deltas, base))
    frag_wide = fragility_index(_sweep(deltas, widened))
    assert frag_wide <= frag_base


# Endpoints that make ties (hi == -lo), zero-width intervals at 0 and
# signed zeros common, among endpoints of any sign.
_endpoint = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
                      st.floats(-10, 10))


@settings(max_examples=400, deadline=None)
@given(ends=st.lists(st.tuples(_endpoint, _endpoint).map(sorted), min_size=1, max_size=30),
       never_flips=st.booleans())
def test_flip_scan_is_the_first_grid_delta_where_the_rule_differs(ends, never_flips):
    intervals = [Interval(lo, hi) for lo, hi in ends]
    if never_flips:  # every interval decided as the first one
        intervals = [iv for iv in intervals if minimax_rule(iv) == minimax_rule(intervals[0])]
    deltas = [0.25 * i for i in range(len(intervals))]
    baseline = minimax_rule(intervals[0])
    expected = next((d for d, iv in zip(deltas, intervals) if minimax_rule(iv) != baseline),
                    math.inf)
    assert fragility_index(_sweep(deltas, intervals)) == expected


@pytest.mark.parametrize("intervals, expected", [
    ([(-1.0, 1.0), (-0.5, 1.0)], 0.25),  # a tie (NoTreat), then Treat
    ([(0.0, 0.0), (-0.0, 0.0), (0.0, 5e-324)], 0.5),  # zero regret both ways ties
    ([(-0.0, 0.0), (-2.0, 2.0), (-3.0, 1.0)], math.inf),
])
def test_flip_scan_on_ties_and_signed_zeros(intervals, expected):
    deltas = [0.25 * i for i in range(len(intervals))]
    assert fragility_index(_sweep(deltas, [Interval(*iv) for iv in intervals])) == expected


def test_fragility_empty_sweep_rejected():
    with pytest.raises(ValidationError):
        fragility_index(_sweep([], []))


def test_bias_robustness_reference_values():
    assert bias_robustness(-932.23, 388.09, 0.5) == 2.5
    assert abs(-932.23) / 388.09 == pytest.approx(2.402, abs=1e-3)


def test_bias_robustness_trivial_and_hand_cases():
    assert bias_robustness(0.0, 1.0, 0.5) == 0.0
    assert bias_robustness(1.0, 1.0, 0.25) == 1.0
    assert bias_robustness(1.01, 1.0, 0.25) == 1.25


def test_bias_robustness_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="grid_step must be > 0"):
        bias_robustness(1.0, 1.0, grid_step=0)
    with pytest.raises(ValidationError, match="tau_hat must be finite"):
        bias_robustness(math.nan, 1.0)


@settings(max_examples=500, deadline=None)
@given(
    tau=st.floats(allow_nan=False, allow_infinity=False),
    se=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),  # subnormals too
    step=st.one_of(
        st.sampled_from([5e-324, 1e-300, 0.01, 0.1, 0.25, 0.5, 1.0]),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ),
)
def test_bias_robustness_always_covers(tau, se, step):
    delta = bias_robustness(tau, se, step)
    if delta == math.inf:
        # Only when the grid index, or the delta itself, overflows a float.
        assert abs(tau) / se / step == math.inf or abs(tau) / se > sys.float_info.max / 2
        return
    assert delta * se >= abs(tau)
    # grid membership; an index at the float maximum may round up to inf
    index = delta / step
    assert index == math.inf or index == pytest.approx(round(index), rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("tau, se", [(1.0, 5e-324), (1e300, 1e-300), (1e308, 1e-10),
                                     (-1e308, 1e-10)])
def test_bias_robustness_is_infinite_when_the_ratio_overflows(tau, se):
    assert bias_robustness(tau, se, 0.5) == math.inf


def test_bias_robustness_covers_with_more_steps_than_a_float_counts():
    # 1e300 steps of 1e-300: the product rounds below 1 and the next index
    # rounds to the same float, so the cover takes one ulp more.
    delta = bias_robustness(1.0, 1.0, 1e-300)
    assert delta >= 1.0 and delta == pytest.approx(1.0, rel=1e-15)


def test_bias_robustness_converges_to_ratio_as_step_shrinks():
    tau, se = -932.23, 388.09
    ratio = abs(tau) / se
    previous = math.inf
    for step in (1.0, 0.5, 0.1, 0.01, 0.001):
        delta = bias_robustness(tau, se, step)
        assert delta <= previous + 1e-12
        previous = delta
    assert delta == pytest.approx(ratio, abs=0.001)


def test_bias_robustness_rejects_bad_se():
    # An infinite se would make 0 * se NaN and slip past the cover guard.
    for se in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            bias_robustness(1.0, se, 0.5)


@pytest.mark.parametrize("tau, se, message", [
    (1.0, -1.0, "se must be finite and > 0"), (1.0, 0.0, "se must be finite and > 0"),
    (1.0, math.nan, "se must be finite and > 0"), (1.0, math.inf, "se must be finite and > 0"),
    (math.inf, 1.0, "tau_hat must be finite"), (-math.inf, 1.0, "tau_hat must be finite"),
    (math.nan, 1.0, "tau_hat must be finite"),
])
def test_bias_robustness_and_its_curve_name_a_bad_estimate(tau, se, message):
    with pytest.raises(ValidationError, match=message):
        bias_robustness(tau, se, 0.5)
    with pytest.raises(ValidationError, match=message):
        bias_robustness_curve(tau, se, [0.0, 1.0])


def test_bias_robustness_curve_endpoints():
    curve = bias_robustness_curve(-10.0, 2.0, [0.0, 1.0, 2.0])
    assert curve.deltas == (0.0, 1.0, 2.0) and curve.method_tag == "bias_tolerance"
    assert curve.lo == (-10.0, -12.0, -14.0)
    assert curve.hi == (-10.0, -8.0, -6.0)
    assert curve.massi == 0.0
