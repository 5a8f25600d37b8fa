import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from attdiag import estimators, identification
from attdiag.decision import fragility_index
from attdiag.errors import (
    AttDiagError,
    DomainError,
    NumericalError,
    SizeError,
    SupportError,
    ValidationError,
)
from attdiag.estimators import MatchSpec, att_ipw, naive_diff
from attdiag.identification import (
    CurvatureSweep,
    Interval,
    OutcomeSupport,
    TiltingProblem,
    control_tilt_inputs,
    curvature_bounds,
    default_delta_to_trim,
    fixed_radius_sets,
    manski_bounds,
    massi_from_intervals,
    oracle_curvature_bounds,
    sweep_tilting,
    sweep_trimming_proxy,
    tilting_problem,
)
from attdiag.ingest import Dataset
from attdiag.propensity import PropensityModel, TrimRule, fit_logistic, score_dataset
from conftest import (
    counted, make_dataset, record_float_sorts, simulated_selection, synthetic_observational,
)


def _hand_model(intercept, slopes):
    return PropensityModel(
        coefficients=np.array([intercept, *slopes], dtype=float),
        covariate_columns=tuple(f"x{i}" for i in range(len(slopes))),
        converged=True, iterations=0, ridge=0.0, grad_max_norm=0.0,
    )


def test_interval_invariants():
    with pytest.raises(ValidationError):
        Interval(2.0, 1.0)
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.contains(0.0) and not iv.contains(4.0)


def test_manski_binary_outcome():
    data = make_dataset([True, True, True, True, True, False],
                        [1, 1, 1, 0, 0, 0])
    iv = manski_bounds(data, OutcomeSupport(0.0, 1.0))
    assert iv.lo == pytest.approx(-0.4)
    assert iv.hi == pytest.approx(0.6)


def test_manski_point_support_singleton():
    data = make_dataset([True, False], [3.0, 3.0])
    iv = manski_bounds(data, OutcomeSupport(3.0, 3.0))
    assert iv.lo == iv.hi == 0.0


def test_manski_rejects_outcomes_outside_support():
    data = make_dataset([True, False], [0.5, 2.0])
    with pytest.raises(SupportError):
        manski_bounds(data, OutcomeSupport(0.0, 1.0))


def test_manski_contains_truth_on_simulated_draw():
    from attdiag.simulation import SimConfig

    selected = simulated_selection(SimConfig(seed=31, n=20_000), 1.0, seed=4)
    iv = manski_bounds(selected, OutcomeSupport(0.0, 1.0))
    assert iv.contains(0.1)


def test_curvature_delta_zero_is_weighted_mean_point():
    y = np.array([1.0, 3.0, 7.0])
    w = np.array([2.0, 1.0, 1.0])
    iv = curvature_bounds(y, w, 10.0, 0.0)
    assert iv.width == 0.0
    assert iv.lo == pytest.approx(10.0 - np.average(y, weights=w), abs=1e-12)


def test_curvature_large_delta_hits_support_limits():
    y = np.array([1.0, 3.0, 7.0])
    w = np.array([2.0, 1.0, 1.0])
    iv = curvature_bounds(y, w, 10.0, 40.0)
    assert iv.lo == pytest.approx(10.0 - 7.0, abs=1e-9)
    assert iv.hi == pytest.approx(10.0 - 1.0, abs=1e-9)


def test_curvature_hand_vertices_n2():
    iv = curvature_bounds([0.0, 1.0], [1.0, 1.0], 0.0, math.log(3.0))
    assert iv.lo == pytest.approx(-0.75, abs=1e-9)
    assert iv.hi == pytest.approx(-0.25, abs=1e-9)


def test_curvature_rejects_bad_inputs():
    with pytest.raises(DomainError):
        curvature_bounds([1.0], [1.0], 0.0, -0.5)
    with pytest.raises(ValidationError):
        curvature_bounds([1.0], [0.0], 0.0, 1.0)
    with pytest.raises(ValidationError):
        curvature_bounds([], [], 0.0, 1.0)
    with pytest.raises(ValidationError, match="equal-length"):
        curvature_bounds([1.0, 2.0], [1.0], 0.0, 1.0)


def test_oracle_single_point_singleton():
    iv = oracle_curvature_bounds([4.0], [2.0], 1.0, 3.0)
    assert iv.lo == iv.hi == pytest.approx(1.0 - 4.0)


def test_oracle_size_guard():
    with pytest.raises(SizeError):
        oracle_curvature_bounds(np.zeros(21), np.ones(21), 0.0, 1.0)


def test_oracle_checks_its_inputs_then_delta():
    for delta in (-0.5, math.nan):
        with pytest.raises(DomainError):
            oracle_curvature_bounds([1.0], [1.0], 0.0, delta)
    with pytest.raises(ValidationError, match="strictly positive"):
        oracle_curvature_bounds([1.0], [0.0], 0.0, -0.5)


def test_oracle_matches_threshold_scan():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 16))
        y = rng.normal(size=n) * rng.lognormal()
        w = rng.lognormal(size=n)
        delta = float(rng.uniform(0.0, 5.0))
        tm = float(rng.normal())
        fast = curvature_bounds(y, w, tm, delta)
        slow = oracle_curvature_bounds(y, w, tm, delta)
        worst = max(worst, abs(fast.lo - slow.lo), abs(fast.hi - slow.hi))
    assert worst <= 1e-9


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-50, 50),
            st.floats(0.01, 20),
        ),
        min_size=1, max_size=12,
    ),
    d1=st.floats(0, 5),
    # gap bounded away from zero: below float resolution the true growth of
    # the set is smaller than one ulp and any fixed-precision evaluation may
    # legitimately round either way
    gap=st.floats(1e-6, 3),
)
def test_monotone_nesting_property(data, d1, gap):
    y = np.array([p[0] for p in data])
    w = np.array([p[1] for p in data])
    inner = curvature_bounds(y, w, 0.0, d1)
    outer = curvature_bounds(y, w, 0.0, d1 + gap)
    assert outer.lo <= inner.lo
    assert inner.hi <= outer.hi


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(0.05, 5)),
        min_size=1, max_size=10,
    ),
    scale=st.floats(0.01, 100),
    delta=st.floats(0, 5),
)
def test_tilt_scale_invariance(data, scale, delta):
    y = np.array([p[0] for p in data])
    w = np.array([p[1] for p in data])
    base = curvature_bounds(y, w, 0.0, delta)
    scaled = curvature_bounds(y, w * scale, 0.0, delta)
    assert scaled.lo == pytest.approx(base.lo, abs=1e-9)
    assert scaled.hi == pytest.approx(base.hi, abs=1e-9)


# Control samples for the sort-once property: heavy ties and a zero-earnings
# mass point among the outcomes, and weights from subnormal to ~1e300.
_tilt_outcomes = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]),
                           st.floats(-1e4, 1e4))
_tilt_weights = st.one_of(st.floats(1e-3, 1e3),
                          st.sampled_from([5e-324, 1e-310, 2.5e-308]),
                          st.floats(1e299, 1e300))


@settings(max_examples=300, deadline=None)
@given(
    controls=st.lists(st.tuples(_tilt_outcomes, _tilt_weights), min_size=1, max_size=25),
    # Grids up to 1000 reach past the exp cap at 500.
    deltas=st.lists(st.one_of(st.floats(0, 5), st.floats(0, 1000), st.just(500.0)),
                    min_size=1, max_size=12, unique=True).map(sorted),
    treated_mean=st.floats(-1e4, 1e4),
)
def test_sweep_equals_per_delta_bounds_exactly(controls, deltas, treated_mean):
    y = np.array([c[0] for c in controls])
    w = np.array([c[1] for c in controls])
    try:
        expected = [curvature_bounds(y, w, treated_mean, d) for d in deltas]
    except AttDiagError as exc:
        expected = type(exc)
    # Drawn weights go straight into the problem `sweep_tilting` sweeps:
    # score-derived odds never reach the subnormal or ~1e300 range.
    if not isinstance(expected, list):
        # Sums that overflow give NaN endpoints; both paths must refuse
        # them with the same error.
        with pytest.raises(expected):
            TiltingProblem(y, w, treated_mean).sweep(deltas)
        return
    try:
        sweep = TiltingProblem(y, w, treated_mean).sweep(deltas)
    except NumericalError:
        sweep = None
    # Each sweep interval is the per-delta interval, widened only by the
    # outward snap to the hull of the intervals before it (the true sets
    # nest; float evaluation may miss by an ulp). The sweep may refuse the
    # grid only where the per-delta intervals really fail to nest, as
    # all-subnormal weights can make them.
    lo, hi = math.inf, -math.inf
    nested = True
    for i, want in enumerate(expected):
        nested = nested and want.lo <= lo and hi <= want.hi
        lo, hi = min(lo, want.lo), max(hi, want.hi)
        if sweep is not None:
            assert sweep.intervals[i].lo == lo and sweep.intervals[i].hi == hi
    if sweep is None:
        assert not nested
    else:
        assert sweep.deltas == tuple(deltas)


def _assert_sweep_is_per_delta(y, w, treated_mean, deltas) -> TiltingProblem:
    """The sweep's intervals are the per-delta intervals up to the outward
    nesting snap, bit for bit, and its ledger counts the per-delta sums;
    returns the problem swept."""
    single = TiltingProblem(y, w, treated_mean)
    expected, single_work = counted(lambda: [single.interval(d) for d in deltas])
    problem = TiltingProblem(y, w, treated_mean)
    sweep, sweep_work = counted(problem.sweep, deltas)
    lo, hi = math.inf, -math.inf
    for want, got in zip(expected, sweep.intervals, strict=True):
        lo, hi = min(lo, want.lo), max(hi, want.hi)
        assert (got.lo, got.hi) == (lo, hi)
    assert sweep_work == single_work
    return problem


def _array_path_controls(seed, n, tied, zero_weight=1.0):
    # Earnings-like controls with a zero mass point, either on a coarse
    # lattice (heavy ties) or continuous, with odds-like weights; the zeros'
    # weights are scaled by `zero_weight`.
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 150, n) * 100.0 if tied else rng.lognormal(8.0, 1.0, n)
    y = np.where(rng.random(n) < 0.3, 0.0, y)
    w = rng.lognormal(0.0, 1.0, n)
    return y, np.where(y == 0.0, zero_weight * w, w)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 800),
    tied=st.booleans(),
    # Heavy zeros can put the untilted mean below every positive outcome, so
    # the raising side's centring starts at its first split point and must
    # move on from there.
    zero_weight=st.sampled_from([1.0, 100.0]),
    # Delta 0 scans every split point; deltas below about 1e-8 leave the
    # ratios flat to rounding, so the iteration stops on a ratio that fails
    # to rise; deltas past the exp cap tilt little but the top outcomes.
    deltas=st.lists(st.one_of(st.just(0.0), st.floats(1e-13, 1e-7), st.floats(0, 5),
                              st.floats(500, 1000)),
                    min_size=1, max_size=20, unique=True).map(sorted),
    treated_mean=st.floats(-1e4, 1e4),
)
def test_array_sweep_equals_per_delta_bounds_exactly(seed, n, tied, zero_weight, deltas,
                                                     treated_mean):
    y, w = _array_path_controls(seed, n, tied, zero_weight)
    _assert_sweep_is_per_delta(y, w, treated_mean, deltas)


def test_sweep_tilting_sorts_controls_once(monkeypatch):
    # Data seed 51: the minimax decision flips between grid deltas 2.25 and
    # 2.5, so the fragility bisects, each step on the sweep's problem.
    data = synthetic_observational(seed=51, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    grid = [0.25 * i for i in range(25)]
    sorts = record_float_sorts(monkeypatch)
    sweep = sweep_tilting(data, model, grid)
    assert sweep_tilting(data, model, grid).intervals == sweep.intervals
    y, w, treated_mean = control_tilt_inputs(data, model)
    steps = []

    def interval_at(delta):
        steps.append(delta)
        return curvature_bounds(y, w, treated_mean, delta)

    assert fragility_index(sweep, interval_at=interval_at) < math.inf
    assert len(steps) > 1
    # One stable sort of the Dataset's 150 controls serves all of it.
    assert sorts == [("argsort", 150)]


@pytest.mark.parametrize("rows", ["subset", "take_with_fresh_ids"])
def test_a_new_row_set_sorts_its_own_controls(monkeypatch, rows):
    data = synthetic_observational(seed=43, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    control_tilt_inputs(data, model)  # caches data's order
    picked = np.arange(len(data)) % 3 != 0
    part = data.subset(picked) if rows == "subset" else data.take_with_fresh_ids(
        np.concatenate([np.flatnonzero(picked), np.flatnonzero(picked)[::2]]))
    sorts = record_float_sorts(monkeypatch)
    y, _, _ = control_tilt_inputs(part, model)
    assert sorts == [("argsort", part.n_control)]
    controls = part.outcome[~part.treated]
    assert np.array_equal(y, controls[np.argsort(controls, kind="stable")])


def _bits(values):
    """The bits of a float array, with -0.0 read as 0.0."""
    return (np.asarray(values, dtype=float) + 0.0).view(np.int64)


# Heavy ties around a zero mass point, or outcomes of any sign.
_tied_outcomes = st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, 2.5, -3.0])
_ordering_controls = st.one_of(
    st.lists(st.tuples(_tied_outcomes, _tilt_weights), min_size=1, max_size=40),
    st.lists(st.tuples(st.one_of(_tied_outcomes, st.floats(-1e4, 1e4)), _tilt_weights),
             min_size=1, max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(controls=_ordering_controls, treated_mean=st.floats(-1e4, 1e4))
def test_stable_outcome_order_builds_the_same_problem(controls, treated_mean):
    """Rows in stable outcome order (ordered, no sort) build the problem
    that the rows in their drawn order (sorted by the constructor) build,
    bit for bit; the sign of a zero is not compared."""
    y = np.array([c[0] for c in controls])
    w = np.array([c[1] for c in controls])
    order = np.argsort(y, kind="stable")
    drawn = TiltingProblem(y, w, treated_mean)
    ordered = TiltingProblem(y[order], w[order], treated_mean)
    for name in ("_ys", "_w", "_wy"):
        assert np.array_equal(_bits(getattr(drawn, name)), _bits(getattr(ordered, name)))
    for delta in (0.0, 1e-12, 0.5, 3.0, 40.0, math.inf):
        a, b = drawn.interval(delta), ordered.interval(delta)
        assert np.array_equal(_bits([a.lo, a.hi]), _bits([b.lo, b.hi]))


@settings(max_examples=150, deadline=None)
@given(units=st.lists(st.tuples(st.booleans(), st.sampled_from([0.0, 0.0, 1.0, 2.5, -3.0]),
                                st.floats(-3.0, 3.0)), min_size=2, max_size=60),
       slope=st.floats(-2.0, 2.0))
def test_control_tilt_inputs_are_the_controls_in_stable_outcome_order(units, slope):
    treated = np.array([u[0] for u in units])
    assume(treated.any() and not treated.all())
    outcome = np.array([u[1] for u in units])
    x = np.array([[u[2]] for u in units])
    data = make_dataset(treated, outcome, x)
    model = _hand_model(0.1, [slope])
    y, w, treated_mean = control_tilt_inputs(data, model)
    # The boolean-mask version: every control in row order, then a stable sort.
    scores = score_dataset(model, data)[~treated]
    mask_y, mask_w = outcome[~treated], scores / (1.0 - scores)
    order = np.argsort(mask_y, kind="stable")
    assert np.array_equal(y.view(np.int64), mask_y[order].view(np.int64))
    assert np.array_equal(w.view(np.int64), mask_w[order].view(np.int64))
    assert treated_mean == float(np.mean(outcome[treated]))


@pytest.mark.parametrize("treated_mean", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bounds", [
    lambda y, w, m: TiltingProblem(y, w, m),
    lambda y, w, m: curvature_bounds(y, w, m, 1.0),
    lambda y, w, m: oracle_curvature_bounds(y, w, m, 1.0),
], ids=["TiltingProblem", "curvature_bounds", "oracle_curvature_bounds"])
def test_tilting_rejects_a_non_finite_treated_mean(bounds, treated_mean):
    with pytest.raises(ValidationError, match="treated_mean must be finite"):
        bounds([1.0, 2.0], [1.0, 1.0], treated_mean)


def _full_scan(problem, delta):
    """The bounds from every split point, by the expressions of the scan that
    `TiltingProblem.interval` replaces, over the problem's own prefix sums."""
    e = math.exp(min(delta, identification._MAX_EXP))
    pw, pwy = problem._w[0], problem._wy[0]
    sw, swy = pw[-1] - pw, pwy[-1] - pwy
    mu_max = float(np.max((pwy[1:] + e * swy[1:]) / (pw[1:] + e * sw[1:])))
    mu_min = float(np.min((e * pwy[:-1] + swy[:-1]) / (e * pw[:-1] + sw[:-1])))
    return problem.treated_mean - mu_max, problem.treated_mean - mu_min


@st.composite
def _tilt_samples(draw):
    """(outcomes, weights, delta) of up to 1,500 controls, drawn from a seed.

    Outcomes are continuous of both signs, a few tied values with a zero mass
    point, one value, or a plateau: a lightly weighted block of consecutive
    floats on one side of the upper bound's optimum, between a block in
    [0, 1] and a lighter one in [1000, 1001]. The ratio is then flat across
    the plateau but for rounding noise, which the outcomes' spread makes
    larger than an ulp of the optimum, so the scan's largest float may lie
    anywhere on it. Weights are lognormal, partly subnormal, or near 1e300.
    """
    delta = draw(st.one_of(st.sampled_from([0.0, 1e-12, 40.0, math.inf]),
                           st.floats(0.0, 5.0)))
    kind = draw(st.sampled_from(["continuous", "ties", "single", "plateau"]))
    n = draw(st.integers(300, 1500) if kind == "plateau" else st.integers(1, 1500))
    scale = draw(st.sampled_from(["lognormal", "subnormal", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    below, above = n // 3, n - n // 3  # the plateau's entries
    w = rng.lognormal(0.0, 1.0, n)
    if kind == "plateau":
        w[below:above] *= 1e-3
        w[above:] *= 1e-2
    if scale == "subnormal":
        w[rng.random(n) < 0.5] = rng.choice([5e-324, 1e-310, 2.5e-308])
    elif scale == "huge":
        w *= 1e299
    if kind == "continuous":
        y = rng.normal(0.0, 1e3, n)
    elif kind == "ties":
        y = rng.choice([-2.5, 0.0, 0.0, 0.0, 1.0, 7.0], n)
    elif kind == "single":
        y = np.full(n, rng.normal())
    else:
        y = np.concatenate([rng.uniform(0.0, 1.0, below), np.zeros(above - below),
                            rng.uniform(1000.0, 1001.0, n - above)])
        # The upper bound's optimum over the outer blocks: every entry above
        # it tilted.
        e = math.exp(min(delta, identification._MAX_EXP))
        unit = w / w.max()
        optimum = ((unit[:below] @ y[:below] + e * (unit[above:] @ y[above:]))
                   / (unit[:below].sum() + e * unit[above:].sum()))
        side = draw(st.sampled_from([-1.0, 1.0]))
        y[below:above] = optimum + side * np.arange(1, above - below + 1) * np.spacing(optimum)
    return y, w, delta


@settings(max_examples=600, deadline=None)
@given(sample=_tilt_samples(), treated_mean=st.floats(-1e4, 1e4))
def test_interval_agrees_with_full_scan(sample, treated_mean):
    # Off delta 0 the bounds are the scan's to within the rounding of a
    # flat optimum: at worst about 1.2e-13 max|y|, on the plateau, over 12,000
    # random samples of this kind. Delta 0 scans every split point itself.
    y, w, delta = sample
    problem = TiltingProblem(y, w, treated_mean)
    interval = problem.interval(delta)
    scan = _full_scan(problem, delta)
    if delta == 0.0:
        assert (interval.lo, interval.hi) == scan
    else:
        assert (interval.lo, interval.hi) == pytest.approx(scan, rel=0, abs=1e-12 * np.abs(y).max())


def test_interval_evaluates_few_split_points_except_at_delta_zero():
    rng = np.random.default_rng(17)
    n = 100_000
    problem, build = counted(TiltingProblem, rng.lognormal(9.0, 1.0, n),
                             rng.lognormal(0.0, 1.0, n), 0.0)
    m = problem.distinct_outcomes
    assert m == n  # continuous outcomes: no ties
    # Every exact ratio is equal at delta 0, so every split point is
    # scanned, in one pass of m + 1 ratios that serves both sides. The
    # construction makes that pass, once.
    assert build["tilt_split_points_evaluated"] == m + 1
    for delta in (1e-12, 0.05, 0.5, 3.0, 20.0, 700.0, math.inf):
        _, work = counted(problem.interval, delta)
        # Both sides together.
        assert work["tilt_split_points_evaluated"] < 100, delta
    _, work = counted(problem.interval, 0.0)
    assert work["tilt_split_points_evaluated"] == 0


@pytest.mark.parametrize("kind", ["continuous", "cauchy", "plateau"])
def test_interval_terminates_at_large_deltas(kind):
    # Near the top outcomes the ratios are flat to rounding at large delta,
    # and an iteration without the stop on a ratio that fails to rise cycles
    # there until the step cap.
    rng = np.random.default_rng(23)
    n = 3000
    w = rng.lognormal(0.0, 1.0, n)
    if kind == "continuous":
        y = rng.normal(0.0, 1e3, n)
    elif kind == "cauchy":
        y = rng.standard_cauchy(n) * 1e3
    else:
        # A lightly weighted block of consecutive floats just above 1000,
        # between blocks in [0, 1] and [2000, 2001].
        y = np.concatenate([rng.uniform(0.0, 1.0, n // 3),
                            1000.0 + np.arange(n // 3) * np.spacing(1000.0),
                            rng.uniform(2000.0, 2001.0, n - 2 * (n // 3))])
        w[n // 3:2 * (n // 3)] *= 1e-3
    problem = TiltingProblem(y, w, 0.0)
    # What one side evaluates when its iteration runs to the step cap.
    capped = identification._CENTRE_STEPS + 2 * identification._NEIGHBOURS + 1
    for delta in (50.0, 500.0, 1000.0, math.inf):
        e_delta = math.exp(min(delta, identification._MAX_EXP))
        for side in (0, 1):
            _, work = counted(problem._extreme, side, e_delta)
            assert work["tilt_split_points_evaluated"] < capped, (delta, side)
        interval = problem.interval(delta)
        assert (interval.lo, interval.hi) == pytest.approx(
            _full_scan(problem, delta), rel=0, abs=1e-12 * np.abs(y).max())


def test_queries_leave_the_problem_unchanged():
    # A cached problem is shared by every sweep and bisection on its
    # (Dataset, model) pair, so a query must not change it.
    rng = np.random.default_rng(29)
    y = np.round(rng.lognormal(8.0, 1.0, 2000), -2)  # ties collapse
    problem = TiltingProblem(y, rng.lognormal(0.0, 1.0, 2000), 5000.0)
    before = pickle.dumps(vars(problem))
    problem.sweep([0.0, 0.5, 2.0, math.inf])
    for delta in (0.0, 0.25, 3.0, math.inf):
        problem.interval(delta)
    assert pickle.dumps(vars(problem)) == before


@pytest.mark.parametrize("scale", [2.0 ** 990, 2.0 ** -1060], ids=["2^990", "2^-1060"])
def test_tilt_bounds_exact_at_extreme_weight_scales(scale):
    # Integer weights stay exact when scaled into the ~1e298 or the
    # subnormal range, so the bounds must equal the unit-scale ones exactly,
    # even where e^delta times the raw sums would overflow.
    y = np.array([0.0, 0.0, 1200.5, 3400.25, 9000.0, 15000.0])
    w = np.array([1.0, 3.0, 2.0, 7.0, 1.0, 5.0])
    for delta in (0.0, 1.0, 30.0, 500.0):
        assert (curvature_bounds(y, w * scale, 10.0, delta)
                == curvature_bounds(y, w, 10.0, delta))


def test_sweep_tilting_subnormal_weights():
    y, w = np.array([2.0, 3.0]), np.array([5e-324, 5e-324])
    sweep = TiltingProblem(y, w, 0.0).sweep([1.0, 2.0])
    for delta, interval in zip((1.0, 2.0), sweep.intervals):
        assert interval == curvature_bounds(y, [1.0, 1.0], 0.0, delta)


def test_tilting_problem_rejects_bad_delta():
    problem = TiltingProblem([1.0, 2.0], [1.0, 1.0], 0.0)
    for delta in (-0.1, math.nan):
        with pytest.raises(DomainError):
            problem.interval(delta)


@pytest.mark.parametrize("y, w", [
    ([], []),
    ([1.0], [0.0]),
    ([1.0, 2.0], [1.0, -1.0]),
    ([1.0, math.nan], [1.0, 1.0]),
    ([1.0, math.inf], [1.0, 1.0]),
    ([1.0], [math.inf]),
])
def test_tilting_problem_rejects_bad_inputs(y, w):
    with pytest.raises(ValidationError):
        TiltingProblem(y, w, 0.0)


def test_sweep_tilting_delta_zero_matches_ipw_point():
    data = synthetic_observational(seed=37, n_treated=40, n_control=160)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    sweep = sweep_tilting(data, model, [0.0])
    ipw = att_ipw(data, model)
    assert sweep.intervals[0].lo == pytest.approx(ipw.tau_hat, abs=1e-9)
    assert sweep.intervals[0].width <= 1e-9


def test_sweep_tilting_near_naive_on_randomized_toy():
    rng = np.random.default_rng(41)
    n = 2000
    x = rng.normal(size=(n, 1))
    treated = rng.random(n) < 0.5  # randomized: scores ~ constant
    y = rng.normal(size=n) + treated * 0.3
    data = make_dataset(treated, y, x)
    model = fit_logistic(data, ["x0"])
    sweep = sweep_tilting(data, model, [0.0])
    naive = naive_diff(data).tau_hat
    assert sweep.intervals[0].lo == pytest.approx(naive, abs=0.05)


def test_sweep_tilting_nested_and_massi():
    data = synthetic_observational(seed=43, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    deltas = (0.0, 0.1, 0.5, 1.0, 2.0)
    sweep = sweep_tilting(data, model, deltas)
    for prev, cur in zip(sweep.intervals, sweep.intervals[1:]):
        assert cur.lo <= prev.lo and prev.hi <= cur.hi
    excluded = [d for d, iv in zip(sweep.deltas, sweep.intervals)
                if not iv.contains(0.0)]
    assert sweep.massi == (excluded[0] if excluded else math.inf)


def test_massi_refinement_is_nonincreasing():
    data = synthetic_observational(seed=47, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    coarse = sweep_tilting(data, model, (0.0, 1.0))
    fine = sweep_tilting(data, model, (0.0, 0.25, 0.5, 1.0))
    assert fine.massi <= coarse.massi


def test_curvature_sweep_validation():
    with pytest.raises(ValidationError):
        CurvatureSweep(deltas=(0.0, 0.0), intervals=(Interval(0, 1), Interval(0, 1)),
                       massi=math.inf, method_tag="tilting")
    with pytest.raises(ValidationError):
        sweep_tilting(
            synthetic_observational(seed=1, n_treated=10, n_control=30),
            _hand_model(0.0, [0.0] * 8),
            [],
        )


def test_default_delta_to_trim_mapping():
    assert default_delta_to_trim(0.0) == TrimRule(0.0, 1.0)
    rule = default_delta_to_trim(1.5)
    assert rule.low == pytest.approx(0.15)
    assert rule.high == pytest.approx(0.85)
    wide = default_delta_to_trim(50.0)  # clipped short of degenerate
    assert wide.low < 0.5 < wide.high


def test_sweep_trimming_proxy_hand_rules():
    data = synthetic_observational(seed=53, n_treated=60, n_control=240)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    from attdiag.estimators import att_match

    sweep = sweep_trimming_proxy(data, model, (0.0, 1.0))
    # delta=0: full sample, zero half-width
    scores = score_dataset(model, data)
    full = att_match(data, scores, MatchSpec())
    assert sweep.intervals[0].lo == pytest.approx(full.tau_hat)
    assert sweep.intervals[0].width == 0.0
    # delta=1: trimmed to [0.1, 0.9], half-width = matching SE there
    from attdiag.propensity import trim

    trimmed = trim(data, scores, TrimRule(0.1, 0.9))
    est = att_match(trimmed, score_dataset(model, trimmed), MatchSpec())
    assert sweep.intervals[1].lo == pytest.approx(est.tau_hat - est.se)
    assert sweep.intervals[1].hi == pytest.approx(est.tau_hat + est.se)
    assert sweep.method_tag == "trimming_proxy"


def test_sweep_trimming_proxy_records_missing_points():
    # Every score is logistic(-4.955), about 0.007: delta 0's band [0, 1]
    # keeps every unit, the bands [0.1, 0.9] and [0.2, 0.8] of deltas 1 and
    # 2 keep none.
    data = make_dataset([True, True, False, False, False], [3.0, 5.0, 1.0, 2.0, 4.0])
    model = _hand_model(-4.955, [0.0])
    sweep = sweep_trimming_proxy(data, model, (0.0, 1.0, 2.0))
    assert sweep.missing_deltas == (1.0, 2.0)
    assert sweep.deltas == (0.0,)
    # Equal scores tie every control; the lowest id (outcome 1.0) matches.
    assert sweep.intervals == (Interval(3.0, 3.0),)


def test_sweep_trimming_proxy_scores_data_once_and_each_kept_sample_once(monkeypatch):
    calls = []
    real_score = identification.score_dataset

    def counting_score(model, data):
        calls.append(len(data))
        return real_score(model, data)

    monkeypatch.setattr(identification, "score_dataset", counting_score)
    # The data of the missing-points case: only delta 0's trim keeps units.
    data = make_dataset([True, True, False, False, False], [3.0, 5.0, 1.0, 2.0, 4.0])
    sweep_trimming_proxy(data, _hand_model(-4.955, [0.0]), (0.0, 1.0, 2.0))
    assert calls == [5, 5]
    calls.clear()
    data = synthetic_observational(seed=53, n_treated=60, n_control=240)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    sweep = sweep_trimming_proxy(data, model, (0.0, 0.5, 1.0, 1.5))
    assert not sweep.missing_deltas
    assert len(calls) == 1 + 4 and calls[:2] == [300, 300]


def _count_full_scorings(monkeypatch, data):
    """Calls list that grows by one each time `data` itself is scored, by
    identification or by estimators."""
    calls = []

    def counting_score(model, scored):
        if scored is data:
            calls.append(model)
        return score_dataset(model, scored)

    for module in (identification, estimators):
        monkeypatch.setattr(module, "score_dataset", counting_score)
    return calls


def test_one_dataset_and_model_are_scored_once(monkeypatch):
    data = synthetic_observational(seed=61, n_treated=60, n_control=240)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    calls = _count_full_scorings(monkeypatch, data)
    grid = (0.0, 0.5, 1.0)
    sweep = sweep_tilting(data, model, grid)
    inputs = control_tilt_inputs(data, model)
    ipw = att_ipw(data, model)
    sweep_trimming_proxy(data, model, grid)
    assert sweep_tilting(data, model, grid) == sweep
    assert control_tilt_inputs(data, model) is inputs
    assert att_ipw(data, model) == ipw
    assert calls == [model]


def test_an_equal_model_is_scored_afresh_with_the_same_values(monkeypatch):
    data = synthetic_observational(seed=61, n_treated=60, n_control=240)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    y, w, treated_mean = control_tilt_inputs(data, model)
    ipw = att_ipw(data, model)
    grid = (0.0, 0.5, 1.0)
    sweep = sweep_tilting(data, model, grid)
    restored = PropensityModel.from_json(model.to_json())
    assert np.array_equal(restored.coefficients, model.coefficients)
    assert restored != model
    calls = _count_full_scorings(monkeypatch, data)
    y2, w2, treated_mean2 = control_tilt_inputs(data, restored)
    assert calls == [restored]
    assert np.array_equal(_bits(y2), _bits(y)) and np.array_equal(_bits(w2), _bits(w))
    assert treated_mean2 == treated_mean
    assert att_ipw(data, restored) == ipw
    assert sweep_tilting(data, restored, grid) == sweep
    assert calls == [restored]


def test_cached_scores_and_tilt_inputs_reject_writes():
    data = synthetic_observational(seed=61, n_treated=60, n_control=240)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    y, w, _ = control_tilt_inputs(data, model)
    scores = data.cached(model, "scores", lambda *_: pytest.fail("scores not cached"))
    assert scores.shape == (len(data),)
    for cached in (scores, y, w):
        with pytest.raises(ValueError):
            cached[0] = 0.5


def test_repeated_sweeps_on_the_cached_problem_equal_a_fresh_problem():
    data = synthetic_observational(seed=51, n_treated=50, n_control=150)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    grids = ([0.0, 0.5, 1.0, 2.0], [0.25 * i for i in range(25)], [0.0, 0.5, 1.0, 2.0],
             [0.1, 3.0, 40.0])
    for grid in grids:
        cached = sweep_tilting(data, model, grid)
        fresh = TiltingProblem(*control_tilt_inputs(data, model)).sweep(grid)
        assert cached.deltas == fresh.deltas and cached.massi == fresh.massi
        for a, b in zip(cached.intervals, fresh.intervals):
            assert np.array_equal(_bits([a.lo, a.hi]), _bits([b.lo, b.hi]))


# Every delta of the benchmark's query lattice.
_LATTICE = [round(0.05 * i, 2) for i in range(61)]


def _zero_treated_mean_pair():
    """A (Dataset, model) pair whose treated outcomes are all 0, so its
    treated mean is 0.0 and -0.0 equals it."""
    base = synthetic_observational(seed=51, n_treated=50, n_control=150)
    data = Dataset(base.treated, np.where(base.treated, 0.0, base.outcome),
                   base.covariates, schema=base.schema)
    return data, fit_logistic(base, ["age", "education", "re74", "re75"])


def test_curvature_bounds_on_a_pairs_inputs_reuses_its_problem():
    data, model = _zero_treated_mean_pair()
    tilting_problem(data, model)
    y, w, treated_mean = control_tilt_inputs(data, model)
    fresh = TiltingProblem(y, w, treated_mean)
    for delta in _LATTICE + [40.0, math.inf]:
        interval, work = counted(curvature_bounds, y, w, treated_mean, delta)
        assert work["tilt_problems_built"] == 0, delta
        expected = fresh.interval(delta)
        assert np.array_equal(_bits([interval.lo, interval.hi]),
                              _bits([expected.lo, expected.hi])), delta


@pytest.mark.parametrize("change", ["copy_y", "copy_w", "writable", "equal_mean",
                                    "negative_zero_mean"])
def test_curvature_bounds_on_other_inputs_builds_a_problem(change):
    data, model = _zero_treated_mean_pair()
    tilting_problem(data, model)
    y, w, treated_mean = control_tilt_inputs(data, model)
    assert treated_mean == 0.0
    inputs = {
        "copy_y": (y.copy(), w, treated_mean),
        "copy_w": (y, w.copy(), treated_mean),
        # The writable arrays the read-only cached views were made from.
        "writable": (y.base, w.base, treated_mean),
        "equal_mean": (y, w, float(repr(treated_mean))),
        "negative_zero_mean": (y, w, -0.0),
    }[change]
    assert inputs[2] == treated_mean
    assert y.base.flags.writeable and w.base.flags.writeable
    for delta in (0.0, 0.5, 2.0):
        interval, work = counted(curvature_bounds, *inputs, delta)
        assert work["tilt_problems_built"] == 1, delta
        assert interval == TiltingProblem(*inputs).interval(delta)


def test_a_dropped_problem_leaves_the_registry():
    data, model = _zero_treated_mean_pair()
    gc.collect()  # so that only this test's work changes the entries
    entries = len(identification._PROBLEMS)
    y, _, _ = control_tilt_inputs(data, model)
    tilting_problem(data, model)
    assert identification._PROBLEMS[id(y)] is tilting_problem(data, model)
    data.uncache("tilting_problem", "tilt_inputs")
    gc.collect()
    assert id(y) not in identification._PROBLEMS
    assert len(identification._PROBLEMS) == entries


def test_fixed_radius_sets():
    sets = fixed_radius_sets([0.1], 0.3)
    assert sets[0].lo == pytest.approx(-0.2)
    assert sets[0].hi == pytest.approx(0.4)
    assert sets[0].contains(0.0)
    singletons = fixed_radius_sets([0.5, -0.5], 0.0)
    assert all(s.width == 0.0 for s in singletons)
    with pytest.raises(DomainError):
        fixed_radius_sets([0.0], -0.1)


def test_massi_from_intervals_cases():
    ivs = [Interval(-1, 1), Interval(-2, 2)]
    assert massi_from_intervals([0.0, 1.0], ivs) == math.inf
    ivs2 = [Interval(0.2, 0.4), Interval(-1, 1)]
    assert massi_from_intervals([0.0, 1.0], ivs2) == 0.0
