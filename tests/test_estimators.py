import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attdiag import estimators
from attdiag.errors import AttDiagError, EstimationError, NumericalError, ValidationError
from attdiag.estimators import (
    MatchSpec,
    att_ipw,
    att_match,
    default_design_suite,
    design_sensitivity,
    estimates_to_csv_rows,
    naive_diff,
)
from attdiag.ingest import Dataset
from attdiag.propensity import PropensityModel, fit_logistic, score_dataset
from conftest import make_dataset, simulated_selection, synthetic_observational


def _hand_model(intercept, slopes):
    return PropensityModel(
        coefficients=np.array([intercept, *slopes], dtype=float),
        covariate_columns=tuple(f"x{i}" for i in range(len(slopes))),
        converged=True, iterations=0, ridge=0.0, grad_max_norm=0.0,
    )

ZERO_MODEL = _hand_model(0.0, [0.0])


def test_naive_diff_equal_means_is_zero():
    data = make_dataset([True, False], [5.0, 5.0])
    assert naive_diff(data).tau_hat == 0.0


def test_naive_diff_hand_arithmetic():
    data = make_dataset([True, True, False, False], [2.0, 4.0, 1.0, 3.0])
    est = naive_diff(data)
    assert est.tau_hat == 1.0
    assert est.se == pytest.approx(math.sqrt(2.0 / 2 + 2.0 / 2))


def test_naive_diff_is_the_arm_contrast_with_a_one_unit_arm():
    # The one-unit treated arm adds no variance term: se = sqrt(var(1, 3) / 2).
    data = make_dataset([True, False, False], [5.0, 1.0, 3.0])
    est = naive_diff(data)
    assert (est.tau_hat, est.se) == estimators._arm_contrast(
        np.array([5.0]), np.array([1.0, 3.0])) == (3.0, 1.0)


def test_naive_diff_arm_swap_antisymmetry():
    rng = np.random.default_rng(3)
    data = make_dataset(rng.random(30) < 0.5, rng.normal(size=30))
    data.require_both_arms("test")
    flipped = Dataset(~data.treated, data.outcome, data.covariates)
    assert naive_diff(flipped).tau_hat == pytest.approx(-naive_diff(data).tau_hat)


def test_ipw_constant_score_equals_naive():
    rng = np.random.default_rng(8)
    data = make_dataset(rng.random(40) < 0.5, rng.normal(size=40),
                        np.zeros((40, 1)) + 0.7)
    # zero slope => score 0.5 everywhere
    est = att_ipw(data, _hand_model(0.0, [0.0]))
    assert est.tau_hat == pytest.approx(naive_diff(data).tau_hat, abs=1e-12)


def test_ipw_hand_weighted_mean():
    # controls with scores 0.8 and 0.2 -> odds weights 4 and 0.25
    x = np.array([[0.0], [0.0], [math.log(4)], [math.log(0.25)]])
    data = make_dataset([True, True, False, False], [10.0, 20.0, 3.0, 7.0], x)
    est = att_ipw(data, _hand_model(0.0, [1.0]))
    expected_mu0 = (4 * 3.0 + 0.25 * 7.0) / 4.25
    assert est.tau_hat == pytest.approx(15.0 - expected_mu0, abs=1e-9)


def test_ipw_matches_naive_on_randomized_data():
    from attdiag.simulation import SimConfig

    selected = simulated_selection(SimConfig(seed=123, n=30_000), 0.0, seed=9)
    # constant scores: IPW collapses to the naive contrast
    model = PropensityModel(np.array([0.0]), (), True, 0, 0.0, 0.0)
    data = Dataset(selected.treated, selected.outcome,
                   np.zeros((len(selected), 0)))
    est_naive = naive_diff(data)
    # scoreless model cannot run att_ipw without covariates; emulate with a
    # constant single covariate instead
    data1 = Dataset(selected.treated, selected.outcome, covariates=np.zeros((len(selected), 1)))
    est_ipw = att_ipw(data1, _hand_model(0.3, [0.0]))
    assert est_ipw.tau_hat == pytest.approx(est_naive.tau_hat, abs=1e-10)


def test_match_identical_arms_zero_effect():
    covs = np.array([[1.0], [2.0], [1.0], [2.0]])
    data = make_dataset([True, True, False, False], [5.0, 8.0, 5.0, 8.0], covs)
    est = att_match(data, score_dataset(_hand_model(0.0, [1.0]), data), MatchSpec())
    assert est.tau_hat == 0.0
    assert est.n_treated_used == 2 and est.n_dropped == 0


def test_match_hand_enumerated_line():
    # controls at x = 0, 1, 4, 6, 9; treated at 2, 5, 8 (logit scale = x)
    xs = [2.0, 5.0, 8.0, 0.0, 1.0, 4.0, 6.0, 9.0]
    treated = [True, True, True, False, False, False, False, False]
    ys = [10.0, 20.0, 30.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    data = make_dataset(treated, ys, [[v] for v in xs])
    est = att_match(data, score_dataset(_hand_model(0.0, [1.0]), data), MatchSpec())
    # nearest controls: 2->1 (y=2), 5->4 (y=3), 8->9 (y=5)
    expected = np.mean([10 - 2.0, 20 - 3.0, 30 - 5.0])
    assert est.tau_hat == pytest.approx(expected, abs=1e-9)


def test_match_tie_breaks_to_lowest_control_id():
    # two controls exactly equidistant from the treated unit (whitening
    # rescales both gaps by the same factor, so the tie is exact)
    xs = [1.0, 0.0, 2.0, 4.0]
    data = make_dataset([True, False, False, False], [10.0, 3.0, 7.0, 9.0],
                        [[v] for v in xs])
    est = att_match(data, None, MatchSpec(metric="mahalanobis"))
    assert est.tau_hat == pytest.approx(10.0 - 3.0)  # id 1 beats id 2


def test_match_caliper_drops_and_counts():
    xs = [0.0, 50.0, 0.1, 1.0]
    data = make_dataset([True, True, False, False], [10.0, 99.0, 1.0, 2.0],
                        [[v] for v in xs])
    spec = MatchSpec(caliper=5.0)
    est = att_match(data, score_dataset(_hand_model(0.0, [1.0]), data), spec)
    assert est.n_treated_used == 1
    assert est.n_dropped == 1
    assert est.tau_hat == pytest.approx(10.0 - 1.0)


def test_match_infinite_caliper_equals_none():
    data = synthetic_observational(seed=5, n_treated=40, n_control=160)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    scores = score_dataset(model, data)
    a = att_match(data, scores, MatchSpec(caliper=None))
    b = att_match(data, scores, MatchSpec(caliper=math.inf))
    assert a.tau_hat == b.tau_hat and a.se == b.se


def test_match_all_dropped_raises():
    xs = [0.0, 100.0]
    data = make_dataset([True, False], [1.0, 2.0], [[v] for v in xs])
    with pytest.raises(EstimationError):
        att_match(data, score_dataset(_hand_model(0.0, [1.0]), data), MatchSpec(caliper=1.0))


def test_match_without_replacement_greedy():
    # treated ids 0,1 at x=0.0,0.2; single nearest control must be consumed
    xs = [0.0, 0.2, 0.1, 5.0]
    data = make_dataset([True, True, False, False], [10.0, 20.0, 1.0, 2.0],
                        [[v] for v in xs])
    est = att_match(data, score_dataset(_hand_model(0.0, [1.0]), data),
                    MatchSpec(with_replacement=False))
    # unit 0 takes control id 2 (x=0.1); unit 1 must take id 3 (x=5.0)
    assert est.tau_hat == pytest.approx(np.mean([10 - 1.0, 20 - 2.0]))


def test_match_k_neighbors_average():
    xs = [0.0, -1.0, 1.0, 10.0]
    data = make_dataset([True, False, False, False], [10.0, 2.0, 4.0, 99.0],
                        [[v] for v in xs])
    est = att_match(data, score_dataset(_hand_model(0.0, [1.0]), data), MatchSpec(n_neighbors=2))
    assert est.tau_hat == pytest.approx(10.0 - 3.0)


def test_match_mahalanobis_and_singular_covariance():
    data = synthetic_observational(seed=13, n_treated=30, n_control=120)
    est = att_match(data, None, MatchSpec(metric="mahalanobis"))
    assert np.isfinite(est.tau_hat)
    dup = Dataset(
        data.treated, data.outcome,
        np.column_stack([data.covariates[:, 0], data.covariates[:, 0]]),
    )
    with pytest.raises(NumericalError, match="singular"):
        att_match(dup, None, MatchSpec(metric="mahalanobis"))
    bare = Dataset(data.treated, data.outcome)
    with pytest.raises(ValidationError, match="mahalanobis matching needs covariates"):
        att_match(bare, None, MatchSpec(metric="mahalanobis"))


@pytest.mark.parametrize("shift,scale", [(1000.0, 1.0), (0.0, 3.5), (-250.0, 2.0)])
def test_location_scale_equivariance(shift, scale):
    data = synthetic_observational(seed=17, n_treated=40, n_control=160)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    moved = Dataset(data.treated, scale * data.outcome + shift, data.covariates,
                    schema=data.schema)
    for est_fn in (
        lambda d: naive_diff(d),
        lambda d: att_ipw(d, model),
        lambda d: att_match(d, score_dataset(model, d), MatchSpec()),
    ):
        base = est_fn(data)
        moved_est = est_fn(moved)
        assert moved_est.tau_hat == pytest.approx(scale * base.tau_hat, rel=1e-12, abs=1e-9)
        assert moved_est.se == pytest.approx(abs(scale) * base.se, rel=1e-12, abs=1e-9)


def test_estimators_deterministic():
    data = synthetic_observational(seed=19, n_treated=35, n_control=140)
    model = fit_logistic(data, ["age", "re74", "re75"])
    spec = MatchSpec()
    scores = score_dataset(model, data)
    assert att_match(data, scores, spec).tau_hat == att_match(data, scores, spec).tau_hat
    assert att_ipw(data, model).tau_hat == att_ipw(data, model).tau_hat


def test_ipw_estimate_is_computed_once_per_dataset_and_model():
    data = synthetic_observational(seed=19, n_treated=35, n_control=140)
    model = fit_logistic(data, ["age", "re74", "re75"])
    est = att_ipw(data, model)
    assert att_ipw(data, model) is est
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.tau_hat = 0.0
    # A new model gets its own estimate, the uncached formula's values.
    other = fit_logistic(data, ["age", "education"])
    fresh = att_ipw(data, other)
    scores = score_dataset(other, data)[~data.treated]
    w = scores / (1.0 - scores)
    yt, yc = data.outcome[data.treated], data.outcome[~data.treated]
    mu0 = float(np.dot(w, yc) / float(np.sum(w)))
    var_t = float(np.var(yt, ddof=1)) / len(yt)
    var_c = float(np.sum((w * (yc - mu0)) ** 2)) / float(np.sum(w)) ** 2
    assert fresh.tau_hat == float(np.mean(yt)) - mu0
    assert fresh.se == float(np.sqrt(var_t + var_c))
    assert att_ipw(data, model) == est


def test_design_sensitivity_composition_and_failure_capture():
    data = synthetic_observational(seed=23, n_treated=30, n_control=120)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    scores = score_dataset(model, data)
    single = design_sensitivity(data, scores, [MatchSpec()])
    assert single[0].tau_hat == att_match(data, scores, MatchSpec()).tau_hat

    impossible = MatchSpec(caliper=1e-12, design_tag="strict")
    results = design_sensitivity(data, scores, [MatchSpec(), impossible])
    assert np.isfinite(results[0].tau_hat)
    assert math.isnan(results[1].tau_hat)
    assert results[1].design_tag == "strict|failed:EstimationError"

    with pytest.raises(ValidationError):
        design_sensitivity(data, scores, [])


def test_design_sensitivity_lets_a_defect_propagate(monkeypatch):
    data = synthetic_observational(seed=23, n_treated=30, n_control=120)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])

    def broken(*args):
        raise RuntimeError("a defect, not a failed design")

    monkeypatch.setattr(estimators, "att_match", broken)
    with pytest.raises(RuntimeError, match="a defect"):
        design_sensitivity(data, score_dataset(model, data), [MatchSpec()])


@pytest.mark.parametrize("k", [1.5, 2.0, True], ids=repr)
def test_match_spec_rejects_a_neighbor_count_that_is_not_an_integer(k):
    # A fractional k never fills a treated unit's matches, so the greedy
    # path would average every control inside the caliper.
    with pytest.raises(ValidationError, match="n_neighbors must be an integer"):
        MatchSpec(n_neighbors=k)
    assert MatchSpec(n_neighbors=np.int64(2)).design_tag == "nn2_logit_score"


@pytest.mark.parametrize("n", [0, 1])
def test_default_design_suite_needs_two_scores(n):
    # The caliper's SD has n - 1 degrees of freedom.
    with pytest.raises(ValidationError, match=f"at least 2 scores.*sample of {n}"):
        default_design_suite(np.full(n, 0.5))


def test_default_design_suite_rejects_scores_with_zero_spread():
    # A model fitted with no Newton step scores every unit 0.5, which would
    # make the caliper 0.2 * 0 SD.
    with pytest.raises(EstimationError, match="logit scores have zero spread"):
        default_design_suite(np.full(50, 0.5))


def test_default_design_suite_runs():
    data = synthetic_observational(seed=29, n_treated=40, n_control=160)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    scores = score_dataset(model, data)
    designs = default_design_suite(scores)
    assert [d.design_tag for d in designs] == [
        "nn_logit", "nn_logit_caliper", "nn_mahalanobis"
    ]
    results = design_sensitivity(data, scores, designs)
    assert len(results) == 3


def test_estimates_csv_rows():
    data = make_dataset([True, False], [2.0, 1.0])
    rows = estimates_to_csv_rows([naive_diff(data)], labels=["toy"])
    assert rows[0][0] == "estimation_sample"
    assert rows[1][0] == "toy"
    assert rows[1][1] == 1.0


def _dense_att_match(data, scores, spec):
    """Reference matcher: the full n_treated x n_control distance matrix,
    its row argmin for 1-NN with replacement, and the greedy scan of
    argsorted rows otherwise."""
    data.require_both_arms("att_match")
    coords = estimators._match_coordinates(data, scores, spec.metric)
    t_mask = data.treated
    zt, zc = coords[t_mask], coords[~t_mask]
    yt, yc = data.outcome[t_mask], data.outcome[~t_mask]
    ids_t, ids_c = data.unit_ids[t_mask], data.unit_ids[~t_mask]
    c_order = np.argsort(ids_c, kind="stable")
    zc, yc = zc[c_order], yc[c_order]
    n_t, n_c = len(yt), len(yc)
    k = spec.n_neighbors
    caliper = spec.caliper if spec.caliper is not None else np.inf
    dist = np.sqrt(((zt[:, None, :] - zc[None, :, :]) ** 2).sum(axis=2))
    if spec.with_replacement and k == 1:
        nearest = np.argmin(dist, axis=1)
        d_min = dist[np.arange(n_t), nearest]
        kept = d_min <= caliper
        diffs = yt[kept] - yc[nearest[kept]]
        n_used = int(kept.sum())
    else:
        diffs_list = []
        available = np.ones(n_c, dtype=bool)
        for i in np.argsort(ids_t, kind="stable"):
            row = dist[i]
            chosen = []
            for j in np.argsort(row, kind="stable"):
                if row[j] > caliper:
                    break
                if not spec.with_replacement and not available[j]:
                    continue
                chosen.append(j)
                if len(chosen) == k:
                    break
            if not chosen:
                continue
            if not spec.with_replacement:
                available[chosen] = False
            diffs_list.append(yt[i] - float(np.mean(yc[chosen])))
        diffs = np.asarray(diffs_list)
        n_used = len(diffs_list)
    if n_used == 0:
        raise EstimationError("every treated unit was dropped; no matches found")
    tau = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1) / np.sqrt(n_used)) if n_used > 1 else 0.0
    return tau, se, n_used, n_t - n_used


def _assert_equals_dense(data, scores, spec):
    try:
        expected = _dense_att_match(data, scores, spec)
    except AttDiagError as exc:
        with pytest.raises(type(exc)):
            att_match(data, scores, spec)
        return
    est = att_match(data, scores, spec)
    assert (est.tau_hat, est.se, est.n_treated_used, est.n_dropped) == expected


# Values whose logit scores tie exactly, differ by an ulp, or differ by less
# than half an ulp of a distant treated score (so distinct control scores
# round to one distance), plus points outside every other draw's range.
_TIE_HEAVY = (0.0, -0.0, 4.5e-16, 9e-16, -4.5e-16, 0.5, 1.0, 1.0 + 2**-52,
              2.0, 5.0, 20.0, -20.0, 29.0, -29.0)
_LINE_MODEL = _hand_model(0.0, [1.0])


@st.composite
def _tie_heavy_data(draw, width=1, max_treated=10, max_control=25):
    n_t = draw(st.integers(1, max_treated))
    n_c = draw(st.integers(1, max_control))
    n = n_t + n_c
    value = st.one_of(st.sampled_from(_TIE_HEAVY), st.floats(-30, 30))
    xs = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                       min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    treated = draw(st.permutations([True] * n_t + [False] * n_c))
    ids = draw(st.permutations(range(n)))
    return Dataset(treated, np.asarray(ys, dtype=float), np.asarray(xs, dtype=float),
                   unit_ids=ids)


@settings(max_examples=300, deadline=None)
@given(data=_tie_heavy_data(), pick=st.integers(0, 10**6),
       caliper_kind=st.sampled_from(["none", "attained", "drawn"]),
       drawn=st.floats(1e-12, 10))
def test_logit_match_equals_dense_oracle(data, pick, caliper_kind, drawn):
    caliper = None
    if caliper_kind == "drawn":
        caliper = drawn
    elif caliper_kind == "attained":
        # A caliper equal to one treated-control distance: that pair sits
        # exactly on the boundary, which keeps it.
        z = estimators._logit(score_dataset(_LINE_MODEL, data))
        zt, zc = z[data.treated], z[~data.treated]
        gap = float(np.sqrt((zt[pick % len(zt)] - zc[pick % len(zc)]) ** 2))
        caliper = gap if gap > 0 else None
    _assert_equals_dense(data, score_dataset(_LINE_MODEL, data), MatchSpec(caliper=caliper))


@pytest.mark.parametrize("xs,treated", [
    ([3.0, 0.0], [True, False]),                                # one control
    ([-29.0, 29.0, 1.0, 2.0, 2.0], [True, True, False, False, False]),  # outside
    ([1.0, 0.5, 0.5, 3.0, 0.5], [True, False, False, False, False]),   # equal scores
])
def test_logit_match_edge_cases_equal_dense_oracle(xs, treated):
    data = make_dataset(treated, np.arange(len(xs), dtype=float) ** 2,
                        [[v] for v in xs])
    _assert_equals_dense(data, score_dataset(_LINE_MODEL, data), MatchSpec())


def test_logit_match_rounding_tie_takes_lowest_id():
    # The three control scores are distinct, but 20 minus each rounds to
    # one distance, so the lowest id wins although it holds the farthest
    # score.
    data = make_dataset([True, False, False, False], [10.0, 1.0, 2.0, 3.0],
                        [[20.0], [0.0], [4.5e-16], [9e-16]])
    z = estimators._logit(score_dataset(_LINE_MODEL, data))
    assert len(set(z[1:])) == 3
    assert len(set(np.sqrt((z[0] - z[1:]) ** 2))) == 1
    assert att_match(data, score_dataset(_LINE_MODEL, data), MatchSpec()).tau_hat == 10.0 - 1.0
    _assert_equals_dense(data, score_dataset(_LINE_MODEL, data), MatchSpec())


# Initial search windows. The drawn pools of up to 15 controls fall below,
# on and between multiples of windows of 1, 3 and 4 controls, so searches
# grow and stop early; a window of 16 takes every control in its first step.
_WINDOWS = [1, 3, 4, 16]


@pytest.mark.parametrize("window", _WINDOWS)
@settings(max_examples=100, deadline=None)
@given(data=st.sampled_from([3, 8]).flatmap(
    lambda width: _tie_heavy_data(width=width, max_treated=9, max_control=12)))
def test_mahalanobis_match_equals_dense_oracle(window, data):
    # Width 8 sums each distance pairwise, as on the NSW tables; width 3 in
    # order.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_WINDOW", window)
        _assert_equals_dense(data, None, MatchSpec(metric="mahalanobis"))


@st.composite
def _grid_points(draw, width):
    # Coordinates on a coarse grid: many controls tie exactly, and many
    # differ from a treated row in the first coordinate alone, so their
    # distance equals the gap the search stops on.
    value = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    n_t, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 15))
    rows = st.lists(value, min_size=width, max_size=width)
    return (np.array(draw(st.lists(rows, min_size=n_t, max_size=n_t))),
            np.array(draw(st.lists(rows, min_size=n_c, max_size=n_c))))


@pytest.mark.parametrize("window", _WINDOWS)
@settings(max_examples=200, deadline=None)
@given(points=st.integers(2, 3).flatmap(_grid_points))
@example(points=(np.array([[0.0, 0.0]]),
                 np.array([[-1.0, 0.0], [-0.5, 2.0], [1.0, 0.0]])))
def test_pruned_search_equals_full_argmin(window, points):
    # The example: with a window of 1 the first step finds control 2 at
    # distance 1; control 0 ties it across a gap of exactly 1 and must win.
    zt, zc = points
    dist = estimators._distances(zt, zc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_WINDOW", window)
        nearest, d_min = estimators._nearest_pruned(zt, zc)
    assert np.array_equal(nearest, np.argmin(dist, axis=1))
    assert d_min.tobytes() == dist.min(axis=1).tobytes()


def _symmetric_ties():
    # Controls mirrored through the treated unit at the origin: whitening is
    # linear and the data are symmetric, so each mirrored pair is exactly
    # equally near, one on each side of the treated unit's sorted place. The
    # right-hand control of each pair has the lower id.
    xs = [[0.0, 0.0], [1.0, 0.5], [-1.0, -0.5], [2.0, -1.0], [-2.0, 1.0],
          [3.0, 3.0], [-3.0, -3.0]]
    treated = [True] + [False] * 6
    return Dataset(treated, np.arange(7.0) ** 2, xs, unit_ids=[0, 1, 2, 3, 4, 5, 6])


def _duplicated_controls():
    # Three copies of the nearest control row, with ids out of row order,
    # among other controls on both sides.
    xs = [[0.1, 0.2], [0.0, 0.0], [0.0, 0.0], [-1.0, 1.0], [0.0, 0.0],
          [1.0, -1.0], [0.5, 0.5], [-0.5, 0.25]]
    treated = [True, False, False, False, False, False, False, True]
    return Dataset(treated, np.arange(8.0) ** 2, xs, unit_ids=[7, 5, 2, 6, 4, 0, 3, 1])


def _one_projection_value():
    # Every control has the same first coordinate, so the sort puts all of
    # them on one side of each treated unit and none is pruned by the gap.
    xs = [[-1.0, 0.3], [2.0, -0.4], [0.5, 0.0], [0.5, 1.0], [0.5, -1.0],
          [0.5, 0.3], [0.5, 2.0]]
    treated = [True, True, False, False, False, False, False]
    return Dataset(treated, np.arange(7.0) ** 2, xs, unit_ids=[3, 6, 5, 1, 4, 0, 2])


@pytest.mark.parametrize("window", _WINDOWS)
@pytest.mark.parametrize("make", [_symmetric_ties, _duplicated_controls,
                                  _one_projection_value])
def test_mahalanobis_match_edge_cases_equal_dense_oracle(window, make):
    data = make()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_WINDOW", window)
        _assert_equals_dense(data, None, MatchSpec(metric="mahalanobis"))


def test_mahalanobis_mirrored_tie_takes_lowest_id():
    data = _symmetric_ties()
    coords = estimators._match_coordinates(data, None, "mahalanobis")
    zt, zc = coords[:1], coords[1:]
    d = np.sqrt(((zt - zc) ** 2).sum(axis=1))
    assert d[0] == d[1] and d[2] == d[3] and d[4] == d[5]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_WINDOW", 1)
        nearest, d_min = estimators._nearest_pruned(zt, zc)
    # Controls 1 and 2 (ids 1, 2) tie nearest; the sort places id 2 first.
    assert nearest[0] == 0 and d_min[0] == d[0]


@pytest.mark.parametrize("spec", [
    MatchSpec(n_neighbors=3),
    MatchSpec(with_replacement=False),
    MatchSpec(n_neighbors=2, with_replacement=False, caliper=0.5),
    MatchSpec(metric="mahalanobis", n_neighbors=3),
])
def test_greedy_match_equals_dense_oracle(spec):
    data = synthetic_observational(seed=31, n_treated=30, n_control=120)
    model = fit_logistic(data, ["age", "education", "re74", "re75"])
    _assert_equals_dense(data, score_dataset(model, data), spec)
    ties = make_dataset([True, True, True, False, False, False, False, False],
                        [5.0, 6.0, 7.0, 1.0, 2.0, 3.0, 4.0, 8.0],
                        [[1.0], [1.0], [0.0], [1.0], [0.0], [2.0], [1.0], [0.0]])
    _assert_equals_dense(ties, score_dataset(_LINE_MODEL, ties), spec)


def test_mahalanobis_match_memory_stays_bounded():
    # The dense matrix's float64 temporary would be 200 x 30,000 x 8 x 8 B
    # = 384 MB; the pruned search must stay far below it.
    rng = np.random.default_rng(7)
    n_t, n_c = 200, 30_000
    data = Dataset(np.arange(n_t + n_c) < n_t, rng.normal(size=n_t + n_c),
                   rng.normal(size=(n_t + n_c, 8)))
    tracemalloc.start()
    try:
        att_match(data, None, MatchSpec(metric="mahalanobis"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
