import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attdiag import simulation
from attdiag.errors import DomainError, ValidationError, WitnessError
from attdiag.simulation import SimConfig, apply_selection, nonid_witness, run_sweep, total_variation
from conftest import counted, sweep_population


class _TreatAll:
    """A treatment stream whose every draw is 0, so every unit is treated
    and its observed outcome is y1."""

    @staticmethod
    def random(n):
        return np.zeros(n)


def potentials(config):
    """(y1, y0) of each unit of `config`'s sweep population: its types
    drawn from the sweep's type stream, each unit then treated."""
    rng_types = simulation._stage_rng(config.seed, simulation._STAGE_TYPES)
    _, y0, y1 = simulation._draw_units(rng_types, _TreatAll, config)
    return y1, y0


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(seed=0, type_proportions=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValidationError):
        SimConfig(seed=0, type_proportions=(0.3, 0.3, 0.3, 0.3))
    with pytest.raises(ValidationError):
        SimConfig(seed=0, treat_prob=1.0)
    for n in (0, 1.5, True):
        with pytest.raises(ValidationError):
            SimConfig(seed=0, n=n)
    # Each check fails on NaN too, before the NaN reaches the sampler.
    for bad in ({"epsilon": math.nan}, {"epsilon": -0.1},
                {"type_proportions": (math.nan, 0.2, 0.4, 0.1)},
                {"type_proportions": (0.3, 0.2, 0.4, math.nan)}):
        with pytest.raises(ValidationError):
            SimConfig(seed=0, **bad)
    # The delta grid is checked like every sweep's grid.
    for grid in ((2.0, 1.0, 0.0), (0.0, 0.0), (), (0.0, float("nan"))):
        with pytest.raises(ValidationError):
            SimConfig(seed=0, delta_grid=grid)
    with pytest.raises(DomainError):
        SimConfig(seed=0, delta_grid=(-1.0, 0.0))


def test_a_sweep_that_keeps_an_empty_arm_is_a_validation_error():
    with pytest.raises(ValidationError, match="at least one treated and one control"):
        run_sweep(SimConfig(seed=0, n=1))


def test_a_negative_seed_is_a_validation_error():
    # numpy's seeding would reject it only at the first draw.
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        SimConfig(seed=-1)


def test_population_ate_near_design_value():
    y1, y0 = potentials(SimConfig(seed=1))
    assert abs(float(np.mean(y1 - y0)) - 0.1) < 0.005


def test_population_degenerate_mixture():
    y1, y0 = potentials(SimConfig(seed=2, n=500, type_proportions=(1.0, 0.0, 0.0, 0.0)))
    assert float(np.mean(y1 - y0)) == 1.0
    # every unit is of type A
    assert np.all(y1 == 1) and np.all(y0 == 0)


def test_population_deterministic_per_seed():
    config = SimConfig(seed=3, n=10)
    for draw in (sweep_population, potentials):
        assert all(np.array_equal(a, b) for a, b in zip(draw(config), draw(config)))
    # (y1, y0) fixes the type, so this compares the type draws.
    other = potentials(SimConfig(seed=4, n=10))
    assert not all(np.array_equal(a, c) for a, c in zip(potentials(config), other))


def test_type_frequencies_converge():
    y1, y0 = potentials(SimConfig(seed=5))
    freq = [np.mean((y1 == a) & (y0 == b)) for a, b in simulation._POTENTIALS]
    assert np.max(np.abs(np.array(freq) - np.array([0.3, 0.2, 0.4, 0.1]))) < 0.01


def test_unit_observed_outcome_consistency():
    config = SimConfig(seed=6, n=50)
    d, y0, y = sweep_population(config)
    y1, y0_types = potentials(config)
    assert np.array_equal(y0, y0_types)
    assert np.array_equal(y, d * y1 + (1 - d) * y0)
    assert y.dtype == d.dtype == y0.dtype == np.int8


def test_selection_rate_at_delta_zero():
    _, _, y = sweep_population(SimConfig(seed=7))
    kept = apply_selection(y, 0.0, seed=11)
    assert kept.dtype == bool and kept.shape == y.shape
    assert abs(kept.mean() - 0.5) < 0.01


def test_selection_rate_formula_at_delta_one():
    _, _, y = sweep_population(SimConfig(seed=8))
    kept = apply_selection(y, 1.0, seed=12)
    ones = y == 1
    rate_y1 = kept[ones].mean()
    rate_y0 = kept[~ones].mean()
    assert rate_y1 == pytest.approx(math.e / (1 + math.e), abs=0.01)
    assert rate_y0 == pytest.approx(0.5, abs=0.01)


def test_selection_extreme_delta():
    _, _, y = sweep_population(SimConfig(seed=9))
    kept = apply_selection(y, 50.0, seed=13)
    assert kept[y == 1].mean() > 0.999
    assert kept[y == 0].mean() == pytest.approx(0.5, abs=0.01)


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(min_value=0.0, allow_infinity=False))
@example(delta=0.0)
@example(delta=5e-324)
@example(delta=2.2250738585072009e-308)
@example(delta=50.0)
@example(delta=1e300)
def test_selection_probability_lookup_equals_elementwise_formula(delta):
    _, _, y = sweep_population(SimConfig(seed=3, n=1000))
    elementwise = 1.0 / (1.0 + np.exp(-delta * y.astype(float)))
    lookup = simulation._selection_probability(delta)[y]
    assert lookup.tobytes() == elementwise.tobytes()


def test_selection_keeps_the_units_of_the_elementwise_formula():
    _, _, y = sweep_population(SimConfig(seed=4, n=20000))
    for delta in (0.0, 0.7, 50.0):
        draws = simulation._stage_rng(21, simulation._STAGE_SELECT).random(len(y))
        p = 1.0 / (1.0 + np.exp(-delta * y.astype(float)))
        assert np.array_equal(apply_selection(y, delta, seed=21), draws < p)


def test_selection_rejects_negative_delta():
    _, _, y = sweep_population(SimConfig(seed=10, n=100))
    with pytest.raises(DomainError):
        apply_selection(y, -0.1, seed=1)


def test_run_sweep_default_contains_zero_everywhere():
    result = run_sweep(SimConfig(seed=14))
    assert abs(result.observed_ates[0] - 0.1) < 0.01
    assert all(iv.contains(0.0) for iv in result.sets)
    assert result.massi == math.inf


def test_run_sweep_degenerate_radius_identifies_sign():
    result = run_sweep(SimConfig(seed=15, delta_grid=(0.0,), epsilon=0.0))
    assert result.massi == 0.0
    assert result.sets[0].width == 0.0


def test_run_sweep_ates_are_the_arm_means():
    # n = 30 keeps a handful of units per arm; delta 40 keeps nearly every
    # unit with outcome 1 and half of the others.
    for seed, n in ((1, 30), (2, 30), (3, 5000), (4, 20_000)):
        config = SimConfig(seed=seed, n=n, delta_grid=(0.0, 0.5, 3.0, 40.0))
        d, _, y = sweep_population(config)
        expected, kept_counts = [], []
        for i, delta in enumerate(config.delta_grid):
            child_seed = int(np.random.SeedSequence(
                entropy=seed, spawn_key=(simulation._STAGE_SELECT, i)).generate_state(1)[0])
            kept = apply_selection(y, delta, child_seed)
            yt = y[kept & (d == 1)].astype(float)
            yc = y[kept & (d == 0)].astype(float)
            expected.append(float(np.mean(yt) - np.mean(yc)))
            kept_counts.append(int(kept.sum()))
        result = run_sweep(config)
        assert result.observed_ates == tuple(expected)
        # The ledger sums the units kept over the deltas, so each prefix of
        # the grid gives the count kept at its last delta.
        for i in range(1, len(kept_counts) + 1):
            _, work = counted(run_sweep, replace(config, delta_grid=config.delta_grid[:i]))
            assert work == {"sim_units_drawn": n, "sim_units_kept": sum(kept_counts[:i])}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
def test_freq_table_counts_each_cell(units):
    d, y = (np.array(column, dtype=np.int8) for column in zip(*units))
    table = simulation._freq_table(2 * d + y)
    assert list(table) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (dv, yv), share in table.items():
        assert share == float(np.sum((d == dv) & (y == yv)) / len(d))


def test_run_sweep_at_infinite_delta_is_the_limit():
    # exp(-800) underflows to 0, so delta 800 selects exactly as the limit
    # does; both grids give the second delta the same child stream.
    # A NaN selection probability at inf would warn, which fails the test.
    at_inf = run_sweep(SimConfig(seed=1, n=2000, delta_grid=(0.0, math.inf)))
    at_800 = run_sweep(SimConfig(seed=1, n=2000, delta_grid=(0.0, 800.0)))
    assert at_inf.observed_ates == at_800.observed_ates
    assert at_inf.observed_ates[1] != 0.0


def test_run_sweep_deterministic():
    a = run_sweep(SimConfig(seed=16, n=20_000))
    b = run_sweep(SimConfig(seed=16, n=20_000))
    assert a.observed_ates == b.observed_ates


def test_witness_default_separates_atts_with_matching_law():
    result = nonid_witness(SimConfig(seed=17))
    assert result.tv_distance < 0.01
    assert abs(result.att_ignorable - result.att_threshold) > 0.1
    assert result.att_threshold == pytest.approx(0.1, abs=1e-12)
    assert result.att_ignorable == pytest.approx(-1.0 / 3.0, abs=1e-12)
    # digests are proper distributions over the four cells
    assert sum(result.digest_threshold.values()) == pytest.approx(1.0)
    assert sum(result.digest_ignorable.values()) == pytest.approx(1.0)


def test_witness_vacuous_threshold_collapses():
    result = nonid_witness(SimConfig(seed=18), threshold_c=-1.0)
    assert result.att_ignorable == result.att_threshold
    assert result.selection_rate == 1.0
    assert result.tv_distance < 0.02


def test_witness_reproducible_digests():
    a = nonid_witness(SimConfig(seed=19, n=20_000))
    b = nonid_witness(SimConfig(seed=19, n=20_000))
    assert a.digest_threshold == b.digest_threshold
    assert a.digest_ignorable == b.digest_ignorable


def test_witness_degenerate_threshold_errors():
    with pytest.raises(WitnessError):
        nonid_witness(SimConfig(seed=20), threshold_c=1.0)
    with pytest.raises(WitnessError):
        nonid_witness(SimConfig(seed=21, type_proportions=(0.5, 0.0, 0.0, 0.5)),
                      threshold_c=0.5)  # P(y0=1)=0


def test_witness_rejects_nan_threshold_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew units")

    monkeypatch.setattr(simulation, "_draw_units", no_draw)
    with pytest.raises(ValidationError, match="NaN"):
        nonid_witness(SimConfig(seed=20), threshold_c=math.nan)


def test_total_variation():
    a = {(0, 0): 0.5, (0, 1): 0.5}
    b = {(0, 0): 0.25, (0, 1): 0.75}
    assert total_variation(a, b) == pytest.approx(0.25)


def test_selection_ignorability_error_shrinks_over_seeds():
    errors = []
    for seed in range(20):
        config = SimConfig(seed=seed)
        d, _, y = sweep_population(config)
        y1, y0 = potentials(config)
        kept = apply_selection(y, 0.0, seed=seed + 1000)
        yt = y[kept & (d == 1)].astype(float)
        yc = y[kept & (d == 0)].astype(float)
        errors.append(abs(float(yt.mean() - yc.mean()) - float(np.mean(y1 - y0))))
    assert max(errors) < 0.01
