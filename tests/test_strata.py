from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attdiag.errors import BinningError, RestrictionError, ValidationError
from attdiag.strata import (
    BinSpec,
    CellStatus,
    SupportMap,
    build_support_map,
    restrict_to_overlap,
    support_share,
)
from conftest import make_dataset, synthetic_observational


def _toy_two_dim():
    # 2x2 grid on (a, b); six units placed by hand:
    #   cell (0,0): treated + control  -> Both
    #   cell (0,1): control            -> ControlOnly
    #   cell (1,0): treated, treated   -> TreatedOnly
    #   cell (1,1): control            -> ControlOnly... replaced below
    covs = np.array([
        [0.5, 0.5],   # treated  (0,0)
        [0.7, 0.2],   # control  (0,0)
        [0.3, 1.5],   # control  (0,1)
        [1.5, 0.1],   # treated  (1,0)
        [1.9, 0.9],   # treated  (1,0)
        [1.2, 1.2],   # control  (1,1)
    ])
    data = make_dataset(
        [True, False, False, True, True, False],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        covs,
    )
    bins = [BinSpec("x0", (0.0, 1.0, 2.0)), BinSpec("x1", (0.0, 1.0, 2.0))]
    return data, bins


def test_binspec_invariants():
    with pytest.raises(ValidationError):
        BinSpec("age", (1.0,))
    with pytest.raises(ValidationError):
        BinSpec("age", (1.0, 1.0))
    # Every comparison with NaN is false, so a NaN edge must fail the check.
    for edges in ((0.0, float("nan"), 10.0), (float("nan"), 10.0)):
        with pytest.raises(ValidationError):
            BinSpec("x0", edges)


def test_support_map_needs_a_bin():
    data, _ = _toy_two_dim()
    with pytest.raises(ValidationError, match="at least one BinSpec"):
        build_support_map(data, [])


def test_hand_enumerated_counts():
    data, bins = _toy_two_dim()
    support_map = build_support_map(data, bins)
    assert support_map.treated_counts.tolist() == [[1, 0], [2, 0]]
    assert support_map.control_counts.tolist() == [[1, 1], [0, 1]]
    statuses = {cell: status for cell, _, _, status in support_map.cells()}
    assert statuses == {
        (0, 0): CellStatus.BOTH,
        (0, 1): CellStatus.CONTROL_ONLY,
        (1, 0): CellStatus.TREATED_ONLY,
        (1, 1): CellStatus.CONTROL_ONLY,
    }


def test_degenerate_single_cell():
    data, _ = _toy_two_dim()
    support_map = build_support_map(data, [BinSpec("x0", (0.0, 2.0))])
    assert support_map.n_cells == 1
    assert support_share(support_map) == (1.0, 0.0, 0.0, 0.0)


def test_top_edge_belongs_to_last_bin():
    data = make_dataset([True, False], [0.0, 0.0], [[2.0], [0.0]])
    support_map = build_support_map(data, [BinSpec("x0", (0.0, 1.0, 2.0))])
    assert support_map.treated_counts.tolist() == [0, 1]


def test_out_of_range_names_unit_and_dimension():
    data = make_dataset([True, False], [0.0, 0.0], [[5.0], [0.5]])
    with pytest.raises(BinningError, match="unit 0.*x0"):
        build_support_map(data, [BinSpec("x0", (0.0, 1.0))])


def test_partition_property():
    data = synthetic_observational(seed=3, n_treated=60, n_control=200)
    bins = [
        BinSpec("age", tuple(range(16, 61, 5))),
        BinSpec("education", (0, 6, 9, 12, 18)),
    ]
    support_map = build_support_map(data, bins)
    assert support_map.treated_counts.sum() == data.n_treated
    assert support_map.control_counts.sum() == data.n_control


def test_support_share_sums_to_one():
    data, bins = _toy_two_dim()
    shares = support_share(build_support_map(data, bins))
    assert sum(shares) == pytest.approx(1.0, abs=1e-12)
    assert shares == (0.25, 0.5, 0.25, 0.0)


def test_support_share_invariant_to_row_order():
    data, bins = _toy_two_dim()
    perm = np.array([5, 2, 0, 4, 1, 3])
    shuffled = data.subset(perm)
    assert support_share(build_support_map(shuffled, bins)) == support_share(
        build_support_map(data, bins)
    )


def test_coarse_grid_audit_hand_count():
    data, bins = _toy_two_dim()
    # The support stage's coarse audit: total cells and cells no treated unit falls in.
    support_map = build_support_map(data, bins)
    assert support_map.n_cells == 4
    assert int(np.sum(support_map.treated_counts == 0)) == 2  # the two ControlOnly cells


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_status_counts_and_overlap_follow_the_cell_statuses(draw):
    # Counts of 0..2 per arm, so empty and one-arm cells are common.
    shape = draw.draw(st.tuples(st.integers(1, 4), st.integers(1, 3)), label="shape")
    arm_counts = st.lists(st.integers(0, 2), min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1])
    treated = np.array(draw.draw(arm_counts, label="treated")).reshape(shape)
    control = np.array(draw.draw(arm_counts, label="control")).reshape(shape)
    grid = tuple(BinSpec(f"x{d}", tuple(range(n + 1))) for d, n in enumerate(shape))
    support_map = SupportMap(grid, treated, control)

    yielded = Counter(status for *_, status in support_map.cells())
    counts = support_map.status_counts()
    assert list(counts) == list(CellStatus)
    assert counts == {status: yielded[status] for status in CellStatus}
    t, c = treated > 0, control > 0
    # The status grid is what cells() yields, and the rule on the counts.
    rule = {(True, True): CellStatus.BOTH, (True, False): CellStatus.TREATED_ONLY,
            (False, True): CellStatus.CONTROL_ONLY, (False, False): CellStatus.EMPTY}
    assert support_map.status.shape == shape
    assert [cell for cell, *_ in support_map.cells()] == list(np.ndindex(shape))
    for cell, n_treated, n_control, status in support_map.cells():
        assert (n_treated, n_control) == (treated[cell], control[cell])
        assert support_map.status[cell] is status is rule[t[cell], c[cell]]
    assert [counts[s] for s in CellStatus] == [
        np.sum(t & c), np.sum(t & ~c), np.sum(~t & c), np.sum(~t & ~c)]

    # Units at the cell centres rebuild the map; the overlap keeps exactly
    # the units of Both cells.
    units = [(cell, flag) for cell in np.ndindex(shape)
             for flag, arm in ((True, treated), (False, control)) for _ in range(arm[cell])]
    cells = [cell for cell, _ in units]
    data = make_dataset([flag for _, flag in units], np.zeros(len(units)),
                        np.array(cells, dtype=float).reshape(-1, 2) + 0.5)
    rebuilt = build_support_map(data, grid)
    assert rebuilt.treated_counts.tolist() == treated.tolist()
    assert rebuilt.control_counts.tolist() == control.tolist()
    in_both = [i for i, cell in enumerate(cells) if t[cell] and c[cell]]
    if in_both:
        assert restrict_to_overlap(data, rebuilt).unit_ids.tolist() == in_both
    else:
        with pytest.raises(RestrictionError):
            restrict_to_overlap(data, rebuilt)


def test_restrict_to_overlap_keeps_both_cells_only():
    data, bins = _toy_two_dim()
    support_map = build_support_map(data, bins)
    restricted = restrict_to_overlap(data, support_map)
    assert sorted(restricted.unit_ids.tolist()) == [0, 1]
    assert restricted.n_treated == 1 and restricted.n_control == 1


def test_restrict_identity_when_all_both():
    data = make_dataset([True, False, True, False], [1, 2, 3, 4],
                        [[0.1], [0.2], [0.3], [0.4]])
    support_map = build_support_map(data, [BinSpec("x0", (0.0, 1.0))])
    restricted = restrict_to_overlap(data, support_map)
    assert len(restricted) == len(data)


def test_restrict_errors_when_no_overlap():
    data = make_dataset([True, False], [1, 2], [[0.1], [1.5]])
    support_map = build_support_map(data, [BinSpec("x0", (0.0, 1.0, 2.0))])
    with pytest.raises(RestrictionError, match="no overlap"):
        restrict_to_overlap(data, support_map)


def test_restrict_is_idempotent():
    data = synthetic_observational(seed=9, n_treated=80, n_control=300)
    bins = [
        BinSpec("age", tuple(range(16, 61, 4))),
        BinSpec("education", tuple(range(0, 19, 3))),
    ]
    once = restrict_to_overlap(data, build_support_map(data, bins))
    twice = restrict_to_overlap(once, build_support_map(once, bins))
    assert sorted(once.unit_ids.tolist()) == sorted(twice.unit_ids.tolist())


def test_refinement_never_grows_both_population():
    data = synthetic_observational(seed=21, n_treated=50, n_control=150)
    coarse = [
        BinSpec("age", (16, 36, 56)),
        BinSpec("education", (0, 9, 18)),
    ]
    fine = [
        BinSpec("age", (16, 26, 36, 46, 56)),  # split both age bins
        BinSpec("education", (0, 9, 18)),
    ]

    def both_population(bins):
        support_map = build_support_map(data, bins)
        return len(restrict_to_overlap(data, support_map))

    assert both_population(fine) <= both_population(coarse)


def test_serialization_surfaces():
    data, bins = _toy_two_dim()
    support_map = build_support_map(data, bins)
    rows = support_map.to_csv_rows()
    assert rows[0] == ["x0", "x1", "treated", "control", "status"]
    assert len(rows) == 1 + support_map.n_cells
    assert rows[1] == [0.0, 0.0, 1, 1, "both"]
    assert rows[3] == [1.0, 0.0, 2, 0, "treated_only"]
