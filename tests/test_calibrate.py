import json
from collections import Counter

import numpy as np
import pytest

from attdiag import calibrate, ingest
from attdiag.calibrate import (
    bins_from_config,
    calibrate_dataset,
    candidate_axis_edges,
    education_category_families,
    load_grid_config,
    run_calibration,
    search_grids,
)
from attdiag.strata import build_support_map
from conftest import dataset_to_text, synthetic_observational


def test_packaged_config_loads_and_builds_bins():
    cfg = load_grid_config()
    assert cfg["calibrated"] is False  # provisional until run against real data
    fine_bins = bins_from_config(cfg["fine"])
    assert [b.dimension_name for b in fine_bins] == ["age", "education"]
    n_cells = np.prod([b.n_bins for b in fine_bins])
    assert n_cells == cfg["fine"]["target"]["cells"]


def test_candidate_axis_edges_cover_range():
    values = np.array([17.0, 23.0, 55.0])
    for edges in candidate_axis_edges(values, widths=(4, 5)):
        assert edges[0] <= 17.0
        assert edges[-1] >= 55.0
        steps = np.diff(edges)
        assert np.all(steps == steps[0])  # regular


def test_education_families_are_valid_edge_vectors():
    values = np.array([0.0, 9.0, 16.0])
    for edges in education_category_families(values):
        assert list(edges) == sorted(set(edges))
        assert edges[-1] > 16.0


def test_search_filters_to_target_cell_count():
    data = synthetic_observational(seed=83, n_treated=80, n_control=400)
    rows = search_grids(data, "fine")
    for row in rows:
        n_cells = (len(row["age_edges"]) - 1) * (len(row["education_edges"]) - 1)
        assert n_cells == 72
        assert row["counts"]["cells"] == 72
    # counts agree with an independent rebuild
    if rows:
        row = rows[0]
        support_map = build_support_map(data, bins_from_config(row))
        assert support_map.n_cells == 72


@pytest.mark.parametrize("grid, target, keys", [
    ("fine", calibrate.FINE_TARGET, ("both", "control_only", "treated_only", "empty")),
    ("coarse", calibrate.COARSE_TARGET, ("cells", "without_treated")),
])
def test_an_exact_match_is_the_first_exact_grid_in_search_order(grid, target, keys,
                                                                 monkeypatch):
    data = synthetic_observational(seed=2, n_treated=90, n_control=500)
    rows = search_grids(data, grid)
    assert not calibrate_dataset(data)[f"{grid}_matched"]
    # Patch the targets to the counts the most candidates share.
    counts, n_exact = Counter(tuple(r["counts"][k] for k in keys) for r in rows).most_common(1)[0]
    assert n_exact >= 2
    for key, value in zip(keys, counts):
        monkeypatch.setitem(target, key, value)
    rows = search_grids(data, grid)  # a patched coarse cell total moves the band searched
    # The search's own order: age edges outermost, then education edges.
    spec = calibrate._GRIDS[grid]
    ages, edus = (data.covariates[:, data.covariate_index(n)] for n in ("age", "education"))
    age_order = candidate_axis_edges(ages, spec["age_widths"])
    edu_order = candidate_axis_edges(edus, spec["edu_widths"]) + education_category_families(edus)
    in_search_order = sorted(rows, key=lambda r: (age_order.index(r["age_edges"]),
                                                  edu_order.index(r["education_edges"])))
    exact = [r for r in in_search_order if tuple(r["counts"][k] for k in keys) == counts]
    result = calibrate_dataset(data)
    assert result[f"{grid}_matched"] is True
    assert result[grid] == exact[0]
    assert result[f"{grid}_candidates"] == len(rows)


def test_calibrate_dataset_reports_match_flags():
    data = synthetic_observational(seed=89, n_treated=90, n_control=500)
    result = calibrate_dataset(data)
    assert "fine_matched" in result and "coarse_matched" in result
    if result["fine"] is not None:
        assert set(result["fine"]) == {"age_edges", "education_edges", "counts"}


def test_run_calibration_end_to_end_with_synthetic_cache(tmp_path, monkeypatch):
    data = synthetic_observational(seed=97, n_treated=100, n_control=600)
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "nsw_treated.txt").write_text(dataset_to_text(data.subset(data.treated)))
    controls = dataset_to_text(data.subset(~data.treated))
    (cache / "psid_controls.txt").write_text(controls)
    (cache / "cps_controls.txt").write_text(controls)
    parses = []
    parse_table = ingest.parse_table
    monkeypatch.setattr(ingest, "parse_table",
                        lambda *args: parses.append(args) or parse_table(*args))
    out = tmp_path / "grid_config.json"
    config = run_calibration(cache, out, offline=True)
    # Each cached file is parsed once, the treated table too.
    assert len(parses) == 3
    assert out.exists()
    persisted = json.loads(out.read_text())
    assert persisted["calibrated"] is True
    assert persisted["dataset"]["treated_source"] == "nsw_treated"
    # frozen edges rebuild into usable bins on the same data
    support_map = build_support_map(data, bins_from_config(persisted["fine"]))
    assert support_map.n_cells == (len(persisted["fine"]["age_edges"]) - 1) * (
        len(persisted["fine"]["education_edges"]) - 1
    )
    # unusable combos are recorded, not fatal
    errors = [a for a in persisted["attempts"] if a.get("error")]
    assert any("cps_controls" in str(a["combo"]) for a in persisted["attempts"]) or errors
    # The original NSW file lacks re74 and merges with no control source.
    assert all("nsw_treated_original" not in a["combo"] for a in persisted["attempts"])
