"""Search for the age/education stratification grids that reproduce the
published support-structure cell counts.

The published figures fix only the cell totals (a 72-cell grid and a
42-cell grid with five-year age bins), not the bin edges, so this script
sweeps small families of regular grids over the composed evaluation
dataset and freezes whichever grid matches the target counts into
grid_config.json. Run it once against real data; until then the packaged
config carries provisional edges flagged calibrated=false. It is a leaf
tool: no pipeline stage imports it; the config reader lives in `strata`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import AttDiagError
from .ingest import Dataset, load_source, merge
from .strata import bins_from_config, build_support_map, load_grid_config

FINE_TARGET = {"cells": 72, "both": 37, "control_only": 27, "treated_only": 1, "empty": 7}
COARSE_TARGET = {"cells": 42, "without_treated": 11, "age_width": 5}

# Degraded acceptance band when no regular grid reproduces the exact counts.
FINE_BOTH_SHARE_BAND = (0.45, 0.60)
COARSE_MIN_WITHOUT_TREATED = 10


def _regular_edges(lo: float, hi: float, width: int, start_shift: int):
    start = int(np.floor(lo)) - start_shift
    edges = [float(start)]
    while edges[-1] < hi:
        edges.append(edges[-1] + width)
    return tuple(edges)


def candidate_axis_edges(values: np.ndarray, widths):
    """Regular integer-boundary edge families covering the observed range,
    at every start shift below each width."""
    lo, hi = float(values.min()), float(values.max())
    out = []
    for width in widths:
        for shift in range(width):
            edges = _regular_edges(lo, hi, width, shift)
            if len(edges) >= 2:
                out.append(edges)
    return list(dict.fromkeys(out))  # drop duplicates, keep first-seen order


def education_category_families(values: np.ndarray):
    """Common schooling groupings (dropout bands, high school, college)."""
    hi = float(values.max()) + 1.0
    lo = min(0.0, float(values.min()))
    families = [
        (lo, 9, 12, 13, 16, hi),            # <9, 9-11, HS, some college, college+
        (lo, 12, 13, 16, hi),               # <HS, HS, some college, college+
        (lo, 6, 9, 12, 13, 16, hi),
        (lo, 9, 11, 12, 13, 16, hi),
    ]
    return [tuple(float(e) for e in f) for f in families if sorted(set(f)) == list(f)]


def _status_counts(data: Dataset, row: dict) -> dict:
    support_map = build_support_map(data, bins_from_config(row))
    counts = {status.value: n for status, n in support_map.status_counts().items()}
    return {"cells": support_map.n_cells, **counts,
            "without_treated": int(np.sum(support_map.treated_counts == 0))}


def _fine_rank(counts: dict) -> tuple:
    """(not an exact match, distance of the Both share from the target's)."""
    share_gap = abs(counts["both"] / counts["cells"] - FINE_TARGET["both"] / FINE_TARGET["cells"])
    return any(counts[k] != FINE_TARGET[k] for k in FINE_TARGET), share_gap


def _coarse_rank(counts: dict) -> tuple:
    """(not an exact match, cell-total gap, treated-free gap)."""
    gaps = tuple(abs(counts[k] - COARSE_TARGET[k]) for k in ("cells", "without_treated"))
    return (any(gaps), *gaps)


# Per grid: the bin widths tried, the cell totals searched (as shares of the
# target's: some age spans admit no 42-cell product with 5-year bins) and the
# rank of a candidate's counts (lower is better, exact matches first).
_GRIDS = {
    "fine": {"age_widths": (3, 4, 5, 6), "edu_widths": (1, 2, 3, 4),
             "cells": (1.0, 1.0),
             "rank": _fine_rank, "target": FINE_TARGET},
    "coarse": {"age_widths": (COARSE_TARGET["age_width"],), "edu_widths": (2, 3, 4, 5, 6),
               "cells": (0.8, 1.2),
               "rank": _coarse_rank, "target": COARSE_TARGET},
}


def search_grids(data: Dataset, grid: str) -> list:
    """Every candidate `grid` ("fine" or "coarse") with its counts, best rank
    first; the sort is stable, so exact matches keep their search order."""
    spec = _GRIDS[grid]
    fewest, most = (share * spec["target"]["cells"] for share in spec["cells"])
    ages, edus = (data.covariates[:, data.covariate_index(name)] for name in ("age", "education"))
    edu_family = candidate_axis_edges(edus, spec["edu_widths"]) + education_category_families(edus)
    rows = []
    for age_edges in candidate_axis_edges(ages, spec["age_widths"]):
        for edu_edges in edu_family:
            if fewest <= (len(age_edges) - 1) * (len(edu_edges) - 1) <= most:
                row = {"age_edges": age_edges, "education_edges": edu_edges}
                row["counts"] = _status_counts(data, row)
                rows.append(row)
    return sorted(rows, key=lambda row: spec["rank"](row["counts"]))


def calibrate_dataset(data: Dataset) -> dict:
    """Per grid: the best candidate or None, whether it matches, how many were ranked."""
    result = {}
    for grid, spec in _GRIDS.items():
        rows = search_grids(data, grid)
        result[grid] = head = rows[0] if rows else None
        result[f"{grid}_matched"] = head is not None and not spec["rank"](head["counts"])[0]
        result[f"{grid}_candidates"] = len(rows)
    return result


def _solved(attempt: dict) -> bool:
    return all(attempt.get(f"{grid}_matched") for grid in _GRIDS)


def run_calibration(cache_dir, out_path, offline: bool = True) -> dict:
    """Try the NSW sample with each control source; freeze the best grids.
    The NSW table is loaded once; a failure to load it is recorded in
    every attempt."""

    def load(key):
        try:
            return load_source(key, cache_dir, offline=offline), None
        except AttDiagError as exc:
            return None, str(exc)

    treated, treated_error = load("nsw_treated")
    attempts = []
    for control_key in ("psid_controls", "cps_controls"):
        combo = ("nsw_treated", control_key)
        control, error = load(control_key) if treated is not None else (None, treated_error)
        if error is not None:
            attempts.append({"combo": combo, "error": error})
            continue
        result = calibrate_dataset(merge(treated, control))
        result["combo"] = combo
        attempts.append(result)
        if _solved(result):
            break

    # the first solved attempt, else the first with any candidate grid
    best = min((a for a in attempts if any(a.get(grid) for grid in _GRIDS)),
               key=lambda a: not _solved(a), default=None)
    if best is None:
        raise AttDiagError("calibration found no usable dataset; attempts: "
                           + json.dumps(attempts, default=str))

    provisional = load_grid_config()

    def _section(grid):
        row = best[grid]  # None: no candidate grid, keep the packaged provisional edges
        edges, counts = (provisional[grid], None) if row is None else (row, row["counts"])
        return {"age_edges": list(edges["age_edges"]),
                "education_edges": list(edges["education_edges"]),
                "counts": counts, "matched": best[f"{grid}_matched"],
                "target": _GRIDS[grid]["target"]}

    config = {
        "calibrated": True,
        "dataset": dict(zip(("treated_source", "control_source"), best["combo"])),
        **{grid: _section(grid) for grid in _GRIDS},
        "attempts": [
            {"combo": list(a["combo"]), "error": a.get("error"),
             **{f"{grid}_matched": a.get(f"{grid}_matched") for grid in _GRIDS}}
            for a in attempts
        ],
    }
    Path(out_path).write_text(json.dumps(config, indent=2, sort_keys=True))
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Freeze stratification grids matching the published cell counts."
    )
    parser.add_argument("--cache", required=True, help="dataset cache directory")
    parser.add_argument("--out", default="grid_config.json")
    parser.add_argument("--offline", action="store_true",
                        help="use only cached files, never the network")
    args = parser.parse_args(argv)
    try:
        config = run_calibration(args.cache, args.out, offline=args.offline)
    except AttDiagError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: config[k] for k in ("dataset", "fine", "coarse")}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
