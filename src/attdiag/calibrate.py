"""Search for the age/education stratification grids that reproduce the
published support-structure cell counts.

The published figures fix only the cell totals (a 72-cell grid and a
42-cell grid with five-year age bins), not the bin edges, so this script
sweeps small families of regular grids over the composed evaluation
dataset and freezes whichever grid matches the target counts into
grid_config.json. Run it once against real data; until then the packaged
config carries provisional edges flagged calibrated=false.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AttDiagError
from .ingest import Dataset, load_source, merge
from .strata import BinSpec, CellStatus, build_support_map

FINE_TARGET = {"cells": 72, "both": 37, "control_only": 27, "treated_only": 1, "empty": 7}
COARSE_TARGET = {"cells": 42, "without_treated": 11, "age_width": 5}

# Degraded acceptance band when no regular grid reproduces the exact counts.
FINE_BOTH_SHARE_BAND = (0.45, 0.60)
COARSE_MIN_WITHOUT_TREATED = 10


def load_grid_config(path=None) -> dict:
    """Packaged grid config, or one previously written by this script."""
    if path is not None:
        return json.loads(Path(path).read_text())
    return json.loads(
        resources.files("attdiag").joinpath("grid_config.json").read_text()
    )


def bins_from_config(section: dict) -> list[BinSpec]:
    return [
        BinSpec("age", tuple(section["age_edges"])),
        BinSpec("education", tuple(section["education_edges"])),
    ]


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
    # drop duplicates, keep deterministic order
    seen, unique = set(), []
    for e in out:
        if e not in seen:
            seen.add(e)
            unique.append(e)
    return unique


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


def _status_counts(data: Dataset, age_edges, edu_edges) -> dict:
    support_map = build_support_map(
        data,
        [BinSpec("age", age_edges), BinSpec("education", edu_edges)],
    )
    counts = support_map.status_counts()
    return {
        "cells": support_map.n_cells,
        "both": counts[CellStatus.BOTH],
        "control_only": counts[CellStatus.CONTROL_ONLY],
        "treated_only": counts[CellStatus.TREATED_ONLY],
        "empty": counts[CellStatus.EMPTY],
        "without_treated": counts[CellStatus.CONTROL_ONLY] + counts[CellStatus.EMPTY],
    }


def _search_grids(data: Dataset, age_widths, edu_widths, keep, exact):
    """(hits, near) over the candidate grids whose cell count `keep`
    accepts; a grid is a hit when `exact(counts)` holds."""
    ages = data.covariates[:, data.covariate_index("age")]
    edus = data.covariates[:, data.covariate_index("education")]
    edu_family = candidate_axis_edges(edus, edu_widths) + education_category_families(edus)
    hits, near = [], []
    for age_edges in candidate_axis_edges(ages, age_widths):
        for edu_edges in edu_family:
            if not keep((len(age_edges) - 1) * (len(edu_edges) - 1)):
                continue
            counts = _status_counts(data, age_edges, edu_edges)
            row = {"age_edges": age_edges, "education_edges": edu_edges, "counts": counts}
            (hits if exact(counts) else near).append(row)
    return hits, near


def search_fine_grid(data: Dataset):
    """All (age_edges, edu_edges, counts) with 72 cells; exact-count matches first."""
    return _search_grids(data, (3, 4, 5, 6), (1, 2, 3, 4),
                         lambda n_cells: n_cells == FINE_TARGET["cells"],
                         lambda counts: all(counts[k] == FINE_TARGET[k] for k in (
                             "both", "control_only", "treated_only", "empty")))


def search_coarse_grid(data: Dataset):
    """Five-year age bins by construction; matches need 42 cells, 11 treated-free.

    Some age spans admit no 42-cell product at all with 5-year bins, so the
    near list accepts cell totals within the surrounding band, ordered by
    closeness to the target.
    """
    target_cells = COARSE_TARGET["cells"]
    hits, near = _search_grids(
        data, (COARSE_TARGET["age_width"],), (2, 3, 4, 5, 6),
        lambda n_cells: 0.8 * target_cells <= n_cells <= 1.2 * target_cells,
        lambda counts: (counts["cells"] == target_cells
                        and counts["without_treated"] == COARSE_TARGET["without_treated"]))
    near.sort(key=lambda row: (abs(row["counts"]["cells"] - target_cells),
                               abs(row["counts"]["without_treated"]
                                   - COARSE_TARGET["without_treated"])))
    return hits, near


def calibrate_dataset(data: Dataset) -> dict:
    fine_hits, fine_near = search_fine_grid(data)
    coarse_hits, coarse_near = search_coarse_grid(data)

    def _pick(hits, near, key=None):
        if hits:
            return hits[0], True
        if near:
            return (min(near, key=key) if key else near[0]), False
        return None, False

    # fine near-misses rank by closeness of the Both share to the target share
    target_share = FINE_TARGET["both"] / FINE_TARGET["cells"]
    fine, fine_matched = _pick(
        fine_hits, fine_near,
        key=lambda row: abs(row["counts"]["both"] / row["counts"]["cells"] - target_share),
    )
    coarse, coarse_matched = _pick(coarse_hits, coarse_near)  # near pre-sorted
    return {
        "fine": fine, "fine_matched": fine_matched, "fine_candidates": len(fine_hits) + len(fine_near),
        "coarse": coarse, "coarse_matched": coarse_matched,
        "coarse_candidates": len(coarse_hits) + len(coarse_near),
    }


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
        if result["fine_matched"] and result["coarse_matched"]:
            break

    solved = [a for a in attempts if a.get("fine_matched") and a.get("coarse_matched")]
    best = solved[0] if solved else next(
        (a for a in attempts if a.get("fine") or a.get("coarse")), None
    )
    if best is None:
        raise AttDiagError(
            "calibration found no usable dataset; attempts: "
            + json.dumps(attempts, default=str)
        )

    provisional = load_grid_config()

    def _section(row, matched, target, fallback):
        if row is None:
            # no candidate grid at all: keep the packaged provisional edges
            return {"age_edges": list(fallback["age_edges"]),
                    "education_edges": list(fallback["education_edges"]),
                    "counts": None, "matched": False, "target": target}
        return {"age_edges": list(row["age_edges"]),
                "education_edges": list(row["education_edges"]),
                "counts": row["counts"], "matched": matched, "target": target}

    config = {
        "calibrated": True,
        "dataset": {
            "treated_source": best["combo"][0],
            "control_source": best["combo"][1],
        },
        "fine": _section(best["fine"], best["fine_matched"], FINE_TARGET,
                         provisional["fine"]),
        "coarse": _section(best["coarse"], best["coarse_matched"], COARSE_TARGET,
                           provisional["coarse"]),
        "attempts": [
            {"combo": list(a["combo"]), "error": a.get("error"),
             "fine_matched": a.get("fine_matched"), "coarse_matched": a.get("coarse_matched")}
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
