"""Discrete stratification of the covariate space and support classification.

Cells are the Cartesian product of per-dimension bins. A cell's status,
classified once per map (`SupportMap.status`), records whether it holds
treated units, control units, both, or neither; in Both cells (the supported
region) treated units have in-stratum comparisons. Grid configs are read here.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import BinningError, RestrictionError, ValidationError
from .ingest import Dataset


@dataclass(frozen=True)
class BinSpec:
    """Bin edges for one stratified dimension.

    Bins are closed-left/open-right; the last bin is closed on both ends,
    so the grid covers [edges[0], edges[-1]] exactly.
    """

    dimension_name: str
    edges: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
        if len(self.edges) < 2:
            raise ValidationError(f"{self.dimension_name}: need at least 2 edges")
        if not all(b > a for a, b in zip(self.edges, self.edges[1:])):  # a NaN fails
            raise ValidationError(f"{self.dimension_name}: edges must strictly increase")

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def assign(self, values: np.ndarray, unit_ids: np.ndarray) -> np.ndarray:
        """Bin index per value; out-of-range values name the unit and dimension."""
        edges = np.asarray(self.edges)
        lo, hi = edges[0], edges[-1]
        bad = (values < lo) | (values > hi)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BinningError(
                f"unit {int(unit_ids[i])}: {self.dimension_name} value "
                f"{values[i]!r} outside [{lo}, {hi}]"
            )
        idx = np.searchsorted(edges, values, side="right") - 1
        return np.minimum(idx, self.n_bins - 1)  # top edge closes the last bin


class CellStatus(enum.Enum):
    BOTH = "both"
    TREATED_ONLY = "treated_only"
    CONTROL_ONLY = "control_only"
    EMPTY = "empty"


# Indexed by 2 * (treated > 0) + (control > 0).
_STATUS_BY_CODE = np.array([CellStatus.EMPTY, CellStatus.CONTROL_ONLY,
                            CellStatus.TREATED_ONLY, CellStatus.BOTH], dtype=object)


@dataclass(frozen=True, eq=False)
class SupportMap:
    """Per-cell treated/control counts and status over a stratification grid."""

    grid: tuple[BinSpec, ...]
    treated_counts: np.ndarray
    control_counts: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b.n_bins for b in self.grid)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @functools.cached_property
    def status(self) -> np.ndarray:
        """Each cell's CellStatus, on the grid's shape."""
        code = 2 * (self.treated_counts > 0) + (self.control_counts > 0)
        return _STATUS_BY_CODE[code]

    def cells(self):
        """Yield (multi_index, treated_count, control_count, status), C order."""
        for cell in np.ndindex(self.shape):
            yield (cell, int(self.treated_counts[cell]), int(self.control_counts[cell]),
                   self.status[cell])

    def status_counts(self) -> dict[CellStatus, int]:
        """Cells per status, in CellStatus order."""
        return {status: int(np.sum(self.status == status)) for status in CellStatus}

    def to_csv_rows(self) -> list[list]:
        header = [b.dimension_name for b in self.grid]
        rows = [header + ["treated", "control", "status"]]
        for cell, t, c, status in self.cells():
            lows = [self.grid[d].edges[i] for d, i in enumerate(cell)]
            rows.append(lows + [t, c, status.value])
        return rows


def load_grid_config(path=None) -> dict:
    """Packaged grid config, or one `attdiag.calibrate` wrote at `path`."""
    source = resources.files("attdiag") / "grid_config.json" if path is None else Path(path)
    return json.loads(source.read_text())


def bins_from_config(section: dict) -> list[BinSpec]:
    return [
        BinSpec("age", tuple(section["age_edges"])),
        BinSpec("education", tuple(section["education_edges"])),
    ]


def _cell_indices(data: Dataset, bins) -> tuple[np.ndarray, ...]:
    indices = []
    for spec in bins:
        col = data.covariate_index(spec.dimension_name)
        indices.append(spec.assign(data.covariates[:, col], data.unit_ids))
    return tuple(indices)


def build_support_map(data: Dataset, bins) -> SupportMap:
    """Assign every unit to a cell and tally counts per arm."""
    bins = tuple(bins)
    if not bins:
        raise ValidationError("need at least one BinSpec")
    shape = tuple(b.n_bins for b in bins)
    treated_counts = np.zeros(shape, dtype=int)
    control_counts = np.zeros(shape, dtype=int)
    idx = _cell_indices(data, bins)
    np.add.at(treated_counts, tuple(ix[data.treated] for ix in idx), 1)
    np.add.at(control_counts, tuple(ix[~data.treated] for ix in idx), 1)
    return SupportMap(grid=bins, treated_counts=treated_counts,
                      control_counts=control_counts)


def support_share(support_map: SupportMap):
    """Fractions of cells by status: (both, control_only, treated_only, empty)."""
    counts = support_map.status_counts()
    total = support_map.n_cells
    return (
        counts[CellStatus.BOTH] / total,
        counts[CellStatus.CONTROL_ONLY] / total,
        counts[CellStatus.TREATED_ONLY] / total,
        counts[CellStatus.EMPTY] / total,
    )


def restrict_to_overlap(data: Dataset, support_map: SupportMap) -> Dataset:
    """Keep only units whose cell contains both arms."""
    keep = (support_map.status == CellStatus.BOTH)[_cell_indices(data, support_map.grid)]
    if not np.any(keep):
        raise RestrictionError("no overlap region: every cell is single-arm or empty")
    return data.subset(keep)
