"""Discrete stratification of the covariate space and support classification.

Cells are the Cartesian product of per-dimension bins. A cell's status
records whether it holds treated units, control units, both, or neither;
the set of Both cells is the empirically supported region where treated
units have in-stratum comparisons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product

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
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
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

    @classmethod
    def from_counts(cls, treated: int, control: int) -> "CellStatus":
        if treated > 0 and control > 0:
            return cls.BOTH
        if treated > 0:
            return cls.TREATED_ONLY
        if control > 0:
            return cls.CONTROL_ONLY
        return cls.EMPTY


@dataclass(frozen=True, eq=False)
class SupportMap:
    """Per-cell treated/control counts over a stratification grid."""

    grid: tuple[BinSpec, ...]
    treated_counts: np.ndarray
    control_counts: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b.n_bins for b in self.grid)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def cells(self):
        """Yield (multi_index, treated_count, control_count, status) per cell."""
        for cell in product(*(range(n) for n in self.shape)):
            t = int(self.treated_counts[cell])
            c = int(self.control_counts[cell])
            yield cell, t, c, CellStatus.from_counts(t, c)

    def status_counts(self) -> dict[CellStatus, int]:
        """Cells per status, as `cells()` classifies them."""
        counts = dict.fromkeys(CellStatus, 0)
        for *_, status in self.cells():
            counts[status] += 1
        return counts

    def to_csv_rows(self) -> list[list]:
        header = [b.dimension_name for b in self.grid]
        rows = [header + ["treated", "control", "status"]]
        for cell, t, c, status in self.cells():
            lows = [self.grid[d].edges[i] for d, i in enumerate(cell)]
            rows.append(lows + [t, c, status.value])
        return rows


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
    idx = _cell_indices(data, support_map.grid)
    # cells() runs in C order, so the statuses reshape onto the grid.
    both = np.array([status is CellStatus.BOTH for *_, status in support_map.cells()])
    keep = both.reshape(support_map.shape)[idx]
    if not np.any(keep):
        raise RestrictionError("no overlap region: every cell is single-arm or empty")
    return data.subset(keep)
