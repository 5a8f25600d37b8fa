"""Output checks: recorded references, run-to-run determinism, and the
brute-force oracle for the tilting bounds.

References live in reference/<workload>.json, one entry per input variant,
and are written by record.py from the program at the commit being
measured. Each number compares with relative tolerance TOL against the
larger of its two values, with an absolute floor ZERO_TOL so that exact
zeros can match.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOL = 1e-9
ZERO_TOL = 1e-12

# report.json sections checked against the reference. `match` is reduced
# to its table1 rows; the others are kept whole. `bounds` also carries the
# two sweep tables, because report.json holds only their massi summaries.
REFERENCE_STAGES = ("match", "bounds", "fragility", "bootstrap", "deciles", "simulate")
SWEEP_TABLES = ("sweep_tilting", "sweep_proxy")


def encode(value):
    """JSON-safe copy: non-finite floats become the strings report.json
    uses for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if value != value else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(TOL * max(abs(a), abs(b)), ZERO_TOL)


def compare(ref, got, path: str = "") -> list[str]:
    """Paths where `got` differs from `ref`: structure and strings must be
    equal, numbers close."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if ref is got else [path]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return [] if close(float(ref), float(got)) else [path]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}{{keys}}"]
        return [p for k in sorted(ref) for p in compare(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}[len]"]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in compare(r, g, f"{path}[{i}]")]
    return [] if ref == got else [path]


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def save_reference(workload: str, variants: dict) -> Path:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(variants, sort_keys=True, separators=(",", ":")) + "\n")
    return path


# ---------------------------------------------------------------------------
# reproduce


def _csv_rows(path: Path) -> list[list]:
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(t) for t in line.split(",")] for line in path.read_text().splitlines()]


def report_sections(report: dict, out_dir: Path) -> dict:
    """The slice of a reproduce run's outputs checked against the reference."""
    out = {}
    for stage in REFERENCE_STAGES:
        values = report[stage]["values"]
        out[stage] = values["table1"] if stage == "match" else values
    out["bounds"] = {"report": out["bounds"],
                     **{name: _csv_rows(out_dir / f"{name}.csv") for name in SWEEP_TABLES}}
    return out


def check_report(reference: dict, got: dict) -> set[str]:
    """Stages whose checked outputs (from report_sections) differ from the
    reference."""
    bad = set()
    for stage in REFERENCE_STAGES:
        if compare(reference[stage], got.get(stage)):
            bad.add(stage)
    return bad


def without_timestamp(report_text: str) -> dict:
    report = json.loads(report_text)
    report["metadata"].pop("timestamp", None)
    return report


def differing_sections(first: dict, other: dict) -> set[str]:
    """Top-level report.json sections that are not identical."""
    keys = set(first) | set(other)
    return {k for k in keys if first.get(k) != other.get(k)}


# ---------------------------------------------------------------------------
# tilting queries


def query_values(sweep, fragility: float, ipw, bias: float) -> dict:
    """What a query returns, in the form the reference stores."""
    return {
        "intervals": [[iv.lo, iv.hi] for iv in sweep.intervals],
        "fragility": fragility,
        "ipw": [ipw.tau_hat, ipw.se],
        "bias_robustness": bias,
    }


def check_query(dataset_ref: dict, lattice_index: dict, deltas, fragility_ref,
                got: dict) -> list[str]:
    """Mismatches of one query against its dataset's per-delta reference
    intervals and the recorded fragility."""
    expected_intervals = [dataset_ref["intervals"][lattice_index[d]] for d in deltas]
    bad = [f"intervals{p}" for p in compare(expected_intervals, got["intervals"])]
    bad += [f"ipw{p}" for p in compare(dataset_ref["ipw"], got["ipw"])]
    bad += [f"bias_robustness{p}" for p in compare(
        dataset_ref["bias_robustness"], encode(got["bias_robustness"]))]
    bad += [f"fragility{p}" for p in compare(fragility_ref, encode(got["fragility"]))]
    return bad


def oracle_mismatches(identification, y, w, treated_mean, subsamples, deltas) -> list[str]:
    """Compare curvature_bounds with the vertex-enumeration oracle on small
    control subsamples."""
    bad = []
    for k, idx in enumerate(subsamples):
        for d in deltas:
            fast = identification.curvature_bounds(y[idx], w[idx], treated_mean, d)
            slow = identification.oracle_curvature_bounds(y[idx], w[idx], treated_mean, d)
            if not (close(fast.lo, slow.lo) and close(fast.hi, slow.hi)):
                bad.append(f"subsample {k} delta {d}")
    return bad
