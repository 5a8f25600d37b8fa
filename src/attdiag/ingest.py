"""Loading, validation, and retrieval of observational treatment/outcome tables.

The canonical file layout is the public NSW/PSID/CPS format: whitespace-
delimited numeric rows with the treatment flag first and annual earnings
last. Everything here is pure over immutable inputs except the download
cache, which serializes concurrent fetches of one key with an advisory
file lock.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    FetchError,
    IntegrityError,
    MergeError,
    ParseError,
    ValidationError,
)

@dataclass(frozen=True)
class SchemaSpec:
    """Column layout of a whitespace-delimited input table."""

    column_names: tuple[str, ...]
    treatment_column: str
    outcome_column: str
    covariate_columns: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        if not self.covariate_columns:
            raise ValidationError("covariate_columns must be non-empty")
        names = set(self.column_names)
        if len(names) != len(self.column_names):
            raise ValidationError("duplicate column names")
        for col in (self.treatment_column, self.outcome_column, *self.covariate_columns):
            if col not in names:
                raise ValidationError(f"column {col!r} not in column_names")


# Layout of the Dehejia-Wahba era files: treatment flag, six demographics,
# then 1974/1975/1978 earnings.
NSW_COLUMNS = (
    "treat", "age", "education", "black", "hispanic",
    "married", "nodegree", "re74", "re75", "re78",
)
NSW_SCHEMA = SchemaSpec(
    column_names=NSW_COLUMNS,
    treatment_column="treat",
    outcome_column="re78",
    covariate_columns=NSW_COLUMNS[1:-1],
)

# The original 1986-vintage NSW files lack the 1974 earnings column.
NSW_ORIGINAL_COLUMNS = (
    "treat", "age", "education", "black", "hispanic",
    "married", "nodegree", "re75", "re78",
)
NSW_ORIGINAL_SCHEMA = SchemaSpec(
    column_names=NSW_ORIGINAL_COLUMNS,
    treatment_column="treat",
    outcome_column="re78",
    covariate_columns=NSW_ORIGINAL_COLUMNS[1:-1],
)

_URL_ROOT = "https://users.nber.org/~rdehejia/data"
SOURCE_URLS = {
    "nsw_treated": f"{_URL_ROOT}/nswre74_treated.txt",
    "nsw_treated_original": f"{_URL_ROOT}/nsw_treated.txt",
    "psid_controls": f"{_URL_ROOT}/psid_controls.txt",
    "cps_controls": f"{_URL_ROOT}/cps_controls.txt",
}
SOURCE_SCHEMAS = {
    "nsw_treated": NSW_SCHEMA,
    "nsw_treated_original": NSW_ORIGINAL_SCHEMA,
    "psid_controls": NSW_SCHEMA,
    "cps_controls": NSW_SCHEMA,
}


class Dataset:
    """Column-array container for observed units.

    Treatment flags, outcomes, covariates, and unit ids live in numpy
    arrays, one entry per unit. `schema` is None for synthetic
    covariate-free datasets (e.g. simulation output).
    """

    __slots__ = ("treated", "outcome", "covariates", "unit_ids", "schema", "provenance")

    def __init__(self, treated, outcome, covariates=None, unit_ids=None,
                 schema: SchemaSpec | None = None, provenance: str = ""):
        treated = np.asarray(treated, dtype=bool)
        outcome = np.asarray(outcome, dtype=float)
        n = treated.shape[0]
        if covariates is None:
            covariates = np.empty((n, 0))
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim != 2 or covariates.shape[0] != n or outcome.shape != (n,):
            raise ValidationError("treated, outcome, covariates shapes disagree")
        if unit_ids is None:
            unit_ids = np.arange(n)
        unit_ids = np.asarray(unit_ids, dtype=int)
        if unit_ids.shape != (n,):
            raise ValidationError("unit_ids length mismatch")
        if len(np.unique(unit_ids)) != n:
            raise ValidationError("unit_ids must be unique")
        if n and not np.all(np.isfinite(outcome)):
            bad = int(unit_ids[~np.isfinite(outcome)][0])
            raise ValidationError(f"non-finite outcome for unit {bad}")
        if covariates.size and not np.all(np.isfinite(covariates)):
            bad = int(unit_ids[~np.isfinite(covariates).all(axis=1)][0])
            raise ValidationError(f"non-finite covariate for unit {bad}")
        if schema is not None and len(schema.covariate_columns) != covariates.shape[1]:
            raise ValidationError("covariate matrix width disagrees with schema")
        self.treated = treated
        self.outcome = outcome
        self.covariates = covariates
        self.unit_ids = unit_ids
        self.schema = schema
        self.provenance = provenance

    def __len__(self) -> int:
        return self.treated.shape[0]

    @property
    def n_treated(self) -> int:
        return int(self.treated.sum())

    @property
    def n_control(self) -> int:
        return len(self) - self.n_treated

    @property
    def covariate_columns(self) -> tuple[str, ...]:
        if self.schema is not None:
            return self.schema.covariate_columns
        return tuple(f"x{j}" for j in range(self.covariates.shape[1]))

    def covariate_index(self, name: str) -> int:
        try:
            return self.covariate_columns.index(name)
        except ValueError:
            raise ValidationError(
                f"covariate {name!r} not in dataset columns {self.covariate_columns}"
            ) from None

    def covariate_matrix(self, names: Sequence[str]) -> np.ndarray:
        idx = [self.covariate_index(name) for name in names]
        return self.covariates[:, idx]

    def subset(self, mask_or_indices, provenance: str | None = None) -> "Dataset":
        """Row subset keeping original unit_ids."""
        idx = np.asarray(mask_or_indices)
        return Dataset(
            self.treated[idx], self.outcome[idx], self.covariates[idx],
            unit_ids=self.unit_ids[idx], schema=self.schema,
            provenance=self.provenance if provenance is None else provenance,
        )

    def take_with_fresh_ids(self, indices, provenance: str | None = None) -> "Dataset":
        """Row selection (duplicates allowed) with unit_ids renumbered 0..m-1."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            self.treated[idx], self.outcome[idx], self.covariates[idx],
            unit_ids=np.arange(len(idx)), schema=self.schema,
            provenance=self.provenance if provenance is None else provenance,
        )

    def require_both_arms(self, context: str) -> None:
        if self.n_treated == 0 or self.n_control == 0:
            raise ValidationError(
                f"{context} requires at least one treated and one control unit "
                f"(got {self.n_treated} treated, {self.n_control} control)"
            )


def parse_table(text: str, schema: SchemaSpec) -> Dataset:
    """Parse a whitespace-delimited numeric table into a Dataset.

    Raises ParseError with the offending line number (1-based, counting
    non-blank lines as they appear in the input) and column name where
    possible; treatment values outside {0, 1} raise ValidationError.
    """
    names = schema.column_names
    arity = len(names)
    t_pos = names.index(schema.treatment_column)
    y_pos = names.index(schema.outcome_column)
    x_pos = [names.index(c) for c in schema.covariate_columns]

    treated, outcome, covars = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != arity:
            raise ParseError(
                f"line {lineno}: expected {arity} fields, got {len(fields)}"
            )
        row = np.empty(arity)
        for j, tok in enumerate(fields):
            try:
                row[j] = float(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {names[j]!r}: could not parse {tok!r}"
                ) from None
        t = row[t_pos]
        if t not in (0.0, 1.0):
            raise ValidationError(
                f"line {lineno}: treatment value {t!r} outside {{0, 1}}"
            )
        treated.append(bool(t))
        outcome.append(row[y_pos])
        covars.append(row[x_pos])
    return Dataset(
        np.array(treated, dtype=bool),
        np.array(outcome, dtype=float),
        np.array(covars, dtype=float).reshape(len(treated), len(x_pos)),
        schema=schema,
    )


def merge(treated_source: Dataset, control_source: Dataset, keep: str = "all") -> Dataset:
    """Concatenate two same-schema datasets with fresh unit ids.

    keep:
      "all"          every row from both sources;
      "treated_only" treated rows from the first source plus control rows
                     from the second (the evaluation-dataset composition);
      "control_only" the mirror image.
    """
    if treated_source.schema != control_source.schema:
        raise MergeError("schemas differ; cannot merge")
    if keep not in ("all", "treated_only", "control_only"):
        raise MergeError(f"unknown keep mode {keep!r}")

    def _select(ds: Dataset, want_treated: bool | None) -> np.ndarray:
        if want_treated is None:
            return np.ones(len(ds), dtype=bool)
        return ds.treated == want_treated

    if keep == "all":
        m1, m2 = _select(treated_source, None), _select(control_source, None)
    elif keep == "treated_only":
        m1, m2 = _select(treated_source, True), _select(control_source, False)
    else:
        m1, m2 = _select(treated_source, False), _select(control_source, True)

    treated = np.concatenate([treated_source.treated[m1], control_source.treated[m2]])
    outcome = np.concatenate([treated_source.outcome[m1], control_source.outcome[m2]])
    width = treated_source.covariates.shape[1]
    covars = np.concatenate([
        treated_source.covariates[m1].reshape(-1, width),
        control_source.covariates[m2].reshape(-1, width),
    ])
    tag = f"{treated_source.provenance or 'a'}+{control_source.provenance or 'b'}[{keep}]"
    return Dataset(treated, outcome, covars, schema=treated_source.schema, provenance=tag)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _default_opener(url: str, timeout: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def fetch_dataset(source_key: str, cache_dir, *, offline: bool = False,
                  opener: Callable[[str, float], bytes] | None = None,
                  timeout: float = 60.0) -> str:
    """Return the raw text of a source file, downloading and caching it.

    The first fetch records the file's SHA-256 in <cache_dir>/manifest.json;
    later reads verify against that digest and raise IntegrityError on
    mismatch. Concurrent fetches of one key serialize via an advisory lock.
    `opener` exists for tests and offline transports; the default uses
    urllib over HTTPS.
    """
    if source_key not in SOURCE_URLS:
        raise ValidationError(
            f"unknown source {source_key!r}; expected one of {sorted(SOURCE_URLS)}"
        )
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    target = cache_dir / f"{source_key}.txt"
    manifest_path = cache_dir / "manifest.json"
    lock_path = cache_dir / ".lock"

    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            manifest = {}
            if manifest_path.exists():
                manifest = json.loads(manifest_path.read_text())

            if target.exists():
                blob = target.read_bytes()
                digest = _sha256(blob)
                entry = manifest.get(source_key)
                if entry is None:
                    # Pre-seeded cache: record what we see, first observation wins.
                    manifest[source_key] = {
                        "sha256": digest,
                        "url": SOURCE_URLS[source_key],
                        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    }
                    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
                elif entry["sha256"] != digest:
                    raise IntegrityError(
                        f"{target} digest {digest} != recorded {entry['sha256']}"
                    )
                return blob.decode("utf-8")

            if offline:
                raise FetchError(
                    f"{source_key} not cached in {cache_dir} and offline mode is on"
                )
            url = SOURCE_URLS[source_key]
            get = opener or _default_opener
            try:
                blob = get(url, timeout)
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                raise FetchError(f"could not fetch {url}: {exc}") from exc
            tmp = target.with_suffix(".tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, target)
            manifest[source_key] = {
                "sha256": _sha256(blob),
                "url": url,
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
            manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
            return blob.decode("utf-8")
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def load_source(source_key: str, cache_dir, *, offline: bool = False,
                opener=None) -> Dataset:
    """Fetch (or read cached) source and parse it with its canonical schema."""
    text = fetch_dataset(source_key, cache_dir, offline=offline, opener=opener)
    data = parse_table(text, SOURCE_SCHEMAS[source_key])
    data.provenance = source_key
    return data
