"""Loading, validation, and retrieval of observational treatment/outcome tables.

Every source is in the Dehejia-Wahba NSW/PSID/CPS layout (`NSW_SCHEMA`):
whitespace-delimited numeric rows with the treatment flag first and annual
earnings last. Everything here is pure over immutable inputs except the
download cache, which serializes concurrent fetches of one key with an
advisory file lock.
"""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from .errors import (
    FetchError,
    IntegrityError,
    MergeError,
    ParseError,
    ValidationError,
)
from .work import COUNTS


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


# Layout of the Dehejia-Wahba era files, every one in SOURCE_URLS: treatment
# flag, six demographics, then 1974/1975/1978 earnings.
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

_URL_ROOT = "https://users.nber.org/~rdehejia/data"
SOURCE_URLS = {
    "nsw_treated": f"{_URL_ROOT}/nswre74_treated.txt",
    "psid_controls": f"{_URL_ROOT}/psid_controls.txt",
    "cps_controls": f"{_URL_ROOT}/cps_controls.txt",
}


class Dataset:
    """Column-array container for observed units.

    Treatment flags, outcomes, covariates, and unit ids live in numpy
    arrays, one entry per unit. `covariates` is stored column-major
    (Fortran order), one contiguous column per covariate, so the model fit
    and scoring read it as it stands; it aliases the array passed in when
    that is already a float column-major matrix. `schema` is None for a
    Dataset built directly from arrays, whose covariates are named x0, x1, ...

    The Dataset holds non-writable views of its arrays, and `subset`,
    `take_with_fresh_ids` and `merge` build new Datasets rather than
    change one. Where no conversion was needed (a float `outcome`, a bool
    `treated`) the view is of the caller's array, which stays writable: a
    write to it changes this Dataset too and stales what `cached` keeps
    (a model's scores and tilting problem) and the arm counts
    `n_treated` and `n_control`, which are counted once, at construction.
    Pass a copy of an array you will change. The ledger counts each
    construction and its units.
    """

    __slots__ = ("treated", "outcome", "covariates", "unit_ids", "schema", "_fitted",
                 "_n_treated")

    def __init__(self, treated, outcome, covariates=None, unit_ids=None,
                 schema: SchemaSpec | None = None):
        treated = np.asarray(treated, dtype=bool)
        outcome = np.asarray(outcome, dtype=float)
        n = treated.shape[0]
        if covariates is None:
            covariates = np.empty((n, 0))
        covariates = np.asfortranarray(covariates, dtype=float)
        if covariates.ndim != 2 or covariates.shape[0] != n or outcome.shape != (n,):
            raise ValidationError("treated, outcome, covariates shapes disagree")
        if unit_ids is None:
            unit_ids = np.arange(n)
        unit_ids = np.asarray(unit_ids, dtype=int)
        if unit_ids.shape != (n,):
            raise ValidationError("unit_ids length mismatch")
        # Ids that strictly increase are unique: one O(n) pass. Only other
        # orders pay for a sort.
        if not np.all(unit_ids[1:] > unit_ids[:-1]):
            ordered = np.sort(unit_ids)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValidationError("unit_ids must be unique")
        if n and not np.all(np.isfinite(outcome)):
            bad = int(unit_ids[~np.isfinite(outcome)][0])
            raise ValidationError(f"non-finite outcome for unit {bad}")
        if covariates.size and not np.all(np.isfinite(covariates)):
            bad = int(unit_ids[~np.isfinite(covariates).all(axis=1)][0])
            raise ValidationError(f"non-finite covariate for unit {bad}")
        if schema is not None and len(schema.covariate_columns) != covariates.shape[1]:
            raise ValidationError("covariate matrix width disagrees with schema")
        self.treated = _read_only(treated)
        self.outcome = _read_only(outcome)
        self.covariates = _read_only(covariates)
        self.unit_ids = _read_only(unit_ids)
        self.schema = schema
        self._fitted = None
        self._n_treated = int(np.count_nonzero(treated))
        COUNTS["datasets_built"] += 1
        COUNTS["dataset_units"] += n

    def __len__(self) -> int:
        return self.treated.shape[0]

    @property
    def n_treated(self) -> int:
        return self._n_treated

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
        """The named covariate columns as a column-major n x len(names)
        matrix. When `names` are all the columns in order this is the
        `covariates` storage itself, not a copy: read it, never write it.
        Any other selection is a new matrix."""
        idx = [self.covariate_index(name) for name in names]
        if idx == list(range(self.covariates.shape[1])):
            return self.covariates
        return self.covariates[:, idx]

    def cached(self, model, key: str, build):
        """`build(model, self)`, computed on the first call with this `model`
        and `key` and kept; an array is kept as a read-only view.

        The cache holds one entry, for the last model asked about, keyed by
        its identity; the entry keeps a reference to the model, so its id
        cannot pass to another object. A model is frozen, so what it
        determines here cannot change under the entry. Keys in use:
        "scores" (`score_dataset`), "ipw" (`att_ipw`) and "tilting_problem"
        (`tilting_problem`, which holds its own read-only inputs)."""
        if self._fitted is None or self._fitted[0] is not model:
            self._fitted = (model, {})
        entry = self._fitted[1]
        if key not in entry:
            value = build(model, self)
            entry[key] = _read_only(value) if isinstance(value, np.ndarray) else value
        return entry[key]

    def uncache(self, *keys: str) -> None:
        """Drop `keys` from the cache entry of `cached`; the next call with
        one of them builds it again."""
        if self._fitted is not None:
            for key in keys:
                self._fitted[1].pop(key, None)

    def subset(self, mask_or_indices) -> "Dataset":
        """Row subset keeping original unit_ids."""
        idx = np.asarray(mask_or_indices)
        return Dataset(
            self.treated[idx], self.outcome[idx], _take_rows(self.covariates, idx),
            unit_ids=self.unit_ids[idx], schema=self.schema,
        )

    def take_with_fresh_ids(self, indices) -> "Dataset":
        """Row selection (duplicates allowed) with unit_ids renumbered 0..m-1."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            self.treated[idx], self.outcome[idx], _take_rows(self.covariates, idx),
            unit_ids=np.arange(len(idx)), schema=self.schema,
        )

    def require_both_arms(self, context: str) -> None:
        if self.n_treated == 0 or self.n_control == 0:
            raise ValidationError(
                f"{context} requires at least one treated and one control unit "
                f"(got {self.n_treated} treated, {self.n_control} control)"
            )


def _read_only(a: np.ndarray) -> np.ndarray:
    """A non-writable view of `a`; `a` itself, which the caller may own,
    stays as it was."""
    a = a.view()
    a.flags.writeable = False
    return a


def _take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of the column-major matrix x (a boolean mask or indices) as a
    new column-major matrix, gathered one contiguous column at a time: a
    row gather would read strided memory and return row-major data."""
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    out = np.empty((rows.size, x.shape[1]), order="F")
    for j in range(x.shape[1]):
        np.take(x[:, j], rows, out=out[:, j])
    return out


def parse_table(text: str, schema: SchemaSpec) -> Dataset:
    """Parse a whitespace-delimited numeric table into a Dataset.

    Rows end at a newline (`\\n`, `\\r\\n` or `\\r`); any other whitespace
    separates fields, and blank lines are skipped. A token is a number as
    `float()` reads an ASCII string without underscores. Raises ParseError
    with the offending physical line number (1-based, counting every line,
    blank ones too) and column name where possible; treatment values
    outside {0, 1} raise ValidationError.

    The whole table is converted in one pass of numpy's C reader, which
    rounds like `float()`. Only a table it rejects is scanned line by line,
    to name the first bad line.
    """
    names = schema.column_names
    t_pos = names.index(schema.treatment_column)
    y_pos = names.index(schema.outcome_column)
    x_pos = [names.index(c) for c in schema.covariate_columns]
    if not text.strip():
        rows = np.empty((0, len(names)))
    else:
        try:
            rows = np.loadtxt(io.StringIO(text, newline=None), dtype=float,
                              comments=None, ndmin=2)
        except ValueError:
            rows = None
        if (rows is None or rows.shape[1] != len(names)
                or np.any((rows[:, t_pos] != 0.0) & (rows[:, t_pos] != 1.0))):
            _raise_first_bad_line(text, names, t_pos)
    return Dataset(
        rows[:, t_pos] == 1.0,
        np.ascontiguousarray(rows[:, y_pos]),
        rows[:, x_pos],  # a column-major copy, which Dataset keeps as it is
        schema=schema,
    )


def _raise_first_bad_line(text: str, names: tuple[str, ...], t_pos: int) -> NoReturn:
    """Raise the error of the first line of a table `parse_table` rejects."""
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != len(names):
            raise ParseError(
                f"line {lineno}: expected {len(names)} fields, got {len(fields)}"
            )
        for name, tok in zip(names, fields):
            # The C reader takes what float() takes of an ASCII string
            # without digit-grouping underscores.
            try:
                if not tok.isascii() or "_" in tok:
                    raise ValueError(tok)
                float(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {name!r}: could not parse {tok!r}"
                ) from None
        t = float(fields[t_pos])
        if t not in (0.0, 1.0):
            raise ValidationError(
                f"line {lineno}: treatment value {t!r} outside {{0, 1}}"
            )
    raise ParseError("the table reader rejected the table, yet no line is bad")


def merge(treated_source: Dataset, control_source: Dataset) -> Dataset:
    """The evaluation-dataset composition: the treated rows of the first
    source, then the control rows of the second, with fresh unit ids."""
    if treated_source.schema != control_source.schema:
        raise MergeError("schemas differ; cannot merge")
    m1, m2 = treated_source.treated, ~control_source.treated
    return Dataset(
        np.concatenate([treated_source.treated[m1], control_source.treated[m2]]),
        np.concatenate([treated_source.outcome[m1], control_source.outcome[m2]]),
        np.concatenate([_take_rows(treated_source.covariates, m1),
                        _take_rows(control_source.covariates, m2)]),
        schema=treated_source.schema,
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _default_opener(url: str, timeout: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def _read_manifest(path: Path) -> dict:
    """The cache manifest, {source key: {"sha256": digest, ...}}; a damaged
    one raises IntegrityError naming it."""
    try:
        manifest = json.loads(path.read_text())
        if all(isinstance(entry["sha256"], str) for entry in manifest.values()):
            return manifest
    except (OSError, ValueError, AttributeError, TypeError, KeyError) as exc:
        raise IntegrityError(f"{path} damaged ({type(exc).__name__}: {exc})") from None
    raise IntegrityError(f"{path} damaged (a sha256 that is not text)")


def fetch_dataset(source_key: str, cache_dir, *, offline: bool = False,
                  opener: Callable[[str, float], bytes] | None = None,
                  timeout: float = 60.0) -> str:
    """Return the raw text of a source file, downloading and caching it.

    The first read of a file, downloaded or found pre-seeded in the cache,
    records its SHA-256 in <cache_dir>/manifest.json (a download replaces
    the record of a file removed from the cache); later reads verify
    against that digest and raise IntegrityError on mismatch, as does a
    damaged manifest. Concurrent fetches of one key serialize via an
    advisory lock. A file neither cached nor downloaded (offline, or the
    download failed) raises FetchError with `not_cached` set; a cache that
    cannot be made, locked, read or written raises FetchError naming it.
    `opener` exists for tests and offline transports; the default uses
    urllib over HTTPS.
    """
    if source_key not in SOURCE_URLS:
        raise ValidationError(
            f"unknown source {source_key!r}; expected one of {sorted(SOURCE_URLS)}"
        )
    cache_dir = Path(cache_dir)
    url = SOURCE_URLS[source_key]
    target = cache_dir / f"{source_key}.txt"
    manifest_path = cache_dir / "manifest.json"
    lock_path = cache_dir / ".lock"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                manifest = _read_manifest(manifest_path) if manifest_path.exists() else {}

                if target.exists():
                    blob = target.read_bytes()
                    recorded = manifest.get(source_key)
                else:
                    if offline:
                        raise FetchError(
                            f"{source_key} not cached in {cache_dir} and offline mode is on",
                            not_cached=True)
                    get = opener or _default_opener
                    try:
                        blob = get(url, timeout)
                    except (urllib.error.URLError, OSError, TimeoutError) as exc:
                        raise FetchError(f"could not fetch {url}: {exc}",
                                         not_cached=True) from exc
                    tmp = target.with_suffix(".tmp")
                    tmp.write_bytes(blob)
                    os.replace(tmp, target)
                    recorded = None  # a download replaces any earlier record
                digest = _sha256(blob)
                if recorded is None:
                    # First observation wins, of a download or a pre-seeded file.
                    manifest[source_key] = {
                        "sha256": digest,
                        "url": url,
                        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    }
                    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
                elif recorded["sha256"] != digest:
                    raise IntegrityError(
                        f"{target} digest {digest} != recorded {recorded['sha256']}"
                    )
                return blob.decode("utf-8")
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)
    except OSError as exc:  # a file in the cache directory's place, no permission
        raise FetchError(f"cache {cache_dir} unusable ({exc})") from exc


def load_source(source_key: str, cache_dir, *, offline: bool = False) -> Dataset:
    """Fetch (or read cached) source and parse it in the NSW layout."""
    return parse_table(fetch_dataset(source_key, cache_dir, offline=offline), NSW_SCHEMA)
