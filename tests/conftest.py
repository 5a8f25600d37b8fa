"""Shared fixtures: toy datasets, draws of the selection experiment, a
synthetic observational sample in the canonical file layout, the work a
call adds to the ledger, checks on worker processes, and the (optional)
cached real datasets."""

from __future__ import annotations

import contextlib
import errno
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from attdiag import simulation
from attdiag.ingest import NSW_SCHEMA, Dataset, load_source, merge
from attdiag.work import COUNTS


def make_dataset(treated, outcome, covariates=None) -> Dataset:
    treated = np.asarray(treated, dtype=bool)
    outcome = np.asarray(outcome, dtype=float)
    if covariates is None:
        covariates = np.zeros((len(treated), 1))
    return Dataset(treated, outcome, np.asarray(covariates, dtype=float))


def counted(fn, *args, **kwargs):
    """(fn's result, the counts the call added to the work ledger)."""
    before = COUNTS.copy()
    result = fn(*args, **kwargs)
    return result, COUNTS - before


def reaped(pid: int) -> bool:
    """Whether the child process `pid` has ended and been waited for:
    neither running nor a zombie."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail a wait that lasts longer than `seconds` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def record_forks(monkeypatch, fail_after: int | None = None) -> list:
    """The pids of the worker processes forked from here on; with
    `fail_after`, every fork after that many fails as it does when no
    process can be spared (EAGAIN)."""
    pids, real_fork = [], os.fork

    def recording_fork():
        if fail_after is not None and len(pids) >= fail_after:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def open_fds() -> list:
    """This process's open file descriptors (Linux `/proc`)."""
    return sorted(os.listdir("/proc/self/fd"))


def sweep_population(config: simulation.SimConfig):
    """(d, y0, y) of the population `run_sweep` draws for `config`."""
    return simulation._draw_units(simulation._stage_rng(config.seed, simulation._STAGE_TYPES),
                                  simulation._stage_rng(config.seed, simulation._STAGE_TREAT),
                                  config)


def simulated_selection(config: simulation.SimConfig, delta: float, seed: int) -> Dataset:
    """The units of `config`'s sweep population that `apply_selection`
    keeps at `delta` under `seed`, as a covariate-free Dataset whose unit
    ids are population indices."""
    d, _, y = sweep_population(config)
    kept = simulation.apply_selection(y, delta, seed)
    return Dataset(d[kept], y[kept], unit_ids=np.flatnonzero(kept))


def record_float_sorts(monkeypatch):
    """A list that collects (function name, size) for each float array
    passed to np.argsort, np.sort or np.unique from now on."""
    sorts = []
    for name in ("argsort", "sort", "unique"):
        def recording(values, *args, _name=name, _real=getattr(np, name), **kwargs):
            if np.asarray(values).dtype.kind == "f":
                sorts.append((_name, np.size(values)))
            return _real(values, *args, **kwargs)

        monkeypatch.setattr(np, name, recording)
    return sorts


def synthetic_observational(seed: int = 11, n_treated: int = 180,
                            n_control: int = 1400) -> Dataset:
    """Synthetic sample shaped like the canonical evaluation data: a small
    disadvantaged treated arm and a large broad control arm with weak
    covariate overlap. Nothing here is real data."""
    rng = np.random.default_rng(seed)
    n = n_treated + n_control
    treated = np.zeros(n, dtype=bool)
    treated[:n_treated] = True

    age = np.where(
        treated,
        rng.integers(17, 36, size=n),
        rng.integers(18, 56, size=n),
    ).astype(float)
    education = np.where(
        treated,
        rng.integers(0, 13, size=n),
        rng.integers(0, 17, size=n),
    ).astype(float)
    black = (rng.random(n) < np.where(treated, 0.85, 0.25)).astype(float)
    hispanic = (rng.random(n) < 0.07).astype(float)
    married = (rng.random(n) < np.where(treated, 0.2, 0.75)).astype(float)
    nodegree = (education < 12).astype(float)
    base_earn = np.where(treated, 2500.0, 16000.0)
    re74 = np.maximum(0.0, rng.normal(base_earn, 6000.0, size=n))
    re75 = np.maximum(0.0, 0.8 * re74 + rng.normal(500.0, 2500.0, size=n))
    effect = -800.0
    re78 = np.maximum(
        0.0,
        0.9 * re75 + 120.0 * education + rng.normal(1500.0, 3000.0, size=n)
        + np.where(treated, effect, 0.0),
    )
    covariates = np.column_stack(
        [age, education, black, hispanic, married, nodegree, re74, re75]
    )
    return Dataset(treated, re78, covariates, schema=NSW_SCHEMA)


def dataset_to_text(data: Dataset) -> str:
    """Serialize in the canonical whitespace file layout."""
    lines = []
    for i in range(len(data)):
        fields = [float(data.treated[i])]
        fields.extend(float(v) for v in data.covariates[i])
        fields.append(float(data.outcome[i]))
        lines.append(" ".join(f"{v:.10g}" for v in fields))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def synthetic():
    return synthetic_observational()


@pytest.fixture(scope="session")
def lalonde_cache():
    """Cache directory holding the real NSW/PSID files, when one exists.

    The build environment has no network route to the hosting server, so
    tests that need the real data skip with this reason unless a cache dir
    is supplied via ATTDIAG_CACHE or checked in at data/lalonde.
    """
    candidates = []
    if os.environ.get("ATTDIAG_CACHE"):
        candidates.append(Path(os.environ["ATTDIAG_CACHE"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "lalonde")
    for cache in candidates:
        # Probe for the files first: loading makes the cache directory and
        # its lock file, which a checkout without the data must not get.
        if not all((cache / f"{key}.txt").is_file() for key in ("nsw_treated", "psid_controls")):
            continue
        try:
            load_source("nsw_treated", cache, offline=True)
            load_source("psid_controls", cache, offline=True)
        except Exception:
            continue
        return cache
    pytest.skip(
        "real NSW/PSID data unavailable: no cached copy and the build "
        "environment cannot reach the hosting server (set ATTDIAG_CACHE or "
        "run `attdiag fetch` with network access)"
    )


@pytest.fixture(scope="session")
def lalonde_composite(lalonde_cache):
    treated = load_source("nsw_treated", lalonde_cache, offline=True)
    control = load_source("psid_controls", lalonde_cache, offline=True)
    return merge(treated, control)
