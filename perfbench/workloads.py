"""Seeded inputs for the benchmark workloads.

Everything here depends only on numpy and the variant number, so the
inputs a run sees are fixed by its seed. The program under test receives
only what these functions produce: whitespace tables plus a config file for
the `reproduce` workloads, in-memory arms and a query stream for
`tilting_queries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# `--seed n` selects variant n % VARIANTS. The recorded references cover
# exactly these variants, so any seed has a reference to check against.
VARIANTS = 8

# Column order of the canonical NSW/PSID/CPS files: treatment flag, six
# demographics, 1974/1975 earnings, then the 1978 outcome.
COVARIATES = ("age", "education", "black", "hispanic", "married", "nodegree",
              "re74", "re75")


def _rng(variant: int, *stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=20260808 + int(variant),
                                 spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class Arms:
    """One treated/control sample as plain arrays (no attdiag types)."""

    treated: np.ndarray      # bool, treated units first
    covariates: np.ndarray   # (n, 8) in COVARIATES order
    outcome: np.ndarray      # re78, with a mass point at zero


def observational_arms(rng: np.random.Generator, n_treated: int, n_control: int,
                       effect: float, similar_share: float) -> Arms:
    """A small disadvantaged treated arm against a broad control pool.

    `similar_share` of the controls are drawn from the treated arm's
    covariate law, which gives the propensity model an overlap region;
    the rest look like a general survey sample. Earnings are rounded to
    cents and clipped at zero, so every earnings column has a mass point
    at zero as the real files do.
    """
    n = n_treated + n_control
    treated = np.zeros(n, dtype=bool)
    treated[:n_treated] = True
    like_treated = treated | (rng.random(n) < similar_share)

    age = np.where(like_treated, rng.integers(17, 41, n), rng.integers(18, 56, n))
    education = np.where(like_treated, rng.integers(3, 15, n), rng.integers(0, 18, n))
    black = rng.random(n) < np.where(like_treated, 0.8, 0.25)
    hispanic = rng.random(n) < np.where(like_treated, 0.1, 0.05)
    married = rng.random(n) < np.where(like_treated, 0.2, 0.7)
    nodegree = education < 12
    zero74 = rng.random(n) < np.where(like_treated, 0.7, 0.1)
    re74 = np.where(zero74, 0.0,
                    rng.gamma(2.0, np.where(like_treated, 2500.0, 9000.0), n))
    re75 = np.maximum(0.0, 0.75 * re74 + rng.normal(0.0, 2500.0, n))
    re75 = np.where(rng.random(n) < np.where(like_treated, 0.5, 0.08), 0.0, re75)
    re78 = np.maximum(
        0.0,
        0.85 * re75 + 150.0 * education + rng.normal(1000.0, 4000.0, n)
        + np.where(treated, effect, 0.0),
    )
    covariates = np.column_stack([
        age, education, black, hispanic, married, nodegree,
        np.round(re74, 2), np.round(re75, 2),
    ]).astype(float)
    return Arms(treated, covariates, np.round(re78, 2))


def table_text(arms: Arms, want_treated: bool) -> str:
    """Rows of one arm in the canonical whitespace layout."""
    rows = np.flatnonzero(arms.treated == want_treated)
    flag = "1" if want_treated else "0"
    lines = []
    for i in rows:
        x = arms.covariates[i]
        ints = " ".join(str(int(v)) for v in x[:6])
        lines.append(f"{flag} {ints} {x[6]:.2f} {x[7]:.2f} {arms.outcome[i]:.2f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reproduce workloads


@dataclass(frozen=True)
class ReproduceShape:
    n_treated: int
    n_control: int
    similar_share: float
    bootstrap_b: int
    simulation_n: int


REPRODUCE_SHAPES = {
    # PSID-like: the paper's own job with the default configuration.
    "reproduce_psid": ReproduceShape(185, 2490, 0.12, 500, 100_000),
    # CPS-like: a large control pool, few replicates, a large simulation.
    "reproduce_wide": ReproduceShape(200, 30_000, 0.03, 20, 1_000_000),
}

# Effects of both signs across variants; the table sizes never change.
_REPRODUCE_EFFECTS = (-900.0, 600.0, -300.0, 1500.0)


def reproduce_run_seed(variant: int) -> int:
    """The `--seed` passed to `attdiag reproduce` for a variant."""
    return 1000 + int(variant)


def write_reproduce_inputs(workload: str, variant: int, directory: Path) -> dict:
    """Write the treated table, the control table and the run config.

    Returns the config path and the number of table rows written.
    """
    shape = REPRODUCE_SHAPES[workload]
    arms = observational_arms(
        _rng(variant, 1, list(REPRODUCE_SHAPES).index(workload)),
        shape.n_treated, shape.n_control,
        effect=_REPRODUCE_EFFECTS[variant % len(_REPRODUCE_EFFECTS)],
        similar_share=shape.similar_share,
    )
    directory.mkdir(parents=True, exist_ok=True)
    treated_file = directory / "treated.txt"
    control_file = directory / "control.txt"
    treated_file.write_text(table_text(arms, True))
    control_file.write_text(table_text(arms, False))
    config = directory / "run.ini"
    config.write_text(
        "[data]\n"
        "source = local\n"
        f"treated_file = {treated_file.resolve()}\n"
        f"control_file = {control_file.resolve()}\n"
        "\n[bootstrap]\n"
        f"b = {shape.bootstrap_b}\n"
        "\n[simulation]\n"
        f"n = {shape.simulation_n}\n"
    )
    return {"config": config, "rows": shape.n_treated + shape.n_control}


# ---------------------------------------------------------------------------
# tilting_queries workload

# Control-pool sizes of the four query datasets; treated arms are a tenth.
QUERY_CONTROLS = (10_000, 25_000, 50_000, 100_000)
# Effects of both signs. Only the smallest dataset's effect is small enough
# for the minimax decision to flip inside the delta lattice (it does in
# every variant), so fragility bisects there and nowhere else: bisection
# then never decides which query sits at the median, and variants cost the
# same.
_QUERY_EFFECTS = (350.0, -400.0, 2500.0, -1500.0)
# Query grids are drawn from this lattice so references can be recorded per
# (dataset, delta).
DELTA_LATTICE = tuple(round(0.05 * i, 2) for i in range(61))
GRID_SIZES = tuple(range(9, 41))
# Queries come in blocks holding every (dataset, grid size) pair once, so
# any two blocks have the same mix of work.
BLOCK = len(QUERY_CONTROLS) * len(GRID_SIZES)
STREAM_BLOCKS = 8
ORACLE_SUBSAMPLE = 16
ORACLE_SUBSAMPLES = 2
ORACLE_DELTAS = (0.0, 0.35, 1.5, 3.0)


def query_arms(variant: int) -> list[Arms]:
    return [
        observational_arms(_rng(variant, 2, k), n // 10, n, effect=_QUERY_EFFECTS[k],
                           similar_share=0.1)
        for k, n in enumerate(QUERY_CONTROLS)
    ]


@dataclass(frozen=True)
class Query:
    index: int
    dataset: int
    deltas: tuple[float, ...]


def query_stream(variant: int) -> list[Query]:
    """STREAM_BLOCKS blocks of BLOCK queries; a run walks them in order and
    wraps only if it outruns the stream."""
    rng = _rng(variant, 3)
    pairs = [(d, k) for d in range(len(QUERY_CONTROLS)) for k in GRID_SIZES]
    queries = []
    for _ in range(STREAM_BLOCKS):
        for j in rng.permutation(len(pairs)):
            dataset, size = pairs[j]
            picks = np.sort(rng.choice(len(DELTA_LATTICE), size=size, replace=False))
            queries.append(Query(len(queries), dataset,
                                 tuple(DELTA_LATTICE[p] for p in picks)))
    return queries


def oracle_subsamples(variant: int, n_controls: int) -> list[np.ndarray]:
    """Control indices (within the control arm) of small subsamples that the
    brute-force oracle can enumerate."""
    rng = _rng(variant, 4, n_controls)
    return [np.sort(rng.choice(n_controls, size=ORACLE_SUBSAMPLE, replace=False))
            for _ in range(ORACLE_SUBSAMPLES)]
