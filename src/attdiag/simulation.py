"""Synthetic experiments: outcome-dependent selection on a four-type binary
population, and a paired-DGP witness showing that one observed law is
compatible with materially different ATT values.

All randomness flows through the Philox counter-based generator with
per-stage spawn keys, so draws are reproducible and independent of
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WitnessError, check_count
from .identification import FIXED_RADIUS, CurvatureSweep, _check_delta, _validate_delta_grid
from .work import COUNTS

# (y1, y0) of the latent types A, B, C and D, in type-code order
_POTENTIALS = np.array([(1, 0), (0, 1), (1, 1), (0, 0)], dtype=np.int8)

# stage ids for stream splitting
_STAGE_TYPES = 0
_STAGE_TREAT = 1
_STAGE_SELECT = 2
_STAGE_WITNESS = 3


def _stage_rng(seed: int, *stage) -> np.random.Generator:
    """The Philox stream of spawn key `stage` under `seed`; the bootstrap
    draws its replicate r from key (r,)."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stage))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SimConfig:
    """Knobs for the selection experiment; delta_grid is checked as every sweep's is."""

    seed: int
    n: int = 100_000
    type_proportions: tuple[float, float, float, float] = (0.3, 0.2, 0.4, 0.1)
    treat_prob: float = 0.5
    delta_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    epsilon: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "type_proportions", tuple(float(p) for p in self.type_proportions))
        object.__setattr__(self, "delta_grid", _validate_delta_grid(self.delta_grid))
        check_count("seed", self.seed, 0)
        check_count("n", self.n, 1)
        # Each predicate fails on NaN.
        if len(self.type_proportions) != 4 or not all(p >= 0 for p in self.type_proportions):
            raise ValidationError("type_proportions must be four non-negative reals")
        if not abs(sum(self.type_proportions) - 1.0) <= 1e-12:
            raise ValidationError("type_proportions must sum to 1")
        if not (0.0 < self.treat_prob < 1.0):
            raise ValidationError("treat_prob must be in (0, 1)")
        if not self.epsilon >= 0:
            raise ValidationError(f"epsilon must be >= 0, got {self.epsilon}")


def _draw_units(rng_types: np.random.Generator, rng_treat: np.random.Generator,
                config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """config.n latent types drawn from rng_types, then config.n randomized
    treatment flags from rng_treat (which may be the same stream). Returns
    the int8 arrays d, y0 and the observed outcome y, one entry per unit."""
    COUNTS["sim_units_drawn"] += config.n
    codes = rng_types.choice(4, size=config.n, p=config.type_proportions)
    d = (rng_treat.random(config.n) < config.treat_prob).astype(np.int8)
    y0 = _POTENTIALS[codes, 1]
    return d, y0, np.where(d == 1, _POTENTIALS[codes, 0], y0)


def _selection_probability(delta: float) -> np.ndarray:
    """logistic(delta * y) for the observed outcomes y = 0 and y = 1, in
    that order; indexing it by the outcomes gives each unit's probability.
    y = 0 gets one half at every delta, inf included (inf * 0 is NaN)."""
    return np.array([0.5, 1.0 / (1.0 + np.exp(-delta))])


def apply_selection(y: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Keep each unit with probability logistic(delta * y), y its 0/1
    observed outcome; returns the kept mask.

    delta=0 keeps everyone with probability one half (selection ignores the
    outcome); growing delta favors high observed outcomes.
    """
    _check_delta(delta)
    return _stage_rng(seed, _STAGE_SELECT).random(len(y)) < _selection_probability(delta)[y]


@dataclass(frozen=True)
class SimSweepResult:
    """The observed effect at each grid delta, and the fixed-radius sets around them."""

    observed_ates: tuple[float, ...]
    sets: CurvatureSweep


def run_sweep(config: SimConfig) -> SimSweepResult:
    """Observed difference in arm means per selection strength, with the
    identified set of half-width `epsilon` around each."""
    d, _, y = _draw_units(_stage_rng(config.seed, _STAGE_TYPES),
                          _stage_rng(config.seed, _STAGE_TREAT), config)
    cells = 2 * d + y
    ates = []
    for i, delta in enumerate(config.delta_grid):
        child_seed = int(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(_STAGE_SELECT, i))
            .generate_state(1)[0]
        )
        # y is passed by position: the benchmark tracer counts its length.
        kept = apply_selection(y, delta, child_seed)
        c00, c01, c10, c11 = np.bincount(cells[kept], minlength=4)
        n_treated, n_control = c10 + c11, c00 + c01
        if n_treated == 0 or n_control == 0:
            raise ValidationError("run_sweep requires at least one treated and one control "
                                  f"unit (got {n_treated} treated, {n_control} control)")
        # The outcomes are 0/1, so each arm mean is an exact count over the
        # arm size: the same float as np.mean over the arm's outcomes.
        ates.append(float(c11 / n_treated - c01 / n_control))
        COUNTS["sim_units_kept"] += int(n_treated + n_control)
    eps = config.epsilon
    sets = CurvatureSweep(deltas=config.delta_grid, lo=[a - eps for a in ates],
                          hi=[a + eps for a in ates], method_tag=FIXED_RADIUS)
    return SimSweepResult(observed_ates=tuple(ates), sets=sets)


@dataclass(frozen=True)
class WitnessResult:
    """Two DGPs, one observed law: frequency tables over (d, y) cells plus
    each DGP's true ATT."""

    digest_ignorable: dict
    digest_threshold: dict
    att_ignorable: float
    att_threshold: float
    tv_distance: float
    selection_rate: float


def _freq_table(cells: np.ndarray) -> dict:
    """Share of each (d, y) cell among units given by cell code 2 * d + y."""
    counts = np.bincount(cells, minlength=4)
    return {(dv, yv): float(counts[2 * dv + yv] / len(cells)) for dv in (0, 1) for yv in (0, 1)}


def _check_witness_threshold(threshold_c) -> float:
    """`threshold_c` as a float, which must not be NaN: NaN selects no unit."""
    threshold_c = float(threshold_c)
    if threshold_c != threshold_c:
        raise ValidationError("witness threshold must not be NaN")
    return threshold_c


def total_variation(table_a: dict, table_b: dict) -> float:
    cells = set(table_a) | set(table_b)
    return 0.5 * sum(abs(table_a.get(c, 0.0) - table_b.get(c, 0.0)) for c in cells)


def witness_law(type_proportions, threshold_c: float) -> tuple[float, float, float, float]:
    """The threshold DGP's analytic observed law over (d, y): its selection
    rate, P(y = 1) among the treated and among the controls, and the
    ignorable DGP's true ATT. WitnessError when the threshold selects
    nobody, so that the observed law is undefined."""
    pa, pb, pc, _ = type_proportions
    p_y0 = pb + pc  # P(y0 = 1)
    if threshold_c >= 1.0:
        raise WitnessError(
            "threshold selects nobody (all y0 <= c); observed law undefined: "
            f"c={threshold_c}, P(y0=1)={p_y0}"
        )
    if threshold_c < 0.0:
        # Vacuous threshold: everyone selected; observed law = population law
        # and the two DGPs coincide, so their ATTs are the same number.
        return 1.0, pa + pc, p_y0, pa - pb
    # Selected iff y0 = 1 (types B and C).
    if p_y0 <= 0.0:
        raise WitnessError("threshold selects nobody (P(y0=1)=0 at type proportions "
                           f"{tuple(type_proportions)}); observed law undefined")
    p_y1_obs = pc / p_y0  # treated show y1; y1=1 among {B,C} only for C
    p_y0_obs = 1.0        # controls show y0, which is 1 by selection
    return p_y0, p_y1_obs, p_y0_obs, p_y1_obs - p_y0_obs


def nonid_witness(config: SimConfig, threshold_c: float = 0.5) -> WitnessResult:
    """Construct two DGPs that induce the same observed (d, y) law but
    different true ATTs, drawing `config.n` units per DGP with the config's
    seed, type proportions and treatment probability.

    The first samples ignorably (a constant selection rate) from a
    population whose (d, y) law equals the second DGP's observed law; its
    true ATT is therefore the naive contrast of that observed law. The
    second selects units by thresholding the control potential outcome
    (keep iff y0 > threshold_c), so its true ATT stays at the population
    contrast while its observed law is distorted. Empirical frequency
    tables are returned as the digests.
    """
    _check_witness_threshold(threshold_c)
    pa, pb, _, _ = config.type_proportions
    att_threshold = pa - pb  # randomized treatment: ATT = ATE
    selection_rate, p_y1_obs, p_y0_obs, att_ignorable = witness_law(
        config.type_proportions, threshold_c)

    # Monte Carlo draw of the threshold DGP, types then treatment from one stream.
    rng = _stage_rng(config.seed, _STAGE_WITNESS, 0)
    d, y0, y = _draw_units(rng, rng, config)
    keep = y0 > threshold_c
    if not np.any(keep):
        raise WitnessError("threshold selected no units in the Monte Carlo draw")
    digest_threshold = _freq_table((2 * d + y)[keep])

    # Monte Carlo draw of the ignorable DGP: population (d, y) law equals the
    # threshold DGP's observed law; selection is an independent coin.
    rng2 = _stage_rng(config.seed, _STAGE_WITNESS, 1)
    COUNTS["sim_units_drawn"] += config.n
    d2 = (rng2.random(config.n) < config.treat_prob).astype(np.int8)
    p_one = np.where(d2 == 1, p_y1_obs, p_y0_obs)
    y2 = (rng2.random(config.n) < p_one).astype(np.int8)
    keep2 = rng2.random(config.n) < selection_rate
    if not np.any(keep2):
        raise WitnessError("ignorable selection kept no units in the Monte Carlo draw")
    digest_ignorable = _freq_table((2 * d2 + y2)[keep2])

    return WitnessResult(
        digest_ignorable=digest_ignorable,
        digest_threshold=digest_threshold,
        att_ignorable=att_ignorable,
        att_threshold=att_threshold,
        tv_distance=total_variation(digest_ignorable, digest_threshold),
        selection_rate=selection_rate,
    )
