"""Command-line pipeline: fetch data, map support, fit scores, estimate,
bound, and bundle everything into a reproduction report.

Each subcommand writes its CSV/JSON artifacts into the output directory
and returns its report values plus log-only fields; `_run_stage` prints
them as the stage's one JSON log line, with the wall and CPU seconds the
stage took. `reproduce` runs every stage that way, emits report.json plus
SVG renderings, and ends with a line holding each stage's timings.

Each invocation resolves its inputs once. The config is parsed when the
file is read, so a bad value fails before any stage runs. The products
several stages share (the parsed tables, the propensity model, the grid
config, the fine support map, the tilting problem and its sweep) are
built on first use and kept while a later stage may read them, in a
chained run as in a standalone one. Upstream products (the propensity model,
table 1) are read from their artifacts; a command whose upstream artifact
is missing fails with a dependency error naming the producing command.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import bins_from_config, load_grid_config
from .decision import bias_robustness, bias_robustness_curve, fragility_index, minimax_rule
from .errors import AttDiagError, ConfigError, DependencyError, FetchError
from .estimators import (
    MatchSpec,
    att_match,
    default_design_suite,
    design_sensitivity,
    distinct_control_scores,
    estimates_to_csv_rows,
    naive_diff,
)
from .identification import (
    TiltingProblem,
    control_tilt_inputs,
    sweep_to_csv_rows,
    sweep_trimming_proxy,
)
from .ingest import NSW_SCHEMA, SOURCE_URLS, fetch_dataset, load_source, merge, parse_table
from .propensity import (
    PropensityModel,
    TrimRule,
    count_clamped,
    fit_logistic,
    score_dataset,
    score_histogram,
    trim,
    trim_counts,
)
from .resample import bootstrap_att, decile_att
from .simulation import SimConfig, nonid_witness, run_sweep
from .strata import build_support_map, restrict_to_overlap, support_share
from . import svgplot


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_source(text: str) -> str:
    if text not in ("remote", "local"):
        raise ValueError("expected remote or local")
    return text


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _parse_caliper(text: str) -> float | None:
    return float(text) if text.strip() else None


# section -> key -> (default text, parser of the text).
_CONFIG_LAYOUT = {
    "data": {
        "source": ("remote", _parse_source),
        "treated_source": ("nsw_treated", str),
        "control_source": ("psid_controls", str),
        "treated_file": ("", str),
        "control_file": ("", str),
        "cache_dir": ("data/lalonde", str),
        "offline": ("false", _parse_bool),
    },
    "grids": {
        "config": ("builtin", str),    # builtin | path to grid_config.json
    },
    "propensity": {
        "covariates": ("age education black hispanic married nodegree re74 re75", str.split),
        "ridge": ("1e-8", float),
        "tol": ("1e-8", float),
        "max_iter": ("100", int),
        "hist_bins": ("20", int),
    },
    "trim": {
        "low": ("0.1", float),
        "high": ("0.9", float),
    },
    "match": {
        "metric": ("logit_score", str),
        "n_neighbors": ("1", int),
        "with_replacement": ("true", _parse_bool),
        "caliper": ("", _parse_caliper),
    },
    "bounds": {
        "tilt_deltas": ("0 0.05 0.1 0.25 0.5 0.75 1.0 1.5 2.0", _parse_floats),
        "proxy_deltas": ("0 0.5 1.0 1.5 2.0", _parse_floats),
    },
    "bootstrap": {
        "b": ("500", int),
        "refit": ("true", _parse_bool),
    },
    "deciles": {
        "min_per_arm": ("5", int),
    },
    "simulation": {
        "n": ("100000", int),
        "proportions": ("0.3 0.2 0.4 0.1", _parse_floats),
        "treat_prob": ("0.5", float),
        "deltas": ("0 0.5 1.0 1.5 2.0", _parse_floats),
        "epsilon": ("0.3", float),
        "witness_threshold": ("0.5", float),
    },
}


@dataclass
class RunConfig:
    """Run configuration, parsed when read, plus the seed and output
    directory. `raw` holds the text as written, which report.json echoes
    and `digest` hashes; `get` returns the parsed value. The cached
    properties are the products several stages share, each built once per
    invocation on first use."""

    raw: dict
    values: dict
    seed: int
    out_dir: Path
    offline_override: bool = False

    @classmethod
    def from_file(cls, path, seed: int, out_dir, offline: bool = False) -> "RunConfig":
        raw = {section: {key: default for key, (default, _) in keys.items()}
               for section, keys in _CONFIG_LAYOUT.items()}
        if path is not None:
            parser = configparser.ConfigParser()
            read = parser.read(path)
            if not read:
                raise ConfigError(f"config file {path} not found")
            for section in parser.sections():
                if section not in _CONFIG_LAYOUT:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in _CONFIG_LAYOUT[section]:
                        raise ConfigError(f"unknown key {key!r} in section [{section}]")
                    raw[section][key] = value
        if seed is None:
            raise ConfigError("seed is mandatory; pass --seed")
        values = {section: {} for section in raw}
        for section, keys in raw.items():
            for key, text in keys.items():
                try:
                    values[section][key] = _CONFIG_LAYOUT[section][key][1](text)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: cannot parse {text!r} ({exc})") from None
        return cls(raw=raw, values=values, seed=int(seed), out_dir=Path(out_dir),
                   offline_override=offline)

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def offline(self) -> bool:
        return self.offline_override or self.get("data", "offline")

    def digest(self) -> str:
        canon = json.dumps({"config": self.raw, "seed": self.seed}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    # shared products ------------------------------------------------------
    @functools.cached_property
    def tables(self):
        """(composite dataset, source digests); commands that need no data
        (simulate, remote fetch) never parse them."""
        return _load_data(self)

    @functools.cached_property
    def model(self) -> PropensityModel:
        path = self.out_dir / "propensity_model.json"
        if not path.exists():
            raise DependencyError(f"{path} missing; run the propensity command first")
        return PropensityModel.from_json(path.read_text())

    @functools.cached_property
    def grid_config(self) -> dict:
        choice = self.get("grids", "config")
        try:
            return load_grid_config(None if choice == "builtin" else choice)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[grids] config {choice!r} unreadable: {exc}") from None

    @functools.cached_property
    def fine_map(self):
        return build_support_map(self.tables[0], bins_from_config(self.grid_config["fine"]))

    @functools.cached_property
    def tilting(self):
        """(TiltingProblem over the controls, its sweep over [bounds]
        tilt_deltas): one sort serves both sweeps and every bisection step."""
        problem = TiltingProblem(*control_tilt_inputs(self.tables[0], self.model))
        return problem, problem.sweep(self.get("bounds", "tilt_deltas"))


# ---------------------------------------------------------------------------
# shared plumbing


def _sanitize(obj):
    """Strict-JSON-safe copy: non-finite floats become strings."""
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == float("inf"):
            return "inf"
        if obj == float("-inf"):
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True,
                      default=str, allow_nan=False)


def _run_stage(stage: str, command, cfg: RunConfig):
    """Run one command and print its log line: report values, log-only
    fields, and the wall and CPU seconds it took (a shared product is
    charged to the first stage that uses it). CPU time next to wall time
    tells host load apart from the stage's own cost. Returns the values
    and the two timings."""
    wall, cpu = time.perf_counter(), time.process_time()
    values, fields = command(cfg)
    clock = {"elapsed_s": time.perf_counter() - wall,
             "cpu_s": time.process_time() - cpu}
    print(json.dumps(_sanitize({"stage": stage, **values, **fields, **clock}),
                     sort_keys=True, default=str))
    return values, clock


def _write_csv(path: Path, rows) -> None:
    def _cell(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    path.write_text("\n".join(",".join(_cell(v) for v in row) for row in rows) + "\n")


def _interval_chart(path: Path, deltas, intervals, title: str, xlabel: str = "delta",
                    ylabel: str = "ATT", **leading) -> None:
    """Lower and upper interval ends against delta, after any `leading` series."""
    svgplot.line_chart(
        path, deltas,
        {**leading, "lower": [iv.lo for iv in intervals],
         "upper": [iv.hi for iv in intervals]},
        title=title, xlabel=xlabel, ylabel=ylabel,
    )


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_data(cfg: RunConfig):
    """Composite evaluation dataset plus source digests."""
    if cfg.get("data", "source") == "local":
        digests = {}
        parts = []
        for role, key in (("treated", "treated_file"), ("control", "control_file")):
            path = cfg.get("data", key)
            if not path or not Path(path).exists():
                raise DependencyError(
                    f"[data] {key} missing or unreadable; point it at a local table"
                )
            text = Path(path).read_text()
            digests[role] = _sha256_text(text)
            parts.append(parse_table(text, NSW_SCHEMA))
        return merge(*parts), digests
    cache = cfg.get("data", "cache_dir")
    digests = {}
    try:
        treated = load_source(cfg.get("data", "treated_source"), cache, offline=cfg.offline)
        control = load_source(cfg.get("data", "control_source"), cache, offline=cfg.offline)
    except FetchError as exc:
        raise DependencyError(
            f"dataset not cached ({exc}); run the fetch command first"
        ) from exc
    manifest_path = Path(cache) / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        digests = {k: v["sha256"] for k, v in manifest.items()}
    return merge(treated, control), digests


def _match_spec(cfg: RunConfig) -> MatchSpec:
    return MatchSpec(
        metric=cfg.get("match", "metric"),
        caliper=cfg.get("match", "caliper"),
        with_replacement=cfg.get("match", "with_replacement"),
        n_neighbors=cfg.get("match", "n_neighbors"),
    )


def _trim_rule(cfg: RunConfig) -> TrimRule:
    return TrimRule(cfg.get("trim", "low"), cfg.get("trim", "high"))


# ---------------------------------------------------------------------------
# subcommands: each takes the config and returns (report values, log-only
# fields) for `_run_stage`.


def cmd_fetch(cfg: RunConfig):
    if cfg.get("data", "source") == "local":
        return {"digests": cfg.tables[1]}, {"mode": "local"}
    cache = cfg.get("data", "cache_dir")
    digests, sources = {}, {}
    for key in (cfg.get("data", "treated_source"), cfg.get("data", "control_source")):
        text = fetch_dataset(key, cache, offline=cfg.offline)
        digests[key] = _sha256_text(text)
        sources[key] = {"url": SOURCE_URLS[key], "lines": len(text.splitlines())}
    return {"digests": digests}, {"sources": sources}


def cmd_support(cfg: RunConfig):
    data, digests = cfg.tables
    fine_map = cfg.fine_map
    _write_csv(cfg.out_dir / "support_72.csv", fine_map.to_csv_rows())
    shares = support_share(fine_map)
    counts = {status.value: n for status, n in fine_map.status_counts().items()}

    coarse_map = build_support_map(data, bins_from_config(cfg.grid_config["coarse"]))
    _write_csv(cfg.out_dir / "support_42.csv", coarse_map.to_csv_rows())

    values = {
        "fine": {"cells": fine_map.n_cells, "counts": counts,
                 "shares": {"both": shares[0], "control_only": shares[1],
                            "treated_only": shares[2], "empty": shares[3]},
                 "calibrated": cfg.grid_config.get("calibrated", False)},
        "coarse": {"cells": coarse_map.n_cells,
                   "without_treated": int(np.sum(coarse_map.treated_counts == 0))},
    }
    return values, {"digests": digests}


def cmd_propensity(cfg: RunConfig):
    data, digests = cfg.tables
    model = fit_logistic(
        data, cfg.get("propensity", "covariates"),
        ridge=cfg.get("propensity", "ridge"),
        tol=cfg.get("propensity", "tol"),
        max_iter=cfg.get("propensity", "max_iter"),
    )
    (cfg.out_dir / "propensity_model.json").write_text(model.to_json())
    scores = score_dataset(model, data)
    n_bins = cfg.get("propensity", "hist_bins")
    t_counts, c_counts, edges = score_histogram(data, model, n_bins)
    rows = [["bin_low", "bin_high", "treated", "control"]]
    for i in range(n_bins):
        rows.append([edges[i], edges[i + 1], int(t_counts[i]), int(c_counts[i])])
    _write_csv(cfg.out_dir / "pscore_hist.csv", rows)
    svgplot.histogram_chart(
        cfg.out_dir / "pscore_hist.svg", edges,
        {"treated": t_counts.tolist(), "control": c_counts.tolist()},
        title="Propensity scores by arm", xlabel="score",
    )
    values = {
        "converged": model.converged,
        "iterations": model.iterations,
        "clamped_scores": count_clamped(scores),
        "treated_score_mean": float(np.mean(scores[data.treated])),
        "control_score_mean": float(np.mean(scores[~data.treated])),
    }
    return values, {"digests": digests}


def cmd_match(cfg: RunConfig):
    data, digests = cfg.tables
    model = cfg.model
    spec = _match_spec(cfg)
    full = att_match(data, model, spec)
    overlap_est = att_match(restrict_to_overlap(data, cfg.fine_map), model, spec)
    rule = _trim_rule(cfg)
    trimmed_est = att_match(trim(data, model, rule), model, spec)

    labels = ["full_sample", "overlap_restricted",
              f"score_trimmed[{rule.low},{rule.high}]"]
    table1 = [full, overlap_est, trimmed_est]
    _write_csv(cfg.out_dir / "table1.csv", estimates_to_csv_rows(table1, labels))

    designs = design_sensitivity(data, model, default_design_suite(data, model))
    _write_csv(cfg.out_dir / "designs.csv", estimates_to_csv_rows(designs))

    values = {
        "table1": [
            {"sample": label, "tau_hat": est.tau_hat, "se": est.se,
             "n_treated_used": est.n_treated_used, "n_dropped": est.n_dropped}
            for label, est in zip(labels, table1)
        ],
        "designs": [
            {"design": est.design_tag, "tau_hat": est.tau_hat, "se": est.se}
            for est in designs
        ],
        "trim_drops": trim_counts(data, model, rule),
        "naive": naive_diff(data).tau_hat,
    }
    return values, {"digests": digests, "treated_units": data.n_treated,
                    "controls": data.n_control,
                    "distinct_control_scores": distinct_control_scores(data, model)}


def cmd_bounds(cfg: RunConfig):
    data, digests = cfg.tables
    problem, tilting = cfg.tilting
    _write_csv(cfg.out_dir / "sweep_tilting.csv", sweep_to_csv_rows(tilting))
    _interval_chart(cfg.out_dir / "sweep_tilting.svg", tilting.deltas, tilting.intervals,
                    "Identified set vs selection curvature")

    proxy = sweep_trimming_proxy(data, cfg.model, cfg.get("bounds", "proxy_deltas"),
                                 match_spec=_match_spec(cfg))
    _write_csv(cfg.out_dir / "sweep_proxy.csv", sweep_to_csv_rows(proxy))
    if proxy.deltas:
        _interval_chart(cfg.out_dir / "sweep_proxy.svg", proxy.deltas, proxy.intervals,
                        "Trimming-proxy set vs delta")

    values = {
        "massi_tilting": tilting.massi,
        "massi_proxy": proxy.massi,
        "proxy_missing_deltas": list(proxy.missing_deltas),
        "proxy_width_violations": list(proxy.width_violations),
    }
    (cfg.out_dir / "massi.json").write_text(_dump_json(
        {"tilting": {"massi": tilting.massi, "method": tilting.method_tag},
         "trimming_proxy": {"massi": proxy.massi, "method": proxy.method_tag,
                            "missing_deltas": list(proxy.missing_deltas),
                            "width_violations": list(proxy.width_violations)}}))
    return values, {"digests": digests,
                    "distinct_control_outcomes": problem.distinct_outcomes}


def cmd_fragility(cfg: RunConfig):
    table1_path = cfg.out_dir / "table1.csv"
    if not table1_path.exists():
        raise DependencyError(f"{table1_path} missing; run the match command first")
    header, first_row = table1_path.read_text().splitlines()[:2]
    cols = header.split(",")
    cells = first_row.split(",")
    tau_hat = float(cells[cols.index("att_estimate")])
    se = float(cells[cols.index("standard_error")])

    problem, tilting = cfg.tilting
    bisection_evals = 0

    def interval_at(delta):
        nonlocal bisection_evals
        bisection_evals += 1
        return problem.interval(delta)

    frag = fragility_index(tilting, interval_at=interval_at)
    baseline = minimax_rule(tilting.intervals[0])[0]
    se_scaled = bias_robustness(tau_hat, se, grid_step=0.5)

    deltas = [0.5 * i for i in range(0, 9)]
    curve = bias_robustness_curve(tau_hat, se, deltas)
    _write_csv(cfg.out_dir / "fragility_curve.csv",
               [["delta", "lo", "hi"]] + [[d, iv.lo, iv.hi] for d, iv in zip(deltas, curve)])
    _interval_chart(cfg.out_dir / "fragility.svg", deltas, curve,
                    "Bias tolerance: tau +/- delta*SE", xlabel="delta (SE units)")
    payload = {
        "module": "decision",
        "method": "tilting",
        "baseline_decision": baseline.value,
        "fragility_delta": frag,
        "massi_tilting": tilting.massi,
        "bias_robustness_se_scaled": se_scaled,
        "tau_hat": tau_hat,
        "se": se,
        "bias_curve": [{"delta": d, "lo": iv.lo, "hi": iv.hi} for d, iv in zip(deltas, curve)],
    }
    (cfg.out_dir / "fragility.json").write_text(_dump_json(payload))
    # No later stage reads the tilting problem. Kept alive past the
    # bootstrap's allocations, its arrays raised the peak RSS of a
    # 30,000-control reproduce by about 4 MB.
    del cfg.tilting
    return payload, {"digests": cfg.tables[1],
                     "distinct_control_outcomes": problem.distinct_outcomes,
                     "bisection_evals": bisection_evals}


def cmd_simulate(cfg: RunConfig):
    sim_config = SimConfig(
        seed=cfg.seed,
        n=cfg.get("simulation", "n"),
        type_proportions=cfg.get("simulation", "proportions"),
        treat_prob=cfg.get("simulation", "treat_prob"),
        delta_grid=cfg.get("simulation", "deltas"),
        epsilon=cfg.get("simulation", "epsilon"),
    )
    sweep = run_sweep(sim_config)
    rows = [["delta", "observed_ate", "lo", "hi"]]
    for d, ate, interval in zip(sweep.deltas, sweep.observed_ates, sweep.sets):
        rows.append([d, ate, interval.lo, interval.hi])
    _write_csv(cfg.out_dir / "sim_sweep.csv", rows)
    _interval_chart(cfg.out_dir / "sim_sweep.svg", sweep.deltas, sweep.sets,
                    "Observed effect vs selection strength",
                    ylabel="difference in means", observed=list(sweep.observed_ates))
    witness = nonid_witness(
        threshold_c=cfg.get("simulation", "witness_threshold"),
        seed=cfg.seed, n=sim_config.n,
        type_proportions=sim_config.type_proportions,
        treat_prob=sim_config.treat_prob,
    )
    witness_payload = {
        "att_ignorable": witness.att_ignorable,
        "att_threshold": witness.att_threshold,
        "tv_distance": witness.tv_distance,
        "selection_rate": witness.selection_rate,
        "digest_ignorable": {f"d={d},y={y}": v for (d, y), v in witness.digest_ignorable.items()},
        "digest_threshold": {f"d={d},y={y}": v for (d, y), v in witness.digest_threshold.items()},
    }
    (cfg.out_dir / "witness.json").write_text(_dump_json(witness_payload))
    values = {
        "observed_ates": list(sweep.observed_ates),
        "massi": sweep.massi,
        "witness_tv": witness.tv_distance,
        "witness_att_gap": abs(witness.att_ignorable - witness.att_threshold),
        "sets": [{"lo": iv.lo, "hi": iv.hi} for iv in sweep.sets],
    }
    return values, {"seed": cfg.seed}


def cmd_bootstrap(cfg: RunConfig):
    data, digests = cfg.tables
    refit = cfg.get("bootstrap", "refit")
    b = cfg.get("bootstrap", "b")
    full = bootstrap_att(data, refit, _match_spec(cfg), b, cfg.seed,
                         covariates=cfg.get("propensity", "covariates"),
                         model=None if refit else cfg.model,
                         ridge=cfg.get("propensity", "ridge"),
                         tol=cfg.get("propensity", "tol"),
                         max_iter=cfg.get("propensity", "max_iter"),
                         trim_rule=_trim_rule(cfg))
    trimmed = full.trimmed
    # One row per replicate; a design that failed it leaves its cell empty.
    by_replicate = [dict(zip(s.replicates, s.estimates)) for s in (full, trimmed)]
    rows = [["replicate", "full_sample", "score_trimmed"]]
    for r in range(b):
        rows.append([r, *(estimates.get(r, "") for estimates in by_replicate)])
    _write_csv(cfg.out_dir / "bootstrap.csv", rows)
    values = {
        "full": {"mean": full.mean, "sd": full.sd, "q025": full.q025,
                 "q975": full.q975, "n_failed": full.n_failed},
        "trimmed": {"mean": trimmed.mean, "sd": trimmed.sd, "q025": trimmed.q025,
                    "q975": trimmed.q975, "n_failed": trimmed.n_failed},
        "b": b,
    }
    return values, {"digests": digests}


def cmd_deciles(cfg: RunConfig):
    data, digests = cfg.tables
    report = decile_att(data, cfg.model, min_per_arm=cfg.get("deciles", "min_per_arm"))
    rows = [["decile", "n_treated", "n_control", "att", "se", "dropped"]]
    for row in report.rows:
        rows.append([
            row.decile, row.n_treated, row.n_control,
            "" if row.att is None else row.att,
            "" if row.se is None else row.se,
            row.dropped,
        ])
    _write_csv(cfg.out_dir / "deciles.csv", rows)
    values = {
        "dropped_deciles": [r.decile for r in report.rows if r.dropped],
        "atts": {r.decile: r.att for r in report.rows if not r.dropped},
    }
    return values, {"digests": digests}


# (stage, command, producing module), in reproduce order.
_STAGES = [
    ("fetch", cmd_fetch, "ingest"),
    ("support", cmd_support, "strata"),
    ("propensity", cmd_propensity, "propensity"),
    ("match", cmd_match, "estimators"),
    ("bounds", cmd_bounds, "identification"),
    ("fragility", cmd_fragility, "decision"),
    ("bootstrap", cmd_bootstrap, "resample"),
    ("deciles", cmd_deciles, "resample"),
    ("simulate", cmd_simulate, "simulation"),
]


def cmd_reproduce(cfg: RunConfig):
    """Run every stage in order and bundle report.json; a stage failure
    halts with the stage name while earlier artifacts stay on disk. The
    log-only fields hold each stage's wall and CPU seconds."""
    digest = cfg.digest()
    report = {
        "metadata": {
            "config": cfg.raw,
            "config_digest": digest,
            "seed": cfg.seed,
            "version": __version__,
            "nsw_variant": cfg.get("data", "treated_source"),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    }
    clocks = {}
    for stage, fn, module in _STAGES:
        try:
            values, clocks[stage] = _run_stage(stage, fn, cfg)
        except AttDiagError as exc:
            (cfg.out_dir / "report.json").write_text(_dump_json(report))
            raise AttDiagError(f"stage {stage!r} failed: {exc}") from exc
        report[stage] = {
            "module": module,
            "config_digest": digest,
            "values": values,
        }
    (cfg.out_dir / "report.json").write_text(_dump_json(report))
    return {"out": str(cfg.out_dir), "config_digest": digest}, {"stages": clocks}


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {**{stage: fn for stage, fn, _ in _STAGES}, "reproduce": cmd_reproduce}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="attdiag",
        description="ATT identification diagnostics and curvature-indexed bounds",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="run configuration file")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--offline", action="store_true",
                        help="never touch the network; cache only")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config, seed=args.seed, out_dir=args.out,
                                  offline=args.offline)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        _run_stage(args.command, _COMMANDS[args.command], cfg)
    except AttDiagError as exc:
        print(
            json.dumps({
                "error": type(exc).__name__,
                "command": args.command,
                "message": str(exc),
            }, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
