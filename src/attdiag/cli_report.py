"""Command-line pipeline: fetch data, map support, fit scores, estimate,
bound, and bundle everything into a reproduction report.

Each subcommand writes its CSV/JSON artifacts into the output directory
and prints one JSON log line with input digests; `reproduce` chains every
stage and emits report.json plus SVG renderings. One invocation parses the
input tables at most once, on first use, and every stage it runs shares
that parse. Stages read upstream products (the propensity model, table 1)
from their artifacts, in a chained run as in a standalone one; a command
whose upstream artifact is missing fails with a dependency error naming
the producing command.
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
from .strata import build_support_map, coarse_grid_audit, restrict_to_overlap, support_share
from . import svgplot

_CONFIG_LAYOUT = {
    "data": {
        "source": "remote",            # remote | local
        "treated_source": "nsw_treated",
        "control_source": "psid_controls",
        "treated_file": "",
        "control_file": "",
        "cache_dir": "data/lalonde",
        "offline": "false",
    },
    "grids": {
        "config": "builtin",           # builtin | path to grid_config.json
    },
    "propensity": {
        "covariates": "age education black hispanic married nodegree re74 re75",
        "ridge": "1e-8",
        "tol": "1e-8",
        "max_iter": "100",
        "hist_bins": "20",
    },
    "trim": {
        "low": "0.1",
        "high": "0.9",
    },
    "match": {
        "metric": "logit_score",
        "n_neighbors": "1",
        "with_replacement": "true",
        "caliper": "",
    },
    "bounds": {
        "tilt_deltas": "0 0.05 0.1 0.25 0.5 0.75 1.0 1.5 2.0",
        "proxy_deltas": "0 0.5 1.0 1.5 2.0",
    },
    "bootstrap": {
        "b": "500",
        "refit": "true",
    },
    "deciles": {
        "min_per_arm": "5",
    },
    "simulation": {
        "n": "100000",
        "proportions": "0.3 0.2 0.4 0.1",
        "treat_prob": "0.5",
        "deltas": "0 0.5 1.0 1.5 2.0",
        "epsilon": "0.3",
        "witness_threshold": "0.5",
    },
}


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


@dataclass
class RunConfig:
    """Validated run configuration plus the seed and output directory."""

    raw: dict
    seed: int
    out_dir: Path
    offline_override: bool = False

    @classmethod
    def from_file(cls, path, seed: int, out_dir, offline: bool = False) -> "RunConfig":
        raw = {section: dict(defaults) for section, defaults in _CONFIG_LAYOUT.items()}
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
        return cls(raw=raw, seed=int(seed), out_dir=Path(out_dir),
                   offline_override=offline)

    # typed accessors ------------------------------------------------------
    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def get_float(self, section: str, key: str) -> float:
        try:
            return float(self.get(section, key))
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number") from None

    def get_int(self, section: str, key: str) -> int:
        try:
            return int(self.get(section, key))
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer") from None

    def get_bool(self, section: str, key: str) -> bool:
        return _parse_bool(self.get(section, key), f"[{section}] {key}")

    def get_floats(self, section: str, key: str) -> tuple[float, ...]:
        try:
            return tuple(float(tok) for tok in self.get(section, key).split())
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a list of numbers") from None

    @property
    def offline(self) -> bool:
        return self.offline_override or self.get_bool("data", "offline")

    def digest(self) -> str:
        canon = json.dumps({"config": self.raw, "seed": self.seed}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def echo(self) -> dict:
        return {section: dict(kv) for section, kv in self.raw.items()}


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


def _log(stage: str, **fields) -> None:
    print(json.dumps(_sanitize({"stage": stage, **fields}), sort_keys=True,
                     default=str))


def _stage_clock():
    """Start a stage's clocks; the returned callable gives the wall and CPU
    seconds since then as log fields. CPU time next to wall time tells host
    load apart from the stage's own cost."""
    wall, cpu = time.perf_counter(), time.process_time()
    return lambda: {"elapsed_s": time.perf_counter() - wall,
                    "cpu_s": time.process_time() - cpu}


def _write_csv(path: Path, rows) -> None:
    def _cell(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    path.write_text("\n".join(",".join(_cell(v) for v in row) for row in rows) + "\n")


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_data(cfg: RunConfig):
    """Composite evaluation dataset plus source digests."""
    mode = cfg.get("data", "source")
    if mode == "local":
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
            data = parse_table(text, NSW_SCHEMA)
            data.provenance = Path(path).name
            parts.append(data)
        merged = merge(parts[0], parts[1], keep="treated_only")
        return merged, digests
    if mode != "remote":
        raise ConfigError(f"[data] source must be remote or local, got {mode!r}")
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
    return merge(treated, control, keep="treated_only"), digests


def _grid_config(cfg: RunConfig) -> dict:
    choice = cfg.get("grids", "config")
    return load_grid_config(None if choice == "builtin" else choice)


def _match_spec(cfg: RunConfig) -> MatchSpec:
    caliper_text = cfg.get("match", "caliper").strip()
    return MatchSpec(
        metric=cfg.get("match", "metric"),
        caliper=float(caliper_text) if caliper_text else None,
        with_replacement=cfg.get_bool("match", "with_replacement"),
        n_neighbors=cfg.get_int("match", "n_neighbors"),
    )


def _model_path(cfg: RunConfig) -> Path:
    return cfg.out_dir / "propensity_model.json"


def _load_model(cfg: RunConfig) -> PropensityModel:
    path = _model_path(cfg)
    if not path.exists():
        raise DependencyError(
            f"{path} missing; run the propensity command first"
        )
    return PropensityModel.from_json(path.read_text())


def _trim_rule(cfg: RunConfig) -> TrimRule:
    return TrimRule(cfg.get_float("trim", "low"), cfg.get_float("trim", "high"))


# ---------------------------------------------------------------------------
# subcommands: each takes the config and `load`, a no-argument callable that
# returns this invocation's (dataset, digests) from `_load_data`.


def cmd_fetch(cfg: RunConfig, load) -> dict:
    mode = cfg.get("data", "source")
    if mode == "local":
        _, digests = load()
        _log("fetch", mode="local", digests=digests)
        return {"digests": digests}
    cache = cfg.get("data", "cache_dir")
    digests = {}
    for key in (cfg.get("data", "treated_source"), cfg.get("data", "control_source")):
        text = fetch_dataset(key, cache, offline=cfg.offline)
        digests[key] = _sha256_text(text)
        _log("fetch", source=key, url=SOURCE_URLS[key], sha256=digests[key],
             lines=len(text.splitlines()))
    return {"digests": digests}


def cmd_support(cfg: RunConfig, load) -> dict:
    data, digests = load()
    grid_cfg = _grid_config(cfg)

    fine_map = build_support_map(data, bins_from_config(grid_cfg["fine"]))
    _write_csv(cfg.out_dir / "support_72.csv", fine_map.to_csv_rows())
    shares = support_share(fine_map)
    counts = {status.value: n for status, n in fine_map.status_counts().items()}

    coarse_bins = bins_from_config(grid_cfg["coarse"])
    total, without_treated = coarse_grid_audit(data, coarse_bins)
    coarse_map = build_support_map(data, coarse_bins)
    _write_csv(cfg.out_dir / "support_42.csv", coarse_map.to_csv_rows())

    result = {
        "fine": {"cells": fine_map.n_cells, "counts": counts,
                 "shares": {"both": shares[0], "control_only": shares[1],
                            "treated_only": shares[2], "empty": shares[3]},
                 "calibrated": grid_cfg.get("calibrated", False)},
        "coarse": {"cells": total, "without_treated": without_treated},
    }
    _log("support", digests=digests, **result)
    return result


def cmd_propensity(cfg: RunConfig, load) -> dict:
    data, digests = load()
    covariates = cfg.get("propensity", "covariates").split()
    model = fit_logistic(
        data, covariates,
        ridge=cfg.get_float("propensity", "ridge"),
        tol=cfg.get_float("propensity", "tol"),
        max_iter=cfg.get_int("propensity", "max_iter"),
    )
    _model_path(cfg).write_text(model.to_json())
    scores = score_dataset(model, data)
    n_bins = cfg.get_int("propensity", "hist_bins")
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
    result = {
        "converged": model.converged,
        "iterations": model.iterations,
        "clamped_scores": count_clamped(scores),
        "treated_score_mean": float(np.mean(scores[data.treated])),
        "control_score_mean": float(np.mean(scores[~data.treated])),
    }
    _log("propensity", digests=digests, **result)
    return result


def cmd_match(cfg: RunConfig, load) -> dict:
    data, digests = load()
    model = _load_model(cfg)
    grid_cfg = _grid_config(cfg)

    spec = _match_spec(cfg)
    full = att_match(data, model, spec)

    fine_map = build_support_map(data, bins_from_config(grid_cfg["fine"]))
    overlap = restrict_to_overlap(data, fine_map)
    overlap_est = att_match(overlap, model, spec)

    rule = _trim_rule(cfg)
    trimmed = trim(data, model, rule)
    trimmed_est = att_match(trimmed, model, spec)

    labels = ["full_sample", "overlap_restricted",
              f"score_trimmed[{rule.low},{rule.high}]"]
    table1 = [full, overlap_est, trimmed_est]
    _write_csv(cfg.out_dir / "table1.csv", estimates_to_csv_rows(table1, labels))

    designs = design_sensitivity(data, model, default_design_suite(data, model))
    _write_csv(cfg.out_dir / "designs.csv", estimates_to_csv_rows(designs))

    result = {
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
    _log("match", digests=digests, **result)
    return result


def cmd_bounds(cfg: RunConfig, load) -> dict:
    clock = _stage_clock()
    data, digests = load()
    model = _load_model(cfg)

    problem = TiltingProblem(*control_tilt_inputs(data, model))
    tilting = problem.sweep(cfg.get_floats("bounds", "tilt_deltas"))
    _write_csv(cfg.out_dir / "sweep_tilting.csv", sweep_to_csv_rows(tilting))
    svgplot.line_chart(
        cfg.out_dir / "sweep_tilting.svg", tilting.deltas,
        {"lower": [iv.lo for iv in tilting.intervals],
         "upper": [iv.hi for iv in tilting.intervals]},
        title="Identified set vs selection curvature", xlabel="delta", ylabel="ATT",
    )

    proxy = sweep_trimming_proxy(
        data, model, cfg.get_floats("bounds", "proxy_deltas"),
        match_spec=_match_spec(cfg),
    )
    _write_csv(cfg.out_dir / "sweep_proxy.csv", sweep_to_csv_rows(proxy))
    if proxy.deltas:
        svgplot.line_chart(
            cfg.out_dir / "sweep_proxy.svg", proxy.deltas,
            {"lower": [iv.lo for iv in proxy.intervals],
             "upper": [iv.hi for iv in proxy.intervals]},
            title="Trimming-proxy set vs delta", xlabel="delta", ylabel="ATT",
        )

    result = {
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
    _log("bounds", digests=digests, **result,
         distinct_control_outcomes=problem.distinct_outcomes, **clock())
    return result


def cmd_fragility(cfg: RunConfig, load) -> dict:
    clock = _stage_clock()
    data, digests = load()
    model = _load_model(cfg)
    table1_path = cfg.out_dir / "table1.csv"
    if not table1_path.exists():
        raise DependencyError(f"{table1_path} missing; run the match command first")
    header, first_row = table1_path.read_text().splitlines()[:2]
    cols = header.split(",")
    cells = first_row.split(",")
    tau_hat = float(cells[cols.index("att_estimate")])
    se = float(cells[cols.index("standard_error")])

    # One sorted problem serves the sweep and every bisection step.
    problem = TiltingProblem(*control_tilt_inputs(data, model))
    tilting = problem.sweep(cfg.get_floats("bounds", "tilt_deltas"))
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
    svgplot.line_chart(
        cfg.out_dir / "fragility.svg", deltas,
        {"lower": [iv.lo for iv in curve], "upper": [iv.hi for iv in curve]},
        title="Bias tolerance: tau +/- delta*SE", xlabel="delta (SE units)",
        ylabel="ATT",
    )
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
    _log("fragility", digests=digests,
         fragility_delta=frag, bias_robustness=se_scaled, massi=tilting.massi,
         distinct_control_outcomes=problem.distinct_outcomes,
         bisection_evals=bisection_evals, **clock())
    return payload


def cmd_simulate(cfg: RunConfig, load) -> dict:
    sim_config = SimConfig(
        seed=cfg.seed,
        n=cfg.get_int("simulation", "n"),
        type_proportions=cfg.get_floats("simulation", "proportions"),
        treat_prob=cfg.get_float("simulation", "treat_prob"),
        delta_grid=cfg.get_floats("simulation", "deltas"),
        epsilon=cfg.get_float("simulation", "epsilon"),
    )
    sweep = run_sweep(sim_config)
    rows = [["delta", "observed_ate", "lo", "hi"]]
    for d, ate, interval in zip(sweep.deltas, sweep.observed_ates, sweep.sets):
        rows.append([d, ate, interval.lo, interval.hi])
    _write_csv(cfg.out_dir / "sim_sweep.csv", rows)
    svgplot.line_chart(
        cfg.out_dir / "sim_sweep.svg", sweep.deltas,
        {"observed": list(sweep.observed_ates),
         "lower": [iv.lo for iv in sweep.sets],
         "upper": [iv.hi for iv in sweep.sets]},
        title="Observed effect vs selection strength", xlabel="delta",
        ylabel="difference in means",
    )
    witness = nonid_witness(
        threshold_c=cfg.get_float("simulation", "witness_threshold"),
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
    result = {
        "observed_ates": list(sweep.observed_ates),
        "massi": sweep.massi,
        "witness_tv": witness.tv_distance,
        "witness_att_gap": abs(witness.att_ignorable - witness.att_threshold),
    }
    _log("simulate", seed=cfg.seed, **result)
    return {**result, "sets": [{"lo": iv.lo, "hi": iv.hi} for iv in sweep.sets]}


def cmd_bootstrap(cfg: RunConfig, load) -> dict:
    clock = _stage_clock()
    data, digests = load()
    covariates = cfg.get("propensity", "covariates").split()
    refit = cfg.get_bool("bootstrap", "refit")
    model = None if refit else _load_model(cfg)
    b = cfg.get_int("bootstrap", "b")
    spec = _match_spec(cfg)
    full = bootstrap_att(data, refit, spec, b, cfg.seed,
                         covariates=covariates, model=model,
                         ridge=cfg.get_float("propensity", "ridge"),
                         tol=cfg.get_float("propensity", "tol"),
                         max_iter=cfg.get_int("propensity", "max_iter"),
                         trim_rule=_trim_rule(cfg))
    trimmed = full.trimmed
    rows = [["replicate", "full_sample", "score_trimmed"]]
    n_rows = max(len(full.estimates), len(trimmed.estimates))
    for i in range(n_rows):
        rows.append([
            i,
            full.estimates[i] if i < len(full.estimates) else "",
            trimmed.estimates[i] if i < len(trimmed.estimates) else "",
        ])
    _write_csv(cfg.out_dir / "bootstrap.csv", rows)
    result = {
        "full": {"mean": full.mean, "sd": full.sd, "q025": full.q025,
                 "q975": full.q975, "n_failed": full.n_failed},
        "trimmed": {"mean": trimmed.mean, "sd": trimmed.sd, "q025": trimmed.q025,
                    "q975": trimmed.q975, "n_failed": trimmed.n_failed},
        "b": b,
    }
    _log("bootstrap", digests=digests, **result, **clock())
    return result


def cmd_deciles(cfg: RunConfig, load) -> dict:
    data, digests = load()
    model = _load_model(cfg)
    report = decile_att(data, model, min_per_arm=cfg.get_int("deciles", "min_per_arm"))
    rows = [["decile", "n_treated", "n_control", "att", "se", "dropped"]]
    for row in report.rows:
        rows.append([
            row.decile, row.n_treated, row.n_control,
            "" if row.att is None else row.att,
            "" if row.se is None else row.se,
            row.dropped,
        ])
    _write_csv(cfg.out_dir / "deciles.csv", rows)
    kept = [r for r in report.rows if not r.dropped]
    result = {
        "dropped_deciles": [r.decile for r in report.rows if r.dropped],
        "atts": {r.decile: r.att for r in kept},
    }
    _log("deciles", digests=digests, **result)
    return result


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


def cmd_reproduce(cfg: RunConfig, load) -> dict:
    """Run every stage in order and bundle report.json; a stage failure
    halts with the stage name while earlier artifacts stay on disk."""
    digest = cfg.digest()
    report = {
        "metadata": {
            "config": cfg.echo(),
            "config_digest": digest,
            "seed": cfg.seed,
            "version": __version__,
            "nsw_variant": cfg.get("data", "treated_source"),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    }
    for stage, fn, module in _STAGES:
        try:
            values = fn(cfg, load)
        except AttDiagError as exc:
            (cfg.out_dir / "report.json").write_text(_dump_json(report))
            raise AttDiagError(f"stage {stage!r} failed: {exc}") from exc
        report[stage] = {
            "module": module,
            "config_digest": digest,
            "values": values,
        }
    (cfg.out_dir / "report.json").write_text(_dump_json(report))
    _log("reproduce", out=str(cfg.out_dir), config_digest=digest)
    return report


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
        # Lazy, so commands that need no data (simulate, remote fetch) run
        # without it; cached, so the tables are parsed once per invocation.
        load = functools.cache(lambda: _load_data(cfg))
        _COMMANDS[args.command](cfg, load)
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
