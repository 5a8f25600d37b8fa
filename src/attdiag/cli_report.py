"""Command-line pipeline: fetch data, map support, fit scores, estimate,
bound, and bundle everything into a reproduction report.

Each subcommand writes its CSV/JSON artifacts into the output directory
and returns its report values plus log-only fields; `_run_stage` prints
them as the stage's one JSON log line, with the counts it added to the work
ledger and the wall and CPU seconds it took. `reproduce` runs every stage
that way, emits report.json plus SVG renderings, and ends with a line
holding each stage's timings, the bootstrap's failed replicates by design
and error type, and the invocation's ledger totals. The selection
simulation needs only the config, so when the process may run on more
than one CPU, `reproduce` starts it in a forked worker (`work.Forked`)
before the first stage, and the `simulate` stage takes its result at its
turn.

Each invocation resolves its inputs once, and each shared product has one
owner. The config is parsed when the file is read, the [grids] config file
included, so a bad value fails before any stage runs. What the config
determines (the parsed tables, the propensity model, the fine support map
and the tilting sweep) is kept on the `RunConfig`, built on first use, in
a chained run as in a standalone one. What a (dataset, model) pair
determines (the model's scores, the IPW estimate, the tilting inputs and
the tilting problem) is kept on the composite dataset (`Dataset.cached`),
where `sweep_tilting`, `att_ipw` and `sweep_trimming_proxy` find it too.
Upstream products (the propensity model and table 1) are read from their
artifacts; a command whose upstream artifact is missing or damaged fails
with a dependency error naming the producing command.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .decision import bias_robustness, bias_robustness_curve, fragility_index, minimax_rule
from .errors import AttDiagError, ConfigError, DependencyError, FetchError, WorkerError
from .estimators import (
    LOGIT_SCORE,
    MAHALANOBIS,
    MatchSpec,
    att_match,
    default_design_suite,
    design_sensitivity,
    distinct_control_scores,
    estimates_to_csv_rows,
    naive_diff,
)
from .identification import (
    _validate_delta_grid,
    sweep_tilting,
    sweep_to_csv_rows,
    sweep_trimming_proxy,
    tilting_problem,
)
from .ingest import (
    NSW_SCHEMA, SOURCE_URLS, _sha256, fetch_dataset, merge, parse_table,
)
from .propensity import (
    PropensityModel,
    TrimRule,
    _check_fit_options,
    count_clamped,
    fit_logistic,
    score_dataset,
    score_histogram,
    trim,
)
from .resample import bootstrap_att, decile_att
from .simulation import SimConfig, _check_witness_threshold, nonid_witness, run_sweep
from .strata import (bins_from_config, build_support_map, load_grid_config,
                     restrict_to_overlap, support_share)
from .work import COUNTS, CPU_SECONDS, Forked, available_cpus
from . import svgplot


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _choice(*options: str):
    """Parser accepting exactly one of `options`."""
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return text
    return parse


def _parse_count(text: str) -> int:
    """An integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError("expected an integer >= 1")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _parse_delta_grid(text: str) -> tuple[float, ...]:
    return _validate_delta_grid(_parse_floats(text))


def _parse_caliper(text: str) -> float | None:
    return float(text) if text.strip() else None


def _load_grids(choice: str):
    """({"fine": bins, "coarse": bins}, its `calibrated` value) of the
    [grids] config: the packaged grid config, or the file at `choice`."""
    try:
        grids = load_grid_config(None if choice == "builtin" else choice)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[grids] config {choice!r} unreadable: {exc}") from None
    if not isinstance(grids, dict):
        raise ConfigError(f"[grids] config {choice!r} unreadable: not a JSON object")
    bins = {}
    for grid in ("fine", "coarse"):
        try:
            bins[grid] = bins_from_config(grids[grid])
        except KeyError as exc:
            key = grid if exc.args[0] == grid else f"{grid}.{exc.args[0]}"
            raise ConfigError(f"[grids] config {choice!r} has no {key!r}") from None
        except (TypeError, ValueError, AttDiagError) as exc:
            raise ConfigError(f"[grids] config {choice!r} {grid}: invalid edges ({exc})") from None
    return bins, grids.get("calibrated", False)


# section -> key -> (default text, parser of the text).
_CONFIG_LAYOUT = {
    "data": {
        "source": ("remote", _choice("remote", "local")),
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
        "hist_bins": ("20", _parse_count),
    },
    "trim": {
        "low": ("0.1", float),
        "high": ("0.9", float),
    },
    "match": {
        "metric": (LOGIT_SCORE, _choice(LOGIT_SCORE, MAHALANOBIS)),
        "n_neighbors": ("1", int),
        "with_replacement": ("true", _parse_bool),
        "caliper": ("", _parse_caliper),
    },
    "bounds": {
        "tilt_deltas": ("0 0.05 0.1 0.25 0.5 0.75 1.0 1.5 2.0", _parse_delta_grid),
        "proxy_deltas": ("0 0.5 1.0 1.5 2.0", _parse_delta_grid),
    },
    "bootstrap": {
        "b": ("500", _parse_count),
        "refit": ("true", _parse_bool),
    },
    "deciles": {
        "min_per_arm": ("5", _parse_count),
    },
    "simulation": {
        "n": ("100000", int),
        "proportions": ("0.3 0.2 0.4 0.1", _parse_floats),
        "treat_prob": ("0.5", float),
        "deltas": ("0 0.5 1.0 1.5 2.0", _parse_delta_grid),
        "epsilon": ("0.3", float),
        "witness_threshold": ("0.5", _check_witness_threshold),
    },
}


@dataclass
class RunConfig:
    """Run configuration, parsed when read, plus the seed and output
    directory. `raw` holds the text as written, which report.json echoes
    and `digest` hashes; `get` returns the parsed value ([data] offline is
    also on under --offline). When read, the [match], [trim] and
    [simulation] sections are built into the objects the stages use, the
    [propensity] fit options are checked as `fit_logistic` checks them,
    and the [grids] config file is read into `bins` and `calibrated`. The
    cached properties are the products several stages share, each built
    once per invocation on first use."""

    raw: dict
    values: dict
    seed: int
    out_dir: Path
    match_spec: MatchSpec
    trim_rule: TrimRule
    sim_config: SimConfig
    fit_options: dict
    bins: dict
    calibrated: bool
    # The [simulation] experiments, when `reproduce` started them in a worker.
    simulation: Forked | None = None

    @classmethod
    def from_file(cls, path, seed: int, out_dir, offline: bool = False) -> "RunConfig":
        raw = {section: {key: default for key, (default, _) in keys.items()}
               for section, keys in _CONFIG_LAYOUT.items()}
        if path is not None:
            parser = configparser.ConfigParser()
            try:  # a duplicate key, a line outside any section, bytes not UTF-8
                read = parser.read(path)
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"config file {path} malformed: {exc}") from None
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
        if int(seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        values = {section: {} for section in raw}
        for section, keys in raw.items():
            for key, text in keys.items():
                try:
                    values[section][key] = _CONFIG_LAYOUT[section][key][1](text)
                except (ValueError, AttDiagError) as exc:
                    raise ConfigError(f"[{section}] {key}: invalid value {text!r} ({exc})") from None
        values["data"]["offline"] |= offline

        def build(section, make, **kwargs):
            try:
                return make(**kwargs)
            except AttDiagError as exc:
                raise ConfigError(f"[{section}] {exc}") from None

        fit, data = values["propensity"], values["data"]
        for role in ("treated", "control"):
            source = data[f"{role}_source"]
            if data["source"] == "remote" and source not in SOURCE_URLS:
                raise ConfigError(f"[data] {role}_source: unknown source {source!r}; "
                                  f"expected one of {sorted(SOURCE_URLS)}")
        columns = NSW_SCHEMA.covariate_columns
        if not fit["covariates"]:  # an intercept-only model scores every unit the same
            raise ConfigError("[propensity] covariates: need at least one covariate")
        for name in fit["covariates"]:
            if name not in columns:
                raise ConfigError(f"[propensity] covariates: {name!r} not in the "
                                  f"tables' covariate columns {columns}")
        fit_options = {key: fit[key] for key in ("ridge", "tol", "max_iter")}
        build("propensity", _check_fit_options, **fit_options)
        sim = values["simulation"]
        bins, calibrated = _load_grids(values["grids"]["config"])
        return cls(raw=raw, values=values, seed=int(seed), out_dir=Path(out_dir),
                   match_spec=build("match", MatchSpec, **values["match"]),
                   trim_rule=build("trim", TrimRule, **values["trim"]),
                   sim_config=build("simulation", SimConfig, seed=int(seed), n=sim["n"],
                                    type_proportions=sim["proportions"],
                                    treat_prob=sim["treat_prob"], delta_grid=sim["deltas"],
                                    epsilon=sim["epsilon"]),
                   fit_options=fit_options, bins=bins, calibrated=calibrated)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def digest(self) -> str:
        canon = json.dumps({"config": self.raw, "seed": self.seed}, sort_keys=True)
        return _sha256(canon.encode())[:16]

    # shared products ------------------------------------------------------
    @functools.cached_property
    def tables(self):
        """(composite dataset, source digests, rows parsed per table);
        commands that need no data (simulate, remote fetch) never parse
        them."""
        return _load_data(self)

    @functools.cached_property
    def model(self) -> PropensityModel:
        return _read_upstream(self.out_dir / "propensity_model.json", "propensity",
                              PropensityModel.from_json)

    @functools.cached_property
    def fine_map(self):
        return build_support_map(self.tables[0], self.bins["fine"])

    @functools.cached_property
    def tilting(self):
        """The sweep over [bounds] tilt_deltas, on the pair's one
        `tilting_problem`, which the fragility bisection reuses."""
        return sweep_tilting(self.tables[0], self.model, self.get("bounds", "tilt_deltas"))


# ---------------------------------------------------------------------------
# shared plumbing


def _sanitize(obj):
    """Strict-JSON-safe copy: non-finite floats become strings."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else str(obj)  # "nan", "inf" or "-inf"
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True,
                      default=str, allow_nan=False)


def _cpu_seconds() -> float:
    """CPU seconds of this process plus those of the worker processes it
    has reaped (`work.Forked`)."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def _run_stage(stage: str, command, cfg: RunConfig):
    """Run one command and print its log line: report values, log-only
    fields, the counts the command added to the work ledger (a count it
    did not move is absent) and the CPU seconds it added per bootstrap
    phase (`work.CPU_SECONDS`), and the wall and CPU seconds it took (a
    shared product is charged to the first stage that uses it). CPU time
    next to wall time tells host load apart from the stage's own cost. A
    key set by two of these parts is a defect and raises ValueError.
    Returns the values, the log-only fields and the two timings."""
    before, phases = COUNTS.copy(), CPU_SECONDS.copy()
    wall, cpu = time.perf_counter(), _cpu_seconds()
    values, fields = command(cfg)
    clock = {"elapsed_s": time.perf_counter() - wall,
             "cpu_s": _cpu_seconds() - cpu}
    line = {"stage": stage}
    for part in (values, fields, COUNTS - before, CPU_SECONDS - phases, clock):
        clash = line.keys() & part.keys()
        if clash:
            raise ValueError(f"stage {stage!r} log line sets {sorted(clash)} twice")
        line.update(part)
    print(json.dumps(_sanitize(line), sort_keys=True, default=str))
    return values, fields, clock


def _read_upstream(path: Path, producer: str, parse):
    """`parse` of the text of an upstream artifact; a missing or damaged
    one is a DependencyError naming the command that writes it."""
    try:
        return parse(path.read_text())
    except FileNotFoundError:
        raise DependencyError(f"{path} missing; run the {producer} command first") from None
    except (OSError, ValueError, KeyError, TypeError, StopIteration, AttDiagError) as exc:
        raise DependencyError(f"{path} damaged ({type(exc).__name__}: {exc}); "
                              f"run the {producer} command first") from None


def _full_sample_estimate(text: str) -> tuple[float, float]:
    """(tau_hat, se) of table 1's first row, the full sample."""
    full_sample = next(csv.DictReader(io.StringIO(text)))
    return float(full_sample["att_estimate"]), float(full_sample["standard_error"])


def _write_csv(path: Path, rows) -> None:
    """Rows as CSV, floats as their repr; CSV quotes a cell holding a comma."""
    with path.open("w", newline="") as out:
        csv.writer(out, lineterminator="\n").writerows(
            [repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def _interval_chart(path: Path, deltas, intervals, title: str, xlabel: str = "delta",
                    ylabel: str = "ATT", **leading) -> None:
    """Lower and upper interval ends against delta, after any `leading` series."""
    svgplot.line_chart(
        path, deltas,
        {**leading, "lower": [iv.lo for iv in intervals],
         "upper": [iv.hi for iv in intervals]},
        title=title, xlabel=xlabel, ylabel=ylabel,
    )


def _load_data(cfg: RunConfig):
    """Composite evaluation dataset, plus each table's text digest and parsed
    rows keyed by role. Each table, [data] <role>_file when local and
    [data] <role>_source from the download cache when not, is in the NSW
    layout."""
    local = cfg.get("data", "source") == "local"
    digests, parts = {}, {}
    for role in ("treated", "control"):
        if local:
            try:  # an unset path reads as "." and fails as a directory
                text = Path(cfg.get("data", f"{role}_file")).read_text()
            except (OSError, UnicodeDecodeError):
                raise DependencyError(
                    f"[data] {role}_file missing or unreadable; point it at a local table"
                ) from None
        else:
            source = cfg.get("data", f"{role}_source")
            try:
                text = fetch_dataset(source, cfg.get("data", "cache_dir"),
                                     offline=cfg.get("data", "offline"))
            except FetchError as exc:
                raise DependencyError(
                    f"dataset not cached ({exc}); run the fetch command first"
                ) from exc
        digests[role] = _sha256(text.encode())
        parts[role] = parse_table(text, NSW_SCHEMA)
    rows = {role: len(part) for role, part in parts.items()}
    return merge(parts["treated"], parts["control"]), digests, rows


# ---------------------------------------------------------------------------
# subcommands: each takes the config and returns (report values, log-only
# fields) for `_run_stage`.


def cmd_fetch(cfg: RunConfig):
    if cfg.get("data", "source") == "local":
        _, digests, rows = cfg.tables
        return {"digests": digests}, {"mode": "local", "rows": rows}
    cache = cfg.get("data", "cache_dir")
    digests, sources = {}, {}
    for key in (cfg.get("data", "treated_source"), cfg.get("data", "control_source")):
        text = fetch_dataset(key, cache, offline=cfg.get("data", "offline"))
        digests[key] = _sha256(text.encode())
        sources[key] = {"url": SOURCE_URLS[key], "lines": len(text.splitlines())}
    return {"digests": digests}, {"sources": sources}


def cmd_support(cfg: RunConfig):
    data, digests, _ = cfg.tables
    fine_map = cfg.fine_map
    _write_csv(cfg.out_dir / "support_72.csv", fine_map.to_csv_rows())
    shares = support_share(fine_map)
    counts = {status.value: n for status, n in fine_map.status_counts().items()}

    coarse_map = build_support_map(data, cfg.bins["coarse"])
    _write_csv(cfg.out_dir / "support_42.csv", coarse_map.to_csv_rows())

    values = {
        "fine": {"cells": fine_map.n_cells, "counts": counts,
                 "shares": {"both": shares[0], "control_only": shares[1],
                            "treated_only": shares[2], "empty": shares[3]},
                 "calibrated": cfg.calibrated},
        "coarse": {"cells": coarse_map.n_cells,
                   "without_treated": int(np.sum(coarse_map.treated_counts == 0))},
    }
    return values, {"digests": digests}


def cmd_propensity(cfg: RunConfig):
    data, digests, _ = cfg.tables
    model = fit_logistic(data, cfg.get("propensity", "covariates"), **cfg.fit_options)
    (cfg.out_dir / "propensity_model.json").write_text(model.to_json())
    # Scored with the model just written; its JSON round trip is exact.
    scores = data.cached(cfg.model, "scores", score_dataset)
    n_bins = cfg.get("propensity", "hist_bins")
    t_counts, c_counts, edges = score_histogram(data, scores, n_bins)
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
    data, digests, _ = cfg.tables
    model, spec, rule = cfg.model, cfg.match_spec, cfg.trim_rule
    scores = data.cached(model, "scores", score_dataset)
    full = att_match(data, scores, spec)
    overlap = restrict_to_overlap(data, cfg.fine_map)
    overlap_est = att_match(overlap, score_dataset(model, overlap), spec)
    trimmed = trim(data, scores, rule)
    trimmed_est = att_match(trimmed, score_dataset(model, trimmed), spec)

    labels = ["full_sample", "overlap_restricted",
              f"score_trimmed[{rule.low},{rule.high}]"]
    table1 = [full, overlap_est, trimmed_est]
    _write_csv(cfg.out_dir / "table1.csv", estimates_to_csv_rows(table1, labels))

    designs = design_sensitivity(data, scores, default_design_suite(scores))
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
        "trim_drops": {"dropped_treated": data.n_treated - trimmed.n_treated,
                       "dropped_control": data.n_control - trimmed.n_control},
        "naive": naive_diff(data).tau_hat,
    }
    return values, {"digests": digests, "treated_units": data.n_treated,
                    "controls": data.n_control,
                    "distinct_control_scores": distinct_control_scores(data, scores)}


def cmd_bounds(cfg: RunConfig):
    data, digests, _ = cfg.tables
    problem = tilting_problem(data, cfg.model)
    tilting = cfg.tilting
    _write_csv(cfg.out_dir / "sweep_tilting.csv", sweep_to_csv_rows(tilting))
    _interval_chart(cfg.out_dir / "sweep_tilting.svg", tilting.deltas, tilting.intervals,
                    "Identified set vs selection curvature")

    proxy = sweep_trimming_proxy(data, cfg.model, cfg.get("bounds", "proxy_deltas"),
                                 match_spec=cfg.match_spec)
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
    tau_hat, se = _read_upstream(cfg.out_dir / "table1.csv", "match", _full_sample_estimate)
    data, digests, _ = cfg.tables
    problem = tilting_problem(data, cfg.model)
    tilting = cfg.tilting
    frag = fragility_index(tilting, interval_at=problem.interval)
    baseline = minimax_rule(tilting.intervals[0])
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
    # No later stage reads the tilting problem, so the dataset drops it and
    # the inputs it holds. Kept alive past the bootstrap's allocations, the
    # problem's arrays raised the peak RSS of a 30,000-control reproduce by
    # about 4 MB.
    data.uncache("tilting_problem")
    return payload, {"digests": digests,
                     "distinct_control_outcomes": problem.distinct_outcomes}


def _simulate(cfg: RunConfig):
    """The selection sweep, the non-identification witness, and the wall
    seconds the two took."""
    start = time.perf_counter()
    sweep = run_sweep(cfg.sim_config)
    witness = nonid_witness(cfg.sim_config, cfg.get("simulation", "witness_threshold"))
    return sweep, witness, time.perf_counter() - start


def cmd_simulate(cfg: RunConfig):
    worker, cfg.simulation = cfg.simulation, None
    fields = {"seed": cfg.seed}
    if worker is None:
        sweep, witness, _ = _simulate(cfg)
    else:
        sweep, witness, fields["worker_s"] = worker.result()
    rows = [["delta", "observed_ate", "lo", "hi"]]
    for d, ate, interval in zip(sweep.deltas, sweep.observed_ates, sweep.sets):
        rows.append([d, ate, interval.lo, interval.hi])
    _write_csv(cfg.out_dir / "sim_sweep.csv", rows)
    _interval_chart(cfg.out_dir / "sim_sweep.svg", sweep.deltas, sweep.sets,
                    "Observed effect vs selection strength",
                    ylabel="difference in means", observed=list(sweep.observed_ates))
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
    return values, fields


def cmd_bootstrap(cfg: RunConfig):
    data, digests, _ = cfg.tables
    b = cfg.get("bootstrap", "b")
    full = bootstrap_att(data, cfg.match_spec, b, cfg.seed,
                         covariates=cfg.get("propensity", "covariates"),
                         model=None if cfg.get("bootstrap", "refit") else cfg.model,
                         trim_rule=cfg.trim_rule, **cfg.fit_options)
    designs = {"full": full, "trimmed": full.trimmed}
    # One row per replicate; a design that failed it leaves its cell empty.
    by_replicate = [dict(zip(s.replicates, s.estimates)) for s in designs.values()]
    rows = [["replicate", "full_sample", "score_trimmed"]]
    for r in range(b):
        rows.append([r, *(estimates.get(r, "") for estimates in by_replicate)])
    _write_csv(cfg.out_dir / "bootstrap.csv", rows)
    values = {name: {"mean": s.mean, "sd": s.sd, "q025": s.q025, "q975": s.q975,
                     "n_failed": s.n_failed} for name, s in designs.items()}
    values["b"] = b
    return values, {"digests": digests, "failed_by_type": {
        name: s.failed_by_type for name, s in designs.items()}}


def cmd_deciles(cfg: RunConfig):
    data, digests, _ = cfg.tables
    report = decile_att(data, data.cached(cfg.model, "scores", score_dataset),
                        min_per_arm=cfg.get("deciles", "min_per_arm"))
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
    log-only fields hold each stage's wall and CPU seconds and the
    bootstrap's failed replicates per design and error type; the line's
    ledger counts are the sums of the stages'.

    With more than one CPU available, the selection simulation starts in
    a forked worker before `fetch` and runs alongside the data stages; the
    `simulate` stage waits for it at its turn, so its line stays in stage
    order, its `elapsed_s` is the wait and its `cpu_s` and ledger counts
    include the worker's. The worker is killed and reaped if a stage fails
    first. A worker that cannot be forked leaves the simulation to its
    turn, in-process, as on one CPU."""
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
    clocks, fields = {}, {}
    if available_cpus() > 1:
        try:
            cfg.simulation = Forked(_simulate, cfg)
        except WorkerError:
            pass
    try:
        for stage, fn, module in _STAGES:
            try:
                values, fields[stage], clocks[stage] = _run_stage(stage, fn, cfg)
            except AttDiagError as exc:
                (cfg.out_dir / "report.json").write_text(_dump_json(report))
                raise AttDiagError(f"stage {stage!r} failed: {exc}") from exc
            report[stage] = {
                "module": module,
                "config_digest": digest,
                "values": values,
            }
    finally:
        worker, cfg.simulation = cfg.simulation, None
        if worker is not None:
            worker.close()
    (cfg.out_dir / "report.json").write_text(_dump_json(report))
    return {"out": str(cfg.out_dir), "config_digest": digest}, {
        "stages": clocks, "failed_by_type": fields["bootstrap"]["failed_by_type"]}


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
        try:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file of that name, a read-only parent
            raise ConfigError(f"--out {args.out}: cannot make the output "
                              f"directory ({exc})") from None
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
