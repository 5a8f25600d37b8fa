#!/usr/bin/env python3
"""attdiag benchmark: one closed-loop client driving the program in-process.

    python3 perfbench/run.py --workload reproduce_psid --seed 3 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  reproduce_psid   `attdiag reproduce` on PSID-shaped tables, default config
  reproduce_wide   `attdiag reproduce` on a CPS-shaped 30,000-control pool
  tilting_queries  sensitivity queries on four pre-built datasets

An operation is one `reproduce` invocation or one query. With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 the
library's public functions are wrapped by tracer.py and the line carries the
per-layer metrics. Every operation's outputs are checked (checks.py); the
exit code is 1 if any check fails and 2 if the program is not found.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

STAGES = ("fetch", "support", "propensity", "match", "bounds", "fragility",
          "bootstrap", "deciles", "simulate")
# The program modules a run imports (and re-imports for each set-up).
PROGRAM_MODULES = ("attdiag", "attdiag.cli_report", "attdiag.svgplot")
SETUP_REPEATS = 11

# Workload names and metric names and units come from BENCHMARK.json. Every
# per-layer value is per traced operation (one reproduce invocation or one
# query).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class ProgramMissing(Exception):
    """The checkout holds no attdiag sources to benchmark."""


def import_program():
    """(Re-)import attdiag from the checkout's src/; returns the package."""
    if not (SRC / "attdiag" / "__init__.py").is_file():
        raise ProgramMissing(f"no attdiag package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "attdiag" or m.startswith("attdiag.")]:
        del sys.modules[name]
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    package = sys.modules["attdiag"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"attdiag imported from {package.__file__}, not {SRC}")
    return package


def blas_info() -> str:
    """BLAS library, version and thread count, left at their defaults."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = str(getter())
                break
    env = {k: v for k, v in os.environ.items()
           if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return (f"{blas.get('name')} {blas.get('version')}, threads {threads}, "
            f"cpus {os.cpu_count()}, env {env or 'unset'}")


@dataclass
class OpResult:
    latency_s: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    stage_s: dict = field(default_factory=dict)
    artifact_bytes: int = 0


class _LineClock(io.TextIOBase):
    """stdout stand-in that timestamps each complete line as it arrives."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)


# ---------------------------------------------------------------------------
# workloads


class ReproduceWorkload:
    """`attdiag reproduce` on generated tables; min_ops covers the
    two-invocation determinism check."""

    min_ops = 2

    def __init__(self, name: str, variant: int, workdir: Path, reference: dict | None):
        self.name = name
        self.variant = variant
        self.workdir = workdir
        self.reference = reference
        self.first_report = None
        self.last_sections = None

    def setup(self) -> None:
        info = workloads.write_reproduce_inputs(self.name, self.variant, self.workdir / "inputs")
        self.config = info["config"]
        self.input_rows = info["rows"]

    def op(self, index: int, tracer=None) -> OpResult:
        # Under tracing the root span is the wrapped cli_report.main.
        out = self.workdir / f"out{index}"
        lines, errors = _LineClock(), io.StringIO()
        argv = ["reproduce", "--config", str(self.config),
                "--seed", str(workloads.reproduce_run_seed(self.variant)), "--out", str(out)]
        main = sys.modules["attdiag.cli_report"].main
        start = time.perf_counter()
        with contextlib.redirect_stdout(lines), contextlib.redirect_stderr(errors):
            code = main(argv)
        latency = time.perf_counter() - start

        result = OpResult(latency, attempted=len(STAGES))
        previous = start
        for stamp, line in lines.lines:
            try:
                stage = json.loads(line).get("stage")
            except (ValueError, AttributeError):
                continue
            if stage in STAGES:
                result.stage_s[stage] = stamp - previous
                previous = stamp
        # Stage name -> why it counts as failed.
        bad = {s: "no log line" for s in STAGES if s not in result.stage_s}
        if code != 0:
            # Every stage logged, so bundling report.json failed after the last one.
            bad.setdefault(STAGES[-1], "")
            result.failures.append(f"exit {code}: {errors.getvalue().strip()}")
        if not bad:
            report = checks.without_timestamp((out / "report.json").read_text())
            self.last_sections = checks.report_sections(report, out)
            if self.reference is not None:
                for stage in checks.check_report(self.reference, self.last_sections):
                    bad[stage] = "differs from the reference"
            if self.first_report is None:
                self.first_report = report
            for section in checks.differing_sections(self.first_report, report):
                # metadata has no stage of its own; fetch is the stage that reads the config
                bad.setdefault(section if section in STAGES else "fetch",
                               f"{section} differs from the first invocation")
        result.failures += [f"invocation {index} stage {s}: {why}"
                            for s, why in sorted(bad.items()) if why]
        result.failed = len(bad)
        if out.is_dir():
            result.artifact_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return result

    def final_checks(self) -> list[str]:
        return []

    def record(self) -> dict:
        """Reference entry for this variant, from one invocation."""
        result = self.op(0)
        if result.failures:
            raise RuntimeError(f"reproduce failed while recording: {result.failures}")
        return self.last_sections


class QueryWorkload:
    """Sweep + fragility + IPW + bias-tolerance queries on four datasets."""

    min_ops = workloads.BLOCK

    input_rows = 0  # no tables: the arms are built in memory

    def __init__(self, name: str, variant: int, workdir: Path, reference: dict | None):
        self.variant = variant
        self.reference = reference
        self.lattice_index = {d: i for i, d in enumerate(workloads.DELTA_LATTICE)}

    def setup(self) -> None:
        package = sys.modules["attdiag"]
        schema = sys.modules["attdiag.ingest"].NSW_SCHEMA
        self.datasets, self.models = [], []
        for arms in workloads.query_arms(self.variant):
            data = package.Dataset(arms.treated, arms.outcome, arms.covariates, schema=schema)
            self.datasets.append(data)
            self.models.append(package.fit_logistic(data, workloads.COVARIATES))
        self.stream = workloads.query_stream(self.variant)

    def answer(self, query):
        ident = sys.modules["attdiag.identification"]
        decision = sys.modules["attdiag.decision"]
        estimators = sys.modules["attdiag.estimators"]
        data, model = self.datasets[query.dataset], self.models[query.dataset]
        sweep = ident.sweep_tilting(data, model, query.deltas)
        y, w, treated_mean = ident.control_tilt_inputs(data, model)
        fragility = decision.fragility_index(
            sweep, interval_at=lambda d: ident.curvature_bounds(y, w, treated_mean, d))
        ipw = estimators.att_ipw(data, model)
        bias = decision.bias_robustness(ipw.tau_hat, ipw.se)
        return sweep, fragility, ipw, bias

    def op(self, index: int, tracer=None) -> OpResult:
        query = self.stream[index % len(self.stream)]
        span = tracer.begin("bench.query") if tracer else None
        start = time.perf_counter()
        try:
            answer = self.answer(query)
            error = None
        except Exception as exc:  # a failed query is counted, not fatal
            error = f"query {query.index}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        result = OpResult(latency, attempted=1)
        if error:
            result.failures.append(error)
        elif self.reference is not None:
            bad = checks.check_query(self.reference["datasets"][query.dataset],
                                     self.lattice_index, query.deltas,
                                     self.reference["fragility"][query.index],
                                     checks.query_values(*answer))
            result.failures += [f"query {query.index}: {b}" for b in bad[:3]]
        result.failed = 1 if result.failures else 0
        return result

    def final_checks(self) -> list[str]:
        ident = sys.modules["attdiag.identification"]
        bad = []
        for k, (data, model) in enumerate(zip(self.datasets, self.models)):
            y, w, treated_mean = ident.control_tilt_inputs(data, model)
            subsamples = workloads.oracle_subsamples(self.variant, len(y))
            bad += [f"dataset {k} oracle: {b}" for b in checks.oracle_mismatches(
                ident, y, w, treated_mean, subsamples, workloads.ORACLE_DELTAS)]
        return bad

    def record(self) -> dict:
        ident = sys.modules["attdiag.identification"]
        estimators = sys.modules["attdiag.estimators"]
        decision = sys.modules["attdiag.decision"]
        datasets = []
        for data, model in zip(self.datasets, self.models):
            y, w, treated_mean = ident.control_tilt_inputs(data, model)
            ipw = estimators.att_ipw(data, model)
            datasets.append({
                "intervals": [[iv.lo, iv.hi] for iv in (
                    ident.curvature_bounds(y, w, treated_mean, d)
                    for d in workloads.DELTA_LATTICE)],
                "ipw": [ipw.tau_hat, ipw.se],
                "bias_robustness": decision.bias_robustness(ipw.tau_hat, ipw.se),
            })
        fragility = [self.answer(q)[1] for q in self.stream]
        return checks.encode({"datasets": datasets, "fragility": fragility})


def make_workload(name: str, variant: int, workdir: Path, reference):
    cls = QueryWorkload if name == "tilting_queries" else ReproduceWorkload
    return cls(name, variant, workdir, reference)


# ---------------------------------------------------------------------------
# measurement


def timed_setup(name: str, variant: int, workdir: Path, reference):
    """Import the program and build the workload's inputs SETUP_REPEATS
    times; returns the last workload and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_program()
        workload = make_workload(name, variant, workdir, reference)
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def run_ops(workload, indices, tracer=None, seconds: float = 0.0) -> list[OpResult]:
    """Closed loop over `indices`; with `seconds`, keep going past them
    until that much time has passed."""
    results = []
    start = time.perf_counter()
    index = indices[0]
    while (index in indices) or (seconds and time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.job = index
        results.append(workload.op(index, tracer))
        index += 1
    return results


def traced_run(workload):
    """Fixed work, so counts repeat exactly. Both start with a warm-up (the
    first operations in a process are the slowest). reproduce then
    alternates untraced and traced invocations, two each; queries run one
    untraced block and one traced block with the same mix. Returns the
    tracer, the warm-up, untraced and traced results."""
    tracer = tracing.Tracer()
    if isinstance(workload, QueryWorkload):
        block = workloads.BLOCK
        plan = [(range(0, block), "warm-up"), (range(block, 2 * block), "untraced"),
                (range(2 * block, 3 * block), "traced")]
    else:
        plan = [(range(0, 1), "warm-up")]
        plan += [(range(i, i + 1), "traced" if i % 2 == 0 else "untraced") for i in range(1, 5)]
    results = {"warm-up": [], "untraced": [], "traced": []}
    for indices, kind in plan:
        if kind != "traced":
            results[kind] += run_ops(workload, indices)
            continue
        tracer.install()
        try:
            results[kind] += run_ops(workload, indices, tracer)
        finally:
            tracer.uninstall()
    return tracer, results["warm-up"], results["untraced"], results["traced"]


def per_layer_metrics(workload, tracer, traced: list[OpResult],
                      untraced: list[OpResult]) -> dict:
    spans = tracer.spans
    ops = len(traced)
    stats = tracing.function_stats(spans)
    counts = tracer.counts

    def stat(name, measure):
        return stats.get(name, {}).get(measure, 0) / ops

    def layer_self(layer):
        return sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + ".")) / ops

    replicates = counts["resample.replicates"]
    rows = counts["ingest.parse_table.rows"] / ops
    traced_p50 = statistics.median(r.latency_s for r in traced) * 1000
    untraced_p50 = statistics.median(r.latency_s for r in untraced) * 1000
    m = {
        "ingest.parse_table.calls": stat("ingest.parse_table", "calls"),
        "ingest.parse_table.rows_per_input_row":
            rows / workload.input_rows if workload.input_rows else 0.0,
        "ingest.parse_table.self_s": stat("ingest.parse_table", "self_s"),
        "ingest.Dataset.constructed": stat("ingest.Dataset.__init__", "calls"),
        "ingest.Dataset.units": counts["ingest.Dataset.units"] / ops,
        "ingest.Dataset.self_s": stat("ingest.Dataset.__init__", "self_s"),
        "propensity.fit_logistic.iterations": counts["propensity.fit_logistic.iterations"] / ops,
        "estimators.att_match.pairs": counts["estimators.att_match.pairs"] / ops,
        "estimators.att_match.dist_bytes_computed":
            counts["estimators.att_match.dist_bytes_computed"] / ops,
        "identification.curvature_bounds.outcomes_sorted":
            counts["identification.curvature_bounds.outcomes_sorted"] / ops,
        "decision.fragility_index.bisection_evals": tracing.child_calls(
            spans, "decision.fragility_index", "identification.curvature_bounds") / ops,
        "resample.replicates": replicates / ops,
        "resample.replicates_failed": counts["resample.replicates_failed"] / ops,
        "resample.replicate_success_ratio":
            (replicates - counts["resample.replicates_failed"]) / replicates if replicates else 0.0,
        "simulation.units_drawn": counts["simulation.units_drawn"] / ops,
        "svgplot.self_s": layer_self("svgplot"),
        "cli_report.self_s": layer_self("cli_report"),
        "cli_report.artifact_bytes": sum(r.artifact_bytes for r in traced) / ops,
        "trace.traced_p50_ms": traced_p50,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.spans": len(spans) / ops,
    }
    for stage in STAGES:
        m[f"cli_report.stage.{stage}_s"] = sum(r.stage_s.get(stage, 0.0) for r in traced) / ops
    for name in PER_LAYER:
        if name not in m:
            function, measure = name.rsplit(".", 1)
            m[name] = stat(function, measure)
    return m


def trace_lines(tracer, traced: list[OpResult]) -> list[str]:
    """Every traced function's calls, busy and self time per operation, and
    the self times summed against the traced operation time."""
    ops = len(traced)
    stats = tracing.function_stats(tracer.spans)
    lines = ["per function, per traced operation: calls busy_s self_s"]
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name} {entry['calls'] / ops:g} "
                     f"{entry['busy_s'] / ops:.6f} {entry['self_s'] / ops:.6f}")
    total_self = sum(tracing.self_times(tracer.spans))
    total_ops = sum(r.latency_s for r in traced)
    lines.append(f"trace accounting: self times sum to {total_self:.4f} s of "
                 f"{total_ops:.4f} s traced operation time "
                 f"({100 * total_self / total_ops:.2f}%)")
    return lines


def summary_lines(name, ops: list[OpResult], setup_s, rss_mb, attempted, failed) -> list[str]:
    latencies_ms = sorted(r.latency_s * 1000 for r in ops)
    n = len(latencies_ms)
    lines = [f"setup_s: {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups)"]
    if name == "tilting_queries":
        p90 = statistics.quantiles(latencies_ms, n=10)[-1]
        lines += [
            f"query_p50_ms: {statistics.median(latencies_ms):.3f} ms ({n} queries)",
            f"query_p90_ms: {p90:.3f} ms ({n} queries, "
            f"{sum(x > p90 for x in latencies_ms)} beyond)",
            f"queries_per_s: {n / (sum(latencies_ms) / 1000):.3f} 1/s",
        ]
    else:
        in_order = ", ".join(f"{r.latency_s:.3f}" for r in ops)
        lines.append(f"reproduce_s: {statistics.median(latencies_ms) / 1000:.4f} s "
                     f"(median of {n} invocations: {in_order})")
        for stage in STAGES:
            values = [r.stage_s[stage] for r in ops if stage in r.stage_s]
            if values:
                lines.append(f"  stage {stage}: {statistics.median(values):.4f} s median")
    lines += [
        f"peak_rss_mb: {rss_mb:.1f} MB",
        f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} "
        f"{'queries' if name == 'tilting_queries' else 'stages'} failed)",
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    variant = args.seed % workloads.VARIANTS
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    reference = checks.load_reference(args.workload).get(str(variant))
    try:
        workload, setup_s = timed_setup(args.workload, variant, workdir, reference)
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2
    try:
        print(f"workload {args.workload}, seed {args.seed} -> input variant {variant}, "
              f"one closed-loop client")
        print(f"blas: {blas_info()}")
        failures = []
        if reference is None:
            failures.append(f"no recorded reference for variant {variant}")

        if args.trace:
            tracer, warm_up, untraced, traced = traced_run(workload)
            ops = warm_up + untraced + traced
        else:
            ops = run_ops(workload, range(workload.min_ops), seconds=args.seconds)

        failures += [f for r in ops for f in r.failures]
        failures += workload.final_checks()
        attempted = sum(r.attempted for r in ops)
        failed = sum(r.failed for r in ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = untraced if args.trace else ops
        for line in summary_lines(args.workload, timed, setup_s, rss_mb, attempted, failed):
            print(line)

        if args.trace:
            metrics = per_layer_metrics(workload, tracer, traced, untraced)
            for line in trace_lines(tracer, traced):
                print(line)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            units = PER_LAYER
        else:
            latencies = [r.latency_s for r in ops]
            metrics = {
                "latency_p50_ms": statistics.median(latencies) * 1000,
                "ops_per_s": len(latencies) / sum(latencies),
                "peak_rss_mb": rss_mb,
                "setup_s": setup_s,
            }
            units = END_TO_END
        for failure in failures[:20]:
            print(f"CHECK FAILED: {failure}")
        correct = not failures
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
