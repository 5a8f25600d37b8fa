"""Span tracer that lives entirely in the benchmark.

`Tracer.install` replaces every public function of the attdiag layer
modules with a timing wrapper, in its defining module, in every attdiag
module that imported it by name and in module-level lists and dicts that
hold it, and wraps `Dataset.__init__`. Spans
(name, start, end, parent, job) are kept in memory; `write` stores them at
the end of a run and `function_stats` turns them into calls, busy and self
time per function. Nothing under the package is modified on disk.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# The modules of src/attdiag whose public functions are traced. calibrate is
# a one-off tool no workload runs and errors does no work.
LAYERS = ("ingest", "strata", "propensity", "estimators", "identification",
          "decision", "simulation", "resample", "svgplot", "cli_report")

NAME, START, END, PARENT, JOB = range(5)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_att_match(args, kwargs, result) -> dict:
    data = _arg(args, kwargs, 0, "data")
    spec = _arg(args, kwargs, 2, "spec")
    n_t = data.n_treated
    pairs = n_t * (len(data) - n_t)
    width = 1 if spec.metric == "logit_score" else data.covariates.shape[1]
    return {"estimators.att_match.pairs": pairs,
            "estimators.att_match.dist_bytes_computed": pairs * width * 8}


# Work counters read from a traced call's arguments or result: span name ->
# function(args, kwargs, result) returning {counter: increment}.
COUNTERS = {
    "ingest.parse_table": lambda a, k, r: {"ingest.parse_table.rows": len(r)},
    "ingest.Dataset.__init__": lambda a, k, r: {"ingest.Dataset.units": len(a[0])},
    "propensity.fit_logistic": lambda a, k, r: {
        "propensity.fit_logistic.iterations": r.iterations},
    "estimators.att_match": _count_att_match,
    "identification.curvature_bounds": lambda a, k, r: {
        "identification.curvature_bounds.outcomes_sorted":
            len(_arg(a, k, 0, "control_outcomes"))},
    "resample.bootstrap_att": lambda a, k, r: {
        "resample.replicates": r.b_requested, "resample.replicates_failed": r.n_failed},
    "simulation.apply_selection": lambda a, k, r: {
        "simulation.units_drawn": len(_arg(a, k, 0, "pop"))},
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                for key, increment in counter(args, kwargs, result).items():
                    self.counts[key] += increment
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # patching --------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layers' public functions and Dataset.__init__, wherever
        an attdiag module holds them: as a module attribute, or inside a
        module-level list or dict (cli_report dispatches its stages that
        way)."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"attdiag.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[obj] = f"{layer}.{attr}"
        wrappers = {fn: self.wrap(fn, name) for fn, name in targets.items()}

        def swapped(obj):
            """`obj` with wrapped functions in place of the originals, or
            None if it holds none; tuples are looked into one level deep."""
            if inspect.isfunction(obj):
                return wrappers.get(obj)
            if isinstance(obj, tuple) and any(inspect.isfunction(x) and x in wrappers
                                              for x in obj):
                return tuple(wrappers.get(x, x) if inspect.isfunction(x) else x for x in obj)
            return None

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "attdiag" or mod_name.startswith("attdiag.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    self._patch(module, attr, swapped(obj))
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        self._patch(obj, i, swapped(item))
                elif isinstance(obj, dict):
                    for key, item in list(obj.items()):
                        self._patch(obj, key, swapped(item))
        dataset = sys.modules["attdiag.ingest"].Dataset
        self._patch(dataset, "__init__", self.wrap(dataset.__init__, "ingest.Dataset.__init__"))

    def _patch(self, owner, key, replacement) -> None:
        if replacement is None:
            return
        if isinstance(owner, (list, dict)):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, (list, dict)):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span[END] - span[START]) - covered)
    return out


def function_stats(spans) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name. busy_s counts a span only
    when no enclosing span has the same name, so recursion is not counted
    twice."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        entry = stats[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["busy_s"] += span[END] - span[START]
    return dict(stats)


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """How many `child_name` spans sit directly under a `parent_name` span."""
    return sum(1 for s in spans
               if s[NAME] == child_name and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)
