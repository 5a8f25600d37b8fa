"""The library calls the benchmark's `tilting_queries` workload makes,
answered in this process against its recorded reference.

The workload pins `sweep_tilting(data, model, deltas)`,
`control_tilt_inputs`, `curvature_bounds`, `fragility_index(sweep,
interval_at=...)`, `att_ipw` and `bias_robustness`; a change to one of
those calls, or to the numbers they return, fails here as well as in a
benchmark run. `run.import_program` is not called: it re-imports attdiag,
which would give later tests a second copy of every class.
"""

import sys
from pathlib import Path

import attdiag  # noqa: F401  (the workload reads the loaded modules)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_query_workload_answers_a_block_as_recorded(tmp_path):
    variant = 1
    reference = checks.load_reference("tilting_queries")[str(variant)]
    workload = run.QueryWorkload("tilting_queries", variant, tmp_path, reference)
    workload.setup()
    results = run.run_ops(workload, range(workloads.BLOCK))
    assert len(results) == workloads.BLOCK == 128
    assert [failure for result in results for failure in result.failures] == []
    assert sum(result.failed for result in results) == 0
    assert workload.final_checks() == []
