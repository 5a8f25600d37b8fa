"""Parts of the benchmark answered in this process against its recorded
references.

The `tilting_queries` workload pins `sweep_tilting(data, model, deltas)`,
`control_tilt_inputs`, `curvature_bounds`, `fragility_index(sweep,
interval_at=...)`, `att_ipw` and `bias_robustness`; a change to one of
those calls, or to the numbers they return, fails here as well as in a
benchmark run. The `simulate` section of the reproduce references
depends on no input table, so it is recomputed here: a change to the
simulation's draws fails here too. `run.import_program` is not called: it
re-imports attdiag, which would give later tests a second copy of every
class.
"""

import sys
from pathlib import Path

import pytest

import attdiag  # noqa: F401  (the workload reads the loaded modules)
from attdiag import cli_report

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


@pytest.mark.parametrize("workload", ["reproduce_psid", "reproduce_wide"])
@pytest.mark.parametrize("variant", [1, 6])
def test_simulate_values_match_the_reproduce_reference(tmp_path, workload, variant):
    # The workload's config sets only [simulation] n; every other
    # simulation value is at its default.
    config = tmp_path / "run.ini"
    config.write_text(f"[simulation]\nn = {workloads.REPRODUCE_SHAPES[workload].simulation_n}\n")
    cfg = cli_report.RunConfig.from_file(config, seed=workloads.reproduce_run_seed(variant),
                                         out_dir=tmp_path)
    values, _ = cli_report.cmd_simulate(cfg)
    reference = checks.load_reference(workload)[str(variant)]["simulate"]
    assert checks.compare(reference, checks.encode(values)) == []
