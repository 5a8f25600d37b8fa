"""Parts of the benchmark answered in this process against its recorded
references.

The `tilting_queries` workload pins `sweep_tilting(data, model, deltas)`,
`control_tilt_inputs`, `curvature_bounds`, `fragility_index(sweep,
interval_at=...)`, `att_ipw` and `bias_robustness`; a change to one of
those calls, or to the numbers they return, fails here as well as in a
benchmark run. The `simulate` section of the reproduce references
depends on no input table, so it is recomputed here: a change to the
simulation's draws fails here too. One `reproduce` invocation of each
reproduce workload is checked against its whole reference, so a change to
any stage's section fails here too. `run.import_program` is not called:
it re-imports attdiag, which would give later tests a second copy of
every class.
"""

import sys
from pathlib import Path

import pytest

import attdiag  # noqa: F401  (the workload reads the loaded modules)
from attdiag import cli_report, identification
from conftest import counted

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
    # The first pass fills each dataset's cached scores and tilting problem,
    # the second reads them back; both must answer as recorded. The
    # fragility bisection's `curvature_bounds` calls reuse the sweep's
    # problem, so the cold pass builds one per dataset and the warm none.
    assert len(workload.datasets) == 4
    for problems_built in (4, 0):
        results, work = counted(run.run_ops, workload, range(workloads.BLOCK))
        assert len(results) == workloads.BLOCK == 128
        assert [failure for result in results for failure in result.failures] == []
        assert sum(result.failed for result in results) == 0
        assert work["tilt_problems_built"] == problems_built
    assert workload.final_checks() == []


def test_lattice_sweeps_equal_the_recorded_intervals():
    # The whole lattice in one sweep per dataset, against references recorded
    # one delta at a time: the sweep's array iteration must land on the same
    # floats as the per-delta one, including on the 100k-control dataset.
    variant = 1
    reference = checks.load_reference("tilting_queries")[str(variant)]
    workload = run.QueryWorkload("tilting_queries", variant, None, reference)
    workload.setup()
    for k, (data, model) in enumerate(zip(workload.datasets, workload.models)):
        sweep = identification.sweep_tilting(data, model, workloads.DELTA_LATTICE)
        got = [[iv.lo, iv.hi] for iv in sweep.intervals]
        assert got == reference["datasets"][k]["intervals"], f"dataset {k}"


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


@pytest.mark.parametrize("workload", ["reproduce_psid", "reproduce_wide"])
def test_reproduce_workload_matches_its_reference(tmp_path, workload):
    variant = 1
    reference = checks.load_reference(workload)[str(variant)]
    bench = run.ReproduceWorkload(workload, variant, tmp_path, reference)
    bench.setup()
    result = bench.op(0)
    assert result.failures == [] and result.failed == 0
