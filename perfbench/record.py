#!/usr/bin/env python3
"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py

Records every workload and input variant. Run it at the commit whose
outputs define "correct" and commit the files it writes under
perfbench/reference/. A change that alters results on purpose re-records
them and says why.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    for name in run.WORKLOADS:
        entries = {}
        for variant in range(workloads.VARIANTS):
            workdir = run.OUT / f"record-{name}-{variant}"
            try:
                run.import_program()
                workload = run.make_workload(name, variant, workdir, None)
                workload.setup()
                entries[str(variant)] = workload.record()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name}: recorded variant {variant}", file=sys.stderr)
        print(checks.save_reference(name, entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
