"""Capture the golden outputs the benchmark checks its runs against.

Runs every job a simulate workload can draw through ``acidfront.cli.main``
and stores the final u, v, w fields and the theta series in
``perfbench/goldens/<workload>.npz``. Run it only on a commit whose numbers
are the reference:

    python3 perfbench/capture_goldens.py
"""

from __future__ import annotations

import benchenv

benchenv.bootstrap()

import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    cli = benchenv.load_program()
    workdir = benchenv.OUT / "capture"
    workloads.GOLDENS.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, benchenv.OUT / "inputs" / name)
        jobs = workload.pool()
        if not jobs:
            continue
        arrays = {}
        for job in jobs:
            shutil.rmtree(workdir, ignore_errors=True)
            code, _, err = benchenv.call_cli(cli, job.argv(workdir))
            if code != 0:
                print(f"{job.label}: exit code {code}\n{err}", file=sys.stderr)
                return 1
            for field, values in job.read_outputs(workdir).items():
                arrays[f"{job.label}:{field}"] = values
            print(f"captured {job.label}")
        np.savez_compressed(workloads.GOLDENS / f"{name}.npz", **arrays)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
