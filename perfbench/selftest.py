"""Self-test of the benchmark; it is not part of the repository's tests.

    python3 perfbench/selftest.py

For each workload it runs the end-to-end and the traced measurement on the
workload's smallest pass, and checks that the runs pass their output
checks, that every metric named in BENCHMARK.json is reported, and that
less than 5 % of the traced pass falls outside the traced layers. It then
perturbs the outputs and checks that each perturbation counts as a failed
run: a field scaled by 1 + 1e-9, a density below the floor, and a flipped
homogenization verdict. Exits 1 if anything is wrong.
"""

from __future__ import annotations

import benchenv

benchenv.bootstrap()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FIELDS = ("u", "v", "w", "theta")
# Largest share of a traced pass allowed outside every layer below cli.main.
UNATTRIBUTED_MAX = 0.05


class Smallest:
    """A workload reduced to its smallest pass."""

    def __init__(self, workload):
        self._jobs = workload.tiny()

    def draw(self, rng):
        return self._jobs


def rewrite_snapshot(job, outdir, change) -> None:
    path = outdir / f"snapshot_t{job.final_time:g}.csv"
    lines = path.read_text().splitlines()
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    change(table)
    body = "\n".join(",".join("%.17g" % x for x in row) for row in table)
    path.write_text(lines[0] + "\n" + body + "\n")


def flip_verdict(outdir) -> None:
    path = outdir / "homogenization.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    column = header.split(",").index("piecewise_constant")
    cells[column] = "HOM" if cells[column] == "NO" else "NO"
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")


def scale_u(table):
    table[:, 1] *= 1.0 + 1e-9


def negative_v(table):
    table[table.shape[0] // 2, 2] = -1e-6


def main() -> int:
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    cli = benchenv.load_program()
    import acidfront.scheme

    original_run = acidfront.scheme.run
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
        print(("ok   " if ok else "FAIL ") + message)

    for name in workloads.WORKLOADS:
        workload = workloads.make(name, benchenv.OUT / "inputs" / name)
        goldens = workloads.load_goldens(name)
        missing = [
            f"{job.label}:{f}" for job in workload.pool() for f in FIELDS
            if f"{job.label}:{f}" not in goldens
        ]
        expect(not missing, f"{name}: goldens cover every job the workload draws {missing[:3]}")

        workdir = benchenv.OUT / "selftest" / name
        for trace, measure in ((0, run.end_to_end), (1, run.per_layer)):
            args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=trace)
            tally = run.Tally()
            metrics, samples, _ = measure(cli, Smallest(workload), args, goldens, tally, workdir)
            expect(
                tally.attempted > 0 and tally.failed == 0,
                f"{name} trace={trace}: smallest pass passes its checks {tally.reasons[:3]}",
            )
            expect(set(metrics) == names[trace], f"{name} trace={trace}: reports exactly the named metrics")
            if trace:
                share = metrics["trace.unattributed_frac"][0]
                expect(share < UNATTRIBUTED_MAX, f"{name}: {share:.4f} of the traced pass is in no layer")
                missing_sites = set(tracing.REQUIRED_REBINDINGS) - set(samples["rebinding_sites"])
                expect(not missing_sites, f"{name}: every imported binding is traced {sorted(missing_sites)}")
                expect(acidfront.scheme.run is original_run, f"{name}: tracing is removed after the pass")

        for k, job in enumerate(workload.tiny()):
            outdir = workdir / f"job{k}"
            if isinstance(job, workloads.SimulateJob):
                target = outdir / f"snapshot_t{job.final_time:g}.csv"
                perturbations = (
                    ("field scaled by 1 + 1e-9", "u differs from its golden",
                     lambda: rewrite_snapshot(job, outdir, scale_u)),
                    ("density below the floor", "min v", lambda: rewrite_snapshot(job, outdir, negative_v)),
                )
            else:
                target = outdir / "homogenization.csv"
                perturbations = (("flipped verdict", "pc: verdict", lambda: flip_verdict(outdir)),)
            pristine = target.read_text()
            for label, reason, perturb in perturbations:
                perturb()
                failed, reasons = job.check(outdir, 0, "", goldens)
                target.write_text(pristine)
                expect(
                    failed == 1 and any(reason in r for r in reasons),
                    f"{name}: {label} counts as one failed run",
                )

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
