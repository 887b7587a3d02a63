"""The acidfront benchmark.

    python3 perfbench/run.py --workload preset-sweep --seed 1 --seconds 50 --trace 0

Drives the program only through ``acidfront.cli.main``, in-process, with
arguments generated from ``--seed`` (workloads.py holds the workloads and
the output checks). The load is a closed loop with one client: one process
runs one CLI call at a time, with BLAS and OpenMP pinned to one thread.

``--trace 0`` repeats passes of the workload for ``--seconds`` and reports
the end-to-end metrics: median pass time, cell-steps per second, set-up
time (median over fresh interpreters started between passes) and peak
resident memory.

``--trace 1`` reports the per-layer metrics: isolated kernel timings, then
untraced passes of one drawn job list for half of ``--seconds``, then one
traced pass of the same jobs. Layer times and counts are those of the
traced pass; ``trace.overhead_frac`` compares it with the untraced passes.

Every run's outputs are checked; a failed check counts the run as failed.
The last line of stdout is the result; the line before it is the
environment record. Samples, failures and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import benchenv

benchenv.bootstrap()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_PROBES = 12
MAX_REASONS = 50


@dataclass
class Tally:
    """Runs attempted and failed, and CLI calls that exited with an error."""

    attempted: int = 0
    failed: int = 0
    errors: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, outcomes, goldens) -> None:
        for job, outdir, (code, _, err) in outcomes:
            failed, reasons = job.check(outdir, code, err, goldens)
            self.attempted += job.runs
            self.failed += failed
            self.errors += code != 0
            self.reasons.extend(reasons[: MAX_REASONS - len(self.reasons)])


def run_pass(cli, jobs, workdir: Path, tracer=None):
    """Run one pass; returns (seconds, [(job, outdir, (code, out, err))])."""
    shutil.rmtree(workdir, ignore_errors=True)
    outdirs = [workdir / f"job{k}" for k in range(len(jobs))]

    def loop():
        results = []
        for k, (job, outdir) in enumerate(zip(jobs, outdirs)):
            if tracer is not None:
                tracer.current_run = k
            results.append(benchenv.call_cli(cli, job.argv(outdir)))
        return results

    if tracer is not None:
        import tracing

        loop = tracer.wrap(tracing.ROOT_SPAN, loop)
    started = time.perf_counter()
    results = loop()
    seconds = time.perf_counter() - started
    return seconds, list(zip(jobs, outdirs, results))


def measure(cli, draw, seconds: float, workdir: Path, goldens, tally: Tally, after_pass=None):
    """Start passes until ``seconds`` have gone (at least one pass, so a
    run can overrun by up to one pass). ``after_pass(elapsed)`` runs after
    each pass, outside its timing. Returns the pass times and the
    cell-steps of each pass."""
    walls, work = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        jobs = draw()
        wall, outcomes = run_pass(cli, jobs, workdir)
        tally.add(outcomes, goldens)
        walls.append(wall)
        work.append(sum(job.cell_steps for job in jobs))
        if after_pass is not None:
            after_pass(time.perf_counter() - started)
    return walls, work


class SetupProbes:
    """Set-up times, each from a fresh interpreter (setup_probe.py).

    Called after every pass, it starts a probe whenever another
    ``seconds / SETUP_PROBES`` of the run have gone, so the probes sample
    the host's load across the run as the passes do.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        probe = Path(__file__).with_name("setup_probe.py")
        self.cmd = [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)]
        self.spacing = seconds / SETUP_PROBES
        self.samples: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if elapsed >= len(self.samples) * self.spacing:
            proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
            self.samples.append(float(proc.stdout.split()[-1]))


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def end_to_end(cli, workload, args, goldens, tally, workdir):
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    rng = random.Random(args.seed)
    first = workload.draw(random.Random(args.seed))
    walls, work = measure(
        cli, lambda: workload.draw(rng), args.seconds, workdir, goldens, tally, probes)
    setup = probes.samples
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cell_steps_per_s": (statistics.median(w / s for w, s in zip(work, walls)), "cell-steps/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    samples = {"passes": len(walls), "wall_s": walls, "cell_steps": work, "setup_s": setup}
    return metrics, samples, first


def per_layer(cli, workload, args, goldens, tally, workdir):
    import tracing

    metrics = tracing.kernel_timings(args.seed)
    jobs = workload.draw(random.Random(args.seed))
    walls, _ = measure(cli, lambda: jobs, args.seconds / 2, workdir, goldens, tally)

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        _, outcomes = run_pass(cli, jobs, workdir, tracer)
    finally:
        tracing.uninstall(patches)
    before = tally.errors
    tally.add(outcomes, goldens)

    spans = tracing.SpanTable(tracer)
    by_name = spans.self_by_name()
    wall = spans.wall()
    metrics.update(tracing.layer_metrics(spans))
    metrics["scenarios.io.bytes_written"] = (directory_bytes(workdir), "B")
    metrics["errors.raised.count"] = (tally.errors - before, "count")
    metrics["trace.overhead_frac"] = (wall / statistics.median(walls) - 1.0, "frac")
    tracer.write(
        benchenv.OUT / f"trace-{args.workload}.npz",
        {"seed": args.seed, "workload": args.workload, "self_s_by_span": by_name},
    )
    samples = {
        "passes": len(walls) + 1,
        "untraced_wall_s": walls,
        "self_s_by_span": by_name,
        "rebinding_sites": tracing.rebinding_sites(patches),
    }
    return metrics, samples, jobs


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["preset-sweep", "fine-mesh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = benchenv.load_program()
    import workloads

    workload = workloads.make(args.workload, benchenv.OUT / "inputs" / args.workload)
    goldens = workloads.load_goldens(args.workload)
    workdir = benchenv.OUT / "work" / args.workload
    benchenv.call_cli(cli, workloads.WARMUP_ARGS + ("--out", str(workdir / "warmup")))

    tally = Tally()
    measure_fn = per_layer if args.trace else end_to_end
    metrics, samples, jobs = measure_fn(cli, workload, args, goldens, tally, workdir)
    sizes = {
        "passes": samples["passes"],
        "jobs_per_pass": [job.sizes() for job in jobs],
        "cell_steps_per_pass": sum(job.cell_steps for job in jobs),
    }
    env = benchenv.environment(args.seed, args.workload, sizes)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    benchenv.write_json(
        benchenv.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"environment": env, "result": result, "samples": samples, "failures": tally.reasons},
    )
    for reason in tally.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
