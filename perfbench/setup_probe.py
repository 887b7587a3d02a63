"""Set-up time of one benchmark run, measured in a fresh interpreter.

Times importing ``acidfront.cli`` (scipy load and preset catalog build)
and generating the workload's inputs, and prints the seconds taken:

    python3 perfbench/setup_probe.py --workload fine-mesh --seed 1
"""

import time

STARTED = time.perf_counter()

import benchenv  # noqa: E402

benchenv.bootstrap()

import argparse  # noqa: E402
import random  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    benchenv.load_program()
    import workloads

    workload = workloads.make(args.workload, benchenv.OUT / "probe" / args.workload)
    workload.draw(random.Random(args.seed))
    print(time.perf_counter() - STARTED)


if __name__ == "__main__":
    main()
