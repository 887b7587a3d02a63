"""Command-line interface.

Commands: ``simulate`` (one preset or config file), ``list-presets``,
``homogenize`` (the periodic-vs-effective benchmark matrix), ``convergence``
(manufactured-solution order study), and ``speed-table`` (tail speeds for a
preset batch).  Exit codes: 0 success, 1 configuration error or a run too large
for memory, 2 numerical instability or an argparse usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import warnings
from pathlib import Path

from .errors import ConfigurationError, InstabilityError
from .scenarios import (
    TABLE3_ROWS,
    convergence_study,
    observed_order,
    parse_config,
    preset,
    preset_names,
    run_homogenization_suite,
    run_scenario,
    speed_table,
)


def _load_scenario(source: str):
    path = Path(source)
    if path.is_file():
        return parse_config(path.read_text())
    return preset(source)


def _apply_overrides(cfg, args):
    replacements = {}
    if args.dx is not None:
        replacements["dx"] = args.dx
    if args.dt is not None:
        replacements["dt"] = args.dt
    if args.T is not None:
        replacements["T"] = args.T
        # A snapshot of the final fields moves with the final time.
        kept = tuple(t for t in cfg.snapshots if t <= args.T)
        final = (args.T,) if cfg.T in cfg.snapshots and args.T not in kept else ()
        replacements["snapshots"] = kept + final
    if args.d is not None:
        try:
            replacements["params"] = dataclasses.replace(cfg.params, d=args.d)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    return dataclasses.replace(cfg, **replacements) if replacements else cfg


@contextlib.contextmanager
def _out_directory(out):
    """Create the ``--out`` directory, if one is given, before any run; a
    path that cannot be a directory (an existing file, say) is a
    configuration error.  If the library then rejects the call, or it runs
    out of memory, the directories made here are removed again (while they
    are empty)."""
    if out is None:
        yield
        return
    path = Path(out)
    made = [p for p in (path, *path.absolute().parents) if not p.exists()]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make --out {out!r} a directory: {exc}") from exc
    try:
        yield
    except (ConfigurationError, MemoryError):
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(_load_scenario(args.scenario), args)
    with _out_directory(args.out):
        summary = run_scenario(cfg, args.out)
    sys.stdout.write(summary.render())
    print(f"outputs written to {args.out}")
    return 0


def _cmd_list_presets(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def _parse_rows(selector: str):
    if selector == "all":
        return range(1, len(TABLE3_ROWS) + 1)
    numbers = []
    for token in selector.split(","):
        token = token.strip()
        if not token:
            raise ConfigurationError(f"empty item in row selector {selector!r}")
        try:
            numbers.append(int(token))
        except ValueError:
            raise ConfigurationError(
                f"row selector {token!r} is not an integer (use 1..{len(TABLE3_ROWS)} or 'all')"
            ) from None
    return numbers


def _cmd_homogenize(args) -> int:
    numbers = _parse_rows(args.rows)
    with _out_directory(args.out):
        results = run_homogenization_suite(numbers, outdir=args.out)
    print(f"{'d':>6} {'omega':>6} {'alpha0':>7} {'alpha1':>7} {'p.wise const.':>14} {'sinusoidal':>11}")
    for row in results:
        pc = "HOM" if row["pc"].homogenized else "NO"
        sin = "HOM" if row["sin"].homogenized else "NO"
        print(
            f"{row['d']:>6g} {row['omega']:>6g} {row['alpha0']:>7g} "
            f"{row['alpha1']:>7g} {pc:>14} {sin:>11}"
        )
    if args.out is not None:
        print(f"table written to {Path(args.out) / 'homogenization.csv'}")
    return 0


def _cmd_convergence(args) -> int:
    rows = convergence_study(levels=args.levels)
    print(f"{'dx':>12} {'dt':>12} {'steps':>8} {'max error':>12} {'order':>7}")
    for row in rows:
        order = f"{row['order']:.3f}" if row["order"] is not None else "-"
        print(
            f"{row['dx']:>12.6f} {row['dt']:>12.3e} {row['steps']:>8} "
            f"{row['error']:>12.4e} {order:>7}"
        )
    print(f"least-squares order: {observed_order(rows):.3f}")
    return 0


def _cmd_speed_table(args) -> int:
    with _out_directory(args.out):
        rows = speed_table(args.presets, outdir=args.out)
    print(f"{'preset':<32} {'tail speed':>12} {'peak-to-peak':>13} {'2*sqrt(rD)':>11}")
    for row in rows:
        print(
            f"{row['preset']:<32} {row['tail_mean']:>12.6f} "
            f"{row['tail_peak_to_peak']:>13.4f} {row['fkpp_bound']:>11.6f}"
        )
    if args.out is not None:
        print(f"table written to {Path(args.out) / 'speeds.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acidfront",
        description="Finite-volume simulation of acid-mediated tumour "
        "invasion fronts with heterogeneous acid diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one preset or config file")
    sim.add_argument("scenario", help="preset name or path to a key=value config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--dx", type=float, default=None, help="override cell width")
    sim.add_argument("--dt", type=float, default=None, help="override time step")
    sim.add_argument("--T", type=float, default=None, help="override final time")
    sim.add_argument("--d", type=float, default=None, help="override destructiveness d")
    sim.set_defaults(func=_cmd_simulate)

    lst = sub.add_parser("list-presets", help="print the scenario catalog")
    lst.set_defaults(func=_cmd_list_presets)

    hom = sub.add_parser("homogenize", help="periodic vs effective-diffusivity benchmark")
    hom.add_argument("--rows", default="all", help="'all' or comma-separated row numbers (1-based)")
    hom.add_argument("--out", default=None, help="directory for homogenization.csv")
    hom.set_defaults(func=_cmd_homogenize)

    conv = sub.add_parser("convergence", help="manufactured-solution order study")
    conv.add_argument("--levels", type=int, default=4, help="number of dx halvings")
    conv.set_defaults(func=_cmd_convergence)

    spd = sub.add_parser("speed-table", help="tail speeds for a preset batch")
    spd.add_argument("presets", nargs="+", help="preset names")
    spd.add_argument("--out", default=None, help="optional directory for speeds.csv")
    spd.set_defaults(func=_cmd_speed_table)
    return parser


def _format_warning(message, category, filename, lineno, line=None):
    """A warning as its category and message: the file and line that issued
    it belong to the package, not to the user's call."""
    return f"{category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        code = args.func(args)
        # A block-buffered stdout meets a closed reader here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``): the output ends, quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the shape of the array that did not fit
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 1
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
