"""Process set-up shared by the benchmark's entry scripts.

``bootstrap()`` must run before numpy is imported: it pins the BLAS and
OpenMP thread pools to one thread and puts the checkout's ``src`` first on
``sys.path``, so the benchmark always measures the sources next to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def bootstrap() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(SRC)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def load_program():
    """Import ``acidfront.cli`` from this checkout; refuse any other copy."""
    import acidfront.cli

    location = Path(acidfront.cli.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"acidfront imported from {location}, not from {SRC}")
    return acidfront.cli


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` in-process with its output captured.

    Returns (exit code, stdout, stderr). An exception escaping ``main`` is
    reported as exit code None with the exception text in stderr, so one
    broken run cannot stop the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001 - the run is recorded as failed
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout's own git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def code_version() -> str:
    """The git commit of the checkout, or a digest of its sources where it
    is not a git repository."""
    commit = _git_commit()
    return f"git {commit}" if commit else f"sha256 {source_digest()}"


def source_digest() -> str:
    """SHA-256 over the package sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "acidfront").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _linalg_build(config) -> dict:
    deps = config.get("Build Dependencies", {})
    return {
        key: {"name": deps.get(key, {}).get("name"), "version": deps.get(key, {}).get("version")}
        for key in ("blas", "lapack")
    }


def environment(seed: int, workload: str, sizes: dict) -> dict:
    """Record of what ran where: machine, libraries, code and input sizes."""
    import numpy
    import scipy

    with contextlib.redirect_stdout(io.StringIO()):
        numpy_cfg = numpy.show_config(mode="dicts")
        scipy_cfg = scipy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_linalg": _linalg_build(numpy_cfg),
        "scipy_linalg": _linalg_build(scipy_cfg),
        "code": code_version(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
