"""Golden regression: preset outputs stay the same numbers.

The reference file ``tests/data/goldens.npz`` holds the final u, v, w and
the theta series of one preset per diffusivity family, run to T = 2.  It
was captured from the stepper that assembled and solved both tridiagonal
systems every step (``scipy.linalg.solve_banded``).  Regenerate it only
from a commit whose numbers are the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from acidfront.scenarios import preset, run_config

GOLDENS = Path(__file__).resolve().parent / "data" / "goldens.npz"
PRESETS = (
    "table1-d12.5",
    "jump-increasing-d12.5",
    "table3-row03-pc",
    "periodic-w50-d20",
)
FINAL_TIME = 2.0
# "Same numbers": max-norm deviation of at most 1e-12 relative to the golden.
RTOL = 1e-12


def outputs(name: str) -> dict[str, np.ndarray]:
    cfg = dataclasses.replace(preset(name), T=FINAL_TIME, snapshots=())
    result = run_config(cfg)
    state = result.final_state
    return {"u": state.u, "v": state.v, "w": state.w, "theta": result.speed_series.thetas}


@pytest.fixture(scope="module")
def goldens():
    with np.load(GOLDENS) as data:
        return dict(data)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_matches_golden(name, goldens):
    for field, values in outputs(name).items():
        golden = goldens[f"{name}:{field}"]
        assert values.shape == golden.shape, field
        deviation = np.max(np.abs(values - golden))
        assert deviation <= RTOL * np.max(np.abs(golden)), f"{field}: {deviation!r}"


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    arrays = {f"{name}:{field}": values for name in PRESETS for field, values in outputs(name).items()}
    np.savez_compressed(GOLDENS, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDENS}")
