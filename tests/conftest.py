import warnings

import pytest

from acidfront.core import ModelParameters
from acidfront.scenarios import preset, preset_names, run_configs


def raw_params(d: float, r: float, D: float, c: float) -> ModelParameters:
    """Build ModelParameters without validation.

    Lets tests switch off reaction terms entirely (r = c = 0 with u = 0),
    which no valid parameter set can express; the scheme itself never
    requires positive rates.
    """
    p = object.__new__(ModelParameters)
    for name, value in dict(d=d, r=r, D=D, c=c).items():
        object.__setattr__(p, name, value)
    return p


@pytest.fixture(scope="session")
def catalog_runs():
    """The RunResult of every catalog preset by name, from one
    ``run_configs`` call, and the Python warnings that call raised."""
    names = preset_names()
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        results = run_configs([preset(name) for name in names])
    return dict(zip(names, results)), raised


@pytest.fixture(scope="session")
def preset_run(catalog_runs):
    """A preset's RunResult by name: the heavy reference runs are one batch
    over the catalog, shared by the acceptance criteria and the scenario
    tests."""
    return catalog_runs[0].__getitem__
