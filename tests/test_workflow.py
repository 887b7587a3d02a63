"""The CI jobs that run chosen tests (``windows-lapack``, ``macos-fallback``
and the tier-1 job's repeated helper-thread step) name them by node id in
``.github/workflows/tests.yml``.  A renamed or deleted test would leave a
job with an id that selects nothing, so each id must resolve here: its
module, its class and, where one is named, its test function.  The
workflow is read as text."""

import importlib
import inspect
import pathlib
import re

import pytest

WORKFLOW = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
# tests/<module>.py::<Class>, optionally ::<function>
NODE = re.compile(r"tests/(\w+)\.py::(\w+)(?:::(\w+))?")
# a job's key, at the indentation of the jobs under ``jobs:``
JOB = re.compile(r"^  ([\w-]+):\s*$", re.MULTILINE)


def jobs() -> dict:
    """The text of each job of the workflow, by name."""
    text = WORKFLOW.read_text()
    starts = list(JOB.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    return {match.group(1): text[match.end() : end] for match, end in zip(starts, ends)}


NODES = sorted({node for job in jobs().values() for node in NODE.findall(job)})


@pytest.mark.parametrize("job", ["windows-lapack", "macos-fallback"])
def test_job_lists_tests(job):
    assert NODE.findall(jobs()[job]), f"{job} names no tests/...::... node id"


@pytest.mark.parametrize("module, cls, function", NODES, ids=["::".join(filter(None, n)) for n in NODES])
def test_node_id_resolves(module, cls, function):
    tests = importlib.import_module(module)
    found = getattr(tests, cls, None)
    assert inspect.isclass(found) and cls.startswith("Test"), f"{module} has no test class {cls}"
    if function:
        method = getattr(found, function, None)
        assert callable(method) and function.startswith("test"), f"{cls} has no test {function}"
