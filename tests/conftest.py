import shutil
import tempfile
import time

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from rlsmcg import registry
from rlsmcg.solver import run_with_trace

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches the literals of the code under test on disk while it
    # collects, even with no example database; keep that cache out of the
    # working tree, in a directory removed when the run ends
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def suite_runs():
    """Full-suite solver runs with traces, shared by the verification tests.

    Returns (results, elapsed_seconds) where results maps problem name to
    (spec, report, trace records).
    """
    t0 = time.perf_counter()
    results = {}
    for spec in registry():
        report, trace = run_with_trace(spec.make())
        results[spec.name] = (spec, report, trace)
    return results, time.perf_counter() - t0
