import importlib.util
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from rlsmcg import registry
from rlsmcg.solver import run_with_trace

_HYPOTHESIS_HOME = pytest.StashKey[str]()

ROOT = Path(__file__).resolve().parents[1]


def pytest_configure(config):
    # hypothesis caches the literals of the code under test on disk while it
    # collects, even with no example database; keep that cache out of the
    # working tree, in a directory removed when the run ends
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def load_script(monkeypatch):
    """A loader of the repository's scripts by path: ``load_script(path,
    name)`` executes the file at ``path``, relative to the repository root,
    as a module named ``name`` and returns it.  No bytecode is written
    while the test runs, next to the script or into what it loads.  With
    ``register=True`` the module is in ``sys.modules`` under ``name`` for
    the test, as dataclasses look their module up by name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(path: str, name: str, register: bool = False):
        spec = importlib.util.spec_from_file_location(name, ROOT / path)
        module = importlib.util.module_from_spec(spec)
        if register:
            monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module
    return load


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
