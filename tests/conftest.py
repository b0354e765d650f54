import time

import pytest

from rlsmcg import registry
from rlsmcg.solver import run_with_trace


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
