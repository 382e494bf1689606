"""Self-tests of the benchmark; outside the repo's tier-1 ``testpaths``.

    python -m pytest perfbench/tests

Everything runs at ``--smoke`` size.  Runs are in-process and cached per
session, so the whole directory stays within a quarter of a minute.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import adapter, measure  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 2026


@pytest.fixture(scope="session")
def import_cpu_s():
    return adapter.load()


@pytest.fixture(scope="session")
def runs(import_cpu_s):
    """``runs(workload, trace, seed)`` -> result dict, computed once."""
    cache = {}

    def get(workload: str, trace: int, seed: int = SEED) -> dict:
        key = (workload, trace, seed)
        if key not in cache:
            w = WORKLOADS[workload]
            cache[key] = (
                measure.traced_run(w, seed, True, import_cpu_s) if trace
                else measure.untraced_run(w, seed, 0.0, True, import_cpu_s))
        return cache[key]

    return get
