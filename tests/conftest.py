"""Suite-wide fixtures."""

import pytest

from repro.batch import shutdown_pools


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Every test starts and ends without a kept batch worker pool.

    The engine keeps one idle pool per process across maps; a pool
    forked (or a test double installed) during one test must not serve
    the next, whose monkeypatches and environment it would not see.
    """
    shutdown_pools()
    yield
    shutdown_pools()
