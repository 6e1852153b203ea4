"""Shared fixtures."""

import pytest

from capcomp import capacity, outage


@pytest.fixture
def cold_caches():
    """Clear the process-lifetime window-solve and optimum caches.

    For tests that record solves or shrink an iteration cap: an earlier test
    may have left the answer they need in a cache, so the work under test
    would not run.
    """
    capacity._SPECTRAL.clear()
    for cached in (outage._o_swc, outage._o_sec):
        cached.cache_clear()
