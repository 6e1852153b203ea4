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
    for cached in (capacity._swc_spectral_cached, outage._o_swc, outage._o_sec):
        cached.cache_clear()
