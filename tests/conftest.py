"""Every test starts with the package's caches empty, so that none depends on what an earlier test left there."""

import pytest

from cogaccess import optimizer, phy


@pytest.fixture(autouse=True)
def empty_caches():
    for cache in (optimizer._point, optimizer._secondary, phy._target_q_inv):
        cache.cache_clear()
