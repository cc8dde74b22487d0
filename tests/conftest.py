"""Every test starts with the ROC targets' q_inv cache empty, so that none depends on what an earlier test left
there."""

import pytest

from cogaccess import phy


@pytest.fixture(autouse=True)
def empty_caches():
    phy._target_q_inv.cache_clear()
