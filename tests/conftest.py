import gc

import pytest


@pytest.fixture(autouse=True)
def nothing_left_frozen():
    """Fail a test that leaves objects frozen out of collection
    (`gc.freeze`): `harness.run_cell` thaws what it froze, and a frozen
    leftover would hide every later test's garbage from the collector."""
    yield
    if gc.get_freeze_count():
        gc.unfreeze()
        pytest.fail("the test left objects frozen (gc.freeze)")
