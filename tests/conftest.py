"""Shared test set-up."""

import pytest

from blaschkelab import cauchy


@pytest.fixture(autouse=True)
def _fresh_pair_traces():
    """Start and end every test with an empty ``cauchy._pair_traces`` memo, so
    a test that monkeypatches a kernel or a module constant never reads an
    entry computed under other settings."""
    cauchy._pair_traces.cache_clear()
    yield
    cauchy._pair_traces.cache_clear()
