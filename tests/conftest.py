"""Fixtures shared by the test modules."""

import pytest

from padiczeta.nicedomain import _cell_keys


@pytest.fixture
def cold_cell_keys():
    """An empty `_cell_keys` cache before and after the test, so that a
    cell sum sweeps its cell under the test (and under any patch it makes)
    and what it sweeps there reaches no later test.  This is the function
    itself, not the `nicedomain` attribute a test may patch."""
    _cell_keys.cache_clear()
    yield
    _cell_keys.cache_clear()
