"""Shared test fixtures."""

import pytest

from repro.service.session import ENGINES


@pytest.fixture(params=sorted(ENGINES))
def engine_cls(request):
    """Each engine class in turn (the service's name -> class registry)."""
    return ENGINES[request.param]
