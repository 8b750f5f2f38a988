"""Shared test fixtures."""

import pytest

from repro.config import SolverConfig
from repro.service.session import ENGINES


@pytest.fixture(params=sorted(ENGINES))
def engine_cls(request):
    """Each engine class in turn (the service's name -> class registry)."""
    return ENGINES[request.param]


@pytest.fixture
def config():
    """The default :class:`SolverConfig`, independent of the environment
    the suite runs under."""
    return SolverConfig()
