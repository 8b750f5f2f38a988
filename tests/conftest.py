"""Shared test fixtures."""

import pytest

from repro.config import BACKENDS, SolverConfig
from repro.service.session import ENGINES


@pytest.fixture(params=sorted(ENGINES))
def engine_cls(request):
    """Each engine class in turn (the service's name -> class registry)."""
    return ENGINES[request.param]


@pytest.fixture(params=BACKENDS)
def config(request):
    """A :class:`SolverConfig` per storage backend, defaults otherwise —
    independent of the environment the suite runs under."""
    return SolverConfig(backend=request.param)
