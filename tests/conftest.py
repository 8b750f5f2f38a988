"""Shared test fixtures."""

import pytest

from repro.config import SolverConfig
from repro.corpus import presets
from repro.service.session import ENGINES


def _fingerprint(program) -> int:
    """What a source editor can change in place: the statement labels in
    order (delete, restore, insert), literal values and allocated classes.
    ~0.06 ms on minijavac, ~0.5 ms on ant."""
    return hash(tuple(
        (stmt.label, getattr(stmt, "value", None), getattr(stmt, "cls", None))
        for method in program.methods()
        for stmt in method.statements()
    ))


class _FingerprintedCache(dict):
    """``presets._cache`` that fingerprints each subject as it is
    generated."""

    def __init__(self, items):
        super().__init__()
        self.fingerprints: dict[tuple, int] = {}
        for key, program in items.items():
            self[key] = program

    def __setitem__(self, key, program):
        self.fingerprints[key] = _fingerprint(program)
        super().__setitem__(key, program)


presets._cache = _FingerprintedCache(presets._cache)


@pytest.fixture(autouse=True)
def _memoized_subjects_stay_unedited(request):
    """Fail a test that edits a memoized subject in place.

    ``load_subject`` hands every caller the same program object; a test
    that gives it to an editor without ``copy.deepcopy`` silently changes
    the subject for every later test in the process, while a subprocess
    loads a fresh one."""
    yield
    cache = presets._cache
    edited = []
    for key, program in cache.items():
        fingerprint = _fingerprint(program)
        if cache.fingerprints[key] != fingerprint:
            cache.fingerprints[key] = fingerprint  # report it once
            edited.append(key)
    if edited:
        pytest.fail(
            f"{request.node.nodeid} edited memoized subject(s) {edited} in "
            "place; hand editors copy.deepcopy(load_subject(...))"
        )


@pytest.fixture(params=sorted(ENGINES))
def engine_cls(request):
    """Each engine class in turn (the service's name -> class registry)."""
    return ENGINES[request.param]


@pytest.fixture
def config():
    """The default :class:`SolverConfig`, independent of the environment
    the suite runs under."""
    return SolverConfig()
