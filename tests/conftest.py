"""Shared test fixtures."""

import pytest

from repro.context import RunContext


@pytest.fixture(autouse=True)
def run_context():
    """Run every test in a fresh :class:`RunContext` (empty recorder,
    zeroed metrics, untraced, in-memory store and parse cache)."""
    with RunContext().installed() as ctx:
        yield ctx


@pytest.hookimpl(hookwrapper=True)
def pytest_fixture_setup(fixturedef, request):
    """Build module-, class- and session-scoped fixtures (the shared
    studies) in a fresh context of their own as well, never in one
    left over from another test or read from the environment."""
    if fixturedef.scope == "function":
        yield
        return
    with RunContext().installed():
        yield


@pytest.fixture
def scipy_stats():
    """``scipy.stats``, the reference oracle of ``repro.stats``.

    scipy is a test-only dependency: a test that takes this fixture is
    skipped where it is not installed.
    """
    return pytest.importorskip("scipy.stats")
