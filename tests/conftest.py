"""Checks that hold after every test."""

import pytest

from ndcheck.prop import _DROP_PROP, _SAT_PROP, _dropped, _satisfied


@pytest.fixture(autouse=True)
def shared_properties_intact():
    """Every case decided when built shares one property of prop, so a test
    that assigns to such a property's check would change the verdicts of
    the tests after it; this fails the test that did it instead."""
    yield
    assert _SAT_PROP.check is _satisfied, "a test changed prop._SAT_PROP.check"
    assert _DROP_PROP.check is _dropped, "a test changed prop._DROP_PROP.check"
