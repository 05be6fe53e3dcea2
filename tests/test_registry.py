"""The suite registry: unique names within a suite, and clearing one suite."""

import pytest

import ndcheck.corpus  # noqa: F401 - registers the bundled suites
from ndcheck import registry
from ndcheck.contracts import RegistrationError
from ndcheck.prop import is_equal

MODULE = "RegistryNames"


@pytest.fixture(autouse=True)
def _clean_registry():
    registry.clear(MODULE)
    yield
    registry.clear(MODULE)


def test_a_duplicate_name_in_one_suite_is_refused():
    first = registry.unit_test(MODULE, "same", is_equal(1, 1))
    with pytest.raises(RegistrationError, match="duplicate test name 'same' in suite 'RegistryNames'"):
        registry.unit_test(MODULE, "same", is_equal(2, 2))
    assert registry.specs_for([MODULE]) == [first]


def test_one_name_may_recur_in_another_suite():
    registry.unit_test(MODULE, "revLength", is_equal(1, 1))
    assert [s.name for s in registry.specs_for([MODULE])] == ["revLength"]
    assert "revLength" in [s.name for s in registry.specs_for(["Rev"])]


def test_clear_drops_one_suite_only():
    registry.unit_test(MODULE, "p", is_equal(1, 1))
    others = [n for n in registry.suite_names() if n != MODULE]
    registry.clear(MODULE)
    assert registry.suite_names() == others
    with pytest.raises(KeyError):
        registry.specs_for([MODULE])
    registry.clear(MODULE)   # an unknown suite is no error
