"""Checks that hold after every test, and fixtures the test modules share."""

import errno
import os
from pathlib import Path

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


@pytest.fixture
def unreadable_dir(tmp_path, monkeypatch):
    """A directory whose listing raises PermissionError, as a directory the
    user may not read does; a chmod-000 directory stays readable to root."""
    listdir = os.listdir

    def refusing(path):
        if Path(path) == tmp_path:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return listdir(path)

    monkeypatch.setattr(os, "listdir", refusing)
    return tmp_path
