"""Suite IOTests: effectful unit tests over a scratch file.

The write test runs before the read test by registration order, so the read
depends on the write's side effect; the combined test is self-contained.
"""

from __future__ import annotations

from pathlib import Path

from ..prop import returns
from ..registry import unit_test

MODULE = "IOTests"


def _write_hello(scratch: Path) -> None:
    (scratch / "TEST").write_text("Hello")
    return None


def _read_test(scratch: Path) -> str:
    return (scratch / "TEST").read_text()


def _write_then_read(scratch: Path) -> str:
    (scratch / "TEST").write_text("Hello")
    return (scratch / "TEST").read_text()


unit_test(MODULE, "writeTestFile", returns(_write_hello, None), line=6)
unit_test(MODULE, "readTestFile", returns(_read_test, "Hello"), line=7)
unit_test(MODULE, "writeReadFile", returns(_write_then_read, "Hello"), line=9)
