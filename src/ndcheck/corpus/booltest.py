"""Suite BoolTest: a De Morgan law over a finite domain, provable by
exhausting all four input pairs."""

from __future__ import annotations

from ..gen import BaseType, builtin, tuple_of
from ..prop import is_equal
from ..registry import param_test

MODULE = "BoolTest"

param_test(
    MODULE,
    "negOr",
    tuple_of(builtin(BaseType.BOOL), builtin(BaseType.BOOL)),
    body=lambda b1, b2: is_equal(not (b1 or b2), (not b1) and (not b2)),
    line=4,
    arity=2,
)
