"""Suite SumUp: a function that diverges outside its intended domain, tested
once through a guard and once through an explicit positive generator."""

from __future__ import annotations

from ..gen import BaseType, Generator, alt, builtin, gen_cons, gen_cons0, recursive
from ..prop import for_all, implies, is_equal
from ..registry import param_test, unit_test

MODULE = "SumUp"


def sum_up(n: int) -> int:
    # counts down to the base case 1; diverges for n < 1 by design
    total = 0
    while n != 1:
        total += n
        n -= 1
    return total + 1


def gen_pos() -> Generator[int]:
    """Positive integers as a degenerate chain: 1, 2, 3, ...  Not marked
    distinct: n + 1 is no free constructor."""
    return recursive(lambda pos: alt(gen_cons0(1), gen_cons(lambda n: n + 1, pos)))


param_test(
    MODULE,
    "sumUpIsCorrect",
    builtin(BaseType.INT),
    body=lambda n: implies(n > 0, lambda: is_equal(sum_up(n), n * (n + 1) // 2)),
    line=7,
)

unit_test(
    MODULE,
    "sumUpIsCorrectForAll",
    for_all(gen_pos(), lambda n: is_equal(sum_up(n), n * (n + 1) // 2)),
    line=11,
)
