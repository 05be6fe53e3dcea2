"""ndcheck: property-based testing for computations with many results.

Computations are modeled as search trees of values; properties compare
de-duplicated value sets, so tests are insensitive to result order and
multiplicity.  Finite input domains are enumerated exhaustively, which turns
a passing run into a proof over that domain.
"""

from .contracts import ContractEntry, RegistrationError, synthesize
from .gen import (
    BaseType,
    Generator,
    Ordering,
    alt,
    builtin,
    gen_cons,
    gen_cons0,
    list_of,
    positive_ints,
    recursive,
    tuple_of,
)
from .prop import (
    EvalContext,
    Outcome,
    Prop,
    always,
    classify,
    collect,
    eventually,
    for_all,
    implies,
    is_equal,
    reduces_to,
    returns,
    same_set,
    value_count,
    value_count_less,
)
from .registry import contract, param_test, poly_test, unit_test
from .runner import (
    ConfigError,
    RunConfig,
    TestReport,
    TestSpec,
    Verdict,
    instantiate_poly,
    render_report,
    run_param,
    run_suite,
)
from .searchtree import (
    DEFAULT_NODE_BUDGET,
    Enumeration,
    SearchTree,
    Strategy,
    bind,
    choice,
    defer,
    enumerate_tree,
    fail,
    one_of,
    take_values,
    value,
)

__version__ = "0.1.0"
