"""Bundled example suites; importing this package registers all of them.

Each module holds one suite: ConcDup (concatenation and duplicate finding),
Perm (permutations), Rev (list reversal), BoolTest (a finite-domain law),
SumUp (guarded arithmetic), Trees (user-defined tree data), Sort (a buggy
quicksort under contract), IsSet (a determinism claim), and IOTests
(file-effect unit tests).
"""

from . import (  # noqa: F401
    concdup,
    perm,
    rev,
    booltest,
    sumup,
    trees,
    sort,
    isset,
    iotests,
)
