"""Searches on generated input run under an explicit node budget.

A budget_exceeded verdict would otherwise read as unsat through
Verdict.is_sat, and a draw that runs for minutes is saved by hypothesis
and replayed first on every later run.  Each test sizes its budget with
a wide margin over the worst count measured across hypothesis seeds.
"""

import pytest

from teamlogic.semantics import Budget, BudgetExceeded


def within(nodes, what, search, *args, **kwargs):
    """search(*args, budget=Budget(nodes), **kwargs), failing the test
    with `what` when the search runs out of nodes."""
    try:
        out = search(*args, budget=Budget(nodes), **kwargs)
        decided = getattr(out, "status", None) != "budget_exceeded"
    except BudgetExceeded:
        decided = False
    if not decided:
        pytest.fail("%s: undecided within %d nodes" % (what, nodes))
    return out
