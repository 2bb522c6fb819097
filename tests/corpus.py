"""Deterministic formula and team corpora for property checks.

Everything here is enumeration order dependent but seeded by structure,
not by randomness: repeated runs see the same corpus in the same order.
Sampling, where a full product is too large, hashes a stable text key
so the choice of survivors is reproducible too.
"""

import hashlib
import itertools

from teamlogic.model import Model, Team, all_teams
from teamlogic.syntax import (
    And, DepAtom, Equality, ExclAtom, InclAtom, Name, Or, render,
)

DOMAIN01 = ("0", "1")


def _atoms(variables, kinds):
    """All atomic formulas of the admitted kinds over the variables."""
    names = [Name(v) for v in variables]
    out = []
    if "eq" in kinds:
        for a, b in itertools.product(names, repeat=2):
            out.append(Equality(a, b))
            out.append(Equality(a, b, positive=False))
    for a, b in itertools.product(names, repeat=2):
        if "incl" in kinds:
            out.append(InclAtom((a,), (b,)))
        if "excl" in kinds:
            out.append(ExclAtom((a,), (b,)))
        if "dep" in kinds:
            out.append(DepAtom((a, b)))
    if "dep" in kinds:
        for a in names:
            out.append(DepAtom((a,)))
    return out


def formulas(variables=("x", "y"), depth=3, kinds=("eq", "incl", "excl")):
    """Quantifier-free formulas up to the given connective depth.

    Depth 1 is the atoms; each further level combines the previous level
    with the atoms by one conjunction or disjunction.  Quantified
    formulas are covered separately by the translation fixtures, so the
    corpus stays small enough for exhaustive closure checks.
    """
    level = _atoms(variables, kinds)
    yield from level
    atoms = list(level)
    for _ in range(depth - 1):
        nxt = []
        for left in level:
            for right in atoms:
                nxt.append(And(left, right))
                nxt.append(Or(left, right))
        yield from nxt
        level = nxt


def teams(variables=("x", "y"), domain=DOMAIN01, max_rows=3, extra_column=None):
    """All teams up to max_rows; optionally with a spare column appended.

    The spare column takes every value combination, so locality checks
    can compare verdicts with and without genuinely varying columns.
    """
    if extra_column is None:
        yield from all_teams(variables, domain, max_rows)
        return
    wide = tuple(variables) + (extra_column,)
    yield from all_teams(wide, domain, max_rows)


def model01():
    return Model(DOMAIN01)


def sample(items, cap, key=None):
    """A deterministic subset of at most cap items.

    Items are ranked by the MD5 of their text key, so the selection is
    stable across runs and Python versions but spread over the corpus
    rather than biased to the enumeration prefix.
    """
    items = list(items)
    if len(items) <= cap:
        return items
    key = key or _default_key

    def rank(indexed):
        i, item = indexed
        digest = hashlib.md5(("%d|%s" % (i, key(item))).encode()).hexdigest()
        return digest

    chosen = sorted(enumerate(items), key=rank)[:cap]
    return [item for _i, item in sorted(chosen)]


def _default_key(item):
    if isinstance(item, tuple):
        return "|".join(_default_key(part) for part in item)
    if isinstance(item, Team):
        return repr(item)
    try:
        return render(item)
    except TypeError:
        return repr(item)
