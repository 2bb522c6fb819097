"""Bitmask evaluator for the quantifier-free closure corpora.

Teams over a fixed row universe are bitmasks; for every formula we
compute the satisfaction vector over all masks up to a row cap in one
bottom-up pass, caching by subformula identity.  Disjunction enumerates
submask splits directly, so whole-corpus properties (locality, closure,
lax = strict) come out of vector comparisons.

This is test-side machinery only, and it is itself cross-checked
against the package evaluator on a deterministic sample before the
corpus-wide claims are trusted.
"""

import itertools

from teamlogic.model import Assignment
from teamlogic.syntax import (
    And, DepAtom, Equality, ExclAtom, InclAtom, Name, Or,
)


def row_universe(variables, domain):
    return [Assignment(dict(zip(variables, values)))
            for values in itertools.product(domain, repeat=len(variables))]


def masks_up_to(n_rows, max_rows):
    return [m for m in range(1 << n_rows) if bin(m).count("1") <= max_rows]


def _split_pairs(mask, lax):
    """All (left, right) submask pairs covering the mask."""
    pairs = []
    sub = mask
    while True:
        rest = mask & ~sub
        if lax:
            extra = sub
            w = extra
            while True:
                pairs.append((sub, rest | w))
                if w == 0:
                    break
                w = (w - 1) & extra
        else:
            pairs.append((sub, rest))
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return pairs


class CorpusEvaluator:
    def __init__(self, variables, domain, max_rows=3, lax=True):
        self.rows = row_universe(variables, domain)
        self.masks = masks_up_to(len(self.rows), max_rows)
        self.lax = lax
        self.split = {mask: _split_pairs(mask, lax) for mask in self.masks}
        self.cache = {}

    def _values(self, mask, terms):
        out = set()
        for i, row in enumerate(self.rows):
            if mask >> i & 1:
                out.add(tuple(row[t.ident] if isinstance(t, Name) else None
                              for t in terms))
        return out

    def _atom_vector(self, phi):
        vec = {}
        for mask in self.masks:
            if isinstance(phi, Equality):
                ok = True
                for i, row in enumerate(self.rows):
                    if mask >> i & 1:
                        same = row[phi.left.ident] == row[phi.right.ident]
                        if same != phi.positive:
                            ok = False
                            break
                vec[mask] = ok
            elif isinstance(phi, InclAtom):
                vec[mask] = self._values(mask, phi.left) <= \
                    self._values(mask, phi.right)
            elif isinstance(phi, ExclAtom):
                vec[mask] = not (self._values(mask, phi.left) &
                                 self._values(mask, phi.right))
            elif isinstance(phi, DepAtom):
                table = {}
                ok = True
                for i, row in enumerate(self.rows):
                    if mask >> i & 1:
                        key = tuple(row[t.ident] for t in phi.args[:-1])
                        val = row[phi.args[-1].ident]
                        if table.setdefault(key, val) != val:
                            ok = False
                            break
                vec[mask] = ok
            else:
                raise TypeError("unsupported atom: %r" % (phi,))
        return vec

    def vector(self, phi):
        if isinstance(phi, (And, Or)):
            return self._junction(type(phi), phi.parts)
        key = id(phi)
        cached = self.cache.get(key)
        if cached is None:
            cached = self.cache[key] = self._atom_vector(phi)
        return cached

    def _junction(self, kind, parts):
        """The vector of the junction of parts, read as the binary junction
        of all parts but the last with the last.  It is cached per prefix
        of parts, so a chain that extends one seen before reuses its
        vector."""
        key = (kind,) + tuple(id(part) for part in parts)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        lv = (self.vector(parts[0]) if len(parts) == 2
              else self._junction(kind, parts[:-1]))
        rv = self.vector(parts[-1])
        if kind is And:
            vec = {mask: lv[mask] and rv[mask] for mask in self.masks}
        else:
            vec = {}
            for mask in self.masks:
                vec[mask] = any(lv[a] and rv[b] for a, b in self.split[mask])
        self.cache[key] = vec
        return vec

    def mask_of(self, team):
        mask = 0
        for i, row in enumerate(self.rows):
            if row in team.rows:
                mask |= 1 << i
        return mask
