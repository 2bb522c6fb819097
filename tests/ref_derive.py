"""A frozen copy of the naive level loop that dbdeps.derive once was.

Every level fires every rule on every known dependency again, and E2
tries every same-width tuple pair and index sequence before comparing
the projection.  That makes it slow and plainly right, so the tests hold
the semi-naive dbdeps.derive to it: both must record the same first
rule use for every conclusion, so their Derivation.lines() agree.  Keep
this file as it is; it is the reference, not a second implementation
to improve.
"""

import itertools

from teamlogic.dbdeps import DependencyError, Derivation, Exd, Ind


def _tuples_over(attributes, max_width):
    for m in range(1, max_width + 1):
        yield from itertools.product(attributes, repeat=m)


def _pairs_over(attributes, max_width):
    for m in range(1, max_width + 1):
        yield from itertools.product(itertools.product(attributes, repeat=m),
                                     repeat=2)


def ref_derive(premises, goal, system="inc-exc", depth=6):
    premises = list(premises)
    for dep in list(premises) + [goal]:
        if not isinstance(dep, (Ind, Exd)):
            raise DependencyError(
                "derivations cover inclusion/exclusion dependencies only")
        if system == "inc-only" and not isinstance(dep, Ind):
            raise DependencyError("inc-only derivations admit inclusions only")

    attributes = sorted({a for dep in premises + [goal]
                         for side in (dep.xs, dep.ys) for a in side})
    max_width = max(len(dep.xs) for dep in premises + [goal])

    known = {}
    for dep in premises:
        known[dep] = Derivation("premise", dep)

    def note(dep, derivation, fresh):
        if dep not in known:
            known[dep] = derivation
            fresh.append(dep)

    for level in range(depth):
        fresh = []
        if level == 0:
            for xs in _tuples_over(attributes, max_width):
                note(Ind(xs, xs), Derivation("I1", Ind(xs, xs)), fresh)
        snapshot = list(known.items())
        for dep, derivation in snapshot:
            if isinstance(dep, Ind):
                n = len(dep.xs)
                for pi in _tuples_over(range(1, n + 1), max_width):
                    new = Ind(tuple(dep.xs[i - 1] for i in pi),
                              tuple(dep.ys[i - 1] for i in pi))
                    note(new, Derivation("I2", new, (derivation,), (pi,)), fresh)
                for other, other_d in snapshot:
                    if isinstance(other, Ind) and dep.ys == other.xs:
                        new = Ind(dep.xs, other.ys)
                        note(new, Derivation("I3", new, (derivation, other_d)),
                             fresh)
            if system == "inc-only":
                continue
            if isinstance(dep, Exd):
                note(Exd(dep.ys, dep.xs),
                     Derivation("E1", Exd(dep.ys, dep.xs), (derivation,)), fresh)
                n = len(dep.xs)
                for xs, ys in _pairs_over(attributes, max_width):
                    for pi in itertools.product(range(1, len(xs) + 1), repeat=n):
                        if tuple(xs[i - 1] for i in pi) == dep.xs and \
                                tuple(ys[i - 1] for i in pi) == dep.ys:
                            new = Exd(xs, ys)
                            note(new, Derivation("E2", new, (derivation,),
                                                 (pi,)), fresh)
                if dep.xs == dep.ys:
                    for ys, zs in _pairs_over(attributes, max_width):
                        note(Exd(ys, zs),
                             Derivation("E3", Exd(ys, zs), (derivation,)), fresh)
                        note(Ind(ys, zs),
                             Derivation("IE1", Ind(ys, zs), (derivation,)), fresh)
                for zin, zin_d in snapshot:
                    if not isinstance(zin, Ind) or zin.ys != dep.xs:
                        continue
                    for win, win_d in snapshot:
                        if not isinstance(win, Ind) or win.ys != dep.ys:
                            continue
                        if len(zin.xs) != len(win.xs):
                            continue
                        new = Exd(zin.xs, win.xs)
                        note(new, Derivation("IE2", new,
                                             (derivation, zin_d, win_d)),
                             fresh)
        if goal in known:
            return known[goal]
        if not fresh:
            break
    return known.get(goal)
