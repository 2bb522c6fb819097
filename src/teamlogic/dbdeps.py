"""Database dependencies over attribute-named relations.

Covers inclusion and exclusion dependencies (with the complete axiom
system for their joint implication problem), functional dependencies,
and tuple/equality generating dependencies, plus a brute-force semantic
implication oracle for cross-checking derivations.
"""

import csv
import itertools
import re
from dataclasses import dataclass

from .model import subsets, tables
from .syntax import ParseError


class DependencyError(ValueError):
    pass


class DBRelation:
    def __init__(self, attributes, tuples):
        self.attributes = tuple(attributes)
        self.tuples = frozenset(tuple(t) for t in tuples)
        for t in self.tuples:
            if len(t) != len(self.attributes):
                raise DependencyError("tuple width does not match attributes")

    def column_index(self, attribute):
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise DependencyError("unknown attribute %r" % attribute)

    def projection(self, attributes):
        indices = [self.column_index(a) for a in attributes]
        return {tuple(row[i] for i in indices) for row in self.tuples}

    def active_domain(self):
        return sorted({value for row in self.tuples for value in row})

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
        if not rows:
            raise DependencyError("empty relation file")
        if len(set(rows[0])) != len(rows[0]):
            raise DependencyError("repeated attribute in header %s"
                                  % ",".join(rows[0]))
        return cls(rows[0], rows[1:])


# ---------------------------------------------------------------------------
# Dependency kinds


@dataclass(frozen=True)
class Ind:
    """Inclusion dependency: values of xs all occur as values of ys."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise DependencyError("inclusion needs nonempty equal-width sides")

    def __str__(self):
        return "incl(%s ; %s)" % (",".join(self.xs), ",".join(self.ys))


@dataclass(frozen=True)
class Exd:
    """Exclusion dependency: the two value sets are disjoint."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise DependencyError("exclusion needs nonempty equal-width sides")

    def __str__(self):
        return "excl(%s ; %s)" % (",".join(self.xs), ",".join(self.ys))


@dataclass(frozen=True)
class Fd:
    xs: tuple
    y: str

    def __str__(self):
        return "fd(%s -> %s)" % (",".join(self.xs), self.y)


@dataclass(frozen=True)
class Tgd:
    """body atoms -> exists head_vars . head atoms.

    Atoms are ("A", variable tuple) or ("eq", var, var); variables only.
    """

    body: tuple
    head_vars: tuple
    head: tuple

    def __str__(self):
        head = " & ".join(_atom_text(a) for a in self.head)
        if self.head_vars:
            head = "exists %s . %s" % (" ".join(self.head_vars), head)
        return "tgd: %s -> %s" % (" & ".join(_atom_text(a) for a in self.body), head)


@dataclass(frozen=True)
class Egd:
    body: tuple
    left: str
    right: str

    def __str__(self):
        return "egd: %s -> %s = %s" % (
            " & ".join(_atom_text(a) for a in self.body), self.left, self.right)


def _atom_text(atom):
    if atom[0] == "A":
        return "A(%s)" % ", ".join(atom[1])
    return "%s = %s" % (atom[1], atom[2])


# ---------------------------------------------------------------------------
# Parsing


def parse_dependency(text):
    text = text.strip()
    m = re.fullmatch(r"incl\((.*?);(.*?)\)", text)
    if m:
        return Ind(_attrs(m.group(1)), _attrs(m.group(2)))
    m = re.fullmatch(r"excl\((.*?);(.*?)\)", text)
    if m:
        return Exd(_attrs(m.group(1)), _attrs(m.group(2)))
    m = re.fullmatch(r"fd\((.*?)->(.*?)\)", text)
    if m:
        return Fd(_attrs(m.group(1)), m.group(2).strip())
    if text.startswith("tgd:"):
        body_text, _, head_text = text[4:].partition("->")
        head_text = head_text.strip()
        head_vars = ()
        m = re.match(r"exists\s+([\w\s]+?)\s*\.\s*(.*)", head_text)
        if m:
            head_vars = tuple(m.group(1).split())
            head_text = m.group(2)
        body, head = _atoms(body_text), _atoms(head_text)
        _bound(body, _body_vars(head), head_vars)
        return Tgd(body, head_vars, head)
    if text.startswith("egd:"):
        body_text, _, head_text = text[4:].partition("->")
        m = re.fullmatch(r"\s*(\w+)\s*=\s*(\w+)\s*", head_text)
        if not m:
            raise ParseError("egd head must be a single equality")
        body = _atoms(body_text)
        _bound(body, m.groups())
        return Egd(body, m.group(1), m.group(2))
    raise ParseError("unrecognized dependency: %r" % text)


def _bound(body, head_vars, exists_vars=()):
    """Every head variable occurs in the body or is bound by exists."""
    unbound = set(head_vars) - set(_body_vars(body)) - set(exists_vars)
    if unbound:
        raise DependencyError("head variable %s is neither in the body nor "
                              "bound by exists" % ", ".join(sorted(unbound)))


def _attrs(text):
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    return parts


def _atoms(text):
    atoms = []
    for chunk in text.split("&"):
        chunk = chunk.strip()
        m = re.fullmatch(r"A\s*\((.*?)\)", chunk)
        if m:
            atoms.append(("A", _attrs(m.group(1))))
            continue
        m = re.fullmatch(r"(\w+)\s*=\s*(\w+)", chunk)
        if m:
            atoms.append(("eq", m.group(1), m.group(2)))
            continue
        raise ParseError("unrecognized atom: %r" % chunk)
    return tuple(atoms)


# ---------------------------------------------------------------------------
# Satisfaction


def check_dependency(relation, dep, universe=None):
    """Whether the relation satisfies the dependency."""
    return find_violation(relation, dep, universe) is None


def _body_vars(atoms):
    out = []
    for atom in atoms:
        names = atom[1] if atom[0] == "A" else atom[1:]
        for v in names:
            if v not in out:
                out.append(v)
    return out


def _atom_holds(relation, atom, valuation):
    if atom[0] == "A":
        return tuple(valuation[v] for v in atom[1]) in relation.tuples
    return valuation[atom[1]] == valuation[atom[2]]


def find_violation(relation, dep, universe=None):
    """One witness per violated dependency, or None when it holds.

    The witness is a tuple of relation rows (or value tuples for the
    inclusion/exclusion kinds) that exhibits the failure.
    """
    if isinstance(dep, Ind):
        missing = relation.projection(dep.xs) - relation.projection(dep.ys)
        return (min(missing),) if missing else None
    if isinstance(dep, Exd):
        shared = relation.projection(dep.xs) & relation.projection(dep.ys)
        if shared:
            value = min(shared)
            return (value, value)
        return None
    if isinstance(dep, Fd):
        xi = [relation.column_index(a) for a in dep.xs]
        yi = relation.column_index(dep.y)
        seen = {}
        for row in sorted(relation.tuples):
            key = tuple(row[i] for i in xi)
            if key in seen and seen[key][yi] != row[yi]:
                return (seen[key], row)
            seen.setdefault(key, row)
        return None
    if isinstance(dep, (Tgd, Egd)):
        for atom in dep.body + (dep.head if isinstance(dep, Tgd) else ()):
            if atom[0] == "A" and len(atom[1]) != len(relation.attributes):
                raise DependencyError("%s has width %d, the relation %d"
                                      % (_atom_text(atom), len(atom[1]),
                                         len(relation.attributes)))
        domain = list(universe) if universe else relation.active_domain()
        body_vars = _body_vars(dep.body)
        for valuation in tables(body_vars, domain):
            if not all(_atom_holds(relation, a, valuation) for a in dep.body):
                continue
            if isinstance(dep, Egd):
                if valuation[dep.left] != valuation[dep.right]:
                    return (tuple(valuation[v] for v in body_vars),)
                continue
            extra = [v for v in dep.head_vars if v not in valuation]
            if not any(all(_atom_holds(relation, a, {**valuation, **wit})
                           for a in dep.head)
                       for wit in tables(extra, domain)):
                return (tuple(valuation[v] for v in body_vars),)
        return None
    raise DependencyError("unknown dependency kind: %r" % (dep,))


# ---------------------------------------------------------------------------
# The axiomatic derivation engine


@dataclass(frozen=True)
class Derivation:
    """A certificate tree: rule name, conclusion, premises, parameters."""

    rule: str
    conclusion: object
    children: tuple = ()
    params: tuple = ()

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def lines(self, indent=0):
        pad = "  " * indent
        extra = " [%s]" % ", ".join(map(str, self.params)) if self.params else ""
        out = ["%s%s  by %s%s" % (pad, self.conclusion, self.rule, extra)]
        for child in self.children:
            out.extend(child.lines(indent + 1))
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _tuples_over(attributes, max_width):
    for m in range(1, max_width + 1):
        yield from itertools.product(attributes, repeat=m)


def _pairs_over(attributes, max_width):
    """Pairs of same-width tuples, narrowest first, in product order."""
    for m in range(1, max_width + 1):
        yield from itertools.product(itertools.product(attributes, repeat=m),
                                     repeat=2)


def derive(premises, goal, system="inc-exc", depth=6):
    """Iterative-deepening proof search over the dependency axioms.

    inc-only admits I1-I3 on inclusion dependencies; inc-exc adds E1-E3
    and the two interaction rules.  Functional and generating
    dependencies are rejected: their combined implication problem with
    inclusions is undecidable, so no proof system is attempted.
    """
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

    # I1 instances and, when an x|x premise class is derivable, the E3 and
    # IE1 schemata can conclude anything; both are handled on demand below.
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
                # E2 widens a projected exclusion back to any preimage.
                n = len(dep.xs)
                for xs, ys in _pairs_over(attributes, max_width):
                    for pi in itertools.product(range(1, len(xs) + 1), repeat=n):
                        if tuple(xs[i - 1] for i in pi) == dep.xs and \
                                tuple(ys[i - 1] for i in pi) == dep.ys:
                            new = Exd(xs, ys)
                            note(new, Derivation("E2", new, (derivation,),
                                                 (pi,)), fresh)
                if dep.xs == dep.ys:
                    # Inconsistent relation must be empty: everything follows.
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


def verify_derivation(derivation, premises):
    """Re-validate a derivation tree node by node against the schemata."""
    premises = set(premises)

    def check(node):
        rule, dep = node.rule, node.conclusion
        kids = [child.conclusion for child in node.children]
        if rule == "premise":
            return dep in premises and not node.children
        if rule == "I1":
            return isinstance(dep, Ind) and dep.xs == dep.ys and not kids
        if rule == "I2":
            if len(kids) != 1 or not isinstance(kids[0], Ind) or not node.params:
                return False
            (pi,) = node.params
            src = kids[0]
            return (all(1 <= i <= len(src.xs) for i in pi)
                    and dep == Ind(tuple(src.xs[i - 1] for i in pi),
                                   tuple(src.ys[i - 1] for i in pi)))
        if rule == "I3":
            return (len(kids) == 2 and all(isinstance(k, Ind) for k in kids)
                    and kids[0].ys == kids[1].xs
                    and dep == Ind(kids[0].xs, kids[1].ys))
        if rule == "E1":
            return (len(kids) == 1 and isinstance(kids[0], Exd)
                    and dep == Exd(kids[0].ys, kids[0].xs))
        if rule == "E2":
            if len(kids) != 1 or not isinstance(kids[0], Exd) or not node.params:
                return False
            (pi,) = node.params
            return (isinstance(dep, Exd)
                    and all(1 <= i <= len(dep.xs) for i in pi)
                    and kids[0] == Exd(tuple(dep.xs[i - 1] for i in pi),
                                       tuple(dep.ys[i - 1] for i in pi)))
        if rule == "E3":
            return (len(kids) == 1 and isinstance(kids[0], Exd)
                    and kids[0].xs == kids[0].ys and isinstance(dep, Exd))
        if rule == "IE1":
            return (len(kids) == 1 and isinstance(kids[0], Exd)
                    and kids[0].xs == kids[0].ys and isinstance(dep, Ind))
        if rule == "IE2":
            if len(kids) != 3:
                return False
            excl, zin, win = kids
            return (isinstance(excl, Exd) and isinstance(zin, Ind)
                    and isinstance(win, Ind)
                    and zin.ys == excl.xs and win.ys == excl.ys
                    and dep == Exd(zin.xs, win.xs))
        return False

    def walk(node):
        return check(node) and all(walk(child) for child in node.children)

    return walk(derivation)


# ---------------------------------------------------------------------------
# Brute-force semantic implication


def semantic_implies(premises, goal, universe_size=3, max_tuples=3):
    """No counterexample relation within the bounds implies the goal.

    Enumerates every relation over attribute columns of the mentioned
    attributes with at most max_tuples tuples over a universe of the
    given size; a bounded approximation of the unbounded notion.
    """
    premises = list(premises)
    attributes = sorted({a for dep in premises + [goal]
                         for side in (dep.xs, dep.ys) for a in side})
    universe = [str(i) for i in range(universe_size)]
    all_rows = itertools.product(universe, repeat=len(attributes))
    for rows in subsets(all_rows, 0, max_tuples):
        relation = DBRelation(attributes, rows)
        if all(check_dependency(relation, dep) for dep in premises) \
                and not check_dependency(relation, goal):
            return False, relation
    return True, None
