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


def _fits(columns, firsts):
    """Whether each column (x, y) can take its own slot among firsts,
    the xs of the slots still open."""
    return all(firsts.count(x) >= sum(1 for c in columns if c[0] == x)
               for x, _ in columns)


def _preimages(xs, ys, attributes, max_width):
    """Every E2 conclusion from excl(xs ; ys): the pairs (wxs, wys) that
    an index sequence pi projects onto (xs, ys), each with its first pi
    in product order, in _pairs_over order.

    A pair qualifies when every column (xs[k], ys[k]) is also a column
    (wxs[p], wys[p]); the first pi takes each k to the first such p.
    Only the wys that still leave every column a slot are extended.
    """
    columns = frozenset(zip(xs, ys))

    def fill(wxs, wys, missing):
        p = len(wys)
        if p == len(wxs):
            slot = {}
            for q, column in enumerate(zip(wxs, wys), 1):
                slot.setdefault(column, q)
            yield wxs, wys, tuple(slot[c] for c in zip(xs, ys))
            return
        for y in attributes:
            left = missing - {(wxs[p], y)}
            if _fits(left, wxs[p + 1:]):
                yield from fill(wxs, wys + (y,), left)

    for m in range(len(columns), max_width + 1):
        for wxs in itertools.product(attributes, repeat=m):
            if _fits(columns, wxs):
                yield from fill(wxs, (), columns)


def derive(premises, goal, system="inc-exc", depth=6):
    """Level-wise forward closure over the dependency axioms.

    Level 0 notes the I1 instances; every level then applies each rule
    to the dependencies noted before it began, and the search stops at
    the level that notes the goal, after depth levels, or at a level
    that notes nothing.  inc-only admits I1-I3 on inclusion
    dependencies; inc-exc adds E1-E3 and the two interaction rules.
    Functional and generating dependencies are rejected: their combined
    implication problem with inclusions is undecidable, so no proof
    system is attempted.

    The closure is semi-naive (Bancilhon & Ramakrishnan 1986): level L
    fires a rule only on premise combinations that hold at least one
    dependency first noted at level L-1 (at level 0, every dependency).
    A rule use whose premises were all known when level L-1 began was
    tried there, so its conclusion is known already.  Each level walks
    the known dependencies in the order they were noted, as a closure
    that fires every rule on everything at every level would, so the
    first rule use that notes a conclusion, and with it every
    Derivation, is the same.
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

    # (kind, xs, ys) -> Derivation, in the order noted.  Only inclusions
    # reach an inc-only closure, so the exclusion rules never fire there.
    known = {}
    for dep in premises:
        known[type(dep), dep.xs, dep.ys] = Derivation("premise", dep)
    target = (type(goal), goal.xs, goal.ys)

    def note(kind, xs, ys, rule, children=(), params=()):
        if (kind, xs, ys) not in known:
            known[kind, xs, ys] = Derivation(rule, kind(xs, ys), children,
                                             params)

    by_xs, by_ys = {}, {}   # inclusions known when the level began
    start = 0               # where the dependencies new to the level begin
    for level in range(depth):
        if level == 0:
            for xs in _tuples_over(attributes, max_width):
                note(Ind, xs, xs, "I1")
        snapshot = list(known.items())
        new_by_xs, new_by_ys = {}, {}
        for i, ((kind, xs, ys), d) in enumerate(snapshot[start:], start):
            if kind is Ind:
                for index, key in ((by_xs, xs), (new_by_xs, xs),
                                   (by_ys, ys), (new_by_ys, ys)):
                    index.setdefault(key, []).append((i, xs, ys, d))
        for i, ((kind, xs, ys), d) in enumerate(snapshot):
            new = i >= start
            if kind is Ind:
                if new:
                    for pi in _tuples_over(range(1, len(xs) + 1), max_width):
                        note(Ind, tuple(xs[k - 1] for k in pi),
                             tuple(ys[k - 1] for k in pi), "I2", (d,), (pi,))
                for _, _, zs, other in (by_xs if new else new_by_xs).get(ys, ()):
                    note(Ind, xs, zs, "I3", (d, other))
                continue
            if new:
                note(Exd, ys, xs, "E1", (d,))
                # E2 widens a projected exclusion back to any preimage.
                for wxs, wys, pi in _preimages(xs, ys, attributes, max_width):
                    note(Exd, wxs, wys, "E2", (d,), (pi,))
                if xs == ys:
                    # Inconsistent relation must be empty: everything follows.
                    for us, vs in _pairs_over(attributes, max_width):
                        note(Exd, us, vs, "E3", (d,))
                        note(Ind, us, vs, "IE1", (d,))
            elif xs not in new_by_ys and ys not in new_by_ys:
                continue
            for j, zs, _, zin in by_ys.get(xs, ()):
                wins = by_ys if new or j >= start else new_by_ys
                for _, ws, _, win in wins.get(ys, ()):
                    note(Exd, zs, ws, "IE2", (d, zin, win))
        start = len(snapshot)
        if target in known or len(known) == start:
            break
    return known.get(target)


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

    Tries every relation over the mentioned attributes, in sorted order,
    with at most max_tuples tuples over the universe "0", "1", ... of the
    given size; a bounded approximation of the unbounded notion.  The
    relations come from model.subsets over the rows in
    itertools.product order, and the first one that satisfies every
    premise and breaks the goal is returned.

    Each row's projections are computed once per call, and a row that
    breaks an exclusion premise on its own is left out: every relation
    holding it breaks that premise, and the relations over the other
    rows keep their order, so the first counterexample is the same.
    """
    premises = list(premises)
    for dep in premises + [goal]:
        if not isinstance(dep, (Ind, Exd)):
            raise DependencyError("semantic implication covers "
                                  "inclusion/exclusion dependencies only")
    if universe_size < 0 or max_tuples < 0:
        raise ValueError("universe_size and max_tuples must not be negative")
    attributes = sorted({a for dep in premises + [goal]
                         for side in (dep.xs, dep.ys) for a in side})
    column = {a: i for i, a in enumerate(attributes)}

    def sides(dep, row):
        return (tuple(row[column[a]] for a in dep.xs),
                tuple(row[column[a]] for a in dep.ys))

    exclusions = [dep for dep in premises if isinstance(dep, Exd)]
    universe = [str(i) for i in range(universe_size)]
    rows = [row for row in itertools.product(universe, repeat=len(attributes))
            if all(x != y for x, y in (sides(dep, row) for dep in exclusions))]

    def bits(dep):
        """Whether dep is an inclusion, and each row's xs and ys values
        as one-bit masks over a numbering of the values."""
        ids = {}
        xbits, ybits = [], []
        for row in rows:
            x, y = sides(dep, row)
            xbits.append(1 << ids.setdefault(x, len(ids)))
            ybits.append(1 << ids.setdefault(y, len(ids)))
        return isinstance(dep, Ind), xbits, ybits

    def holds(check, chosen):
        inclusion, xbits, ybits = check
        xs = ys = 0
        for r in chosen:
            xs |= xbits[r]
            ys |= ybits[r]
        return not (xs & ~ys if inclusion else xs & ys)

    goal_check = bits(goal)
    premise_checks = [bits(dep) for dep in premises]
    for chosen in subsets(range(len(rows)), 0, max_tuples):
        if not holds(goal_check, chosen) and \
                all(holds(check, chosen) for check in premise_checks):
            return False, DBRelation(attributes, [rows[r] for r in chosen])
    return True, None
