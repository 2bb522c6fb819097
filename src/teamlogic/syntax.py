"""Abstract syntax, parser and renderer for team-logic formulas.

The concrete syntax is plain ASCII:

    formula := disj
    disj    := conj ("\\/" conj)*
    conj    := unit ("/\\" unit)*
    unit    := ("exists" | "forall") IDENT+ "." unit
             | "(" formula ")"
             | atom
    atom    := "~"? IDENT "(" termlist ")"
             | term ("=" | "!=") term
             | "dep" "(" termlist ")"
             | "indep" "(" termlist ";" termlist ";" termlist ")"
             | "incl" "(" termlist ";" termlist ")"
             | "excl" "(" termlist ";" termlist ")"
             | "equi" "(" termlist ";" termlist ")"
    term    := IDENT | IDENT "(" termlist ")"

Identifiers are runs of [A-Za-z0-9_], so "0" is a legal constant name.
Whether a bare identifier in term position denotes a variable or a
constant is resolved against the structure at evaluation time, not at
parse time.  "\\/" binds looser than "/\\".  Both are associative under
lax and strict team semantics, so a chain of either is one node holding
its parts however it is bracketed: a k-part disjunction is one split of
the team into k parts.  Formulas are kept in negation normal form: "~"
is only accepted on relation atoms, and "!=" is the negation of "=".  A
formula nested deeper than MAX_NESTING levels, counting bound variables
and open parentheses, is a ParseError.
"""

from dataclasses import dataclass
import functools
import itertools
import re


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Name:
    """A bare identifier: a variable or a constant, resolved at evaluation."""

    ident: str

    def __str__(self):
        return self.ident


@dataclass(frozen=True)
class App:
    """A function application f(t1, ..., tk)."""

    func: str
    args: tuple

    def __str__(self):
        return "%s(%s)" % (self.func, ", ".join(str(a) for a in self.args))


def term_names(term):
    """All identifiers occurring at leaf position in a term."""
    if isinstance(term, Name):
        return {term.ident}
    out = set()
    for a in term.args:
        out |= term_names(a)
    return out


def substitute_term(term, mapping):
    if isinstance(term, Name):
        return mapping.get(term.ident, term)
    return App(term.func, tuple(substitute_term(a, mapping) for a in term.args))


# ---------------------------------------------------------------------------
# Formulas
#
# Every formula node carries two facts, set once by its constructor from
# its children: `free`, the frozenset of its free identifiers (variables
# and constants alike), and `kinds`, the frozenset of the atom classes
# occurring in it.  A first order node gains a third on its first
# evaluation: `holds`, its closure from semantics.compiled.  None is a
# dataclass field, so equality, hashing and repr see the fields alone.


def _set_facts(node, free, kinds):
    facts = node.__dict__  # a frozen dataclass refuses setattr
    facts["free"] = free
    facts["kinds"] = kinds


class _Atom:
    def __post_init__(self):
        free = set()
        for terms in atom_term_tuples(self):
            for t in terms:
                free |= term_names(t)
        _set_facts(self, frozenset(free), _ATOM_KINDS[type(self)])


def _union(a, b):
    """a | b, or the operand holding the other: most nodes add nothing to
    one child's sets, and a new frozenset costs over 200 bytes."""
    return a if b <= a else b if a <= b else a | b


class _Connective:
    """A junction of two or more parts; a part of its own kind is spliced
    in, so And(And(a, b), c) == And(a, And(b, c)) == And(a, b, c)."""

    def __init__(self, *parts):
        flat = []
        for part in parts:
            flat.extend(part.parts if type(part) is type(self) else (part,))
        if len(flat) < 2:
            raise ValueError("%s needs two or more parts" % type(self).__name__)
        self.__dict__["parts"] = tuple(flat)
        _set_facts(self, functools.reduce(_union, [p.free for p in flat]),
                   functools.reduce(_union, [p.kinds for p in flat]))


class _Quantifier:
    def __post_init__(self):
        _set_facts(self, self.body.free - {self.var}, self.body.kinds)


@dataclass(frozen=True)
class RelAtom(_Atom):
    name: str
    args: tuple
    positive: bool = True


@dataclass(frozen=True)
class Equality(_Atom):
    left: object
    right: object
    positive: bool = True


@dataclass(frozen=True)
class DepAtom(_Atom):
    """dep(t1, ..., tn): the value of tn is a function of t1 ... tn-1."""

    args: tuple


@dataclass(frozen=True)
class IndepAtom(_Atom):
    """indep(c; a; b): fixing the c-values, a-values and b-values vary freely."""

    cond: tuple
    left: tuple
    right: tuple


@dataclass(frozen=True)
class InclAtom(_Atom):
    left: tuple
    right: tuple


@dataclass(frozen=True)
class ExclAtom(_Atom):
    left: tuple
    right: tuple


@dataclass(frozen=True)
class EquiAtom(_Atom):
    left: tuple
    right: tuple


@dataclass(frozen=True, init=False)
class And(_Connective):
    parts: tuple


@dataclass(frozen=True, init=False)
class Or(_Connective):
    parts: tuple


@dataclass(frozen=True)
class Exists(_Quantifier):
    var: str
    body: object


@dataclass(frozen=True)
class Forall(_Quantifier):
    var: str
    body: object


LITERALS = (RelAtom, Equality)
ATOMS = LITERALS + (DepAtom, IndepAtom, InclAtom, ExclAtom, EquiAtom)
_ATOM_KINDS = {cls: frozenset((cls,)) for cls in ATOMS}
_FIRST_ORDER = frozenset(LITERALS)


def atom_term_tuples(phi):
    """The tuples of terms appearing in an atomic formula."""
    if isinstance(phi, RelAtom):
        return (phi.args,)
    if isinstance(phi, Equality):
        return ((phi.left,), (phi.right,))
    if isinstance(phi, DepAtom):
        return (phi.args,)
    if isinstance(phi, IndepAtom):
        return (phi.cond, phi.left, phi.right)
    if isinstance(phi, (InclAtom, ExclAtom, EquiAtom)):
        return (phi.left, phi.right)
    raise TypeError("not an atom: %r" % (phi,))


def free_names(phi):
    """Free identifiers of a formula (variables and constants alike)."""
    return phi.free


def symbol_arities(phi):
    """The relation and the function symbols of a formula, each mapped to
    its arity; a symbol used at two arities raises ParseError."""
    relations, functions = {}, {}

    def note(table, kind, name, arity):
        if table.setdefault(name, arity) != arity:
            raise ParseError("%s %s used with arities %d and %d"
                             % (kind, name, table[name], arity))

    def walk_term(t):
        if isinstance(t, App):
            note(functions, "function", t.func, len(t.args))
            for a in t.args:
                walk_term(a)

    for _path, sub in subformula_instances(phi):
        if isinstance(sub, RelAtom):
            note(relations, "relation", sub.name, len(sub.args))
        if isinstance(sub, ATOMS):
            for tup in atom_term_tuples(sub):
                for t in tup:
                    walk_term(t)
    return relations, functions


def fresh_names(avoid):
    """Yield the names _v0, _v1, ... that are not in avoid, in order."""
    return (name for name in map("_v%d".__mod__, itertools.count())
            if name not in avoid)


def fresh_vars(count, avoid):
    """Deterministically named fresh variables _v0, _v1, ... avoiding a set."""
    return list(itertools.islice(fresh_names(avoid), count))


def substitute(phi, mapping):
    """Replace free identifiers by terms.

    The caller must make sure no substituted term gets captured by a
    quantifier; translations only substitute fresh variables, where this
    holds by construction.
    """
    if not mapping:
        return phi
    sub = lambda t: substitute_term(t, mapping)
    subs = lambda ts: tuple(sub(t) for t in ts)
    if isinstance(phi, RelAtom):
        return RelAtom(phi.name, subs(phi.args), phi.positive)
    if isinstance(phi, Equality):
        return Equality(sub(phi.left), sub(phi.right), phi.positive)
    if isinstance(phi, DepAtom):
        return DepAtom(subs(phi.args))
    if isinstance(phi, IndepAtom):
        return IndepAtom(subs(phi.cond), subs(phi.left), subs(phi.right))
    if isinstance(phi, InclAtom):
        return InclAtom(subs(phi.left), subs(phi.right))
    if isinstance(phi, ExclAtom):
        return ExclAtom(subs(phi.left), subs(phi.right))
    if isinstance(phi, EquiAtom):
        return EquiAtom(subs(phi.left), subs(phi.right))
    if isinstance(phi, (And, Or)):
        return type(phi)(*(substitute(p, mapping) for p in phi.parts))
    if isinstance(phi, (Exists, Forall)):
        inner = {k: v for k, v in mapping.items() if k != phi.var}
        for t in inner.values():
            if phi.var in term_names(t):
                raise ValueError("substitution would capture %r" % phi.var)
        body = substitute(phi.body, inner)
        return type(phi)(phi.var, body)
    raise TypeError("not a formula: %r" % (phi,))


def subformula_instances(phi, path=()):
    """All subformula occurrences, each tagged with its tree path.

    The path is a tuple of child indices from the root, so distinct
    occurrences of a repeated subformula get distinct tags.
    """
    yield path, phi
    if isinstance(phi, (And, Or)):
        for i, part in enumerate(phi.parts):
            yield from subformula_instances(part, path + (i,))
    elif isinstance(phi, (Exists, Forall)):
        yield from subformula_instances(phi.body, path + (0,))


def is_first_order(phi):
    return phi.kinds <= _FIRST_ORDER


def negate_nnf(phi):
    """Negation of a first order formula, kept in negation normal form."""
    if isinstance(phi, RelAtom):
        return RelAtom(phi.name, phi.args, not phi.positive)
    if isinstance(phi, Equality):
        return Equality(phi.left, phi.right, not phi.positive)
    if isinstance(phi, And):
        return Or(*map(negate_nnf, phi.parts))
    if isinstance(phi, Or):
        return And(*map(negate_nnf, phi.parts))
    if isinstance(phi, Exists):
        return Forall(phi.var, negate_nnf(phi.body))
    if isinstance(phi, Forall):
        return Exists(phi.var, negate_nnf(phi.body))
    raise ValueError("cannot negate a non first order formula: %s" % render(phi))


def flatten_and(phi):
    """The conjuncts of phi: its parts if it is a conjunction, else phi."""
    return phi.parts if isinstance(phi, And) else (phi,)


def conjoin(parts):
    """The conjunction of one or more formulas (of one, that formula);
    disjoin likewise."""
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else And(*parts)


def disjoin(parts):
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else Or(*parts)


def exists_block(variables, body):
    for v in reversed(list(variables)):
        body = Exists(v, body)
    return body


def forall_block(variables, body):
    for v in reversed(list(variables)):
        body = Forall(v, body)
    return body


# ---------------------------------------------------------------------------
# Rendering


def _render_terms(terms):
    return ", ".join(str(t) for t in terms)


def render(phi):
    """Concrete syntax for a formula; parse(render(phi)) == phi."""
    if isinstance(phi, Or):
        return " \\/ ".join(map(_render_conj, phi.parts))
    return _render_conj(phi)


def _render_conj(phi):
    if isinstance(phi, And):
        return " /\\ ".join(map(_render_unit, phi.parts))
    return _render_unit(phi)


def _render_unit(phi):
    if isinstance(phi, (Exists, Forall)):
        word = "exists" if isinstance(phi, Exists) else "forall"
        names = [phi.var]
        body = phi.body
        while isinstance(body, type(phi)):
            names.append(body.var)
            body = body.body
        return "%s %s . %s" % (word, " ".join(names), _render_unit(body))
    if isinstance(phi, (And, Or)):
        return "(%s)" % render(phi)
    return _render_atom(phi)


def _render_atom(phi):
    if isinstance(phi, RelAtom):
        sign = "" if phi.positive else "~"
        return "%s%s(%s)" % (sign, phi.name, _render_terms(phi.args))
    if isinstance(phi, Equality):
        op = "=" if phi.positive else "!="
        return "%s %s %s" % (phi.left, op, phi.right)
    if isinstance(phi, DepAtom):
        return "dep(%s)" % _render_terms(phi.args)
    if isinstance(phi, IndepAtom):
        return "indep(%s ; %s ; %s)" % (
            _render_terms(phi.cond),
            _render_terms(phi.left),
            _render_terms(phi.right),
        )
    if isinstance(phi, InclAtom):
        return "incl(%s ; %s)" % (_render_terms(phi.left), _render_terms(phi.right))
    if isinstance(phi, ExclAtom):
        return "excl(%s ; %s)" % (_render_terms(phi.left), _render_terms(phi.right))
    if isinstance(phi, EquiAtom):
        return "equi(%s ; %s)" % (_render_terms(phi.left), _render_terms(phi.right))
    raise TypeError("not a formula: %r" % (phi,))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(r"\s*(\\/|/\\|!=|=|~|\.|\(|\)|,|;|[A-Za-z0-9_]+)")

_KEYWORDS = {"exists", "forall"}
_ATOM_KEYWORDS = {"dep", "indep", "incl", "excl", "equi"}

# The deepest nesting parse accepts, counted as the variables bound by
# the enclosing quantifier prefixes (exists x y . binds two) plus the
# parentheses open around a point, so that no later recursion over the
# formula runs out of interpreter stack.
MAX_NESTING = 300


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError("unexpected character at: %r" % rest[:20])
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got))

    def nest(self, levels):
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise ParseError("formula nested deeper than %d levels"
                             % MAX_NESTING)

    def open(self):
        self.expect("(")
        self.nest(1)

    def close(self):
        self.expect(")")
        self.depth -= 1

    def formula(self):
        parts = [self.conj()]
        while self.peek() == "\\/":
            self.take()
            parts.append(self.conj())
        return disjoin(parts)

    def conj(self):
        parts = [self.unit()]
        while self.peek() == "/\\":
            self.take()
            parts.append(self.unit())
        return conjoin(parts)

    def unit(self):
        tok = self.peek()
        if tok in _KEYWORDS:
            self.take()
            names = []
            while self.peek() not in (".", None) and _is_ident(self.peek()):
                names.append(self.take())
            if not names:
                raise ParseError("quantifier without variables")
            self.expect(".")
            self.nest(len(names))
            body = self.unit()
            self.depth -= len(names)
            cls = Exists if tok == "exists" else Forall
            for name in reversed(names):
                body = cls(name, body)
            return body
        if tok == "(":
            self.open()
            out = self.formula()
            self.close()
            return out
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            name = self.take()
            if not _is_ident(name):
                raise ParseError("expected a relation name after '~', got %r" % name)
            if name in _ATOM_KEYWORDS:
                raise ParseError("%s atoms cannot be negated" % name)
            self.open()
            args = self.termlist()
            self.close()
            return RelAtom(name, args, positive=False)
        if tok in _ATOM_KEYWORDS:
            self.take()
            self.open()
            if tok == "dep":
                args = self.termlist()
                self.close()
                if not args:
                    raise ParseError("dep needs at least one term")
                return DepAtom(args)
            groups = [self.termlist()]
            while self.peek() == ";":
                self.take()
                groups.append(self.termlist())
            self.close()
            if tok == "indep":
                if len(groups) != 3:
                    raise ParseError("indep needs three term groups")
                return IndepAtom(*groups)
            if len(groups) != 2:
                raise ParseError("%s needs two term groups" % tok)
            left, right = groups
            if len(left) != len(right):
                raise ParseError("%s needs term groups of equal width" % tok)
            cls = {"incl": InclAtom, "excl": ExclAtom, "equi": EquiAtom}[tok]
            return cls(left, right)
        # Either a relation atom or an (in)equality between terms.
        start = self.pos
        if not _is_ident(tok):
            raise ParseError("unexpected token %r" % tok)
        term = self.term()
        nxt = self.peek()
        if nxt in ("=", "!="):
            self.take()
            other = self.term()
            return Equality(term, other, positive=(nxt == "="))
        # A relation atom parses as an App term; reinterpret it.
        if isinstance(term, App):
            return RelAtom(term.func, term.args)
        self.pos = start
        raise ParseError("expected an atom at %r" % tok)

    def termlist(self):
        if self.peek() in (")", ";"):
            return ()
        terms = [self.term()]
        while self.peek() == ",":
            self.take()
            terms.append(self.term())
        return tuple(terms)

    def term(self):
        tok = self.take()
        if not _is_ident(tok) or tok in _KEYWORDS or tok in _ATOM_KEYWORDS:
            raise ParseError("expected a term, got %r" % tok)
        if self.peek() == "(":
            self.open()
            args = self.termlist()
            self.close()
            return App(tok, args)
        return Name(tok)


def _is_ident(tok):
    return tok is not None and re.fullmatch(r"[A-Za-z0-9_]+", tok) is not None


def parse(text):
    parser = _Parser(tokenize(text))
    out = parser.formula()
    if parser.peek() is not None:
        raise ParseError("trailing input at %r" % parser.peek())
    return out
