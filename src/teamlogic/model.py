"""Finite structures, assignments and teams.

Domain elements are strings throughout, so that JSON round trips are
exact and element names like "0" need no special casing.
"""

import itertools
import json

from .syntax import Name, App


class ModelError(ValueError):
    pass


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


class Model:
    """A finite structure: domain, constants, functions and relations.

    Functions are given as total maps from argument tuples to elements;
    relations as sets of tuples.  A domain with fewer than two elements
    is rejected unless allow_unit_domain is set, since many of the
    operators collapse trivially there.
    """

    def __init__(self, domain, constants=None, functions=None, relations=None,
                 allow_unit_domain=False):
        self.domain = tuple(sorted(set(domain)))
        self.constants = dict(constants or {})
        self.functions = {name: dict(table) for name, table in (functions or {}).items()}
        self.relations = {name: frozenset(tuple(row) for row in rows)
                          for name, rows in (relations or {}).items()}
        self._validate(allow_unit_domain)

    def _validate(self, allow_unit_domain):
        if not self.domain:
            raise ModelError("empty domain")
        if len(self.domain) < 2 and not allow_unit_domain:
            raise ModelError("domain must have at least two elements")
        dom = set(self.domain)
        for name, value in self.constants.items():
            if value not in dom:
                raise ModelError("constant %s maps outside the domain" % name)
        for name, table in self.functions.items():
            self._validate_function(name, table, dom)
        for name, rows in self.relations.items():
            self._validate_relation(name, rows, dom)

    def _validate_function(self, name, table, dom):
        if not table:
            raise ModelError("function %s has an empty table" % name)
        arities = {len(args) for args in table}
        if len(arities) != 1:
            raise ModelError("function %s has mixed arities" % name)
        arity = arities.pop()
        if len(table) != len(self.domain) ** arity:
            raise ModelError("function %s is not total" % name)
        for args, value in table.items():
            if any(a not in dom for a in args) or value not in dom:
                raise ModelError("function %s maps outside the domain" % name)

    @staticmethod
    def _validate_relation(name, rows, dom):
        arities = {len(row) for row in rows}
        if len(arities) > 1:
            raise ModelError("relation %s has mixed arities" % name)
        for row in rows:
            if any(a not in dom for a in row):
                raise ModelError("relation %s contains non-domain elements" % name)

    def function_value(self, name, args):
        try:
            return self.functions[name][tuple(args)]
        except KeyError:
            raise ModelError("no value for %s(%s)" % (name, ", ".join(args)))

    def with_relation(self, name, rows):
        """A copy of the model with one relation added or replaced.

        Only the new table is validated: the copy shares the domain and
        the other tables, which this model validated already.
        """
        rows = frozenset(tuple(row) for row in rows)
        self._validate_relation(name, rows, set(self.domain))
        out = self._copy()
        out.relations[name] = rows
        return out

    def with_function(self, name, table):
        """A copy of the model with one total function added or replaced,
        validated as with_relation validates a relation."""
        table = dict(table)
        self._validate_function(name, table, set(self.domain))
        out = self._copy()
        out.functions[name] = table
        return out

    def _copy(self):
        """A copy with its own maps of names to tables, sharing the tables."""
        out = Model.__new__(Model)
        out.domain = self.domain
        out.constants = dict(self.constants)
        out.functions = dict(self.functions)
        out.relations = dict(self.relations)
        return out

    def to_json_dict(self):
        return {
            "domain": list(self.domain),
            "constants": dict(self.constants),
            "functions": {
                name: {",".join(args): value for args, value in sorted(table.items())}
                for name, table in self.functions.items()
            },
            "relations": {
                name: sorted(list(row) for row in rows)
                for name, rows in self.relations.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data, allow_unit_domain=False):
        """A model from {"domain": [...], "constants": {...},
        "functions": {...}, "relations": {...}}; only the domain is
        required, and each relation is a list of rows of strings."""
        if not isinstance(data, dict) or not _strings(data.get("domain")):
            raise ModelError('model JSON needs a "domain" list of strings')
        for key in ("constants", "functions", "relations"):
            if not isinstance(data.get(key, {}), dict):
                raise ModelError('model JSON "%s" must be an object' % key)
        for name, value in data.get("constants", {}).items():
            if not isinstance(value, str):
                raise ModelError("constant %s is not a string" % name)
        functions = {}
        for name, table in data.get("functions", {}).items():
            if not isinstance(table, dict):
                raise ModelError("function %s is not an object" % name)
            if not _strings(list(table.values())):
                raise ModelError("function %s has a value that is not a string"
                                 % name)
            functions[name] = {tuple(key.split(",")) if key else (): value
                               for key, value in table.items()}
        relations = data.get("relations", {})
        for name, rows in relations.items():
            if not isinstance(rows, list) or not all(_strings(row) for row in rows):
                raise ModelError("relation %s is not a list of rows of strings"
                                 % name)
        return cls(
            data["domain"],
            data.get("constants"),
            functions,
            relations,
            allow_unit_domain=allow_unit_domain,
        )

    @classmethod
    def load(cls, path, allow_unit_domain=False):
        with open(path) as handle:
            return cls.from_json_dict(json.load(handle), allow_unit_domain)


class Assignment:
    """An immutable variable assignment."""

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping):
        if isinstance(mapping, Assignment):
            self._items = mapping._items
        else:
            self._items = tuple(sorted(dict(mapping).items()))
        self._hash = hash(self._items)

    def __getitem__(self, var):
        for key, value in self._items:
            if key == var:
                return value
        raise KeyError(var)

    def __contains__(self, var):
        return any(key == var for key, _ in self._items)

    def get(self, var, default=None):
        for key, value in self._items:
            if key == var:
                return value
        return default

    def variables(self):
        return tuple(key for key, _ in self._items)

    def items(self):
        return self._items

    def extended(self, var, value):
        out = dict(self._items)
        out[var] = value
        return Assignment(out)

    def restricted(self, variables):
        keep = set(variables)
        return Assignment({k: v for k, v in self._items if k in keep})

    def values_for(self, variables):
        return tuple(self[v] for v in variables)

    def __eq__(self, other):
        return isinstance(other, Assignment) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Assignment(%s)" % ", ".join("%s=%s" % kv for kv in self._items)


def eval_term(model, assignment, term):
    """The value of a term under an assignment, or under a plain dict from
    variables to elements (only assignment.get is read).

    A bare identifier is looked up in the assignment first and in the
    model's constants second, so variables shadow constants of the same
    name.
    """
    if isinstance(term, Name):
        value = assignment.get(term.ident)
        if value is not None:
            return value
        if term.ident in model.constants:
            return model.constants[term.ident]
        raise ModelError("unbound identifier %r" % term.ident)
    if isinstance(term, App):
        args = tuple(eval_term(model, assignment, a) for a in term.args)
        return model.function_value(term.func, args)
    raise TypeError("not a term: %r" % (term,))


class Team:
    """A set of assignments sharing a variable domain."""

    def __init__(self, variables, rows):
        self.variables = tuple(variables)
        frozen = []
        var_set = set(self.variables)
        for row in rows:
            if not isinstance(row, Assignment):
                row = Assignment(row)
            if set(row.variables()) != var_set:
                raise ModelError("row domain %s does not match team domain %s"
                                 % (row.variables(), self.variables))
            frozen.append(row)
        self.rows = frozenset(frozen)

    @classmethod
    def from_tuples(cls, variables, tuples):
        variables = tuple(variables)
        return cls(variables, [dict(zip(variables, values)) for values in tuples])

    def sorted_rows(self):
        return sorted(self.rows, key=lambda s: s.values_for(self.variables))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.sorted_rows())

    def __eq__(self, other):
        return (isinstance(other, Team)
                and set(self.variables) == set(other.variables)
                and self.rows == other.rows)

    def __hash__(self):
        return hash((frozenset(self.variables), self.rows))

    def __repr__(self):
        rows = [row.values_for(self.variables) for row in self.sorted_rows()]
        return "Team(%s, %s)" % (list(self.variables), rows)

    def with_rows(self, rows):
        return Team(self.variables, rows)

    def restrict(self, variables):
        variables = tuple(variables)
        return Team(variables, {row.restricted(variables) for row in self.rows})

    def extend_universal(self, var, domain):
        """X[M/x]: every row duplicated with every value for x."""
        variables = self.variables if var in self.variables else self.variables + (var,)
        rows = {row.extended(var, value) for row in self.rows for value in domain}
        return Team(variables, rows)

    def relation(self, model, terms):
        """X(t1 ... tk): the set of term-value tuples over the team."""
        return {tuple(eval_term(model, row, t) for t in terms) for row in self.rows}

    def to_json_dict(self):
        return {
            "vars": list(self.variables),
            "rows": [list(row.values_for(self.variables)) for row in self.sorted_rows()],
        }

    @classmethod
    def from_json_dict(cls, data):
        """A team from {"vars": [...], "rows": [[...], ...]}, each row a
        list of domain elements, one per variable."""
        for key in ("vars", "rows"):
            if not isinstance(data, dict) or not isinstance(data.get(key), list):
                raise ModelError('team JSON needs a "%s" list' % key)
        if not _strings(data["vars"]) or len(set(data["vars"])) != len(data["vars"]):
            raise ModelError('team JSON "vars" must be distinct strings')
        width = len(data["vars"])
        for row in data["rows"]:
            if not _strings(row) or len(row) != width:
                raise ModelError("team row %s is not a list of %d strings"
                                 % (json.dumps(row), width))
        return cls.from_tuples(data["vars"], data["rows"])

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json_dict(json.load(handle))


def subsets(items, smallest=0, largest=None):
    """Every subset of items with smallest to largest members, as tuples:
    smaller ones first, itertools.combinations order within a size.

    The enumerating searches (the evaluator's witness sets and covers,
    equiv and semantic_implies) take their candidate sets from here, so
    their node counts and the first witness found follow this order.  A
    lax choice takes subsets(options, 1), a strict one subsets(options,
    1, 1).  eval_eso and the game solver decide clauses instead.
    """
    items = tuple(items)
    top = len(items) if largest is None else min(largest, len(items))
    for size in range(smallest, top + 1):
        yield from itertools.combinations(items, size)


def tables(keys, values):
    """Every map from keys to values, in itertools.product order."""
    keys = tuple(keys)
    for row in itertools.product(values, repeat=len(keys)):
        yield dict(zip(keys, row))


def all_teams(variables, domain, max_rows=None):
    """Every team over the given variables, by increasing row count."""
    variables = tuple(variables)
    rows = [Assignment(row) for row in tables(variables, domain)]
    for chosen in subsets(rows, 0, max_rows):
        yield Team(variables, chosen)
