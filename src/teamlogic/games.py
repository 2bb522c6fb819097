"""Game-theoretic semantics for formulas over FO literals, incl and excl.

A position pairs a subformula occurrence (identified by its tree path)
with an assignment.  Player II moves at disjunctions and existentials,
Player I at conjunctions and universals.  First order literals are
terminal and won by II exactly when Tarski-satisfied; inclusion and
exclusion atoms are always II-winning terminals, but constrain which
strategies count as uniform: the assignments reached at one atom
occurrence form a team, and that team must satisfy the atom.

Uniform (optionally deterministic) winning strategies for II match lax
(respectively strict) team satisfaction; the tests cross-check this
against the semantics module and the reference evaluator.  Whether
such a strategy exists is a clause problem over which positions are
reached and which options II chooses; find_uniform_winning builds the
clauses and decides them with eso.dpll, the search eval_eso uses.
"""

import itertools

from .eso import dpll
from .model import Team, eval_term
from .syntax import (
    And, Or, Exists, Forall, InclAtom, ExclAtom,
    LITERALS, render, subformula_instances,
)
from .semantics import Budget, check_atom, tarski

PLAYER_I = "I"
PLAYER_II = "II"

_GAME_ATOMS = frozenset(LITERALS + (InclAtom, ExclAtom))

DEFAULT_POSITION_CAP = 20_000


class ArenaError(ValueError):
    pass


def _position_key(position):
    path, assignment = position
    return (path, assignment.items())


def _reach(start, step):
    """The positions reached from start, where step(p) lists p's next ones."""
    reached = set()
    queue = list(start)
    while queue:
        position = queue.pop()
        if position not in reached:
            reached.add(position)
            queue.extend(step(position))
    return reached


class Arena:
    """Immutable game graph built from a model, team and formula.

    order sorts the positions once, by path and then assignment, so a
    position comes after its predecessors; the solver numbers its
    booleans in this order.
    """

    def __init__(self, model, team, formula):
        other = formula.kinds - _GAME_ATOMS
        if other:
            sub = next(sub for _path, sub in subformula_instances(formula)
                       if type(sub) in other)
            raise ArenaError(
                "game semantics covers FO/incl/excl only; translate %s first"
                % render(sub))
        self.model = model
        self.formula = formula
        self.subformula = dict(subformula_instances(formula))
        self.successors = {}
        self.turn = {}
        self.positions = frozenset(
            _reach((((), row) for row in team.rows), self._expand))
        self.order = tuple(sorted(self.positions, key=_position_key))
        self.initial = tuple(p for p in self.order if not p[0])

    def _expand(self, position):
        if len(self.successors) >= DEFAULT_POSITION_CAP:
            raise ArenaError("arena exceeds %d positions"
                             % DEFAULT_POSITION_CAP)
        path, s = position
        sub = self.subformula[path]
        if isinstance(sub, (And, Or)):
            succ = tuple((path + (i,), s) for i in range(len(sub.parts)))
        elif isinstance(sub, (Exists, Forall)):
            succ = tuple((path + (0,), s.extended(sub.var, m))
                         for m in self.model.domain)
        else:
            succ = ()
        self.successors[position] = succ
        self.turn[position] = (PLAYER_I if isinstance(sub, (And, Forall))
                               else PLAYER_II)
        return succ

    def is_terminal(self, position):
        return not self.successors[position]

    def terminal_winner(self, position):
        path, s = position
        sub = self.subformula[path]
        if isinstance(sub, (InclAtom, ExclAtom)):
            return PLAYER_II
        return PLAYER_II if tarski(self.model, s, sub) else PLAYER_I


def build_arena(model, team, formula):
    return Arena(model, team, formula)


class Strategy:
    """A map from Player II positions to nonempty successor subsets."""

    def __init__(self, choices):
        self.choices = {pos: tuple(sorted(succ, key=_position_key))
                        for pos, succ in choices.items()}
        for pos, succ in self.choices.items():
            if not succ:
                raise ValueError("empty choice set at %r" % (pos,))


def reachable_under(arena, tau):
    """Positions reached from the initial ones when II follows tau."""
    def step(position):
        if arena.turn[position] == PLAYER_I or arena.is_terminal(position):
            return arena.successors[position]
        if position not in tau.choices:
            raise ValueError("strategy undefined at reachable position %r"
                             % (position,))
        return tau.choices[position]
    return _reach(arena.initial, step)


def _atom_teams(arena, positions):
    """The team of assignments among positions at each incl/excl occurrence."""
    rows = {}
    for path, s in positions:
        if isinstance(arena.subformula[path], (InclAtom, ExclAtom)):
            rows.setdefault(path, []).append(s)
    return {path: Team(group[0].variables(), group)
            for path, group in rows.items()}


def is_uniform(arena, tau):
    """Every incl/excl occurrence holds on the team tau reaches there."""
    teams = _atom_teams(arena, reachable_under(arena, tau))
    return all(check_atom(arena.model, team, arena.subformula[path])
               for path, team in teams.items())


def find_uniform_winning(arena, deterministic=False, budget=None):
    """Search for a uniform winning strategy for Player II.

    The strategy is a satisfying assignment of clauses over one boolean
    choose(p, c) per option c of each II position p, numbered first in
    position order, and one reach(p) per position: the initial positions
    are reached; a reached I position reaches every successor; a reached
    II position chooses at least one option (exactly one when
    deterministic), and an option is chosen at a reached position only
    and reaches its successor; a position other than an initial one is
    reached only from a reached I parent or a chosen option of an II
    parent (the arena is acyclic); no losing terminal is reached.  An
    incl or excl occurrence names each value of its terms by one more
    boolean, set exactly when a reached position there has that left
    value: for incl it needs a reached position with that right value,
    for excl it rules out every reached position with it, and a row
    that clashes with itself is never reached.

    The clauses are decided by eso.dpll: choose is tried true first and
    reach false.  Once the choices above a position are set, propagation
    sets its reach, so decisions are II's choices.  One node is the root
    or one value tried at a decision.  Returns a Strategy or None;
    raises BudgetExceeded when the node cap is hit first.
    """
    tick = (budget or Budget()).tick
    tick()
    turn, successors, model = arena.turn, arena.successors, arena.model
    first = [None]

    def boolean(value):
        first.append(value)
        return len(first) - 1

    choose = {(p, c): boolean(True) for p in arena.order
              if turn[p] == PLAYER_II for c in successors[p]}
    reach = {p: boolean(False) for p in arena.order}
    clauses = [(reach[p],) for p in arena.initial]
    support = {p: [-reach[p]] for p in arena.order if p[0]}
    atoms = {}   # occurrence path -> [(reach, left value, right value)]
    for p in arena.order:
        r, succ, sub = reach[p], successors[p], arena.subformula[p[0]]
        if turn[p] == PLAYER_I:
            for c in succ:
                clauses.append((-r, reach[c]))
                support[c].append(r)
        elif succ:
            options = [choose[p, c] for c in succ]
            clauses.append([-r] + options)
            for c, o in zip(succ, options):
                clauses += [(-o, r), (-o, reach[c])]
                support[c].append(o)
            if deterministic:
                clauses += [(-o, -q) for o, q
                            in itertools.combinations(options, 2)]
        elif isinstance(sub, (InclAtom, ExclAtom)):
            values = [tuple(eval_term(model, p[1], t) for t in terms)
                      for terms in (sub.left, sub.right)]
            atoms.setdefault(p[0], []).append((r, *values))
        elif arena.terminal_winner(p) == PLAYER_I:
            clauses.append((-r,))
    clauses += support.values()
    for path, group in atoms.items():
        incl = isinstance(arena.subformula[path], InclAtom)
        lefts = {}   # left value -> the reach booleans of its positions
        for r, left, _right in group:
            lefts.setdefault(left, []).append(r)
        named = {left: boolean(False) for left in lefts}
        witnesses = {left: [-v] for left, v in named.items()}
        for left, rs in lefts.items():
            clauses.append([-named[left]] + rs)
            clauses += [(-r, named[left]) for r in rs]
        for r, left, right in group:
            if incl:
                if right in witnesses:
                    witnesses[right].append(r)
            elif left == right:
                clauses.append((-r,))   # the row clashes with itself
            elif right in named:
                clauses.append((-r, -named[right]))
        if incl:
            clauses += witnesses.values()
    truth = dpll(clauses, first, tick)
    if truth is None:
        return None
    return Strategy({p: [c for c in successors[p] if truth[choose[p, c]]]
                     for p in arena.order if turn[p] == PLAYER_II
                     and successors[p] and truth[reach[p]]})


def format_strategy(arena, tau):
    """CLI rendering: one line per choice, 'path | assignment -> successors'.
    A path joins the child indices from the root ('-'), each up to k - 1
    at a k-part junction, with dots."""
    lines = []
    for position in sorted(tau.choices, key=_position_key):
        path, s = position
        assign = ", ".join("%s:%s" % kv for kv in s.items())
        targets = []
        for tpath, ts in tau.choices[position]:
            tassign = ", ".join("%s:%s" % kv for kv in ts.items())
            targets.append("(%s | %s)" % (".".join(map(str, tpath)) or "-",
                                          tassign))
        lines.append("%s | %s -> %s" % (".".join(map(str, path)) or "-",
                                        assign, " ".join(targets)))
    return "\n".join(lines)
