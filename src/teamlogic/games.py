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
against the semantics module.
"""

import heapq

from .model import Team, eval_term, subsets
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

    order sorts the positions once: exclusion positions first, then by
    path, then assignment; rank maps each position to its index there,
    the solver's visiting order.  Exclusion positions come first so that
    the solver checks one as soon as a choice reaches it.
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
        self.order = tuple(sorted(
            self.positions,
            key=lambda p: (not isinstance(self.subformula[p[0]], ExclAtom),
                           _position_key(p))))
        self.rank = {p: i for i, p in enumerate(self.order)}
        self.initial = tuple(p for p in self.order if not p[0])

    def _expand(self, position):
        if len(self.successors) >= DEFAULT_POSITION_CAP:
            raise ArenaError("arena exceeds %d positions"
                             % DEFAULT_POSITION_CAP)
        path, s = position
        sub = self.subformula[path]
        if isinstance(sub, (And, Or)):
            succ = ((path + (0,), s), (path + (1,), s))
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


def _uniformity_ok(arena, reached):
    """Every incl/excl occurrence holds on the team reached there."""
    return all(check_atom(arena.model, team, arena.subformula[path])
               for path, team in _atom_teams(arena, reached).items())


def is_uniform(arena, tau):
    return _uniformity_ok(arena, reachable_under(arena, tau))


def _trim(arena):
    """Remove positions that can belong to no uniform winning reachable set.

    Starts without the exclusion positions whose own row breaks their
    atom (the atom must hold on each row of its team alone), then
    alternates monotone deletions (losing terminals, stuck II positions,
    I positions with a deleted successor, inclusion positions with no
    witness left) with restriction to the part reachable from the
    initial positions.  Every valid reachable set survives each step, so
    the result over-approximates all of them.
    """
    alive = {p for p in arena.positions
             if not isinstance(arena.subformula[p[0]], ExclAtom)
             or _uniformity_ok(arena, [p])}
    changed = True
    while changed:
        changed = False
        for position in list(alive):
            succ = arena.successors[position]
            if not succ:
                keep = arena.terminal_winner(position) == PLAYER_II
            elif arena.turn[position] == PLAYER_II:
                keep = any(p in alive for p in succ)
            else:
                keep = all(p in alive for p in succ)
            if not keep:
                alive.discard(position)
                changed = True
        # Inclusion witnesses must come from the surviving set.
        for path, team in _atom_teams(arena, alive).items():
            sub = arena.subformula[path]
            if isinstance(sub, InclAtom):
                right = team.relation(arena.model, sub.right)
                for s in team.rows:
                    if tuple(eval_term(arena.model, s, t)
                             for t in sub.left) not in right:
                        alive.discard((path, s))
                        changed = True
        # Keep only what the initial positions can still reach.
        reached = _reach((p for p in arena.initial if p in alive),
                         lambda p: [q for q in arena.successors[p] if q in alive])
        if reached != alive:
            alive = reached
            changed = True
    return alive


def find_uniform_winning(arena, deterministic=False, budget=None):
    """Search for a uniform winning strategy for Player II.

    Returns a Strategy or None; raises BudgetExceeded when the node cap
    is hit before the search is decided.
    """
    alive = _trim(arena)
    if any(p not in alive for p in arena.initial):
        return None
    if not deterministic and ExclAtom not in arena.formula.kinds:
        # The trimmed set is itself a valid reachable set: closed, all
        # terminals winning, inclusion positions witnessed within it.
        choices = {p: tuple(q for q in arena.successors[p] if q in alive)
                   for p in alive
                   if arena.turn[p] == PLAYER_II and not arena.is_terminal(p)}
        return Strategy(choices)

    tick = (budget or Budget()).tick
    order, rank = arena.order, arena.rank

    def excl_ok(position, reached):
        path = position[0]
        if not isinstance(arena.subformula[path], ExclAtom):
            return True
        peers = [order[r] for r in reached if order[r][0] == path]
        return _uniformity_ok(arena, peers + [position])

    def push_open(frontier, reached, chosen):
        for p in chosen:
            if rank[p] not in reached:
                heapq.heappush(frontier, rank[p])
        return frontier

    # Depth first over the open positions, smallest rank first.  Only
    # Player II's choices branch; each open choice is kept on a stack
    # with the options it has left and the frontier and reached set to
    # resume from, so that the search needs no recursion per position.
    # One tick per visited state; a rank pushed twice is dropped
    # without one.
    choices = {}
    stack = []  # (position, remaining option sets, frontier, reached before)
    frontier = [rank[p] for p in arena.initial]
    reached = set()
    while True:
        while frontier and frontier[0] in reached:
            heapq.heappop(frontier)
        tick()
        if frontier:
            position = order[heapq.heappop(frontier)]
            if arena.is_terminal(position):
                if excl_ok(position, reached):
                    reached.add(rank[position])
                    continue
            elif arena.turn[position] == PLAYER_I:
                reached.add(rank[position])
                push_open(frontier, reached, arena.successors[position])
                continue
            else:
                succ = [p for p in arena.successors[position] if p in alive]
                option_sets = subsets(succ, 1, 1 if deterministic else None)
                stack.append((position, option_sets, frontier, reached))
        elif _uniformity_ok(arena, (order[r] for r in reached)):
            return Strategy(choices)
        # Take the next option of the newest open choice, dropping the
        # choices that have none left.
        while stack:
            position, options, rest, before = stack[-1]
            choices.pop(position, None)
            chosen = next(options, None)
            if chosen is not None:
                choices[position] = chosen
                reached = before | {rank[position]}
                frontier = push_open(list(rest), reached, chosen)
                break
            stack.pop()
        else:
            return None


def format_strategy(arena, tau):
    """CLI rendering: one line per choice, 'path | assignment -> successors'."""
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
