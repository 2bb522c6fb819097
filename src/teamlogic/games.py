"""Game-theoretic semantics for formulas over FO literals, incl and excl.

A position pairs a subformula occurrence (identified by its tree path)
with an assignment.  Player II moves at disjunctions and existentials,
Player I at conjunctions and universals.  First order literals are
terminal and won by II exactly when Tarski-satisfied; inclusion and
exclusion atoms are always II-winning terminals, but constrain which
strategies count as uniform:

* for every reached inclusion-atom position there must be a reached
  position at the same occurrence whose right-tuple value matches the
  left-tuple value;
* no two reached positions at the same exclusion-atom occurrence may
  share a left/right tuple value.

Uniform (optionally deterministic) winning strategies for II match lax
(respectively strict) team satisfaction; the tests cross-check this
against the semantics module.
"""

import itertools

from .model import eval_term
from .syntax import (
    And, Or, Exists, Forall, InclAtom, ExclAtom,
    LITERALS, ATOMS, render, subformula_instances,
)
from .semantics import Budget, tarski

PLAYER_I = "I"
PLAYER_II = "II"

DEFAULT_POSITION_CAP = 20_000


class ArenaError(ValueError):
    pass


def _position_key(position):
    path, assignment = position
    return (path, assignment.items())


class Arena:
    """Immutable game graph built from a model, team and formula."""

    def __init__(self, model, team, formula):
        for _path, sub in subformula_instances(formula):
            if isinstance(sub, ATOMS) and not isinstance(
                    sub, LITERALS + (InclAtom, ExclAtom)):
                raise ArenaError(
                    "game semantics covers FO/incl/excl only; translate %s first"
                    % render(sub))
        self.model = model
        self.formula = formula
        self.subformula = dict(subformula_instances(formula))
        self.initial = tuple(sorted(
            (((), row) for row in team.rows), key=_position_key))
        self.successors = {}
        self.turn = {}
        queue = list(self.initial)
        while queue:
            position = queue.pop()
            if position in self.successors:
                continue
            if len(self.successors) >= DEFAULT_POSITION_CAP:
                raise ArenaError("arena exceeds %d positions"
                                 % DEFAULT_POSITION_CAP)
            path, s = position
            sub = self.subformula[path]
            if isinstance(sub, (And, Or)):
                succ = ((path + (0,), s), (path + (1,), s))
                self.turn[position] = PLAYER_II if isinstance(sub, Or) else PLAYER_I
            elif isinstance(sub, (Exists, Forall)):
                succ = tuple((path + (0,), s.extended(sub.var, m))
                             for m in model.domain)
                self.turn[position] = PLAYER_II if isinstance(sub, Exists) else PLAYER_I
            else:
                succ = ()
                self.turn[position] = PLAYER_II
            self.successors[position] = succ
            queue.extend(succ)
        self.positions = frozenset(self.successors)

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
    reached = set()
    queue = list(arena.initial)
    while queue:
        position = queue.pop()
        if position in reached:
            continue
        reached.add(position)
        if arena.is_terminal(position):
            continue
        if arena.turn[position] == PLAYER_II:
            if position not in tau.choices:
                raise ValueError("strategy undefined at reachable position %r"
                                 % (position,))
            queue.extend(tau.choices[position])
        else:
            queue.extend(arena.successors[position])
    return reached


def _uniformity_ok(arena, reached):
    """Check both uniformity clauses on a reached position set."""
    by_path = {}
    for position in reached:
        path, s = position
        sub = arena.subformula[path]
        if isinstance(sub, (InclAtom, ExclAtom)):
            by_path.setdefault(path, []).append(s)
    for path, rows in by_path.items():
        sub = arena.subformula[path]
        left = [tuple(eval_term(arena.model, s, t) for t in sub.left) for s in rows]
        right = [tuple(eval_term(arena.model, s, t) for t in sub.right) for s in rows]
        if isinstance(sub, InclAtom):
            if any(lv not in right for lv in left):
                return False
        else:
            if set(left) & set(right):
                return False
    return True


def is_uniform(arena, tau):
    return _uniformity_ok(arena, reachable_under(arena, tau))


def _has_exclusion(arena):
    return any(isinstance(sub, ExclAtom) for sub in arena.subformula.values())


def _trim(arena):
    """Remove positions that can belong to no uniform winning reachable set.

    Alternates monotone deletions (losing terminals, stuck II positions,
    I positions with a deleted successor, inclusion positions with no
    witness left) with restriction to the part reachable from the
    initial positions.  Every valid reachable set survives each step, so
    the result over-approximates all of them.
    """
    alive = set(arena.positions)
    changed = True
    while changed:
        changed = False
        for position in list(alive):
            if arena.is_terminal(position):
                if arena.terminal_winner(position) != PLAYER_II:
                    alive.discard(position)
                    changed = True
                continue
            succ = [p for p in arena.successors[position] if p in alive]
            if arena.turn[position] == PLAYER_II:
                if not succ:
                    alive.discard(position)
                    changed = True
            else:
                if len(succ) != len(arena.successors[position]):
                    alive.discard(position)
                    changed = True
        # Inclusion witnesses must come from the surviving set.
        by_path = {}
        for position in alive:
            path, _s = position
            if isinstance(arena.subformula[path], InclAtom):
                by_path.setdefault(path, []).append(position)
        for path, group in by_path.items():
            sub = arena.subformula[path]
            right = {tuple(eval_term(arena.model, s, t) for t in sub.right)
                     for _p, s in group}
            for position in group:
                _path, s = position
                lv = tuple(eval_term(arena.model, s, t) for t in sub.left)
                if lv not in right:
                    alive.discard(position)
                    changed = True
        # Keep only what the initial positions can still reach.
        reached = set()
        queue = [p for p in arena.initial if p in alive]
        while queue:
            position = queue.pop()
            if position in reached:
                continue
            reached.add(position)
            queue.extend(p for p in arena.successors[position] if p in alive)
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
    if not deterministic and not _has_exclusion(arena):
        # The trimmed set is itself a valid reachable set: closed, all
        # terminals winning, inclusion positions witnessed within it.
        choices = {p: tuple(q for q in arena.successors[p] if q in alive)
                   for p in alive
                   if arena.turn[p] == PLAYER_II and not arena.is_terminal(p)}
        return Strategy(choices)

    tick = (budget or Budget()).tick

    def excl_conflict(position, reached):
        path, s = position
        sub = arena.subformula[path]
        if not isinstance(sub, ExclAtom):
            return False
        peers = [q for q in reached if q[0] == path] + [position]
        left = {tuple(eval_term(arena.model, q[1], t) for t in sub.left)
                for q in peers}
        right = {tuple(eval_term(arena.model, q[1], t) for t in sub.right)
                 for q in peers}
        return bool(left & right)

    # Depth first over the open positions, smallest first.  Only Player
    # II's choices branch; each open choice is kept on a stack with the
    # options it has left, so that the search needs no recursion per
    # position.  One tick per visited state.
    choices = {}
    stack = []  # (position, remaining option sets, rest, reached before)
    frontier, reached = frozenset(arena.initial), frozenset()
    while True:
        tick()
        if frontier:
            position = min(frontier, key=_position_key)
            rest = frontier - {position}
            if position in reached:
                frontier = rest
                continue
            if arena.is_terminal(position):
                if not excl_conflict(position, reached):
                    frontier, reached = rest, reached | {position}
                    continue
            elif arena.turn[position] == PLAYER_I:
                succ = set(arena.successors[position])
                frontier, reached = rest | (succ - reached), reached | {position}
                continue
            else:
                succ = [p for p in arena.successors[position] if p in alive]
                if deterministic:
                    option_sets = [(p,) for p in succ]
                else:
                    option_sets = [combo
                                   for size in range(1, len(succ) + 1)
                                   for combo in itertools.combinations(succ, size)]
                stack.append((position, iter(option_sets), rest, reached))
        elif _uniformity_ok(arena, reached):
            return Strategy(choices)
        # Take the next option of the newest open choice, dropping the
        # choices that have none left.
        while stack:
            position, options, rest, before = stack[-1]
            choices.pop(position, None)
            chosen = next(options, None)
            if chosen is not None:
                choices[position] = chosen
                frontier = rest | (set(chosen) - before)
                reached = before | {position}
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
