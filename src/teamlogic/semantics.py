"""Dual-mode team-semantics evaluator.

Satisfaction is defined over teams.  Disjunction splits a team into a
cover (lax) or a partition (strict); existentials extend each row with a
nonempty value set (lax) or a single value (strict); universals extend
with every value.  Atoms are checked directly over the team.

Naive enumeration of splits and witness functions is exponential.  Every
choice that no shortcut settles goes through one budgeted backtracking core,
Evaluator._backtrack, which picks one option per slot depth first: a
side for each row of a disjunction, a witness value (strict) or value
set (lax) for each row of an existential, or a side-eligibility profile
for each class of a pinned block.  The two modes differ only in the
options they offer and in how a complete pick is judged.  On top of the
core the evaluator layers several exact shortcuts:

* first order subformulas are flat and get checked row by row, each
  compiled once per node into a closure over a plain dict of variable
  values (see compiled);
* formulas over {FO, incl, equi} are closed under unions in lax mode, so
  the greatest satisfying subteam exists and is computable by a greatest
  fixpoint (largest_subteam); lax satisfaction is then a single
  comparison;
* disjuncts are prefiltered per row by their flat conjuncts, and only
  genuinely ambiguous rows are resolved by backtracking;
* existential blocks whose variables are pinned by dependence conjuncts
  are searched class-by-class instead of row-by-row (lax); that search
  evaluates flat conjuncts over the block alone once per value tuple,
  and without flat conjuncts over team columns it meets one value tuple
  per set of sides passed; it strikes a union-closed side from every row
  outside its greatest subteam among the rows offered to it; and it
  prunes the rows left with a single side by that side's pruner;
* every search whose buckets are teams (the witness search and both
  splits of a disjunction) prunes a bucket as it grows by the
  downward-closed conjuncts of the bucket's formula, through one
  _Pruner: dep and excl atoms on each new row against value indexes of
  the rows picked before, which already passed, and compound conjuncts
  over {FO, dep, excl} on the whole bucket.  A side of a split
  whose formula the pruner covers is not evaluated again once complete,
  and a lax side whose formula is downward closed is evaluated on its
  bucket alone, since no larger team can satisfy it instead;
* the per-row witness search of an existential builds each row's
  options once per evaluator, so an existential met again at every leaf
  of an enclosing search reuses them.

Every shortcut is also covered by a test against a rule-by-rule
reference evaluator.
"""

import enum
import itertools
import operator
from dataclasses import dataclass, field

from .model import ModelError, Team, eval_term, subsets
from .syntax import (
    And, Or, Exists, Forall, Name,
    RelAtom, Equality, DepAtom, IndepAtom, InclAtom, ExclAtom, EquiAtom,
    LITERALS, ATOMS, conjoin, flatten_and, free_names,
    is_first_order, term_names,
)


class Mode(enum.Enum):
    LAX = "lax"
    STRICT = "strict"


@dataclass
class Budget:
    """The node counter of one search.

    The evaluator, eval_eso and the game solver tick it once per node;
    it raises BudgetExceeded once more than max_nodes were spent.  Give
    each search a fresh one.  For eval_eso and the game solver alike, a
    node is the root (building the clauses and the first propagation)
    or one value tried at a decision of eso.dpll.
    """

    max_nodes: int = 10_000_000
    nodes: int = field(default=0, init=False)

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("budget must be positive")

    def tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceeded(self.nodes)


@dataclass(frozen=True)
class Verdict:
    status: str  # "sat" | "unsat" | "budget_exceeded"
    nodes_used: int = 0

    @property
    def is_sat(self):
        return self.status == "sat"


class BudgetExceeded(Exception):
    def __init__(self, nodes):
        super().__init__("search budget exceeded after %d nodes" % nodes)
        self.nodes = nodes


# ---------------------------------------------------------------------------
# Tarski satisfaction for first order formulas


def tarski(model, assignment, phi):
    """Ordinary single-assignment satisfaction for first order formulas,
    by the formula's compiled closure."""
    return compiled(phi)(model, dict(assignment.items()))


def compiled(phi):
    """The formula compiled to a closure holds(model, env) -> bool, made on
    first use and cached in the node's __dict__ next to `free` and `kinds`.

    env is a plain dict from variables to elements.  A quantifier sets
    and restores env[var] in place, so a closure returns env as it found
    it.  Atoms and terms read the model's relations, constants and
    functions at call time, so a table overwritten in place is seen by a
    closure compiled before.  Compiling raises nothing: each error is
    raised by the call that meets it, as a recursive evaluation would.
    """
    facts = phi.__dict__
    holds = facts.get("holds")
    if holds is None:
        holds = facts["holds"] = _compile(phi)
    return holds


def _compile(phi):
    if isinstance(phi, RelAtom):
        return _compile_relation(phi)
    if isinstance(phi, Equality):
        return _compile_equality(phi)
    if isinstance(phi, (And, Or)):
        parts = [compiled(part) for part in phi.parts]
        decided = isinstance(phi, Or)   # the part value that decides phi

        def holds(model, env):
            for part in parts:
                if part(model, env) is decided:
                    return decided
            return not decided

        return holds
    if isinstance(phi, Exists):
        var, body = phi.var, compiled(phi.body)

        def holds(model, env):
            saved = env.get(var)
            found = False
            for value in model.domain:
                env[var] = value
                if body(model, env):
                    found = True
                    break
            _restore(env, var, saved)
            return found

        return holds
    if isinstance(phi, Forall):
        var, body = phi.var, compiled(phi.body)

        def holds(model, env):
            saved = env.get(var)
            found = True
            for value in model.domain:
                env[var] = value
                if not body(model, env):
                    found = False
                    break
            _restore(env, var, saved)
            return found

        return holds

    def holds(model, env):
        raise ValueError("not a first order formula: %r" % (phi,))

    return holds


def _restore(env, var, saved):
    if saved is None:
        del env[var]
    else:
        env[var] = saved


def _compile_relation(phi):
    name, positive, read = phi.name, phi.positive, term_reader(phi.args)

    def holds(model, env):
        row = read(model, env)
        rows = model.relations.get(name)
        if rows is None:
            raise ModelError("unknown relation %s" % name)
        return (row in rows) == positive

    return holds


def term_reader(terms):
    """A closure read(model, env) -> the tuple of the terms' values.

    Plain names are read straight from env; a constant or an unbound
    name misses there and takes eval_term, as other terms do.
    """

    def read(model, env):
        return tuple([eval_term(model, env, t) for t in terms])

    if not terms or not all(isinstance(t, Name) for t in terms):
        return read
    if len(terms) == 1:
        ident = terms[0].ident
        get = lambda env: (env[ident],)
    else:
        get = operator.itemgetter(*(t.ident for t in terms))

    def read_names(model, env):
        try:
            return get(env)
        except KeyError:
            return read(model, env)

    return read_names


def _compile_equality(phi):
    left, right, positive = phi.left, phi.right, phi.positive
    if not (isinstance(left, Name) and isinstance(right, Name)):
        return lambda model, env: (eval_term(model, env, left)
                                   == eval_term(model, env, right)) == positive
    a, b = left.ident, right.ident

    def holds(model, env):
        x, y = env.get(a), env.get(b)
        if x is None or y is None:  # a constant, or an unbound name
            x, y = eval_term(model, env, left), eval_term(model, env, right)
        return (x == y) == positive

    return holds


# ---------------------------------------------------------------------------
# Atom checkers


def check_dependence(model, team, terms):
    """The last term is a function of the preceding ones across the team."""
    seen = {}
    for row in team.rows:
        key = tuple(eval_term(model, row, t) for t in terms[:-1])
        value = eval_term(model, row, terms[-1])
        if seen.setdefault(key, value) != value:
            return False
    return True


def check_independence(model, team, t1s, t2s, t3s):
    """For rows agreeing on t1s, their t2s and t3s values combine freely."""
    triples = [(tuple(eval_term(model, row, t) for t in t1s),
                tuple(eval_term(model, row, t) for t in t2s),
                tuple(eval_term(model, row, t) for t in t3s))
               for row in team.rows]
    present = set(triples)
    for c1, a, _ in triples:
        for c2, _, b in triples:
            if c1 == c2 and (c1, a, b) not in present:
                return False
    return True


def check_inclusion(model, team, t1s, t2s):
    return team.relation(model, t1s) <= team.relation(model, t2s)


def check_exclusion(model, team, t1s, t2s):
    return not (team.relation(model, t1s) & team.relation(model, t2s))


def check_equiextension(model, team, t1s, t2s):
    return team.relation(model, t1s) == team.relation(model, t2s)


def check_atom(model, team, phi):
    if isinstance(phi, LITERALS):
        return all(tarski(model, row, phi) for row in team.rows)
    if isinstance(phi, DepAtom):
        return check_dependence(model, team, phi.args)
    if isinstance(phi, IndepAtom):
        return check_independence(model, team, phi.cond, phi.left, phi.right)
    if isinstance(phi, InclAtom):
        return check_inclusion(model, team, phi.left, phi.right)
    if isinstance(phi, ExclAtom):
        return check_exclusion(model, team, phi.left, phi.right)
    if isinstance(phi, EquiAtom):
        return check_equiextension(model, team, phi.left, phi.right)
    raise TypeError("not an atom: %r" % (phi,))


# ---------------------------------------------------------------------------
# Closure classification


_UNION_CLOSED = frozenset(LITERALS + (InclAtom, EquiAtom))
_DOWNWARD_CLOSED = frozenset(LITERALS + (DepAtom, ExclAtom))


def is_union_closed(phi):
    """Syntactic test: atoms drawn from {FO, incl, equi} only."""
    return phi.kinds <= _UNION_CLOSED


def is_downward_closed(phi):
    """Syntactic test: atoms drawn from {FO, dep, excl} only."""
    return phi.kinds <= _DOWNWARD_CLOSED


# ---------------------------------------------------------------------------
# Downward-closed pruning


class _Pruner:
    """Rejects a growing bucket that already fails its formula.

    Satisfaction of the {FO, dep, excl} fragment is downward closed in
    both modes, so a bucket failing such a conjunct of its formula stays
    failed whatever rows are added.  A leading existential block is
    peeled first; conjuncts mentioning its variables are left to the
    full evaluation.  Flat conjuncts are the searches' per-row filters.
    dep and excl atoms are checked on each new row against value indexes
    of the bucket's rows, the new row itself included (excl(x ; x) fails
    on one row), so a step costs the same whatever the bucket's size:
    per dep atom the rows are counted by determinant value and by
    determinant and dependent value, and a new row fails when its
    determinant value is there with another dependent value; per excl
    atom the left and the right values are counted, and a new row fails
    when its left value is a right value or the other way round.
    Compound downward-closed conjuncts are evaluated on the whole
    bucket.  `covers` says that these conjuncts make up the whole
    formula, so a complete bucket of filtered rows that passed at every
    step satisfies it; `closed` says that the whole formula is downward
    closed, so a bucket that fails it has no satisfying superset.
    """

    def __init__(self, model, phi, variables):
        self.model = model
        self.variables = variables
        self.closed = is_downward_closed(phi)
        block = set()
        while isinstance(phi, Exists):
            block.add(phi.var)
            phi = phi.body
        conjuncts = flatten_and(phi)
        if block:
            conjuncts = [c for c in conjuncts if not (free_names(c) & block)]
        self.flat = [c for c in conjuncts if is_first_order(c)]
        atoms = [c for c in conjuncts if isinstance(c, (DepAtom, ExclAtom))]
        self.compound = [c for c in conjuncts
                         if not isinstance(c, ATOMS) and not is_first_order(c)
                         and is_downward_closed(c)]
        self.covers = not block and len(conjuncts) == (
            len(self.flat) + len(atoms) + len(self.compound))
        # Each atom reads a pair of index keys per row, computed once per
        # pruner: (determinant, (determinant, dependent)) for dep, (left,
        # right) for excl.  `index` holds a pair of key counts per atom,
        # over the rows whose keys `checked` lists in bucket order; a key
        # counted down to 0 stays, and reads as absent.  _backtrack adds
        # and drops rows in stack order, so uncounting the rows past those
        # before the newest option keeps both in step, also when a bucket
        # holds one row twice.
        self.deps = [isinstance(c, DepAtom) for c in atoms]
        self.heads = [(c.args[:-1], c.args[-1:]) if dep else (c.left, c.right)
                      for c, dep in zip(atoms, self.deps)]
        self.index = [({}, {}) for _ in atoms]
        self.columns = {}
        self.checked = []

    def _column(self, row):
        model = self.model
        col = self.columns[row] = []
        for dep, (left, right) in zip(self.deps, self.heads):
            a = tuple(eval_term(model, row, t) for t in left)
            b = tuple(eval_term(model, row, t) for t in right)
            col.append((a, (a, b)) if dep else (a, b))
        return col

    def __call__(self, evaluator, bucket, new):
        """Whether the bucket, whose last `new` rows were just added, may
        still grow into a team satisfying the formula.

        The evaluator is passed in, not kept, so that an evaluator caching
        a pruner forms no reference cycle and is freed when dropped."""
        if self.heads:
            checked, index = self.checked, self.index
            kept = len(bucket) - new
            while len(checked) > kept:
                for (first, second), (a, b) in zip(index, checked.pop()):
                    first[a] -= 1
                    second[b] -= 1
            for row in bucket[kept:]:
                col = self.columns.get(row) or self._column(row)
                for dep, (first, second), (a, b) in zip(self.deps, index, col):
                    if (first.get(a) and not second.get(b)) if dep \
                            else (a == b or second.get(a) or first.get(b)):
                        return False
                for (first, second), (a, b) in zip(index, col):
                    first[a] = first.get(a, 0) + 1
                    second[b] = second.get(b, 0) + 1
                checked.append(col)
        if not self.compound:
            return True
        partial = Team(self.variables, bucket)
        return all(evaluator.sat(c, partial) for c in self.compound)


# ---------------------------------------------------------------------------
# Evaluator


class Evaluator:
    """Team satisfaction in one mode over one model, for one query.

    Its caches live as long as the evaluator and die with it, so nothing
    is shared between satisfies calls: `_memo` maps (formula, columns,
    rows) to the verdict of sat, `_maxsub_memo` the same to the greatest
    satisfying subteam, and `_slots` maps an existential's variable, body
    and new columns to its witness pruner and to each row's witness
    options (see _sat_exists_one).
    """

    def __init__(self, model, mode=Mode.LAX, budget=None):
        self.model = model
        self.mode = mode
        self.budget = budget or Budget()
        self.tick = self.budget.tick
        self._memo = {}
        self._maxsub_memo = {}
        self._slots = {}

    # -- entry point --------------------------------------------------------

    def sat(self, phi, team):
        if not team.rows:
            return True
        key = (phi, frozenset(team.variables), team.rows)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self.tick()
        result = self._sat(phi, team)
        self._memo[key] = result
        return result

    def _sat(self, phi, team):
        if is_first_order(phi):
            return all(tarski(self.model, row, phi) for row in team.rows)
        if isinstance(phi, ATOMS):
            return check_atom(self.model, team, phi)
        if self.mode is Mode.LAX and is_union_closed(phi):
            return len(self.largest_subteam(phi, team)) == len(team.rows)
        if isinstance(phi, And):
            conjuncts = sorted(phi.parts, key=_conjunct_cost)
            return all(self.sat(c, team) for c in conjuncts)
        if isinstance(phi, Or):
            return self._sat_or(phi, team)
        if self.mode is Mode.LAX and isinstance(phi, (Exists, Forall)) \
                and phi.var not in phi.body.free:
            # Lax semantics is local: the body never reads the new column.
            return self.sat(phi.body, team)
        if isinstance(phi, Exists):
            return self._sat_exists(phi, team)
        if isinstance(phi, Forall):
            return self.sat(phi.body, team.extend_universal(phi.var, self.model.domain))
        raise TypeError("not a formula: %r" % (phi,))

    # -- greatest satisfying subteams (lax, union-closed formulas) ----------

    def largest_subteam(self, phi, team):
        """The greatest subteam lax-satisfying a union-closed formula.

        The union of all satisfying subteams satisfies the formula again,
        so the greatest one exists; it is computed structurally, with
        greatest-fixpoint row trimming at incl/equi atoms, universal
        quantifiers and conjunctions.  Returns a set of rows of the team.
        """
        key = (phi, frozenset(team.variables), team.rows)
        cached = self._maxsub_memo.get(key)
        if cached is not None:
            return cached
        self.tick()
        result = self._largest_subteam(phi, team)
        self._maxsub_memo[key] = result
        return result

    def _largest_subteam(self, phi, team):
        model = self.model
        if is_first_order(phi):
            return {row for row in team.rows if tarski(model, row, phi)}
        if isinstance(phi, (InclAtom, EquiAtom)):
            both_ways = isinstance(phi, EquiAtom)
            rows = set(team.rows)
            while True:
                left_vals = {tuple(eval_term(model, r, t) for t in phi.left) for r in rows}
                right_vals = {tuple(eval_term(model, r, t) for t in phi.right) for r in rows}
                keep = set()
                for row in rows:
                    lv = tuple(eval_term(model, row, t) for t in phi.left)
                    rv = tuple(eval_term(model, row, t) for t in phi.right)
                    if lv in right_vals and (not both_ways or rv in left_vals):
                        keep.add(row)
                if keep == rows:
                    return rows
                rows = keep
                self.tick()
        if isinstance(phi, And):
            rows = set(team.rows)
            while True:
                new = rows
                for conjunct in phi.parts:
                    new = self.largest_subteam(conjunct, team.with_rows(new))
                if new == rows:
                    return rows
                rows = new
                self.tick()
        if isinstance(phi, Or):
            out = set()
            for disjunct in phi.parts:
                out |= self.largest_subteam(disjunct, team)
            return out
        if isinstance(phi, Exists):
            extended = team.extend_universal(phi.var, model.domain)
            good = self.largest_subteam(phi.body, extended)
            return {row for row in team.rows
                    if any(row.extended(phi.var, m) in good for m in model.domain)}
        if isinstance(phi, Forall):
            rows = set(team.rows)
            while rows:
                extended = team.with_rows(rows).extend_universal(phi.var, model.domain)
                good = self.largest_subteam(phi.body, extended)
                keep = {row for row in rows
                        if all(row.extended(phi.var, m) in good for m in model.domain)}
                if keep == rows:
                    return rows
                rows = keep
                self.tick()
            return rows
        raise ValueError("not union closed: %r" % (phi,))

    # -- the search core ----------------------------------------------------

    def _backtrack(self, slots, pruners, done):
        """Depth-first choice of one option per slot.

        slots lists, in search order, the options of each slot; an option
        is a tuple of (bucket, row) additions.  pruners holds one _Pruner
        or None per bucket; each pruned bucket an option adds to may
        reject the partial pick right after the option.  Which pruned
        buckets an option touches, and with how many rows, is worked out
        once per search, when the option is first tried.  done(buckets)
        judges a complete pick.
        Buckets are lists: when two options add the same row, undoing one
        keeps the other's copy.
        """
        buckets = [[] for _ in pruners]
        touched = [[None] * len(opts) for opts in slots]

        def checks(option):
            counts = {}
            for bucket, _row in option:
                if pruners[bucket] is not None:
                    counts[bucket] = counts.get(bucket, 0) + 1
            return [(pruners[b], buckets[b], n) for b, n in counts.items()]

        # A loop, not a recursion per slot, so that a team of any size
        # fits the interpreter's stack.  tried[pos] counts the options
        # tried at depth pos; the last one stays added until the search
        # comes back to that depth.
        self.tick()
        if not slots:
            return done(buckets)
        tried = [0] * len(slots)
        pos = 0
        while pos >= 0:
            opts = slots[pos]
            i = tried[pos]
            if i:
                for bucket, _row in opts[i - 1]:
                    buckets[bucket].pop()
            if i == len(opts):
                pos -= 1
                continue
            tried[pos] = i + 1
            option = opts[i]
            for bucket, row in option:
                buckets[bucket].append(row)
            tests = touched[pos][i]
            if tests is None:
                tests = touched[pos][i] = checks(option)
            for prune, rows, new in tests:
                if not prune(self, rows, new):
                    break
            else:
                self.tick()
                if pos + 1 < len(slots):
                    pos += 1
                    tried[pos] = 0
                elif done(buckets):
                    return True
        return False

    # -- disjunction --------------------------------------------------------

    def _split_side(self, side):
        """A disjunct's flat conjuncts and the conjunction of the rest."""
        flat, rest = [], []
        for conjunct in flatten_and(side):
            (flat if is_first_order(conjunct) else rest).append(conjunct)
        return flat, (conjoin(rest) if rest else None)

    def _sat_or(self, phi, team):
        sides = [self._split_side(side) for side in phi.parts]
        rows = team.sorted_rows()
        eligible = []  # per side: set of rows passing its flat conjuncts
        for flat, _body in sides:
            eligible.append({row for row in rows
                             if all(tarski(self.model, row, c) for c in flat)})
        if any(all(row not in e for e in eligible) for row in rows):
            return False
        if self.mode is Mode.LAX:
            return self._sat_or_lax(sides, eligible, team, rows)
        return self._sat_or_strict(sides, eligible, team, rows)

    def _sat_or_lax(self, sides, eligible, team, rows):
        covered = set()
        special = []  # (index, body) for sides needing a search
        for i, (_flat, body) in enumerate(sides):
            if body is None:
                covered |= eligible[i]
            elif is_union_closed(body):
                covered |= self.largest_subteam(body, team.with_rows(eligible[i]))
            else:
                special.append((i, body))
        mandatory = [row for row in rows if row not in covered]
        if not special:
            return not mandatory
        if not mandatory:
            return True

        # Each still-uncovered row must go to one special side; special
        # sides may additionally pick up any of their other eligible rows
        # (lax splits can overlap, so sides are independent here).
        slots = []
        for row in mandatory:
            opts = [((k, row),) for k, (idx, _body) in enumerate(special)
                    if row in eligible[idx]]
            if not opts:
                return False
            slots.append(opts)
        slots.sort(key=len)
        pruners = [_Pruner(self.model, body, team.variables) for _idx, body in special]

        def holds(idx, body, prune, bucket):
            if prune.covers or not bucket:
                return True
            if prune.closed:
                # Any larger satisfying team restricts to the bucket.
                return self.sat(body, team.with_rows(bucket))
            return self._side_holds(body, frozenset(bucket), eligible[idx], team)

        return self._backtrack(
            slots, pruners,
            lambda chosen: all(holds(idx, body, prune, bucket)
                               for (idx, body), prune, bucket
                               in zip(special, pruners, chosen)))

    def _side_holds(self, rest, assigned, elig, team):
        """Can a special side's team include `assigned` and satisfy it?"""
        optional = sorted(elig - assigned,
                          key=lambda r: r.values_for(team.variables))
        for extra in subsets(optional):
            self.tick()
            if self.sat(rest, team.with_rows(assigned | set(extra))):
                return True
        return False

    def _sat_or_strict(self, sides, eligible, team, rows):
        slots = sorted(([((i, row),) for i, elig in enumerate(eligible) if row in elig]
                        for row in rows), key=len)
        pruners = [None if body is None else _Pruner(self.model, body, team.variables)
                   for _flat, body in sides]
        return self._backtrack(
            slots, pruners,
            lambda chosen: all(self.sat(body, team.with_rows(bucket))
                               for (_flat, body), prune, bucket
                               in zip(sides, pruners, chosen)
                               if bucket and not (prune is None or prune.covers)))

    # -- existentials -------------------------------------------------------

    def _sat_exists(self, phi, team):
        block = []
        body = phi
        while isinstance(body, Exists):
            block.append(body.var)
            body = body.body
        if self.mode is Mode.LAX and len(set(block)) == len(block) \
                and not (set(block) & set(team.variables)):
            result = self._sat_exists_pinned(block, body, team)
            if result is not None:
                return result
        # Generic search: peel one variable at a time.
        var = block[0]
        rest = phi.body
        return self._sat_exists_one(var, rest, team)

    def _sat_exists_pinned(self, block, body, team):
        """Class-wise search for blocks pinned by dependence conjuncts.

        Applies when every block variable v has a conjunct dep(ts, v)
        with one shared block-free tuple ts, and every other conjunct
        either avoids the block variables, is flat, or is a disjunction
        whose disjuncts split into flat conjuncts plus block-free ones.
        Returns None when the shape does not apply.

        Any lax witness can be normalized to one value per variable per
        ts-value class (pick the witness values of one row of the class;
        the pinning conjuncts force agreement across rows anyway), so
        searching over per-class values is complete; and since the
        residual disjuncts are block-free, only the per-row side
        eligibility profile of each class's choice matters.

        Three cuts keep the search small, each without changing a verdict:
        * a flat conjunct over block variables (and constants) alone reads
          the same on every row, so it is evaluated once per value tuple;
          when no flat conjunct reads a team column, tuples passing the
          same sides give every class the same profile, and each class
          meets one tuple per such set of sides;
        * _filter_union_closed strikes a union-closed side from the rows
          it can never cover in a complete pick (see there);
        * a row whose profile has one side must be covered by that side,
          so it also goes to an extra bucket under the side's _Pruner: a
          pick whose forced rows already fail a downward-closed conjunct
          of the side fails at its leaf too, whatever the other classes
          pick.
        """
        blockset = set(block)
        conjuncts = flatten_and(body)
        pin_tuple = None
        pinned = set()
        residual = []
        for c in conjuncts:
            if isinstance(c, DepAtom) and isinstance(c.args[-1], Name) \
                    and c.args[-1].ident in blockset \
                    and c.args[-1].ident not in pinned:
                prefix_names = set()
                for a in c.args[:-1]:
                    prefix_names |= term_names(a)
                if not (prefix_names & blockset) \
                        and (pin_tuple is None or c.args[:-1] == pin_tuple):
                    pin_tuple = c.args[:-1]
                    pinned.add(c.args[-1].ident)
                    continue
            residual.append(c)
        if pinned != blockset:
            return None

        plain = []      # conjuncts without block variables
        row_flat = []   # flat conjuncts touching block variables
        or_conj = None
        for c in residual:
            if not (free_names(c) & blockset):
                plain.append(c)
            elif is_first_order(c):
                row_flat.append(c)
            elif isinstance(c, Or) and or_conj is None:
                or_conj = c
            else:
                return None
        sides = []
        if or_conj is not None:
            for side in or_conj.parts:
                flat, side_body = self._split_side(side)
                if side_body is not None and free_names(side_body) & blockset:
                    return None
                sides.append((flat, side_body))

        # Residual block-free conjuncts see the same team up to the new
        # columns, which lax satisfaction ignores.
        if any(not self.sat(c, team) for c in plain):
            return False

        model = self.model
        rows = team.sorted_rows()
        classes = {}
        for row in rows:
            key = tuple(eval_term(model, row, t) for t in pin_tuple)
            classes.setdefault(key, []).append(row)

        # A flat conjunct reading no team column reads the same on every
        # row, so it is evaluated once per value tuple, on any one row.
        # `passed` is None when a tuple fails such a row conjunct, else
        # the sides whose such conjuncts it passes.
        columns = set(team.variables)

        def by_reach(flat):
            reads = [bool(free_names(c) & columns) for c in flat]
            return ([c for c, r in zip(flat, reads) if not r],
                    [c for c, r in zip(flat, reads) if r])

        row_block, row_team = by_reach(row_flat)
        split = [by_reach(flat) for flat, _body in sides]
        side_block = [b for b, _t in split]
        side_team = [t for _b, t in split]
        tuples = []
        for values in itertools.product(model.domain, repeat=len(block)):
            e = _extend_many(rows[0], block, values)
            passed = None
            if all(tarski(model, e, c) for c in row_block):
                passed = frozenset(i for i, flat in enumerate(side_block)
                                   if all(tarski(model, e, c) for c in flat))
            tuples.append((values, passed))
        # Without team-reading flat conjuncts a tuple gives each member of
        # a class the sides it passed, so tuples passing the same sides
        # give the same profile and one of them stands for all.
        grouped = not row_team and not any(side_team)
        if grouped:
            tuples = [(None, passed) for passed in dict.fromkeys(
                passed for _values, passed in tuples
                if passed is not None and (passed or not sides))]

        # Per class, the usable value choices collapse to their maximal
        # side-eligibility profiles.
        options = []
        for members in classes.values():
            cand = []
            for values, passed in tuples:
                self.tick()
                if grouped:
                    cand.append((passed,) * len(members))
                    continue
                if passed is None or (sides and not passed):
                    continue
                ext = [_extend_many(row, block, values) for row in members]
                if any(not tarski(model, e, c) for e in ext for c in row_team):
                    continue
                profile = []
                for e in ext:
                    elig = frozenset(i for i in passed
                                     if all(tarski(model, e, c)
                                            for c in side_team[i]))
                    if sides and not elig:
                        break
                    profile.append(elig)
                else:
                    cand.append(tuple(profile))
            cand = _maximal_profiles(cand)
            if not cand:
                return False
            options.append((members, cand))
        if not sides:
            return True
        options = self._filter_union_closed(sides, options, team)
        if options is None:
            return False

        # A class's option adds each member row to every side its profile
        # allows.  A row with a single side must go to that side, so it
        # is also added to an extra bucket under that side's pruner, which
        # rejects a pick as soon as the rows forced to one side fail it.
        pruners = [None] * len(sides)
        forced = {}
        for i, (_flat, body) in enumerate(sides):
            if body is not None and not is_union_closed(body):
                prune = _Pruner(self.model, body, team.variables)
                if prune.heads or prune.compound:
                    forced[i] = len(pruners)
                    pruners.append(prune)
        slots = [[tuple((i, row) for row, elig in zip(members, profile)
                        for i in elig)
                  + tuple((forced[i], row) for row, elig in zip(members, profile)
                          if len(elig) == 1 for i in elig if i in forced)
                  for profile in cand]
                 for members, cand in options]
        # Every profile gives each member some side, so each complete
        # pick already covers the team and only the cover search is left.
        n = len(sides)
        return self._backtrack(
            slots, pruners,
            lambda buckets: self._sat_or_lax(
                sides, [set(b) for b in buckets[:n]], team, rows))

    def _filter_union_closed(self, sides, options, team):
        """Strike union-closed sides from rows they can never cover.

        In a complete pick a union-closed side covers its greatest
        subteam among the rows eligible for it, and greatest subteams
        grow with the team, so it never covers a row outside its greatest
        subteam among all rows any option offers it.  Striking the side
        from such rows leaves every cover as it was; an option left with
        a row that has no side can never be covered and is dropped.
        Repeats until nothing changes; returns None when a class loses
        every option.
        """
        closed = [i for i, (_flat, body) in enumerate(sides)
                  if body is not None and is_union_closed(body)]
        while closed:
            offered = {i: set() for i in closed}
            for members, cand in options:
                for profile in cand:
                    for row, elig in zip(members, profile):
                        for i in elig:
                            if i in offered:
                                offered[i].add(row)
            keep = {i: self.largest_subteam(sides[i][1], team.with_rows(offered[i]))
                    for i in closed if offered[i]}
            filtered = []
            for members, cand in options:
                kept = []
                for profile in cand:
                    profile = tuple(
                        frozenset(i for i in elig if i not in keep or row in keep[i])
                        for row, elig in zip(members, profile))
                    if all(profile):
                        kept.append(profile)
                kept = _maximal_profiles(kept)
                if not kept:
                    return None
                filtered.append((members, kept))
            if filtered == options:
                break
            options = filtered
        return options

    def _sat_exists_one(self, var, rest, team):
        """Per-row witness search: a value (strict) or a nonempty value set
        (lax) for each row, under the pruner of the body.

        A row's options are its extensions that pass the pruner's flat
        conjuncts, taken singly or as sets.  They depend on the row and
        on (var, rest, columns) only, so they are built once per
        evaluator and reused, with the pruner and its columns, whenever
        the same existential meets the row again.  No search over them
        runs inside another: the leaf and the pruner evaluate only proper
        subformulas of rest.
        """
        new_vars = team.variables if var in team.variables else team.variables + (var,)
        key = (var, rest, new_vars)
        cached = self._slots.get(key)
        if cached is None:
            cached = self._slots[key] = (_Pruner(self.model, rest, new_vars), {})
        prune, options = cached
        slots = []
        for row in team.sorted_rows():
            opts = options.get(row)
            if opts is None:
                opts = options[row] = self._witness_options(row, var, prune.flat)
            if not opts:
                return False
            slots.append(opts)
        slots.sort(key=len)
        # The leaf checks the whole body even when the pruner covers it:
        # then the first leaf reached passes and ends the search.
        return self._backtrack(
            slots, [prune],
            lambda extended: self.sat(rest, Team(new_vars, extended[0])))

    def _witness_options(self, row, var, flat):
        model = self.model
        cand = [ext for ext in (row.extended(var, m) for m in model.domain)
                if all(tarski(model, ext, c) for c in flat)]
        picks = subsets(cand, 1, 1 if self.mode is Mode.STRICT else None)
        return [tuple((0, ext) for ext in exts) for exts in picks]


def _conjunct_cost(phi):
    if isinstance(phi, ATOMS):
        return 0
    if is_first_order(phi):
        return 1
    return 2


def _extend_many(row, variables, values):
    for var, value in zip(variables, values):
        row = row.extended(var, value)
    return row


def _maximal_profiles(cand):
    """Drop profiles componentwise dominated by another candidate."""
    out = []
    for p in cand:
        if any(p != q and all(a <= b for a, b in zip(p, q)) for q in cand):
            continue
        if p not in out:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Public entry points


def satisfies(model, team, phi, mode=Mode.LAX, budget=None):
    missing = free_names(phi) - set(team.variables) - set(model.constants)
    if missing and team.rows:
        raise ValueError("free variables outside the team domain: %s"
                         % ", ".join(sorted(missing)))
    ev = Evaluator(model, mode, budget)
    try:
        return Verdict("sat" if ev.sat(phi, team) else "unsat", ev.budget.nodes)
    except BudgetExceeded:
        return Verdict("budget_exceeded", ev.budget.nodes)


def satisfies_sentence(model, phi, mode=Mode.LAX, budget=None):
    free = free_names(phi) - set(model.constants)
    if free:
        raise ValueError("sentence has free variables: %s" % ", ".join(sorted(free)))
    return satisfies(model, Team((), [{}]), phi, mode, budget)
