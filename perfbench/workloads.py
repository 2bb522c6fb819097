"""Seeded query streams, their known answers, and the timed operation.

A stream is a sequence of rounds.  Round i of a workload under seed s
depends only on (workload, s, i), and every round has the same mix of
query kinds, so a run that stops after a whole number of rounds sees
the same proportions whatever its length.  Each query carries its
inputs as plain data (domain labels, rows, formula text); the program
only ever sees these generated inputs.

Known answers are computed outside the timed operation, from sources
that share no code with the engine under test: the reference evaluator
in tests/oracles.py, a reachability check, a direct dependency check,
and the fixture answers.
"""

import glob
import itertools
import json
import os
import random
from dataclasses import dataclass, field

import frozen
import oracles
from teamlogic import dbdeps, games, model, semantics, syntax, translate

WORKLOADS = ("check-lax", "check-strict", "eso-game")

# Per-query node budgets.  The normal budget decides every regular query
# of its workload at the baseline.  Each round also carries one probe (on
# eso-game, one per half): a query that needs more than its small budget
# at the baseline (an unsatisfiable input, or a search that visits more
# positions than the budget allows), so undecided_share has a fixed,
# nonzero base that a faster search can lower.
CHECK_BUDGET = 25_000
LAX_PROBE_BUDGET = 1_000
STRICT_PROBE_BUDGET = 500
ESO_BUDGET = 50_000
ESO_PROBE_BUDGET = 60
GAME_BUDGET = 1_000_000
GAME_PROBE_BUDGET = 40

UNDECIDED = "budget_exceeded"


@dataclass
class Query:
    kind: str                 # label for per-kind statistics
    op: str                   # team | sentence | eso | game | derive | implies | violation
    text: str                 # formula, or goal dependency
    domain: tuple = ()        # model domain labels
    variables: tuple = ()     # team columns
    rows: tuple = ()          # team rows
    mode: str = "lax"
    budget: int = 0
    source: str = ""          # formula whose reference verdict is the answer
    constants: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)
    premises: tuple = ()      # dependency texts: premises, or those to check
    compile: bool = False
    expect: object = None     # filled in by known_answer()

    @property
    def union_closed(self):
        return semantics.is_union_closed(syntax.parse(self.text))


def labels(n):
    return tuple(str(i) for i in range(n))


# ---------------------------------------------------------------------------
# Teams and formulas


def random_rows(rng, width, dom, count):
    universe = list(itertools.product(dom, repeat=width))
    return tuple(sorted(rng.sample(universe, min(count, len(universe)))))


def planted_rows(rng, atom, dom, count):
    """Rows over the atom's columns that satisfy the source atom."""
    if atom == "dep":
        f = {a: rng.choice(dom) for a in dom}
        xs = rng.sample(dom, min(count, len(dom)))
        return tuple(sorted((a, f[a]) for a in xs))
    if atom == "excl":
        vals = list(dom)
        rng.shuffle(vals)
        cut = rng.randrange(1, len(vals))
        pairs = list(itertools.product(vals[:cut], vals[cut:]))
        return tuple(sorted(rng.sample(pairs, min(count, len(pairs)))))
    if atom in ("incl", "equi"):
        size = rng.randrange(1, min(count, len(dom)) + 1)
        values = rng.sample(dom, size)
        perm = values[:]
        rng.shuffle(perm)
        rows = set(zip(values, perm))
        if atom == "incl":
            while len(rows) < count and len(rows) < size * len(dom):
                rows.add((rng.choice(values), rng.choice(dom)))
        return tuple(sorted(rows))
    raise ValueError(atom)


ATOM_COLUMNS = {"dep": ("x", "y"), "excl": ("x", "y"), "incl": ("x", "y"),
                "equi": ("x", "y"), "indep": ("x", "y", "z")}


def atom_rows(rng, atom, dom, count):
    """Half planted to satisfy the atom, half uniform."""
    if rng.random() < 0.5:
        return planted_rows(rng, atom, dom, count)
    return random_rows(rng, len(ATOM_COLUMNS[atom]), dom, count)


def qf_formula(rng, kinds, connectives, variables=("x", "y")):
    """A quantifier-free formula built like the test corpus: each level
    joins the previous one with one more atom by the next connective."""

    def atom():
        kind = rng.choice(kinds)
        a, b = rng.choice(variables), rng.choice(variables)
        if kind == "eq":
            return "%s %s %s" % (a, rng.choice(("=", "!=")), b)
        if kind == "dep":
            return "dep(%s, %s)" % (a, b) if rng.random() < 0.8 else "dep(%s)" % a
        return "%s(%s ; %s)" % (kind, a, b)

    out = atom()
    for connective in connectives:
        out = "(%s) %s %s" % (out, connective, atom())
    return out


def quantified_formula(rng, quantifier, connective):
    """Q z . (a1 op a2), the atoms over incl/excl/eq and mentioning z."""

    def atom():
        kind = rng.choice(("incl", "incl", "excl", "eq"))
        pair = [rng.choice("xy"), "z"]
        rng.shuffle(pair)
        if kind == "eq":
            return "%s %s %s" % (pair[0], rng.choice(("=", "!=")), pair[1])
        return "%s(%s ; %s)" % (kind, pair[0], pair[1])

    return "%s z . (%s %s %s)" % (quantifier, atom(), connective, atom())


# The four connective patterns of a depth-3 formula, and the quantified
# shapes; the corpus holds each in equal numbers.
SHAPES = tuple(itertools.product(("/\\", "\\/"), repeat=2))
QUANTIFIED_SHAPES = (("exists", "/\\"), ("forall", "/\\"),
                     ("forall", "\\/"), ("exists", "\\/"))
POOL_SIZE = 96
# pool formulas per round
ESO_DRAWS = 14
GAME_DRAWS = 4
POOL_DRAWS = {"check-lax": 14, "check-strict": 16,
              "eso-game": ESO_DRAWS + GAME_DRAWS}


# ---------------------------------------------------------------------------
# Fixtures


def load_fixtures(directory):
    """The prop-4.2-* teams and the Casanova lists under fixtures/.

    Teams come back as (domain, variables, rows, formula, free variables
    of the narrow team or None); the Casanova lists as (premises, goal)
    pairs keyed by file name.
    """
    teams = []
    for path in sorted(glob.glob(os.path.join(directory, "prop-4.2-*.json"))):
        with open(path) as handle:
            data = json.load(handle)
        teams.append((tuple(data["model"]["domain"]), tuple(data["team"]["vars"]),
                      tuple(map(tuple, data["team"]["rows"])), data["formula"],
                      data.get("free_vars")))
    lists = {}
    for name in ("derivations", "implications", "non-implications"):
        with open(os.path.join(directory, "casanova-%s.json" % name)) as handle:
            lists[name] = [(tuple(entry["premises"]), entry["goal"])
                           for entry in json.load(handle)]
    return teams, lists


# ---------------------------------------------------------------------------
# Workload generators


class Stream:
    """The rounds of one workload under one seed.

    The heaviest query kinds draw their inputs from a seed-ordered cycle
    over a small input space instead of independently, so that every run
    of a few dozen rounds sees nearly the same heavy inputs and the
    spread between seeds stays small.
    """

    def __init__(self, workload, seed, fixtures_dir):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        # The formula corpus is the same under every seed, since its
        # makeup sets the mean cost of a query; the seed orders it and
        # picks the teams.  Cycling through one shared pool gives the
        # equiv-style reuse of a formula against many teams.
        corpus = random.Random("corpus|%s" % workload)
        kinds = ("eq", "incl", "excl", "dep") if workload.startswith("check") \
            else ("eq", "incl", "excl")
        self.pool = [qf_formula(corpus, kinds, SHAPES[i % len(SHAPES)])
                     for i in range(POOL_SIZE)]
        self.quantified = [quantified_formula(corpus, quantifier, connective)
                           for _ in range(8)
                           for quantifier, connective in QUANTIFIED_SHAPES]
        # The costliest strict searches are part of the corpus too: per
        # domain size, two exclusion teams that satisfy the atom and two
        # that violate it, so that every run meets them equally often.
        self.exclusion_teams = {
            (size, violating): [exclusion_team(corpus, labels(size), violating)
                                for _ in range(EXCLUSION_POOL)]
            for size in (2, 3, 4) for violating in (False, True)}
        # So are the eso probes and the seeded derivations, whose known
        # answers cost as much as the queries: a pooled query keeps its
        # answer from the first round that meets it.
        self.eso_probes = [eso_probe(corpus) for _ in range(ESO_PROBE_POOL)]
        self.seeded_derivations = [
            make(corpus) for _ in range(DERIVATION_POOL)
            for make in (inclusion_derivation, exclusion_derivation)]
        rng = self._rng("order")
        rng.shuffle(self.pool)
        # every nonempty team of at most two rows over x, y, z on domain 2
        rows2 = list(itertools.product(labels(2), repeat=3))
        self.indep_teams = [tuple(c) for n in (1, 2)
                            for c in itertools.combinations(rows2, n)]
        self.indep_probes = [(r,) for r in itertools.product(labels(3), repeat=3)]
        self.fixtures, casanova = load_fixtures(fixtures_dir)
        self.derivations = (casanova["derivations"]
                            + casanova["implications"])
        self.implications = list(casanova["implications"])
        self.non_implications = list(casanova["non-implications"])
        for inputs in (self.indep_teams, self.indep_probes, self.derivations,
                       self.implications, self.non_implications,
                       self.quantified, self.eso_probes,
                       self.seeded_derivations, *self.exclusion_teams.values()):
            rng.shuffle(inputs)

    def _rng(self, tag):
        return random.Random("%s|%d|%s" % (self.workload, self.seed, tag))

    def round(self, index):
        rng = self._rng(index)
        # Pool formulas are handed out in a fixed cycle through the pool.
        k = POOL_DRAWS[self.workload]
        self.formulas = [cycle(self.pool, index * k + j) for j in range(k)]
        if self.workload == "check-lax":
            return self._check_lax(rng, index)
        if self.workload == "check-strict":
            return self._check_strict(rng, index)
        return self._eso_bridge(rng, index) + self._game_derive(rng, index)

    # -- check-lax ----------------------------------------------------------

    def _translation(self, rule, mode, dom, rows, budget=CHECK_BUDGET,
                     kind=None):
        source, text = frozen.TRANSLATIONS[rule]
        columns = ATOM_COLUMNS[source.split("(")[0]]
        return Query("%s/%s" % (mode, kind or rule), "team", text, dom,
                     columns, rows, mode, budget, source)

    def _random_translation(self, rng, rule, mode, dom, count):
        atom = frozen.TRANSLATIONS[rule][0].split("(")[0]
        return self._translation(rule, mode, dom,
                                 atom_rows(rng, atom, dom, count))

    def _qf(self, rng, mode, dom, count):
        text = self.formulas.pop()
        rows = random_rows(rng, 2, dom, count)
        return Query("%s/qf" % mode, "team", text, dom, ("x", "y"), rows,
                     mode, CHECK_BUDGET, text)

    def _fixture(self, rng, mode):
        dom, columns, rows, text, narrow = rng.choice(self.fixtures)
        if narrow is not None and rng.random() < 0.5:
            keep = [columns.index(v) for v in narrow]
            rows = tuple(sorted({tuple(r[i] for i in keep) for r in rows}))
            columns = tuple(narrow)
        return Query("%s/fixture" % mode, "team", text, dom, columns, rows,
                     mode, CHECK_BUDGET, text)

    def _tc(self, rng, n):
        dom = labels(n)
        p = rng.uniform(0.15, 0.35)
        edges = tuple((u, v) for u in dom for v in dom
                      if u != v and rng.random() < p)
        a, b = rng.choice(dom), rng.choice(dom)
        return Query("lax/tc", "sentence", frozen.TC_SENTENCE, dom,
                     mode="lax", budget=CHECK_BUDGET,
                     constants={"ca": a, "cb": b}, relations={"E": edges})

    def _check_lax(self, rng, index):
        out = []
        for rule in frozen.TRANSLATIONS:
            if rule == "indep_to_ie":
                out.append(self._translation(rule, "lax", labels(2),
                                             cycle(self.indep_teams, index)))
                continue
            count = rng.randrange(1, 3 if rule == "inc_to_indep" else 5)
            out.append(self._random_translation(rng, rule, "lax",
                                                labels(rng.choice((2, 3))),
                                                count))
        out.append(self._translation("indep_to_ie", "lax", labels(3),
                                     cycle(self.indep_probes, index),
                                     LAX_PROBE_BUDGET, "probe"))
        while self.formulas:
            out.append(self._qf(rng, "lax", labels(rng.choice((2, 3))),
                                rng.randrange(1, 5)))
        out.extend(self._tc(rng, n) for n in range(4, 9))
        out.extend(self._fixture(rng, "lax") for _ in range(3))
        return out

    # -- check-strict -------------------------------------------------------

    def _check_strict(self, rng, index):
        out = []
        for rule in ("dep_to_exc", "dep_to_indep"):
            for _ in range(2):
                out.append(self._random_translation(
                    rng, rule, "strict", labels(rng.choice((2, 3, 4))),
                    rng.randrange(2, 9)))
        # A violating team costs microseconds on domain 2, 15-40 ms on
        # domain 3 and 0.4-1.2 s on domain 4, a satisfying one at most a
        # few milliseconds.  The round holds two violating teams on
        # domain 3, so that its p90 falls among them, and alternates
        # violating and satisfying teams on domain 4.
        teams = [(2, False, index), (2, True, index), (3, False, index),
                 (3, True, 2 * index), (3, True, 2 * index + 1),
                 (4, index % 2 == 1, index // 2)]
        for size, violating, draw in teams:
            rows = cycle(self.exclusion_teams[size, violating], draw)
            out.append(self._translation("exc_to_dep", "strict", labels(size),
                                         rows))
        dom5 = labels(5)
        out.append(self._translation(
            "exc_to_dep", "strict", dom5,
            violated(rng, planted_rows(rng, "excl", dom5, 3), dom5),
            STRICT_PROBE_BUDGET, "probe"))
        while self.formulas:
            out.append(self._qf(rng, "strict", labels(rng.choice((2, 3))),
                                rng.randrange(2, 9)))
        out.extend(self._fixture(rng, "strict") for _ in range(2))
        return out

    # -- eso-game, first half: ie_to_eso and eval_eso ----------------------

    def _eso(self, rng, text, dom, count, budget=ESO_BUDGET, kind="eso/qf"):
        rows = random_rows(rng, 2, dom, count)
        return Query(kind, "eso", text, dom, ("x", "y"), rows, "lax", budget,
                     text)

    def _eso_bridge(self, rng, index):
        out = [self._eso(rng, self.formulas.pop(), labels(rng.choice((2, 3))),
                         rng.randrange(1, 4))
               for _ in range(ESO_DRAWS)]
        for j in range(4):
            text = cycle(self.quantified, 4 * index + j)
            # Quantified queries cost from milliseconds to seconds as the
            # team grows: on domain 3 they keep to one row, on domain 2
            # to two.  An existential over a disjunction stays on domain
            # 2, where the reference evaluator's witness enumeration is
            # still cheap.
            size = 2 if text.startswith("exists") and "\\/" in text \
                else rng.choice((2, 3))
            out.append(self._eso(rng, text, labels(size),
                                 1 if size == 3 else rng.randrange(1, 3),
                                 kind="eso/quantified"))
        out.append(cycle(self.eso_probes, index))
        return out

    # -- eso-game, second half: games and the dependency calculus -----------

    def _game(self, rng, text, deterministic, dom, count, compile_first=False,
              budget=GAME_BUDGET, kind="game/qf"):
        rows = random_rows(rng, 2, dom, count)
        return Query(kind, "game", text, dom, ("x", "y"), rows,
                     "strict" if deterministic else "lax", budget, text,
                     compile=compile_first)

    COMPILE_SOURCES = ("dep(x, y)", "dep(y, x)", "equi(x ; y)",
                       "dep(x, y) /\\ incl(x ; y)", "equi(x ; y) \\/ x = y",
                       "dep(x, y) /\\ excl(x ; y)")

    def _game_derive(self, rng, index):
        dom2 = labels(2)
        out = [self._game(rng, self.formulas.pop(), j % 2 == 1, dom2,
                          rng.randrange(1, 4))
               for j in range(GAME_DRAWS)]
        out.extend(self._game(rng, rng.choice(self.COMPILE_SOURCES), det, dom2,
                              rng.randrange(1, 4), compile_first=True,
                              kind="game/compile")
                   for det in (False, True))
        # The deterministic search visits every one of the 6 x 3 row and
        # value positions under the disjunction, more than the budget.
        out.append(self._game(rng, rng.choice(("dep(x, y)", "dep(y, x)")), True,
                              labels(3), 6, compile_first=True,
                              budget=GAME_PROBE_BUDGET, kind="game/probe"))
        # The fixture lists are walked in a seed-ordered cycle, and
        # implications (which enumerate every small relation) alternate
        # with non-implications (which stop at the first counterexample).
        premises, goal = cycle(self.derivations, index)
        out.append(Query("derive/fixture", "derive", goal, premises=premises,
                         expect="derivable"))
        out.extend(cycle(self.seeded_derivations, 2 * index + j)
                   for j in range(2))
        implied = index % 2 == 0
        premises, goal = cycle(self.implications if implied
                               else self.non_implications, index // 2)
        out.append(Query("implies/fixture", "implies", goal, premises=premises,
                         expect="implied" if implied else "refuted"))
        out.append(seeded_violation(rng))
        return out


def cycle(items, index):
    return items[index % len(items)]


EXCLUSION_POOL = 2
ESO_PROBE_POOL = 4
DERIVATION_POOL = 16


def eso_probe(rng):
    """Unsatisfiable on every nonempty team (no disjunct holds where
    z = x), so the search must try every interpretation of the two split
    relations, far more than the probe budget."""
    atom = "%s(%s ; %s)" % (rng.choice(("incl", "excl")), rng.choice("xy"),
                            rng.choice("yz"))
    text = "forall z . (x != z \\/ z != x /\\ %s)" % atom
    dom = labels(3)
    return Query("eso/probe", "eso", text, dom, ("x", "y"),
                 random_rows(rng, 2, dom, 2), "lax", ESO_PROBE_BUDGET, text)


def exclusion_team(rng, dom, violating):
    """A team over x, y satisfying excl(x ; y), or three such rows plus
    one that breaks it."""
    if violating:
        return violated(rng, planted_rows(rng, "excl", dom, 3), dom)
    return planted_rows(rng, "excl", dom, rng.randrange(2, 7))


def violated(rng, rows, dom):
    """The rows plus one row whose x value also occurs as a y value."""
    shared = rng.choice([y for _x, y in rows])
    return tuple(sorted(set(rows) | {(shared, rng.choice(dom))}))


# ---------------------------------------------------------------------------
# Dependency inputs


def _ind(xs, ys):
    return "incl(%s ; %s)" % (",".join(xs), ",".join(ys))


def _exd(xs, ys):
    return "excl(%s ; %s)" % (",".join(xs), ",".join(ys))


def inclusion_derivation(rng):
    """Width <= 2 inclusions over 5-6 attributes: a chain of three to
    five tuples plus distractors; the goal joins the chain's end points,
    optionally projected or permuted (I3, then I2)."""
    attrs = list("ABCDEF"[:rng.choice((5, 6))])
    chain = [tuple(rng.sample(attrs, 2)) for _ in range(rng.choice((3, 4, 5)))]
    premises = [_ind(a, b) for a, b in zip(chain, chain[1:])]
    pick = rng.choice(((0, 1), (1, 0), (0,), (1,)))
    goal = _ind(tuple(chain[0][i] for i in pick),
                tuple(chain[-1][i] for i in pick))
    for _ in range(rng.choice((1, 2))):
        premises.append(_ind(tuple(rng.sample(attrs, 2)),
                             tuple(rng.sample(attrs, 2))))
    rng.shuffle(premises)
    return Query("derive/inclusion", "derive", goal, premises=tuple(premises))


def exclusion_derivation(rng):
    """Width-1 premises over 5-6 attributes: an inclusion chain whose end
    is excluded from another attribute; the goal carries the exclusion
    back to the chain's start (I3, IE2, then maybe E1).  Width-2
    premises are left out here: with an exclusion among them the search
    cost ranges from milliseconds to seconds."""
    attrs = list("ABCDEF"[:rng.choice((5, 6))])
    chain = rng.sample(attrs, 3)
    other = rng.choice([a for a in attrs if a not in chain])
    premises = [_ind((a,), (b,)) for a, b in zip(chain, chain[1:])]
    premises.append(_exd((chain[-1],), (other,)))
    premises.append(_ind((rng.choice(attrs),), (rng.choice(attrs),)))
    goal = _exd((chain[0],), (other,)) if rng.random() < 0.5 \
        else _exd((other,), (chain[0],))
    rng.shuffle(premises)
    return Query("derive/exclusion", "derive", goal, premises=tuple(premises))


VIOLATION_ATTRS = ("A", "B", "C", "D", "E")


def seeded_violation(rng):
    """A relation and four of eight dependencies; fd(A -> B) and
    excl(D ; E) hold by construction, the others by chance."""
    n = rng.randrange(12, 30)
    key = {a: rng.choice("pqr") for a in "pqrs"}
    rows = set()
    while len(rows) < n:
        a = rng.choice("pqrs")
        rows.add((a, key[a], rng.choice("pqrs"), rng.choice("pq"),
                  rng.choice("rs")))
    deps = ["fd(A -> B)", "fd(C -> B)", "excl(D ; E)", "incl(B ; A)",
            "incl(C ; A)", "fd(A,C -> D)", "excl(A ; D)", "incl(D,E ; C,C)"]
    rng.shuffle(deps)
    return Query("violation/seeded", "violation", "", premises=tuple(deps[:4]),
                 variables=VIOLATION_ATTRS, rows=tuple(sorted(rows)))


# ---------------------------------------------------------------------------
# The timed operation


MODES = {"lax": semantics.Mode.LAX, "strict": semantics.Mode.STRICT}


def execute(q):
    """Run one query as its CLI command would; returns (outcome, nodes).

    Every program entry point is looked up on its module at call time,
    so that wrappers installed by the tracer are seen.
    """
    if q.op == "derive":
        premises = [dbdeps.parse_dependency(p) for p in q.premises]
        goal = dbdeps.parse_dependency(q.text)
        found = dbdeps.derive(premises, goal)
        if found is None:
            return "not-derivable", 0
        ok = dbdeps.verify_derivation(found, premises)
        return ("derivable" if ok else "invalid-derivation"), 0
    if q.op == "implies":
        premises = [dbdeps.parse_dependency(p) for p in q.premises]
        goal = dbdeps.parse_dependency(q.text)
        holds, _counterexample = dbdeps.semantic_implies(premises, goal)
        return ("implied" if holds else "refuted"), 0
    if q.op == "violation":
        relation = dbdeps.DBRelation(q.variables, q.rows)
        deps = [dbdeps.parse_dependency(t) for t in q.premises]
        return tuple(dbdeps.find_violation(relation, d) for d in deps), 0

    structure = model.Model(q.domain, q.constants, None, q.relations)
    budget = semantics.Budget(q.budget)
    if q.op == "sentence":
        verdict = semantics.satisfies_sentence(structure, syntax.parse(q.text),
                                               MODES[q.mode], budget)
        return verdict.status, verdict.nodes_used
    team = model.Team.from_tuples(q.variables, q.rows)
    phi = syntax.parse(q.text)
    if q.op == "team":
        verdict = semantics.satisfies(structure, team, phi, MODES[q.mode], budget)
        return verdict.status, verdict.nodes_used
    if q.op == "eso":
        eso = translate.ie_to_eso(phi, q.variables)
        relation = {row.values_for(q.variables) for row in team.rows}
        try:
            held = translate.eval_eso(structure, eso, relation, budget)
        except semantics.BudgetExceeded:
            return UNDECIDED, 0
        return ("sat" if held else "unsat"), 0
    if q.op == "game":
        if q.compile:
            phi = translate.compile(phi, frozenset({"incl", "excl"}))
        arena = games.build_arena(structure, team, phi)
        try:
            tau = games.find_uniform_winning(
                arena, deterministic=q.mode == "strict", budget=budget)
        except semantics.BudgetExceeded:
            return UNDECIDED, 0
        return ("sat" if tau is not None else "unsat"), 0
    raise ValueError("unknown op %r" % q.op)


# ---------------------------------------------------------------------------
# Known answers


def known_answer(q):
    """The expected outcome, from a source independent of the engine."""
    if q.expect is not None:    # from a fixture, or an earlier round
        return q.expect
    if q.op == "derive":
        return _derive_answer(q)
    if q.op == "violation":
        return tuple(_dep_holds(q.variables, q.rows, t) for t in q.premises)
    structure = model.Model(q.domain, q.constants, None, q.relations)
    if q.op == "sentence":
        edges = set(q.relations["E"])
        a, b = q.constants["ca"], q.constants["cb"]
        linked = b == a or b in oracles.reachable(q.domain, edges, a)
        return "unsat" if linked else "sat"
    team = model.Team.from_tuples(q.variables, q.rows)
    held = oracles.ref_sat(structure, team, syntax.parse(q.source),
                           strict=q.mode == "strict")
    return "sat" if held else "unsat"


def _dep_holds(attributes, rows, text):
    """Direct check of one incl/excl/fd dependency on a relation."""
    index = {a: i for i, a in enumerate(attributes)}
    text = text.strip()
    kind, body = text[:text.index("(")], text[text.index("(") + 1:-1]
    if kind == "fd":
        left, right = body.split("->")
        xi = [index[a.strip()] for a in left.split(",")]
        return oracles.ref_fd_holds(rows, xi, index[right.strip()])
    left, right = body.split(";")
    xi = [index[a.strip()] for a in left.split(",")]
    yi = [index[a.strip()] for a in right.split(",")]
    xs = {tuple(r[i] for i in xi) for r in rows}
    ys = {tuple(r[i] for i in yi) for r in rows}
    return xs <= ys if kind == "incl" else not (xs & ys)


def _witness_ok(attributes, rows, text, witness):
    index = {a: i for i, a in enumerate(attributes)}
    kind, body = text[:text.index("(")], text[text.index("(") + 1:-1]
    if kind == "fd":
        left, right = body.split("->")
        xi = [index[a.strip()] for a in left.split(",")]
        yi = index[right.strip()]
        r1, r2 = witness
        return (r1 in rows and r2 in rows
                and all(r1[i] == r2[i] for i in xi) and r1[yi] != r2[yi])
    left, right = body.split(";")
    xi = [index[a.strip()] for a in left.split(",")]
    yi = [index[a.strip()] for a in right.split(",")]
    xs = {tuple(r[i] for i in xi) for r in rows}
    ys = {tuple(r[i] for i in yi) for r in rows}
    if kind == "incl":
        return len(witness) == 1 and witness[0] in xs and witness[0] not in ys
    return len(witness) == 2 and witness[0] == witness[1] \
        and witness[0] in xs and witness[0] in ys


def _derive_answer(q):
    """A derivation must exist and the goal must survive a bounded search
    for a counterexample relation; a counterexample, checked directly,
    makes the goal underivable instead."""
    premises = [dbdeps.parse_dependency(p) for p in q.premises]
    goal = dbdeps.parse_dependency(q.text)
    holds, counterexample = dbdeps.semantic_implies(premises, goal,
                                                    universe_size=2,
                                                    max_tuples=2)
    if holds:
        return "derivable"
    attrs = counterexample.attributes
    rows = tuple(counterexample.tuples)
    confirmed = all(_dep_holds(attrs, rows, str(p)) for p in premises) \
        and not _dep_holds(attrs, rows, str(goal))
    if not confirmed:
        raise AssertionError("unconfirmed counterexample for %s" % q.text)
    return "not-derivable"


def judge(q, outcome):
    """True when the outcome matches the known answer.  An undecided
    outcome is neither right nor wrong; the caller counts it apart."""
    if q.op == "violation":
        if len(outcome) != len(q.expect):
            return False
        for text, holds, witness in zip(q.premises, q.expect, outcome):
            if holds != (witness is None):
                return False
            if witness is not None and not _witness_ok(q.variables, q.rows,
                                                       text, witness):
                return False
        return True
    return outcome == q.expect
