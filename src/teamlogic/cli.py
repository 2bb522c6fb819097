"""Command line front end.

Subcommands: check, game, translate, equiv, derive, dbcheck.  Exit
codes are uniform: 0 for sat/equivalent/derivable/holds, 1 for the
negative verdict, 2 for usage or parse errors, 3 when the node budget
runs out, 4 for an internal error, so that a crash never reads as the
negative verdict.  --json switches every subcommand to a single JSON object on
stdout; the default output is line oriented and stable across runs.
"""

import argparse
import itertools
import json
import sys

from . import dbdeps, games, translate
from .model import Model, Team, ModelError, all_teams, subsets, tables
from .semantics import Budget, BudgetExceeded, Mode, satisfies, satisfies_sentence
from .syntax import (
    And, DepAtom, EquiAtom, ExclAtom, InclAtom, IndepAtom,
    ParseError, free_names, parse, render, symbol_arities,
)

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _emit(args, report, lines):
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _budget(args):
    return Budget(args.budget)


def _mode(args):
    return Mode.STRICT if args.mode == "strict" else Mode.LAX


def _load_model(args):
    if args.model:
        return Model.load(args.model, allow_unit_domain=args.allow_unit_domain)
    if args.domain:
        labels = [d.strip() for d in args.domain.split(",")]
        if "" in labels:
            raise UsageError("--domain %r has an empty label" % args.domain)
        return Model(labels, allow_unit_domain=args.allow_unit_domain)
    raise UsageError("either --model or --domain is required")


def _load_team(args, model):
    if args.team is None:
        return None
    team = Team.load(args.team)
    domain = set(model.domain)
    for row in team.rows:
        for var, value in row.items():
            if value not in domain:
                raise ModelError("team value %r for %s is not in the domain"
                                 % (value, var))
    return team


def _check_symbols(model, phi):
    """Every relation and function of phi is the model's, at its arity."""
    relations, functions = symbol_arities(phi)
    for kind, used, table in (("relation", relations, model.relations),
                              ("function", functions, model.functions)):
        for name, arity in sorted(used.items()):
            if name not in table:
                raise UsageError("%s %s is not in the model" % (kind, name))
            known = {len(key) for key in table[name]}
            if known and known != {arity}:
                raise UsageError("%s %s has arity %d in the model, %d in "
                                 "the formula" % (kind, name, known.pop(), arity))


# ---------------------------------------------------------------------------
# check


def cmd_check(args):
    model = _load_model(args)
    team = _load_team(args, model)
    phi = parse(args.formula)
    _check_symbols(model, phi)
    if team is None:
        verdict = satisfies_sentence(model, phi, _mode(args), _budget(args))
    else:
        verdict = satisfies(model, team, phi, _mode(args), _budget(args))
    report = {"verdict": verdict.status, "mode": args.mode,
              "nodes": verdict.nodes_used}
    _emit(args, report, ["%s (%s)" % (verdict.status, args.mode)])
    if verdict.status == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_SAT if verdict.is_sat else EXIT_UNSAT


# ---------------------------------------------------------------------------
# game


def cmd_game(args):
    model = _load_model(args)
    team = _load_team(args, model)
    if team is None:
        raise UsageError("game needs a --team file")
    phi = parse(args.formula)
    _check_symbols(model, phi)
    if args.compile:
        phi = translate.compile(phi, frozenset({"incl", "excl"}))
    try:
        arena = games.build_arena(model, team, phi)
    except games.ArenaError as exc:
        raise UsageError(str(exc))
    try:
        tau = games.find_uniform_winning(arena, deterministic=args.deterministic,
                                         budget=_budget(args))
    except BudgetExceeded:
        _emit(args, {"verdict": "budget_exceeded"}, ["budget_exceeded"])
        return EXIT_BUDGET
    if tau is None:
        _emit(args, {"verdict": "none"}, ["none"])
        return EXIT_UNSAT
    dump = games.format_strategy(arena, tau)
    _emit(args, {"verdict": "strategy", "strategy": dump.splitlines()},
          dump.splitlines() or ["(no choices needed)"])
    return EXIT_SAT


# ---------------------------------------------------------------------------
# translate


def _comma_vars(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


# The translate flags each rule reads; a rule rejects the others.
_RULE_FLAGS = {
    "snf2ie": ("team_vars", "expand_deps", "from_file"),
    "ie2eso": ("team_vars",),
    "tc": ("avars", "bvars", "xvars", "yvars"),
    "indep2ie": ("expand_deps",),
}


def cmd_translate(args):
    rule = args.rule
    unread = set().union(*_RULE_FLAGS.values()) - set(_RULE_FLAGS.get(rule, ()))
    for flag in sorted(unread):
        if getattr(args, flag) not in (None, False):
            raise UsageError("rule %s takes no --%s"
                             % (rule, flag.replace("_", "-")))
    if rule == "snf2ie":
        text = args.formula
        if args.from_file:
            with open(args.formula) as handle:
                text = handle.read()
        nf = translate.parse_skolemnf(text)
        if not args.team_vars:
            raise UsageError("snf2ie needs --team-vars")
        out = _expand_deps(
            translate.skolemnf_to_ie(nf, _comma_vars(args.team_vars)), args)
        _emit(args, {"formula": render(out)}, [render(out)])
        return EXIT_SAT
    phi = parse(args.formula)
    if rule == "ie2eso":
        if not args.team_vars:
            raise UsageError("ie2eso needs --team-vars")
        eso = translate.ie_to_eso(phi, _comma_vars(args.team_vars))
        dump = translate.format_eso(eso)
        _emit(args, {"eso": dump.splitlines()}, dump.splitlines())
        return EXIT_SAT
    if rule == "tc":
        for flag in ("avars", "bvars", "xvars", "yvars"):
            if not getattr(args, flag):
                raise UsageError("tc needs --avars/--bvars/--xvars/--yvars")
        out = translate.tc_sentence(phi, _comma_vars(args.avars),
                                    _comma_vars(args.bvars),
                                    _comma_vars(args.xvars),
                                    _comma_vars(args.yvars))
        _emit(args, {"formula": render(out)}, [render(out)])
        return EXIT_SAT
    if rule == "const-nf":
        out = translate.const_normal_form(phi)
    elif rule == "const-collapse":
        out = translate.const_sentence_collapse(phi)
    else:
        out = _translate_atom(rule, phi, args)
    _emit(args, {"formula": render(out)}, [render(out)])
    return EXIT_SAT


def _expand_deps(phi, args):
    """--expand-deps: rewrite the dependence atoms into exclusion atoms."""
    if args.expand_deps:
        return translate.compile(phi, frozenset({"incl", "excl"}))
    return phi


def _translate_atom(rule, phi, args):
    table = {
        "dep2indep": (DepAtom, lambda a: translate.dep_to_indep(a.args)),
        "dep2exc": (DepAtom, lambda a: translate.dep_to_exc(a.args)),
        "exc2dep": (ExclAtom, lambda a: translate.exc_to_dep(a.left, a.right)),
        "equi2inc": (EquiAtom, lambda a: translate.equi_to_inc(a.left, a.right)),
        "inc2equi": (InclAtom, lambda a: translate.inc_to_equi(a.left, a.right)),
        "inc2indep": (InclAtom, lambda a: translate.inc_to_indep(a.left, a.right)),
        "indep2ie": (IndepAtom,
                     lambda a: _expand_deps(
                         translate.indep_to_ie(a.cond, a.left, a.right), args)),
    }
    if rule not in table:
        raise UsageError("unknown rule %r" % rule)
    kind, apply = table[rule]
    if not isinstance(phi, kind):
        raise UsageError("rule %s applies to a single %s atom"
                         % (rule, kind.__name__))
    return apply(phi)


# ---------------------------------------------------------------------------
# equiv: the brute-force equivalence oracle


def _all_interpretations(domain, relations, functions):
    """Every way to interpret the listed symbols over the domain."""
    rel_items = sorted(relations.items())
    fun_items = sorted(functions.items())
    rel_spaces = [[frozenset(rows) for rows in
                   subsets(itertools.product(domain, repeat=arity))]
                  for _name, arity in rel_items]
    fun_spaces = [list(tables(itertools.product(domain, repeat=arity), domain))
                  for _name, arity in fun_items]
    for choice in itertools.product(*rel_spaces, *fun_spaces):
        yield (dict(zip((n for n, _a in rel_items), choice)),
               dict(zip((n for n, _a in fun_items), choice[len(rel_items):])))


def cmd_equiv(args):
    f1 = parse(args.formula)
    f2 = parse(args.formula2)
    lo, _, hi = args.domains.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if lo > hi:
        raise UsageError("empty domain size range %s" % args.domains)
    if args.max_rows < 0:
        raise UsageError("--max-rows must not be negative")
    names = free_names(f1) | free_names(f2)
    relations, functions = symbol_arities(And(f1, f2))
    mode = _mode(args)

    for size in range(lo, hi + 1):
        domain = [str(i) for i in range(size)]
        constants = {n: n for n in names if n in set(domain)}
        variables = sorted(names - set(constants))
        for rels, funs in _all_interpretations(domain, relations, functions):
            model = Model(domain, constants, funs, rels,
                          allow_unit_domain=args.allow_unit_domain)
            for team in all_teams(variables, domain, max_rows=args.max_rows):
                v1 = satisfies(model, team, f1, mode, _budget(args))
                v2 = satisfies(model, team, f2, mode, _budget(args))
                if "budget_exceeded" in (v1.status, v2.status):
                    _emit(args, {"verdict": "budget_exceeded"},
                          ["budget_exceeded"])
                    return EXIT_BUDGET
                if v1.status != v2.status:
                    report = {
                        "verdict": "counterexample",
                        "model": model.to_json_dict(),
                        "team": team.to_json_dict(),
                        "left": v1.status,
                        "right": v2.status,
                    }
                    _emit(args, report, [
                        "counterexample",
                        "model: %s" % json.dumps(model.to_json_dict(),
                                                 sort_keys=True),
                        "team: %s" % json.dumps(team.to_json_dict()),
                        "left: %s  right: %s" % (v1.status, v2.status),
                    ])
                    return EXIT_UNSAT
    _emit(args, {"verdict": "equivalent"}, ["equivalent"])
    return EXIT_SAT


# ---------------------------------------------------------------------------
# derive / dbcheck


def cmd_derive(args):
    if args.depth < 0:
        raise UsageError("--depth must not be negative")
    premises = [dbdeps.parse_dependency(p) for p in args.premise]
    goal = dbdeps.parse_dependency(args.goal)
    found = dbdeps.derive(premises, goal, system=args.system, depth=args.depth)
    if found is None:
        _emit(args, {"verdict": "not-derivable", "depth": args.depth},
              ["not derivable within depth %d" % args.depth])
        return EXIT_UNSAT
    if not dbdeps.verify_derivation(found, premises):
        raise RuntimeError("derivation failed re-validation")
    _emit(args, {"verdict": "derivable", "derivation": found.lines()},
          found.lines())
    return EXIT_SAT


def cmd_dbcheck(args):
    relation = dbdeps.DBRelation.from_csv(args.relation)
    universe = _comma_vars(args.universe) if args.universe else None
    texts = list(args.dependency)
    if args.deps_file:
        with open(args.deps_file) as handle:
            texts.extend(line.strip() for line in handle
                         if line.strip() and not line.startswith("#"))
    deps = [dbdeps.parse_dependency(t) for t in texts]
    lines = []
    violations = []
    for dep in deps:
        witness = dbdeps.find_violation(relation, dep, universe)
        if witness is None:
            lines.append("holds: %s" % dep)
        else:
            pretty = " ".join("(%s)" % ",".join(w) for w in witness)
            lines.append("violated: %s  witness: %s" % (dep, pretty))
            violations.append({"dependency": str(dep),
                               "witness": [list(w) for w in witness]})
    _emit(args, {"verdict": "holds" if not violations else "violated",
                 "violations": violations}, lines)
    return EXIT_SAT if not violations else EXIT_UNSAT


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser():
    top = argparse.ArgumentParser(prog="teamlogic")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")

    def search(p, mode=True):
        """The flags of a subcommand that runs a budgeted search on models."""
        p.add_argument("--budget", type=int, default=10_000_000)
        if mode:
            p.add_argument("--mode", choices=("lax", "strict"), default="lax")
        p.add_argument("--allow-unit-domain", action="store_true")

    def structure(p):
        p.add_argument("--model")
        p.add_argument("--domain", help="comma-separated domain for a bare model")
        p.add_argument("--team")

    p = sub.add_parser("check", help="evaluate a formula on a team")
    common(p)
    search(p)
    structure(p)
    p.add_argument("formula")
    p.set_defaults(run=cmd_check)

    # The strict reading of a game is --deterministic.  Abbreviations are
    # off, or --mode would be read as --model.
    p = sub.add_parser("game", help="search for a uniform winning strategy",
                       allow_abbrev=False)
    common(p)
    search(p, mode=False)
    structure(p)
    p.add_argument("formula")
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--compile", action="store_true",
                   help="rewrite dep/indep/equi atoms into incl/excl first")
    p.set_defaults(run=cmd_game)

    p = sub.add_parser("translate", help="apply one translation rule")
    common(p)
    p.add_argument("--rule", required=True,
                   choices=("dep2exc", "exc2dep", "dep2indep", "inc2indep",
                            "equi2inc", "inc2equi", "indep2ie", "const-nf",
                            "const-collapse", "tc", "ie2eso", "snf2ie"))
    p.add_argument("formula")
    p.add_argument("--expand-deps", action="store_true")
    p.add_argument("--team-vars")
    p.add_argument("--avars")
    p.add_argument("--bvars")
    p.add_argument("--xvars")
    p.add_argument("--yvars")
    p.add_argument("--from-file", action="store_true",
                   help="treat the formula argument as a file path (snf2ie)")
    p.set_defaults(run=cmd_translate)

    p = sub.add_parser("equiv", help="exhaustive equivalence check within bounds")
    common(p)
    search(p)
    p.add_argument("formula")
    p.add_argument("formula2")
    p.add_argument("--domains", default="2..2", help="domain size range a..b")
    p.add_argument("--max-rows", type=int, default=3)
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("derive", help="derive a dependency from premises")
    common(p)
    p.add_argument("goal")
    p.add_argument("--premise", "-p", action="append", default=[])
    p.add_argument("--system", choices=("inc-only", "inc-exc"),
                   default="inc-exc")
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(run=cmd_derive)

    p = sub.add_parser("dbcheck", help="check dependencies on a CSV relation")
    common(p)
    p.add_argument("relation", help="CSV file with an attribute header row")
    p.add_argument("dependency", nargs="*")
    p.add_argument("--deps-file")
    p.add_argument("--universe", help="comma-separated universe for tgd/egd")
    p.set_defaults(run=cmd_dbcheck)

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, UsageError, ModelError, translate.TranslateError,
            dbdeps.DependencyError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded:
        print("budget_exceeded", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
