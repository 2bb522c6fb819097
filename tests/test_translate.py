import gc
import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from teamlogic.model import Model, Team, all_teams
from teamlogic.semantics import (
    Budget, BudgetExceeded, Mode, satisfies, satisfies_sentence,
)
from teamlogic.syntax import (
    And, App, DepAtom, Equality, ExclAtom, Exists, Forall, InclAtom, IndepAtom,
    Name, Or, RelAtom, conjoin, exists_block, flatten_and, forall_block,
    free_names, parse, render, subformula_instances,
)
from teamlogic import translate
from teamlogic.translate import (
    ESOFormula, SOSymbol, TranslateError, compile as compile_atoms,
    const_normal_form, const_pushout, const_sentence_collapse, dep_to_exc,
    dep_to_indep, equi_to_inc, eval_eso, exc_to_dep, ie_to_eso, inc_to_equi,
    inc_to_indep, indep_to_ie, parse_skolemnf, skolemnf_to_eso, skolemnf_to_ie,
    tc_sentence,
)

from budgets import within
from oracles import reachable
from ref_eso import ref_eval_eso

DOM = ("0", "1")
M2 = Model(DOM)


def t(name):
    return Name(name)


def assert_equivalent(phi, psi, variables, max_rows=3, model=M2,
                      mode=Mode.LAX, nonempty_only=False):
    for team in all_teams(variables, model.domain, max_rows=max_rows):
        if nonempty_only and not team.rows:
            continue
        a = satisfies(model, team, phi, mode).is_sat
        b = satisfies(model, team, psi, mode).is_sat
        assert a == b, (render(phi), render(psi), team, a, b)


# --- constancy rewrites ----------------------------------------------------


def test_const_pushout_displays():
    assert render(const_pushout(parse("dep(x) /\\ R(x)"))) == \
        "exists _v0 . (dep(_v0) /\\ _v0 = x /\\ R(x))"
    assert render(const_pushout(parse("dep(x)"))) == \
        "exists _v0 . (dep(_v0) /\\ _v0 = x)"
    with pytest.raises(TranslateError):
        const_pushout(parse("R(x)"))


def test_const_pushout_preserves_verdicts():
    m = Model(DOM, relations={"R": [("1",)]})
    phi = parse("dep(x) /\\ R(x)")
    assert_equivalent(phi, const_pushout(phi), ("x",), model=m)


def test_const_normal_form_display_and_equivalence():
    phi = parse("dep(x) /\\ dep(y)")
    nf = const_normal_form(phi)
    assert render(nf) == \
        "exists _v0 _v1 . (dep(_v0) /\\ dep(_v1) /\\ _v0 = x /\\ _v1 = y)"
    assert_equivalent(phi, nf, ("x", "y"))
    fo = parse("x = y")
    assert const_normal_form(fo) == fo
    with pytest.raises(TranslateError):
        const_normal_form(parse("incl(x ; y)"))
    with pytest.raises(TranslateError):
        const_normal_form(parse("dep(x, y)"))


def test_const_sentence_collapse():
    assert render(const_sentence_collapse(parse(
        "exists z . (dep(z) /\\ R(z))"))) == "exists z . R(z)"
    fo = parse("exists z . R(z)")
    assert const_sentence_collapse(fo) == fo
    m = Model(("0", "1", "2"), relations={"R": [("2",)]})
    phi = parse("exists z . (dep(z) /\\ R(z))")
    assert satisfies_sentence(m, phi).is_sat == \
        satisfies_sentence(m, const_sentence_collapse(phi)).is_sat


# --- atom translations: displayed forms ------------------------------------


def test_dep_to_indep_display():
    assert render(dep_to_indep((t("x"), t("y")))) == "indep(x ; y ; y)"
    assert render(dep_to_indep((t("x"),))) == "indep( ; x ; x)"


def test_dep_to_exc_display():
    assert render(dep_to_exc((t("x"), t("y")))) == \
        "forall _v0 . (_v0 = y \\/ excl(x, _v0 ; x, y))"
    assert render(dep_to_exc((t("x"),))) == \
        "forall _v0 . (_v0 = x \\/ excl(_v0 ; x))"


def test_exc_to_dep_display():
    out = exc_to_dep((t("x"),), (t("y"),))
    # the renderer drops redundant parentheses inside the disjunction
    assert render(out) == ("forall _v0 . exists _v1 _v2 . "
                           "(dep(_v0, _v1) /\\ dep(_v0, _v2) /\\ "
                           "(_v1 = _v2 /\\ _v0 != x \\/ "
                           "_v1 != _v2 /\\ _v0 != y))")
    assert parse(render(out)) == out


def test_equi_inc_displays():
    assert render(equi_to_inc((t("x"),), (t("y"),))) == \
        "incl(x ; y) /\\ incl(y ; x)"
    assert render(inc_to_equi((t("x"),), (t("y"),))) == \
        ("forall _v0 _v1 . exists _v2 . "
         "(equi(y ; _v2) /\\ (_v0 != _v1 \\/ _v2 = x))")


def test_translations_use_fresh_reserved_names_only():
    for out, free in (
            (dep_to_exc((t("x"), t("y"))), {"x", "y"}),
            (exc_to_dep((t("x"),), (t("y"),)), {"x", "y"}),
            (inc_to_equi((t("x"),), (t("y"),)), {"x", "y"}),
            (inc_to_indep((t("x"),), (t("y"),)), {"x", "y"}),
            (indep_to_ie((t("x"),), (t("y"),), (t("z"),)), {"x", "y", "z"})):
        assert free_names(out) == free


# --- atom translations: verdict equality -----------------------------------


def test_dep_translations_preserve_verdicts():
    atom = DepAtom((t("x"), t("y")))
    assert_equivalent(atom, dep_to_indep(atom.args), ("x", "y"), max_rows=4)
    for mode in (Mode.LAX, Mode.STRICT):
        assert_equivalent(atom, dep_to_exc(atom.args), ("x", "y"),
                          max_rows=4, mode=mode)


def test_exc_to_dep_preserves_verdicts():
    atom = ExclAtom((t("x"),), (t("y"),))
    for mode in (Mode.LAX, Mode.STRICT):
        assert_equivalent(atom, exc_to_dep(atom.left, atom.right), ("x", "y"),
                          max_rows=3, mode=mode)


def test_dep_exc_translations_preserve_verdicts_on_three_elements():
    # On two elements the witness searches hardly branch; on three their
    # dep and excl pruners cut value sets and split picks.
    m3 = Model(("0", "1", "2"))
    dep = DepAtom((t("x"), t("y")))
    excl = ExclAtom((t("x"),), (t("y"),))
    for mode in (Mode.LAX, Mode.STRICT):
        assert_equivalent(dep, dep_to_exc(dep.args), ("x", "y"),
                          model=m3, mode=mode)
        assert_equivalent(excl, exc_to_dep(excl.left, excl.right), ("x", "y"),
                          model=m3, mode=mode)


def test_equi_inc_round_trips_preserve_verdicts():
    equi = parse("equi(x ; y)")
    incl = parse("incl(x ; y)")
    assert_equivalent(equi, equi_to_inc((t("x"),), (t("y"),)), ("x", "y"),
                      max_rows=4)
    assert_equivalent(incl, inc_to_equi((t("x"),), (t("y"),)), ("x", "y"),
                      max_rows=4)


def test_inc_to_indep_preserves_verdicts():
    incl = parse("incl(x ; y)")
    assert_equivalent(incl, inc_to_indep((t("x"),), (t("y"),)), ("x", "y"),
                      max_rows=2)


def test_indep_to_ie_preserves_verdicts():
    atom = IndepAtom((t("x"),), (t("y"),), (t("z"),))
    out = indep_to_ie(atom.cond, atom.left, atom.right)
    assert_equivalent(atom, out, ("x", "y", "z"), max_rows=2)


def test_indep_to_ie_expanded_once_at_minimal_size():
    atom = IndepAtom((), (t("x"),), (t("y"),))
    out = compile_atoms(indep_to_ie(atom.cond, atom.left, atom.right),
                        frozenset({"incl", "excl"}))
    assert not any(isinstance(sub, DepAtom)
                   for _p, sub in subformula_instances(out))
    assert_equivalent(atom, out, ("x", "y"), max_rows=1)


# --- compile ---------------------------------------------------------------


def test_compile_rewrites_out_of_target_atoms():
    phi = parse("dep(x, y) /\\ incl(x ; y)")
    out = compile_atoms(phi, frozenset({"incl", "excl"}))
    assert not any(isinstance(sub, DepAtom)
                   for _p, sub in subformula_instances(out))
    assert_equivalent(phi, out, ("x", "y"), max_rows=2)


def test_compile_rejects_impossible_paths():
    with pytest.raises(TranslateError):
        compile_atoms(parse("incl(x ; y)"), frozenset({"dep", "excl"}))


def test_compile_leaves_fo_alone():
    phi = parse("exists z . z = x")
    assert compile_atoms(phi, frozenset({"incl"})) == phi


def test_compile_rewrites_many_atoms_in_one_pass():
    # One rewrite per atom, each drawing its own fresh variable, with no
    # cap on the number of atoms.
    phi = conjoin([parse("dep(x, y)")] * 400)
    start = time.perf_counter()
    out = compile_atoms(phi, frozenset({"incl", "excl"}))
    assert time.perf_counter() - start < 1.0
    conjuncts = flatten_and(out)
    assert len(conjuncts) == 400
    assert [c.var for c in conjuncts] == ["_v%d" % i for i in range(400)]
    assert render(conjuncts[-1]) == \
        "forall _v399 . (_v399 = y \\/ excl(x, _v399 ; x, y))"


def test_compile_rewrites_each_translation_before_moving_on():
    # excl -> dep -> indep and equi -> incl -> indep: each chain runs to
    # the target before the next atom draws its fresh names.
    out = compile_atoms(parse("excl(x ; y) /\\ equi(x ; y)"),
                        frozenset({"indep"}))
    assert render(out) == (
        "forall _v0 . exists _v1 _v2 . (indep(_v0 ; _v1 ; _v1) /\\ "
        "indep(_v0 ; _v2 ; _v2) /\\ (_v1 = _v2 /\\ _v0 != x \\/ "
        "_v1 != _v2 /\\ _v0 != y)) /\\ forall _v3 _v4 _v5 . "
        "(_v5 != x /\\ _v5 != y \\/ _v3 != _v4 /\\ _v5 != y \\/ "
        "(_v3 = _v4 \\/ _v5 = y) /\\ indep( ; _v5 ; _v3, _v4)) /\\ "
        "forall _v6 _v7 _v8 . (_v8 != y /\\ _v8 != x \\/ "
        "_v6 != _v7 /\\ _v8 != x \\/ (_v6 = _v7 \\/ _v8 = x) /\\ "
        "indep( ; _v8 ; _v6, _v7))")


def test_compile_output_is_pinned_on_a_three_atom_chain():
    # Nested rewrites: indep -> {incl, excl} emits dep atoms, each drawing
    # its own name before the chain's last atom draws.
    out = compile_atoms(parse("dep(x, y) /\\ indep(x ; y ; y) /\\ dep(y, x)"),
                        frozenset({"incl", "excl"}))
    assert render(out) == (
        "forall _v0 . (_v0 = y \\/ excl(x, _v0 ; x, y)) /\\ "
        "forall _v1 _v2 _v3 . exists _v4 _v5 _v6 _v7 . ("
        "forall _v8 . (_v8 = _v4 \\/ excl(_v1, _v2, _v3, _v8 ; _v1, _v2, _v3, _v4)) /\\ "
        "forall _v9 . (_v9 = _v5 \\/ excl(_v1, _v2, _v3, _v9 ; _v1, _v2, _v3, _v5)) /\\ "
        "forall _v10 . (_v10 = _v6 \\/ excl(_v1, _v2, _v3, _v10 ; _v1, _v2, _v3, _v6)) /\\ "
        "forall _v11 . (_v11 = _v7 \\/ excl(_v1, _v2, _v3, _v11 ; _v1, _v2, _v3, _v7)) /\\ "
        "(_v4 != _v5 /\\ excl(_v1, _v2 ; x, y) \\/ "
        "_v4 = _v5 /\\ _v6 != _v7 /\\ excl(_v1, _v3 ; x, y) \\/ "
        "_v4 = _v5 /\\ _v6 = _v7 /\\ incl(_v1, _v2, _v3 ; x, y, y))) /\\ "
        "forall _v12 . (_v12 = x \\/ excl(y, _v12 ; y, x))")


@pytest.mark.parametrize("atoms", [1000, 2000])
def test_compile_examines_each_candidate_name_once(monkeypatch, atoms):
    # One iterator of fresh names serves the whole chain, and it looks at
    # each candidate name once, so compile is linear in the atom count.
    # The chain names _v1 itself, which the iterator must pass over.
    made, examined = [], []

    def counting_names(avoid):
        made.append(avoid)
        for name in map("_v%d".__mod__, itertools.count()):
            examined.append(name)
            if name not in avoid:
                yield name

    monkeypatch.setattr(translate, "fresh_names", counting_names)
    phi = conjoin([parse("dep(x, _v1)")] * atoms)
    out = compile_atoms(phi, frozenset({"incl", "excl"}))
    assert len(made) == 1 and len(examined) == atoms + 1
    assert [c.var for c in flatten_and(out)][:3] == ["_v0", "_v2", "_v3"]


def test_zero_width_atoms_have_no_tuple_translation():
    for rewrite in (exc_to_dep, inc_to_equi, inc_to_indep):
        with pytest.raises(TranslateError):
            rewrite((), ())
    with pytest.raises(TranslateError):
        compile_atoms(parse("incl( ; )"), frozenset({"indep"}))


# --- transitive closure sentences ------------------------------------------


def graph_model(nodes, edges, a, b):
    return Model([str(n) for n in nodes],
                 constants={"ca": str(a), "cb": str(b)},
                 relations={"E": [(str(u), str(v)) for u, v in edges]})


@pytest.mark.parametrize("avars, bvars, xvars, yvars", [
    (("a", "b"), ("c",), ("x",), ("y",)),
    (("a",), ("c",), ("x", "w"), ("y",)),
    ((), (), (), ()),
])
def test_tc_sentence_rejects_mismatched_widths(avars, bvars, xvars, yvars):
    with pytest.raises(TranslateError):
        tc_sentence(parse("E(x, y)"), avars, bvars, xvars, yvars)


@pytest.mark.parametrize("xvars, yvars", [
    (("x",), ("x",)), (("x", "x"), ("y", "w")), (("x", "w"), ("y", "y")),
    (("x", "w"), ("w", "y")),
])
def test_tc_sentence_rejects_repeated_variables(xvars, yvars):
    with pytest.raises(TranslateError):
        tc_sentence(parse("E(x, w) \\/ E(y, w)"), ("a",) * len(xvars),
                    ("b",) * len(xvars), xvars, yvars)


def test_tc_sentence_matches_reachability():
    psi = parse("E(p, q)")
    sentence = tc_sentence(psi, ("ca",), ("cb",), ("p",), ("q",))
    cases = [
        ([0, 1, 2], [(0, 1), (1, 2), (2, 0)], 0, 0),   # 3-cycle, reaches self
        ([0, 1, 2], [(0, 1)], 0, 2),                    # no path
        ([0, 1, 2], [(0, 1), (1, 2)], 0, 2),            # chain
        ([0, 1], [], 0, 1),
    ]
    for nodes, edges, a, b in cases:
        m = graph_model(nodes, edges, a, b)
        str_edges = {(str(u), str(v)) for u, v in edges}
        in_tc = str(b) == str(a) or str(b) in reachable(
            [str(n) for n in nodes], str_edges, str(a))
        assert satisfies_sentence(m, sentence).is_sat == (not in_tc), (edges, a, b)


def test_tc_sentence_matches_reachability_on_saturating_function_edge():
    # q = S(S(p)) over S(i) = min(i+1, n-1): a function-term edge whose
    # last element is a fixed point, so the second step may saturate.
    psi = parse("q = S(S(p))")
    sentence = tc_sentence(psi, ("ca",), ("cb",), ("p",), ("q",))
    for size in range(2, 7):
        nodes = [str(i) for i in range(size)]
        succ = [min(i + 1, size - 1) for i in range(size)]
        table = {(str(i),): str(succ[i]) for i in range(size)}
        edges = {(str(i), str(succ[succ[i]])) for i in range(size)}
        # The saturated step reaches the last element from the first on
        # every size, whatever its parity.
        assert str(size - 1) in reachable(nodes, edges, "0")
        for a, b in itertools.product(nodes, nodes):
            m = Model(nodes, constants={"ca": a, "cb": b},
                      functions={"S": table})
            in_tc = b == a or b in reachable(nodes, edges, a)
            assert satisfies_sentence(m, sentence).is_sat == (not in_tc), (
                size, a, b)


def test_odd_cardinality_sentence_is_the_displayed_shape():
    sentence = translate.odd_cardinality_sentence()
    text = render(sentence)
    assert text.startswith("exists ")
    assert "incl(0 ; " in text and "incl(" in text
    assert "S(S(" in text


# --- ESO bridge ------------------------------------------------------------


def test_eval_eso_universal_free_relation():
    eso = ESOFormula("A", 1, [], parse("forall x . A(x)"))
    assert eval_eso(M2, eso, {("0",), ("1",)})
    assert not eval_eso(M2, eso, {("0",)})


def test_eval_eso_complement_witness():
    matrix = parse("forall x . ((A(x) /\\ ~B(x)) \\/ (~A(x) /\\ B(x)))")
    eso = ESOFormula("A", 1, [SOSymbol("relation", "B", 1)], matrix)
    for a in ([], [("0",)], [("0",), ("1",)]):
        assert eval_eso(M2, eso, set(a))


def test_eval_eso_function_enumeration():
    # exactly the 2^2 unary functions are candidates; one satisfies f(x) != x
    matrix = parse("forall x . f(x) != x")
    eso = ESOFormula("A", 1, [SOSymbol("function", "f", 1)], matrix)
    assert eval_eso(M2, eso, set())
    matrix = parse("forall x . (f(x) != x /\\ f(x) != S(x))")
    m = Model(DOM, functions={"S": {("0",): "1", ("1",): "0"}})
    eso = ESOFormula("A", 1, [SOSymbol("function", "f", 1)], matrix)
    assert not eval_eso(m, eso, set())


ESO_PROBE_BUDGET = 60   # as in perfbench/workloads.py


def test_eval_eso_spends_a_fixed_number_of_nodes():
    # The benchmark's eso probe shapes: no disjunct holds where z = x, so
    # both split relations are empty at the row with z = x, its cover
    # clause is empty, and the root refutes the sentence without a
    # decision.
    m3 = Model(("0", "1", "2"))
    teams = list(itertools.combinations(
        itertools.product(m3.domain, repeat=2), 2))
    for kind, left, right in itertools.product(("incl", "excl"), "xy", "yz"):
        text = "forall z . (x != z \\/ z != x /\\ %s(%s ; %s))" % (kind, left,
                                                                 right)
        eso = ie_to_eso(parse(text), ("x", "y"))
        for team in teams:
            budget = Budget(ESO_PROBE_BUDGET)
            assert not eval_eso(m3, eso, set(team), budget)
            assert budget.nodes == 1, (text, team)
    # A satisfiable sentence pins the decision order: each node is one
    # value tried, relation booleans false first, in prefix order.
    eso = ie_to_eso(parse("forall z . (excl(z ; x) \\/ incl(z ; y))"),
                    ("x", "y"))
    relation = {("0", "1"), ("1", "2"), ("2", "0")}
    assert eval_eso(m3, eso, relation, Budget(7))
    with pytest.raises(BudgetExceeded):
        eval_eso(m3, eso, relation, Budget(6))


# Random ESO sentences over a model relation R, the free relation A and
# up to three prefix symbols, each bounded or not.  Quantifier blocks
# guarded by a prefix relation, ~W(vs) under forall and W(vs) under
# exists, some under a further quantifier, are drawn on purpose.
_ESO_VARS = ("p", "q", "r")


def _eso_terms(functions, depth=2):
    names = st.sampled_from([Name(v) for v in _ESO_VARS])
    if depth == 0 or not functions:
        return names
    inner = _eso_terms(functions, depth - 1)
    return st.one_of(names, st.sampled_from(functions).flatmap(
        lambda f: st.tuples(*[inner] * f[1]).map(
            lambda args, name=f[0]: App(name, args))))


def _eso_formulas(relations, functions):
    terms = _eso_terms(functions)
    atoms = st.one_of(
        st.sampled_from(relations).flatmap(
            lambda r: st.tuples(st.tuples(*[terms] * r[1]), st.booleans()).map(
                lambda p, name=r[0]: RelAtom(name, *p))),
        st.tuples(terms, terms, st.booleans()).map(lambda p: Equality(*p)))
    ranges = [r for r in relations if r[1] <= len(_ESO_VARS) - 1]

    def guarded(children):
        def block(p):
            (name, arity), universal, lift, body = p
            vs = _ESO_VARS[:arity]
            if lift and arity:
                vs = vs[1:]
                guard = Forall if universal else Exists
                atom = guard(_ESO_VARS[-1], RelAtom(
                    name, tuple(map(Name, (_ESO_VARS[-1],) + vs)), not universal))
            else:
                atom = RelAtom(name, tuple(map(Name, vs)), not universal)
            if universal:
                return forall_block(vs or ("p",), Or(atom, body))
            return exists_block(vs or ("p",), And(atom, body))
        return st.tuples(st.sampled_from(ranges), st.booleans(), st.booleans(),
                         children).map(block)

    return st.recursive(atoms, lambda children: st.one_of(
        st.tuples(st.sampled_from((And, Or)), children, children).map(
            lambda p: p[0](p[1], p[2])),
        st.tuples(st.sampled_from((Exists, Forall)), st.sampled_from(_ESO_VARS),
                  children).map(lambda p: p[0](p[1], p[2])),
        guarded(children)), max_leaves=6)


def _closed(phi, keep=()):
    return forall_block(sorted(phi.free - set(keep)), phi)


@st.composite
def _eso_instances(draw):
    dom = tuple(str(i) for i in range(draw(st.sampled_from((2, 3)))))
    widest = 2 if len(dom) == 2 else 1
    arity = st.integers(0, widest)
    r_arity = draw(arity)
    relations = [("A", 1), ("R", r_arity)]
    functions = []
    prefix = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            sym = SOSymbol("function", "f%d" % i, draw(st.integers(0, 1)))
            functions.append((sym.name, sym.arity))
        else:
            k = draw(arity)
            bound = None
            if draw(st.booleans()):
                bvars = _ESO_VARS[:k]
                bound = (bvars, _closed(draw(_eso_formulas(relations, functions)),
                                        bvars))
            sym = SOSymbol("relation", "W%d" % i, k, bound)
            relations.append((sym.name, k))
        prefix.append(sym)
    matrix = _closed(draw(_eso_formulas(relations, functions)))
    rows = st.sets(st.tuples(*[st.sampled_from(dom)] * r_arity))
    m = Model(dom, relations={"R": draw(rows)})
    a = draw(st.sets(st.tuples(st.sampled_from(dom))))
    return m, ESOFormula("A", 1, prefix, matrix), a


@settings(max_examples=300, deadline=None)
@given(_eso_instances())
def test_eval_eso_agrees_with_the_enumerating_search_on_any_sentence(instance):
    m, eso, a = instance
    what = "%s over %s with A = %s" % (translate.format_eso(eso),
                                      ",".join(m.domain), sorted(a))
    assert within(100_000, what, eval_eso, m, eso, a) == ref_eval_eso(m, eso, a)


def _team_relation(team, variables):
    return {row.values_for(variables) for row in team.rows}


def test_ie_to_eso_matches_lax_satisfaction():
    vs = ("x", "y")
    for text in ("incl(x ; y)", "x = y", "excl(x ; y)",
                 "incl(x ; y) \\/ incl(y ; x)",
                 "exists z . (incl(y ; z) /\\ incl(x ; z))",
                 "forall z . (z = y \\/ excl(x, z ; x, y))",
                 "excl( ; )", "incl( ; )"):
        phi = parse(text)
        eso = ie_to_eso(phi, vs)
        for team in all_teams(vs, DOM, max_rows=2):
            want = satisfies(M2, team, phi, Mode.LAX).is_sat
            got = eval_eso(M2, eso, _team_relation(team, vs))
            assert got == want, (text, team)


def test_ie_to_eso_gives_each_disjunct_one_subteam():
    # A k-part disjunction is one split of the team into k parts: k
    # bounded relations and one constraint that they cover the team.
    vs = ("x", "y")
    phi = parse("incl(x ; y) \\/ excl(x ; y) \\/ x = y")
    eso = ie_to_eso(phi, vs)
    assert [(sym.name, sym.bound) for sym in eso.prefix] == [
        (name, (vs, parse("A(x, y)"))) for name in ("W1", "W2", "W3")]
    assert render(flatten_and(eso.matrix)[0]) == \
        "forall x y . (~A(x, y) \\/ W1(x, y) \\/ W2(x, y) \\/ W3(x, y))"
    for team in all_teams(vs, DOM, max_rows=3):
        a = _team_relation(team, vs)
        got = eval_eso(M2, eso, a)
        assert got == ref_eval_eso(M2, eso, a), team
        assert got == satisfies(M2, team, phi, Mode.LAX).is_sat, team


_vars = st.sampled_from(("x", "y", "z"))
_var_pairs = st.tuples(_vars.map(Name), _vars.map(Name))
_nested = st.recursive(
    st.one_of(
        st.tuples(_var_pairs, st.booleans()).map(
            lambda p: Equality(*p[0], p[1])),
        _var_pairs.map(lambda p: InclAtom((p[0],), (p[1],))),
        _var_pairs.map(lambda p: ExclAtom((p[0],), (p[1],))),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from((And, Or)), children, children).map(
            lambda p: p[0](p[1], p[2])),
        st.tuples(st.sampled_from((Exists, Forall)), _vars, children).map(
            lambda p: p[0](p[1], p[2])),
    ),
    max_leaves=8)
_WIDE = compile_atoms(parse(
    "forall c0 x . (indep(y, f(z, z) ; y ; g(y, x), f(y, z)) \\/ "
    "indep(g(g(y, z)), f(c0) ; g(c0, z), f(x) ; g(y, y), f(y, y)))"),
    {"incl", "excl"})


def _cover_sides(constraint, subteams):
    """The W atoms of forall vs . (~mu \\/ W1 \\/ ... \\/ Wk), else None."""
    body = constraint
    while isinstance(body, Forall):
        body = body.body
    if not isinstance(body, Or):
        return None
    sides = body.parts[1:]
    if all(isinstance(w, RelAtom) and w.positive and w.name in subteams
           for w in sides):
        return sides
    return None


@settings(deadline=None)
@given(_nested)
@example(_WIDE)
@example(parse("exists z . (incl(x ; z) \\/ (forall x . (x = z \\/ excl(y ; x)) "
               "\\/ exists y . (incl(y ; x) \\/ excl(z ; y))))"))
def test_ie_to_eso_names_each_team_by_one_atom(phi):
    # A membership formula copied into every constraint would grow by a
    # conjunct at each disjunction and existential on the way down.  The
    # cover constraint of a k-part disjunction reads its team and its k
    # subteams, one constraint per disjunction.
    eso = ie_to_eso(phi, sorted(phi.free))
    subteams = {sym.name for sym in eso.prefix}
    teams = subteams | {eso.free_relation}
    covers = []
    for c in flatten_and(eso.matrix):
        atoms = [a for _path, a in subformula_instances(c)
                 if isinstance(a, RelAtom) and a.name in teams]
        sides = _cover_sides(c, subteams)
        if sides is None:
            assert len(atoms) <= 3, render(c)
        else:
            assert len(atoms) == len(sides) + 1, render(c)
            covers.append(len(sides))
    assert sorted(covers) == sorted(
        len(sub.parts) for _path, sub in subformula_instances(phi)
        if isinstance(sub, Or))


def test_ie_to_eso_leaves_no_reference_cycle():
    # Its nested helper refers to itself.  Left as a cycle, it kept the
    # prefix, the constraints and the sentence's nodes alive until the
    # cycle collector ran: 188 objects for this sentence.
    phi = parse("forall z . (incl(x ; z) \\/ x != z /\\ excl(y ; z)) \\/ x = y")
    gc.collect()
    gc.disable()
    try:
        ie_to_eso(phi, ("x", "y"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_eso_leaves_the_model_alone(monkeypatch):
    m = Model(DOM, functions={"S": {("0",): "1", ("1",): "0"}},
              relations={"R": [("0",)]})
    relations = dict(m.relations)
    functions = {name: dict(table) for name, table in m.functions.items()}
    prefix = [SOSymbol("relation", "B", 1), SOSymbol("function", "f", 1)]
    copies = []
    copy = Model._copy

    def counted(self):
        copies.append(self)
        return copy(self)

    monkeypatch.setattr(Model, "_copy", counted)
    for text, held in (("forall x . ((A(x) \\/ B(x)) /\\ f(x) = S(x))", True),
                       ("forall x . (B(x) /\\ ~R(x) /\\ f(x) = x)", False)):
        copies.clear()
        assert eval_eso(m, ESOFormula("A", 1, prefix, parse(text)),
                        {("0",)}) == held
        assert len(copies) == 1
        assert m.relations == relations and m.functions == functions


def test_ie_to_eso_rejects_untranslated_atoms_and_stray_vars():
    with pytest.raises(TranslateError):
        ie_to_eso(parse("dep(x, y)"), ("x", "y"))
    with pytest.raises(TranslateError):
        ie_to_eso(parse("incl(x ; w)"), ("x", "y"))
    with pytest.raises(TranslateError):
        ie_to_eso(parse("incl(x ; x)"), ("x", "x"))


# --- Skolem normal forms ---------------------------------------------------


def test_parse_skolemnf(fixtures_dir):
    nf = parse_skolemnf((fixtures_dir / "thm-6-skolemnf-equalizer.txt")
                        .read_text())
    assert nf.a_arity == 1
    assert nf.xvars == ("u",) and nf.yvars == ()
    assert [name for name, _w in nf.functions] == ["f1", "f2"]


@pytest.mark.parametrize("text", [
    "A/1 ; x: u ; y: ; f1: u ; f2: u ; psi: exists q . f1(u) = q",
    "A/1 ; x: u ; y: w ; f1: u ; f2: u ; g: w ; psi: f1(u) = g(u)",
    "A/1 ; x: u ; y: ; f1: u ; f2: u ; psi: f1(f2(u)) = u",
    "A/1 ; x: u ; y: ; f1: u ; f2: u ; psi: f1(u) = f2(u) ; extra",
    "A/1 ; x: u ; y: ; f1: u ; f2: u ; f1: u ; psi: f1(u) = f2(u)",
    "A/1 ; x: u ; y: u ; f1: u ; f2: u ; psi: f1(u) = f2(u)",
], ids=["quantified-psi", "wrong-arguments", "nested", "no-key",
        "repeated-function", "shared-variable"])
def test_parse_skolemnf_rejects_malformed_forms(text):
    with pytest.raises(TranslateError):
        parse_skolemnf(text)


def test_skolemnf_to_ie_matches_phi_star(fixtures_dir):
    for name in ("thm-6-skolemnf-trivial.txt", "thm-6-skolemnf-equalizer.txt"):
        nf = parse_skolemnf((fixtures_dir / name).read_text())
        ie = skolemnf_to_ie(nf, ("v",))
        eso = skolemnf_to_eso(nf)
        for team in all_teams(("v",), DOM):
            if not team.rows:
                continue
            want = eval_eso(M2, eso, _team_relation(team, ("v",)))
            got = satisfies(M2, team, ie, Mode.LAX).is_sat
            assert got == want, (name, team)


def test_skolemnf_equalizer_fixture_semantics(fixtures_dir):
    # the equalizer normal form holds exactly when the team covers the domain
    nf = parse_skolemnf((fixtures_dir / "thm-6-skolemnf-equalizer.txt")
                        .read_text())
    ie = skolemnf_to_ie(nf, ("v",))
    full = Team.from_tuples(("v",), [("0",), ("1",)])
    half = Team.from_tuples(("v",), [("0",)])
    assert satisfies(M2, full, ie).is_sat
    assert not satisfies(M2, half, ie).is_sat
