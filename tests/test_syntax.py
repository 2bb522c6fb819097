import pytest
from hypothesis import example, given, settings, strategies as st

from teamlogic.semantics import is_downward_closed, is_union_closed
from teamlogic.syntax import (
    And, App, DepAtom, EquiAtom, Equality, ExclAtom, Exists, Forall,
    MAX_NESTING, InclAtom, IndepAtom, Name, Or, ParseError, RelAtom,
    conjoin, disjoin, exists_block, forall_block, free_names,
    fresh_vars, is_first_order, negate_nnf, parse, render,
    subformula_instances, substitute, symbol_arities,
)
from teamlogic.translate import compile as compile_atoms, ie_to_eso

from oracles import ref_atom_kinds, ref_free_names


def test_parse_atoms():
    assert parse("dep(x, y)") == DepAtom((Name("x"), Name("y")))
    assert parse("incl(x ; y)") == InclAtom((Name("x"),), (Name("y"),))
    assert parse("excl(x,y ; z,w)") == ExclAtom(
        (Name("x"), Name("y")), (Name("z"), Name("w")))
    assert parse("equi(x ; y)") == EquiAtom((Name("x"),), (Name("y"),))
    assert parse("indep( ; x ; x)") == IndepAtom((), (Name("x"),), (Name("x"),))
    assert parse("x = y") == Equality(Name("x"), Name("y"))
    assert parse("x != y") == Equality(Name("x"), Name("y"), positive=False)
    assert parse("~R(x)") == RelAtom("R", (Name("x"),), positive=False)


def test_parse_precedence():
    phi = parse("x = y /\\ y = z \\/ z = x")
    assert isinstance(phi, Or)
    assert isinstance(phi.parts[0], And)
    phi = parse("x = y \\/ y = z \\/ z = x")
    assert isinstance(phi, Or) and len(phi.parts) == 3


def test_parse_quantifiers():
    phi = parse("exists x y . x = y")
    assert phi == Exists("x", Exists("y", Equality(Name("x"), Name("y"))))
    phi = parse("forall x . exists y . S(x) = y")
    assert isinstance(phi, Forall) and isinstance(phi.body, Exists)


def test_parse_function_terms():
    assert parse("S(S(x)) = y").left == App("S", (App("S", (Name("x"),)),))
    phi = parse("S(x) = y")
    assert phi.left == App("S", (Name("x"),))


def test_parse_errors():
    for bad in ("", "x =", "dep()", "incl(x)", "indep(x ; y)",
                "exists . x = y", "~dep(x)", "(x = y", "x = y)"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_nesting_limit_counts_bound_variables_and_parentheses():
    names = " ".join("x%d" % i for i in range(MAX_NESTING))
    inside = [
        "exists x . " * MAX_NESTING + "x = x",
        "exists %s . x0 = x0" % names,
        "(" * (MAX_NESTING - 1) + "R(x)" + ")" * (MAX_NESTING - 1),
        "exists x . " * (MAX_NESTING - 1) + "S(x) = x",
        "x = " + "S(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    ]
    for text in inside:
        parse(text)
    # Nesting closes again: siblings do not add up.
    parse(" /\\ ".join(["(" * MAX_NESTING + "x = x" + ")" * MAX_NESTING] * 3))
    for text in ("exists x . " * MAX_NESTING + "R(x)",
                 "exists %s x . x0 = x0" % names,
                 "(" * MAX_NESTING + "R(x)" + ")" * MAX_NESTING,
                 "x = " + "S(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)):
        with pytest.raises(ParseError, match="nested deeper than %d" % MAX_NESTING):
            parse(text)


def test_render_examples():
    for text in ("incl(x ; y) /\\ incl(y ; x)",
                 "indep( ; x ; x)",
                 "forall v . (v = y \\/ excl(x, v ; x, y))",
                 "exists v . (dep(v) /\\ (v = x \\/ R(x)))",
                 "forall a . exists b c . (a = b \\/ b != c)"):
        assert render(parse(text)) == text
    # A chain is one node, so brackets inside it are not kept.
    assert render(parse("x = y /\\ (v = x /\\ R(x))")) == \
        "x = y /\\ v = x /\\ R(x)"


def test_a_chain_is_one_node_whatever_its_bracketing():
    a, b, c = parse("x = y"), parse("incl(x ; y)"), parse("R(x)")
    assert And(And(a, b), c) == And(a, And(b, c)) == And(a, b, c)
    assert Or(Or(a, b), c) == Or(a, Or(b, c)) == Or(a, b, c)
    assert And(a, b, c).parts == (a, b, c)
    assert And(Or(a, b), c).parts == (Or(a, b), c)
    with pytest.raises(ValueError):
        And(a)


def test_long_chains_round_trip():
    for op in (" /\\ ", " \\/ "):
        text = "forall x . (%s)" % op.join(["x = x", "R(x)"] * 5_000)
        phi = parse(text)
        assert len(phi.body.parts) == 10_000
        assert render(phi) == text
        assert parse(render(phi)) == phi


def test_symbol_arities_reject_two_arities():
    assert symbol_arities(parse("R(x, y) /\\ S(x) = y")) == \
        ({"R": 2}, {"S": 1})
    with pytest.raises(ParseError):
        symbol_arities(parse("P(x) /\\ P(x, y)"))
    with pytest.raises(ParseError):
        symbol_arities(parse("f(x) = f(x, y)"))


def test_free_variables():
    phi = parse("exists x . (incl(y ; x) /\\ incl(z ; x))")
    assert free_names(phi) == {"y", "z"}


def test_fresh_vars_sequential_and_avoiding():
    assert fresh_vars(3, set()) == ["_v0", "_v1", "_v2"]
    assert fresh_vars(2, {"_v0", "x"}) == ["_v1", "_v2"]


def test_substitute_capture_check():
    phi = Exists("x", Equality(Name("x"), Name("y")))
    assert substitute(phi, {"y": Name("z")}) == \
        Exists("x", Equality(Name("x"), Name("z")))
    with pytest.raises(ValueError):
        substitute(phi, {"y": Name("x")})


def test_negate_nnf():
    phi = parse("forall x . (R(x) \\/ x = y)")
    neg = negate_nnf(phi)
    assert render(neg) == "exists x . (~R(x) /\\ x != y)"
    with pytest.raises(ValueError):
        negate_nnf(parse("dep(x)"))


def test_blocks_and_combinators():
    parts = [parse("x = y"), parse("y = z"), parse("z = x")]
    assert render(conjoin(parts)) == "x = y /\\ y = z /\\ z = x"
    assert render(disjoin(parts)) == "x = y \\/ y = z \\/ z = x"
    assert render(exists_block(["a", "b"], parts[0])) == "exists a b . x = y"
    assert render(forall_block(["a"], conjoin(parts[:2]))) == \
        "forall a . (x = y /\\ y = z)"


def test_subformula_instances_paths_distinguish_occurrences():
    atom = parse("x = y")
    phi = And(atom, atom)
    paths = [path for path, sub in subformula_instances(phi) if sub == atom]
    assert paths == [(0,), (1,)]


def test_is_first_order():
    assert is_first_order(parse("exists x . (R(x) \\/ x != y)"))
    assert not is_first_order(parse("R(x) /\\ incl(x ; y)"))


# --- round trip property ---------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "c0"])
_terms = st.recursive(
    _names.map(Name),
    lambda children: st.tuples(st.sampled_from(["f", "g"]),
                               st.lists(children, min_size=1, max_size=2))
    .map(lambda p: App(p[0], tuple(p[1]))),
    max_leaves=3)
_tuples = st.lists(_terms, min_size=1, max_size=2).map(tuple)


def _same_width(cls):
    return st.tuples(_tuples, _tuples).map(
        lambda p: cls(p[0], p[0] if len(p[0]) != len(p[1]) else p[1]))


_literals = st.one_of(
    st.tuples(_terms, _terms, st.booleans()).map(lambda p: Equality(*p)),
    st.tuples(st.sampled_from(["R", "Q"]), _tuples, st.booleans())
    .map(lambda p: RelAtom(*p)),
)
_atoms = st.one_of(
    _literals,
    _tuples.map(DepAtom),
    _same_width(InclAtom),
    _same_width(ExclAtom),
    _same_width(EquiAtom),
    st.tuples(_tuples, _tuples, _tuples).map(lambda p: IndepAtom(*p)),
)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            st.tuples(_names, children).map(lambda p: Exists(*p)),
            st.tuples(_names, children).map(lambda p: Forall(*p)),
        ),
        max_leaves=6)


_formulas = _trees(_atoms)


@given(_formulas)
def test_parse_render_round_trip(phi):
    assert parse(render(phi)) == phi


# --- construction-time facts -----------------------------------------------

_FO = {RelAtom, Equality}


def _assert_facts(phi):
    for _path, sub in subformula_instances(phi):
        kinds = ref_atom_kinds(sub)
        assert sub.free == free_names(sub) == ref_free_names(sub)
        assert sub.kinds == kinds
        assert is_first_order(sub) == (kinds <= _FO)
        assert is_union_closed(sub) == (kinds <= _FO | {InclAtom, EquiAtom})
        assert is_downward_closed(sub) == (kinds <= _FO | {DepAtom, ExclAtom})


_SHADOWED = parse("R(x) /\\ exists x . x = y")


@settings(deadline=None)
@given(_formulas, _trees(_literals),
       _trees(st.one_of(_literals, _same_width(InclAtom), _same_width(ExclAtom))))
@example(_SHADOWED, _SHADOWED, _SHADOWED)
def test_node_facts_match_the_recursive_definitions(phi, fo, ie):
    built = [
        phi, fo, ie, parse(render(phi)), negate_nnf(fo),
        substitute(phi, {"x": Name("_w"), "c0": App("f", (Name("_w"),))}),
        compile_atoms(phi, {"incl", "excl"}),
        ie_to_eso(ie, sorted(ie.free)).matrix,
    ]
    for out in built:
        _assert_facts(out)
    for a, b in ((phi, parse(render(phi))),
                 (phi, substitute(phi, {"x": Name("x")})),
                 (fo, negate_nnf(negate_nnf(fo)))):
        assert a == b and hash(a) == hash(b)
