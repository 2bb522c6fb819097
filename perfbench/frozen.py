"""Inputs frozen as text, so that a change to the program cannot change them.

The translated formulas are the output of teamlogic.translate at the
commit that introduced this benchmark (dep_to_indep, dep_to_exc, ...
applied to the source atom next to each one, and tc_sentence for the
edge formula E(p, q) from constant ca avoiding constant cb).  Each
known answer comes from the source atom, never from these texts.
"""

# rule -> (source atom, translated formula)
TRANSLATIONS = {
    'dep_to_indep': ('dep(x, y)',
        'indep(x ; y ; y)'),
    'dep_to_exc': ('dep(x, y)',
        'forall _v0 . (_v0 = y \\/ excl(x, _v0 ; x, y))'),
    'exc_to_dep': ('excl(x ; y)',
        'forall _v0 . exists _v1 _v2 . (dep(_v0, _v1) /\\ dep(_v0, _v2) /\\ (_v1 = _v2 /\\ _v0 != x \\/ _v1 != _v2 /\\ _v0 != y))'),
    'equi_to_inc': ('equi(x ; y)',
        'incl(x ; y) /\\ incl(y ; x)'),
    'inc_to_equi': ('incl(x ; y)',
        'forall _v0 _v1 . exists _v2 . (equi(y ; _v2) /\\ (_v0 != _v1 \\/ _v2 = x))'),
    'inc_to_indep': ('incl(x ; y)',
        'forall _v0 _v1 _v2 . (_v2 != x /\\ _v2 != y \\/ _v0 != _v1 /\\ _v2 != y \\/ (_v0 = _v1 \\/ _v2 = y) /\\ indep( ; _v2 ; _v0, _v1))'),
    'indep_to_ie': ('indep(z ; x ; y)',
        'forall _v0 _v1 _v2 . exists _v3 _v4 _v5 _v6 . (dep(_v0, _v1, _v2, _v3) /\\ dep(_v0, _v1, _v2, _v4) /\\ dep(_v0, _v1, _v2, _v5) /\\ dep(_v0, _v1, _v2, _v6) /\\ (_v3 != _v4 /\\ excl(_v0, _v1 ; z, x) \\/ _v3 = _v4 /\\ _v5 != _v6 /\\ excl(_v0, _v2 ; z, y) \\/ _v3 = _v4 /\\ _v5 = _v6 /\\ incl(_v0, _v1, _v2 ; z, x, y)))'),
}

# Sentence true iff cb is not reachable from ca along E.
TC_SENTENCE = 'exists _v0 . (incl(ca ; _v0) /\\ _v0 != cb /\\ forall _v1 . (~E(_v0, _v1) \\/ incl(_v1 ; _v0)))'
