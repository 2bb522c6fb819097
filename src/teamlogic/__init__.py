"""Team semantics for first order logic with dependency atoms.

Formulas are evaluated on teams (sets of assignments) under a lax or a
strict reading of disjunction and existential quantification.  The
package also provides a game characterization, exact translations
between the dependency atoms, a compilation to existential second order
sentences, and an axiomatic engine for database inclusion/exclusion
dependencies.
"""

from .syntax import (
    Name, App, RelAtom, Equality, DepAtom, IndepAtom, InclAtom, ExclAtom,
    EquiAtom, And, Or, Exists, Forall,
    parse, render, fresh_vars, subformula_instances, ParseError,
)
from .model import (
    Model, Assignment, Team, ModelError, eval_term, all_teams,
)
from .semantics import (
    Mode, Budget, Verdict, BudgetExceeded, satisfies, satisfies_sentence,
    check_dependence, check_independence, check_inclusion, check_exclusion,
    check_equiextension,
)
from .games import build_arena, is_uniform, find_uniform_winning
from .translate import (
    const_pushout, const_normal_form, const_sentence_collapse,
    dep_to_indep, dep_to_exc, exc_to_dep, equi_to_inc, inc_to_equi,
    inc_to_indep, indep_to_ie, compile, tc_sentence, ie_to_eso, eval_eso,
    skolemnf_to_ie, TranslateError,
)
from .dbdeps import (
    DBRelation, Ind, Exd, Fd, Tgd, Egd, parse_dependency, check_dependency,
    derive, verify_derivation, semantic_implies,
)

__all__ = [name for name in dir() if not name.startswith("_")]
