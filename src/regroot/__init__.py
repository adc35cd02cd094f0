"""Roots of regular languages via transformation monoids.

root(L) is the set of words some positive power of which lies in L.  This
package builds automata for root(L) and computes exact state complexities
by construction plus minimization.  The executable suites that reproduce
the tight bounds of the transformation-monoid view are in regroot.verify.
"""

from .counting import (
    best_coprime_pair,
    binomial,
    hk_bracket,
    hk_lower_bound,
    stirling2,
    ukl_gap,
    ukl_size_formula,
)
from .dfa import (
    Dfa,
    DfaParseError,
    accepts,
    equivalent,
    minimize,
    nerode_partition,
    parse,
    serialize,
    unary_structure,
    word_transformation,
)
from .monoid import (
    ClosureBudgetError,
    TransMonoid,
    closure,
    dfa_based_on,
    largest_two_generated,
    tn_generators,
    transformation_monoid,
    ukl_generators,
    ukl_member,
    ukl_member_mask,
)
from .root import (
    RootAutomaton,
    accepting_transformation,
    root_automaton,
    root_member_oracle,
    root_state_complexity,
    unary_root,
)
from .transform import MAX_DEGREE, Transformation, cycle_pair, identity

__version__ = "0.1.0"

__all__ = [
    "MAX_DEGREE",
    "ClosureBudgetError",
    "Dfa",
    "DfaParseError",
    "RootAutomaton",
    "TransMonoid",
    "Transformation",
    "accepting_transformation",
    "accepts",
    "best_coprime_pair",
    "binomial",
    "closure",
    "cycle_pair",
    "dfa_based_on",
    "equivalent",
    "hk_bracket",
    "hk_lower_bound",
    "identity",
    "largest_two_generated",
    "minimize",
    "nerode_partition",
    "parse",
    "root_automaton",
    "root_member_oracle",
    "root_state_complexity",
    "serialize",
    "stirling2",
    "tn_generators",
    "transformation_monoid",
    "ukl_gap",
    "ukl_generators",
    "ukl_member",
    "ukl_member_mask",
    "ukl_size_formula",
    "unary_root",
    "unary_structure",
    "word_transformation",
]
