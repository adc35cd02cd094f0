"""Roots of regular languages via transformation monoids.

root(L) is the set of words some positive power of which lies in L.  This
package builds automata for root(L), computes exact state complexities by
construction plus minimization, and ships executable suites reproducing
the tight bounds that the transformation-monoid view yields.
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
from .verify import (
    Case,
    VerifyReport,
    suite_counting,
    suite_full_tn,
    suite_gap,
    suite_lower_bound,
    suite_min_dfa,
    suite_start_final_variation,
    suite_unary,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DEGREE",
    "Case",
    "ClosureBudgetError",
    "Dfa",
    "DfaParseError",
    "RootAutomaton",
    "TransMonoid",
    "Transformation",
    "VerifyReport",
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
    "suite_counting",
    "suite_full_tn",
    "suite_gap",
    "suite_lower_bound",
    "suite_min_dfa",
    "suite_start_final_variation",
    "suite_unary",
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
