"""Roots of regular languages via transformation monoids.

root(L) is the set of words some positive power of which lies in L.  This
package builds automata for root(L) and computes exact state complexities
by construction plus minimization.  The executable suites that reproduce
the tight bounds of the transformation-monoid view are in regroot.verify.
On glibc, importing the package lets the process reuse the memory it frees
(see _keep_freed_memory); on any other libc the import changes nothing.
"""

import ctypes
import os

# glibc hands a freed block of more than 128 KiB back to the kernel, so the
# next numpy temporary of that size faults in fresh zeroed pages.  Freed
# blocks of up to _MMAP_THRESHOLD (glibc's largest mmap threshold on 64-bit)
# stay in the heap, and the heap is not trimmed below _TRIM_THRESHOLD: a
# process keeps its memory near its peak until it exits.  Setting either
# threshold pins the other at its 128 KiB default, so both are set.
#
# Minor page faults of closure, root_automaton, minimize and serialize on the
# U_{3,4} DFA, 607,264 root states at a 90 MB peak, in a fresh process, over
# 2-3 runs; one threshold alone was set through glibc's environment variables.
#
#   stage              defaults     mmap 32 MiB    trim 1 GiB        both
#   closure               3,135           4,628         6,475    990-1,500
#   root_automaton  6,342-6,853   10,879-12,412        17,863  3,788-4,299
#   minimize      16,708-17,730          17,873        59,617  4,243-4,755
#   serialize            12,681          26,520        41,947            1
#   all           39,377-39,888   59,900-61,434       125,902 9,529-10,043
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


def _keep_freed_memory() -> bool:
    """Sets glibc's mmap and trim thresholds; True if both were set.

    Anywhere but glibc, or if either call fails, returns False.  Each call
    sets the same values, so a second one changes nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
    )


_keep_freed_memory()

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
