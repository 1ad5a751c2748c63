"""Algebra of commutative regular languages in diagonal periodic normal form."""

from .aperiodic import (
    Closure,
    IntervalConstraint,
    intervals_to_terms,
    term_iterated_shuffle_normal_form,
    union_closure_member,
    union_iterated_shuffle,
)
from .automata import (
    AutomatonReport,
    Dfa,
    dfa_to_dpl,
    dpl_to_dfa,
    is_aperiodic,
    is_commutative,
    is_permutation,
    minimize,
    project_automaton,
)
from .dpl import (
    DiagonalPeriodic,
    DplUnion,
    Fcount,
    Fmod,
    GammaPlus,
    GammaStar,
    GenIntersect,
    GenUnion,
    dpl_intersect,
    dpl_inverse_project,
    dpl_iterated_shuffle,
    dpl_member,
    dpl_project,
    dpl_shuffle,
    dpl_union,
    dpl_union_member,
    from_generators,
    lemma_closed_form,
)
from .errors import (
    ComshuffleError,
    CriterionError,
    FragmentError,
    NonRegularError,
    NotInPositiveClassError,
    ParseError,
    SizeGuardError,
    UndecidedError,
)
from .progressions import CongruenceSystem, Progression, crt_solve, prog_intersect, prog_product
from .regularity import (
    FiniteLang,
    NerodeEvidence,
    RegularityVerdict,
    build_representation,
    decide_finite,
    decide_prefixed,
    nerode_evidence,
)
from .words import Alphabet, ParikhVector, parikh, perm_set, project_word

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
