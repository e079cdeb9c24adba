"""Four-valued relational logics over finite De Morgan lattices."""

from .syntax import (
    Formula,
    Rule,
    SigSpec,
    Term,
    apply_subst,
    parse_rule,
    parse_term,
    print_rule,
    sig,
)
from .algebra import (
    FiniteAlgebra,
    builtin,
    check_demorgan,
    check_kleene,
    congruences,
    enumerate_dm_lattices,
    enumerate_filters,
    enumerate_ideals,
    pair_extension,
    hom_to_dm4,
    subdirect_embedding,
)
from .structures import Structure, Verdict, eval_term, holds, is_model, preset_structure, structure
from .leibniz import (
    leibniz_binary,
    leibniz_binary_poly,
    leibniz_structure,
    leibniz_unary,
    leibniz_unary_poly,
    is_reduced,
    reduct,
)
from .systems import AxiomSystem, all_system_names, soundness_check, system
from .engine import (
    Derivation,
    RuleSpaceBounds,
    check_derivation,
    classify_models,
    decide,
    derive,
    translate_exact_to_eq,
)

__version__ = "0.1.0"
