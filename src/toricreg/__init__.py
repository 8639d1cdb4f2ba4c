"""Stanley filtrations, multigraded Hilbert polynomials and uniform
regularity bounds for monomial ideals on smooth projective toric
varieties, in exact arithmetic."""

from .enumeration import (
    FaceOrder,
    enumerate_saturated_ideals,
    gotzmann_number,
    graded_total_order,
    run_enumeration,
)
from .gotzmann import (
    GotzmannRep,
    enumerate_binomial_representations,
    gotzmann_representation,
    lex_ideal,
)
from .hilbert import (
    face_hilbert_polynomial,
    quotient_hilbert_polynomial,
    ring_hilbert_polynomial,
)
from .hilbscheme import degree_set, ideals_generated_in_degrees, supportive_check
from .ideals import (
    MonomialIdeal,
    b_saturate,
    fiber_monomials,
    format_ideal,
    format_monomial,
    hilbert_function,
    irreducible_decomposition,
    is_b_saturated,
    parse_ideal,
    parse_monomial,
)
from .multipoly import (
    MultiPoly,
    format_poly,
    parse_poly,
)
from .regularity import (
    KUpset,
    RegularityAssumption,
    reg_bound_from_filtration,
    reg_bound_from_polynomial,
    upset_intersect,
)
from .stanley import (
    StanleyPair,
    decomposition_to_ideal,
    default_strategy,
    filtration,
    nice_strategy,
    replay_strategy,
    stanley_decompose,
    stanley_filtration,
    verify_stanley,
)
from .variety import (
    Fan,
    ToricVariety,
    UnimodularMap,
    build_variety,
    find_c,
    hirzebruch,
    load_variety,
    positive_orthant_change,
    product_projective,
    projective_space,
    variety_from_name,
)

__version__ = "0.1.0"
