"""Invariants of surface links braided over the torus.

A surface link sitting in a tubular neighborhood of the standard torus in
four-space is described, when its chart has no branch points, by a pair of
commuting braids read along the two torus directions.  This package
computes algebraic invariants of such pairs: link-group presentations and
their abelianizations and finite quotients, quandle colorings and cocycle
state sums driven by movie decompositions, ribbon certificates via cable
decompositions, and the chart-level rotation and shear transforms.
"""

from .artin import (
    FreeWord,
    artin_apply,
    artin_images,
    boundary_word,
    format_free_word,
    free_reduce,
    free_word,
    generator,
)
from .braids import (
    BraidWord,
    NormalForm,
    braids_equal,
    cable_lift,
    closure_components,
    commute_check,
    dual_generator,
    format_braid,
    garside_delta,
    iota_embed,
    is_trivial,
    n_prime_sigma1,
    normal_form,
    parse_braid,
    permutation,
    word,
)
from .errors import (
    MovieGenerationError,
    MovieValidationError,
    PreconditionError,
    SearchBudgetExceeded,
)
from .movies import (
    CancelPair,
    ChartMovie,
    FarSwap,
    InsertPair,
    R3,
    apply_step,
    mirror_chart,
    r3_window_sign,
    read_movie,
    slide_movie,
    validate_movie,
    write_movie,
)
from .presentations import (
    AbelianInvariants,
    FiniteGroup,
    GroupPresentation,
    QuotientCounts,
    abelianization,
    add_relator,
    central_twist_relator,
    cyclic_group,
    dihedral_group,
    finite_quotient_count,
    format_presentation,
    smith_invariants,
    symmetric_group,
    tietze_eliminate,
    torus_abelianization,
    torus_covering_group,
)
from .quandles import (
    GroupRingElement,
    Quandle,
    TriplePoint,
    cocycle_invariant,
    dihedral_quandle,
    mochizuki_theta,
    torus_colorings,
    triple_points,
)
from .ribbon import (
    CableDecomposition,
    Laurent,
    RibbonVerdict,
    UnknotVerdict,
    alexander_polynomial,
    read_witness,
    reduced_burau,
    ribbon_verdict,
    search_decomposition,
    unknot_check,
    verify_decomposition,
    write_witness,
)
from .transforms import (
    ChartData,
    ROTATION_BASIS_ACTION,
    TURNING_BASIS_ACTION,
    h_membership,
    rho,
    tau,
)

__version__ = "0.1.0"
