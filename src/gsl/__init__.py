"""Exact symbolic computation with finite commutative Hopf algebras.

The package represents finite group schemes over small finite fields by
their coordinate Hopf algebras, presented as truncated polynomial rings
modulo an ideal, and verifies structural statements about them (axioms,
morphisms, kernels, quotients, invariants, actions) by direct computation.
"""

__version__ = "0.1.0"

from .errors import (
    BadParams,
    DivideByZero,
    GslError,
    NonUnit,
    IdentityFailed,
    NotAnAction,
    NotFractionalLinear,
    NotHomogeneous,
    NotInvertible,
    NotNormal,
    ParseError,
    ReducibleModulus,
    SizeGuard,
    UnsupportedSize,
    VerifyError,
)
from .gf import Field, field_from_name
from .talg import (
    Algebra,
    Poly,
    QuotientAlgebra,
    TensorAlgebra,
    apply_map,
    invert_unit,
    quotient_algebra,
    subalgebra_generated,
    weight_decomposition,
)
from .hopf import (
    Failure,
    GroupTable,
    HopfAlgebra,
    HopfIdeal,
    Morphism,
    closed_subgroup,
    enumerate_morphisms,
    enumerate_subgroups,
    find_isomorphism,
    frobenius,
    frobenius_image,
    frobenius_kernel,
    hopf_ideal_closure,
    hopf_product,
    hopf_verify,
    image_subgroup,
    is_central,
    is_cocommutative,
    is_normal,
    kernel_subgroup,
    lie_algebra,
    morphism_check,
    points_group,
    presentations_equal,
    primitive_elements,
    quotient_group,
    restricted_subalgebras,
    subgroup_from_elements,
    tangent_map,
)
from .zoo import (
    D,
    H,
    H_unip,
    PGL2_kerF,
    SL2_kerF,
    alpha,
    cocycle_check,
    cocycle_ext,
    d_presentation_iso,
    enumerate_coactions,
    group_coaction_verify,
    h_iso_map,
    kerFV,
    mu,
    mu2_invariants_D,
    mu_action_normalize,
    pullback,
    semidirect,
    sl2_hom_enumerate,
    unipotent_line_hom,
    witt2,
    zoo_parse,
)
