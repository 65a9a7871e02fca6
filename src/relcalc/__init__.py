"""relcalc: exact rational calculus of semibounded linear relations.

Multivalued symmetric relations on finite-dimensional inner-product
spaces, their quadratic forms and representing maps, and the Friedrichs,
Krein type and extremal selfadjoint extensions, all in exact arithmetic
with machine-checked identities.
"""

from .errors import (
    AmbientMismatchError,
    BoundCertificationError,
    CrossCheckError,
    ParseError,
    PreconditionError,
    RelcalcError,
)
from .extensions import (
    extension_interval_check,
    extremal_check,
    extremal_from_domain,
    friedrichs,
    krein,
    krein_equals_friedrichs,
    krein_is_operator,
    order_leq,
    relations_of_form,
    selfadjoint_from_form,
    weak_friedrichs,
    weak_krein,
)
from .forms import (
    BoundInterval,
    QuadraticForm,
    RepresentingMap,
    bound_bisect,
    certify_lower_bound,
    companion,
    dom_companion_by_inequality,
    form_of_relation,
    form_s_of,
    is_nonneg_above,
    lebesgue_form,
    ran_adjoint_by_inequality,
    repmap_ldl,
    repmap_quotient,
    scalar_repmap,
    stack_relations,
)
from .harness import (
    CheckResult,
    InstanceSpec,
    random_semibounded,
    run_suite,
    sample_extremal,
    verify_all,
)
from .linalg import Mat, kernel, ldl_psd_certificate, mat, rref, vec
from .relations import (
    LinearRelation,
    RelationParts,
    adjoint,
    closure,
    compose,
    hsum,
    inverse,
    is_selfadjoint,
    is_symmetric,
    numerical_range_zero,
    parts,
    regular_part,
    rel_sum,
    relation_from_pairs,
    shift,
    singular_part,
)
from .spaces import (
    InnerProductSpace,
    Subspace,
    complement,
    intersect,
    product_space,
    span,
    standard_space,
    subspace_sum,
)

__version__ = "0.1.0"
