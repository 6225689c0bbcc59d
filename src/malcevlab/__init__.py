"""malcevlab: exact-arithmetic workbench for finite-dimensional
anticommutative algebras.

Everything runs over the rationals with no tolerances: identity checks are
exhaustive over basis tuples (complete for multilinear identities, with
full linearization for the rest), and the subspace calculus uses canonical
reduced-row-echelon form throughout.
"""

from .algebra import (
    Algebra,
    AlgebraFormatError,
    BilinearForm,
    DimensionMismatch,
    Element,
)
from .classify import TypeVerdict, classify, is_nilpotent, semiprime_witness
from .construct import (
    BasisCapExceeded,
    SECOND_TYPE_PSI_ENTRIES,
    WordAlgebra,
    bilinear_form_from_entries,
    bilinear_form_from_text,
    central_extension,
    free_anticommutative,
    multilinear_base_22,
    multilinear_quotient,
    octonion_malcev,
    second_type_example,
    zoo,
)
from .engine import (
    CheckReport,
    Counterexample,
    check_identity,
    check_skew_symmetric,
    evaluate_identity,
    random_element,
    random_substitutions_vanish,
)
from .identities import (
    CatalogEntry,
    Identity,
    IdentityError,
    IdentityParseError,
    MultidegreeError,
    builtin_catalog,
    catalog_identity,
    linearize,
    parse_identity,
    parse_map,
)
from .subspaces import (
    NotAnIdealError,
    Subspace,
    full_space,
    ideal_closure,
    jacobian_span,
    lie_kernel,
    power_chain,
    product_subspace,
    quotient_algebra,
    span,
    subalgebra_generate,
)
from .verify import run_suite, suite_passed

__version__ = "0.1.0"
