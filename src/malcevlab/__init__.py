"""malcevlab: exact-arithmetic workbench for finite-dimensional
anticommutative algebras.

Everything runs over the rationals with no tolerances: identity checks are
exhaustive over basis tuples (complete for multilinear identities, with
full linearization for the rest), and the subspace calculus uses canonical
reduced-row-echelon form throughout.

Layers load on first use: importing the package runs none of them, and
``malcevlab.check_identity`` imports ``malcevlab.engine`` (and what it
needs) the first time the name is looked up.  A command-line call thus
loads only the layers its command runs.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "algebra": (
        "Algebra", "AlgebraFormatError", "BilinearForm", "DimensionMismatch", "Element",
    ),
    "classify": ("TypeVerdict", "classify", "semiprime_witness"),
    "construct": (
        "BasisCapExceeded", "SECOND_TYPE_PSI_ENTRIES", "WordAlgebra",
        "bilinear_form_from_entries", "bilinear_form_from_text", "central_extension",
        "free_anticommutative", "multilinear_base_22", "multilinear_quotient",
        "octonion_malcev", "second_type_example", "zoo",
    ),
    "engine": (
        "CheckReport", "Counterexample", "ScanBudgetExceeded", "check_identity",
        "check_skew_symmetric", "evaluate_identity", "random_element",
        "random_substitutions_vanish",
    ),
    "identities": (
        "CatalogEntry", "Identity", "IdentityError", "IdentityParseError",
        "MultidegreeError", "builtin_catalog", "catalog_identity", "linearize",
        "parse_identity", "parse_map",
    ),
    "subspaces": (
        "NotAnIdealError", "Subspace", "UnsettledChainError", "full_space", "ideal_closure",
        "is_nilpotent", "jacobian_span", "lie_kernel", "power_chain", "power_jacobian_spans",
        "product_subspace", "quotient_algebra", "span", "subalgebra_generate",
    ),
    "verify": ("run_suite", "suite_passed"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))


class _Package(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package.  The
    function ``classify`` shares its name with its module, so such a
    binding would shadow the export, whichever import came first: a
    submodule never overwrites a public name."""

    def __setattr__(self, name, value):
        if name in _ORIGIN and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
