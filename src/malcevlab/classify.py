"""Classification of anticommutative algebras within the identity
hierarchy, plus the semiprimeness witness.  ``is_nilpotent`` lives with the
filtration it reads in ``subspaces`` and is re-exported here."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra
from .engine import CheckReport, check_identity
from .identities import builtin_catalog
from .subspaces import (
    Subspace,
    full_space,
    ideal_closure,
    is_nilpotent,
    jacobian_span,
    product_subspace,
)


@dataclass
class TypeVerdict:
    """Where an algebra sits in the identity hierarchy.

    Implications lie => malcev => anticommutative and first_type =>
    second_type are enforced on construction (RuntimeError); they are
    theorems over the rationals, so a violation means a broken checker.
    """

    anticommutative: bool
    lie: bool
    malcev: bool
    second_type: bool
    first_type: bool
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if (
            (self.lie and not self.malcev)
            or (self.malcev and not self.anticommutative)
            or (self.first_type and not self.second_type)
        ):
            raise RuntimeError(f"verdict breaks the hierarchy implications: {self.summary()}")

    def summary(self) -> list:
        return [
            ("anticommutative", self.anticommutative),
            ("lie", self.lie),
            ("malcev", self.malcev),
            ("second_type", self.second_type),
            ("first_type", self.first_type),
        ]


def anticommutative_sweep(algebra: Algebra):
    """e_i e_j = -(e_j e_i) and e_i e_i = 0 over all basis pairs.

    Structural by construction, but checked anyway on the structure-constant
    index (Algebra.partners) that every product reads, so the claim is a
    checked fact rather than an assumption.  A pair stored in neither
    orientation is {} both ways and holds, so only the stored pairs are
    visited: there is no diagonal entry, and each entry's reverse is its
    negation.  Returns None or the least witness pair (i, j), i <= j.
    """
    partners = algebra.partners
    stored = sorted({(min(i, j), max(i, j)) for i, row in partners.items() for j in row})
    for i, j in stored:
        fwd = algebra.basis_product(i, j)
        if (i == j and fwd) or {k: -c for k, c in fwd.items()} != algebra.basis_product(j, i):
            return (i, j)
    return None


def classify(algebra: Algebra, jobs: int = 1) -> TypeVerdict:
    """Run the hierarchy checks: anticommutativity sweep, Jacobi, Malcev,
    the second-type pair, and the first-type product law."""
    catalog = builtin_catalog()

    def run(name: str) -> CheckReport:
        return check_identity(algebra, catalog[name].identity, jobs=jobs)

    witnesses: dict = {}

    def record(name: str) -> bool:
        report = run(name)
        if not report.ok and report.counterexample is not None:
            witnesses[name] = report.counterexample
        return report.ok

    anticommutative = anticommutative_sweep(algebra) is None
    jacobi = record("jacobi")
    malcev = record("malcev")
    eq3a = record("second_type_3a")
    eq3b = record("second_type_3b")
    eq4 = record("first_type_4")
    return TypeVerdict(
        anticommutative=anticommutative,
        lie=anticommutative and jacobi,
        malcev=malcev,
        second_type=malcev and eq3a and eq3b,
        first_type=malcev and eq4,
        witnesses=witnesses,
    )


def semiprime_witness(algebra: Algebra, jobs: int = 1) -> Subspace | None:
    """A nonzero square-zero ideal, when the Jacobian span is nonzero.

    Requires the second-type pair to hold (checked); then the ideal closure
    of J(A, A, A) squares to zero, so a non-Lie algebra in this class is
    never semiprime.  Returns None for Lie algebras (J = 0): no witness.
    """
    catalog = builtin_catalog()
    for name in ("second_type_3a", "second_type_3b"):
        report = check_identity(algebra, catalog[name].identity, jobs=jobs)
        if not report.ok:
            raise ValueError(f"precondition failed: {name} does not hold")
    ambient = full_space(algebra)
    jspan = jacobian_span(algebra, ambient, ambient, ambient)
    if jspan.is_zero():
        return None
    witness = ideal_closure(algebra, jspan)
    square = product_subspace(algebra, witness, witness)
    if not square.is_zero():
        raise RuntimeError("square-zero witness failed; checker broken")
    return witness
