"""Filtration-weight pruning against the plain exhaustive scan.

The engine skips every basis tuple whose filtration weights sum to the
nilpotency class or more.  The reference here is the same engine with
filtration() replaced by the trivial filtration (no class), which visits
all dim^n tuples: verdict, first counterexample (indices, residual,
transposition) and tuples_checked must agree.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (
    Algebra,
    builtin_catalog,
    check_identity,
    check_skew_symmetric,
    is_nilpotent,
    linearize,
    octonion_malcev,
    parse_identity,
    parse_map,
    power_chain,
)
from malcevlab import engine
from malcevlab.construct import ZOO, abelian_algebra, heisenberg_algebra
from malcevlab.subspaces import Subspace, filtration, full_space, stable_powers
from conftest import count_products
from test_subspaces import _zoo_algebra, plateau_algebra

# z has degree 0: it adds no factor to any product, so these are not
# multilinear even after linearization and must not be pruned
DEGENERATE = [
    parse_identity("t : x,y,z | x*y = 0"),
    parse_identity("u : x,y,z | (x*y)*y = 0"),
]
CATALOG = [entry.identity for entry in builtin_catalog().values()]
MAPS = [
    parse_map("x1,x2,x3,x4 | J(x1,x2,x3*x4)", name="xi"),
    parse_map("x1,x2,x3,x4 | J(x1,x2,x3)*x4", name="zeta"),
    parse_map("x1,x2,x3,x4,x5 | J(x1*x2,x3*x4,x5)", name="sigma"),
    parse_map("x,y,z | (x*y)*z", name="assoc"),
]
# identities for check_identity, multilinear maps for check_skew_symmetric
CHECKS = [(check_identity, ident) for ident in CATALOG + DEGENERATE] + [
    (check_skew_symmetric, m) for m in MAPS + [linearize(i) for i in CATALOG]
]

SEEDED_RANDOM = st.integers(0, 2**32 - 1).map(random.Random)


def _trivial_filtration(algebra):
    return (1,) * algebra.dim, None


def _outcome(report):
    cx = report.counterexample
    witness = None if cx is None else (cx.indices, cx.residual, cx.transposition)
    return report.status, report.tuples_checked, witness


def assert_matches_plain_scan(algebra, check, ident):
    pruned = check(algebra, ident)
    with mock.patch.object(engine, "filtration", _trivial_filtration):
        plain = check(algebra, ident)
    assert _outcome(pruned) == _outcome(plain), (algebra.name, ident.name)


# -- random graded nilpotent algebras ------------------------------------------


def graded_algebra(rng, top: int = 3) -> Algebra:
    """Basis elements of grades 1..top; e_i e_j is a random small-integer
    combination of the grade g_i + g_j elements (zero above top), so
    A^k lies in the span of grades >= k and the algebra is nilpotent."""
    grades = []
    for g in range(1, top + 1):
        grades += [g] * rng.randint(1 if g == 1 else 0, 3)
    products = {}
    for i, j in combinations(range(len(grades)), 2):
        targets = [k for k, g in enumerate(grades) if g == grades[i] + grades[j]]
        vec = {k: rng.randint(-2, 2) for k in targets if rng.random() < 0.6}
        if any(vec.values()):
            products[(i, j)] = vec
    return Algebra(len(grades), None, products, name="graded")


def rebased(algebra: Algebra, rng) -> Algebra:
    """The same algebra in a random rational basis f_a = sum P[a][i] e_i."""
    n = algebra.dim
    while True:
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        matrix = sympy.Matrix(rows)
        if matrix.det() != 0:
            break
    inv = matrix.inv()
    back = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)] for i in range(n)]
    basis = [{i: c for i, c in enumerate(row) if c} for row in rows]
    products = {}
    for a in range(n):
        for b in range(a + 1, n):
            prod = algebra.multiply_sparse(basis[a], basis[b])
            vec = {c: sum(v * back[k][c] for k, v in prod.items()) for c in range(n)}
            products[(a, b)] = vec
    return Algebra(n, None, products, name="rebased")


@settings(max_examples=200, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(CHECKS))
def test_pruned_scan_matches_plain_scan_on_graded_algebras(rng, case):
    check, ident = case
    assert_matches_plain_scan(graded_algebra(rng), check, ident)


@settings(max_examples=60, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(CHECKS))
def test_pruned_scan_matches_plain_scan_after_change_of_basis(rng, case):
    check, ident = case
    assert_matches_plain_scan(rebased(graded_algebra(rng, top=2), rng), check, ident)


# the plain reference scan of each zoo case visits at most this many tuples
_ZOO_TUPLE_BUDGET = 100_000


def _zoo_cases(animals):
    for algebra in animals.values():
        for check, ident in CHECKS:
            n_vars = len(linearize(ident).variables)
            if algebra.dim ** n_vars <= _ZOO_TUPLE_BUDGET:
                yield algebra, check, ident


def test_pruned_scan_matches_plain_scan_on_the_zoo(animals):
    for algebra, check, ident in _zoo_cases(animals):
        assert_matches_plain_scan(algebra, check, ident)


@pytest.mark.parametrize("name", ["malcev", "first_type_4", "first_type_5"])
def test_pruned_scan_matches_plain_scan_on_the_example(atilde, name):
    # four variables, class 5: only the 4^4 tuples of generators survive
    ident = builtin_catalog()[name].identity
    assert_matches_plain_scan(atilde, check_identity, ident)


def test_degree_zero_variable_is_not_pruned():
    # class 3 with three variables would leave no admissible tuple, but z
    # contributes no weight: the plain scan's witness must be found
    heis = heisenberg_algebra()
    report = check_identity(heis, DEGENERATE[0])
    assert report.status == "fails"
    assert report.counterexample.indices == (0, 1, 0)
    assert_matches_plain_scan(heis, check_identity, DEGENERATE[0])


# -- the filtration itself -------------------------------------------------------


def test_filtration_of_the_example(atilde):
    weights, c = filtration(atilde)
    assert c == 5
    assert weights == (1,) * 4 + (2,) * 6 + (3,) * 12 + (4,)
    chain = power_chain(atilde, 5)
    for i, w in enumerate(weights):
        e = atilde.basis_element(i)
        assert chain[w - 1].contains(e) and not chain[w].contains(e)


def test_filtration_without_class_and_edge_cases():
    assert filtration(octonion_malcev()) == ((1,) * 7, None)
    assert filtration(abelian_algebra(3)) == ((1, 1, 1), 2)
    assert filtration(Algebra(0)) == ((), 1)


REBASED = ("second_type_23@rebased", "quotient_22@rebased", "octonion_malcev@rebased")


@pytest.mark.parametrize("name", list(ZOO) + list(REBASED))
def test_filtration_weights_are_the_dense_containment_counts(animals, name):
    # weights[i] counts the powers before the chain's last that contain
    # e_i, tested here on the dense basis element
    algebra = _zoo_algebra(animals, name)
    chain = stable_powers(algebra)
    dense = tuple(sum(1 for power in chain[:-1] if power.contains(e)) for e in algebra.basis())
    assert filtration(algebra)[0] == dense


def test_filtration_of_a_large_abelian_algebra_forms_no_dense_basis():
    # the chain is preset as stable_powers caches it, so this times the
    # weights alone
    assert stable_powers(abelian_algebra(5)) == (full_space(abelian_algebra(5)), Subspace(5))
    algebra = abelian_algebra(4000)
    algebra._power_chain = (full_space(algebra), Subspace(algebra.dim))
    t0 = time.perf_counter()
    assert filtration(algebra) == ((1,) * 4000, 2)
    assert time.perf_counter() - t0 < 1.0


def test_filtration_is_cached_and_agrees_with_is_nilpotent(animals):
    for name, algebra in animals.items():
        first = filtration(algebra)
        assert filtration(algebra) is first, name
        nil, c = is_nilpotent(algebra)
        assert (c if nil else None) == first[1], name


def test_filtration_stops_at_a_stable_power():
    # the octonion algebra is simple: A^2 = A, so one square decides; it
    # forms e_j e_k once for each of the C(7, 2) = 21 unordered pairs of
    # distinct basis vectors, each a stored structure constant
    oct7 = octonion_malcev()
    assert count_products(lambda: (filtration(oct7), filtration(oct7))) == 21


def test_pruned_scan_matches_plain_scan_past_a_plateau():
    # A^4 = A^5 != 0 and A^6 = 0: the scan is pruned with class 6
    algebra = plateau_algebra()
    assert filtration(algebra) == ((5, 1, 2, 1, 3), 6)
    for check, ident in CHECKS:
        assert_matches_plain_scan(algebra, check, ident)
