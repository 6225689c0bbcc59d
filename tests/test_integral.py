"""The integral model against the plain Fraction path.

The engine and the subspace calculus multiply in the algebra's integral
model A_D (constants D times the algebra's) with integral rows and
coefficients, and divide once what leaves it.  The reference is the same
code with, in this test only, the model patched to the algebra itself and
every scale to 1: that is plain Fraction arithmetic in the algebra.  After
a random rational change of basis of a zoo algebra the two must agree
exactly: engine reports (status, indices, residual, transposition,
tuples_checked), every subspace, and the quotient's and generated
subalgebra's tables and labels.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malcevlab import (
    Algebra,
    NotAnIdealError,
    Subspace,
    builtin_catalog,
    check_identity,
    check_skew_symmetric,
    full_space,
    ideal_closure,
    jacobian_span,
    lie_kernel,
    linearize,
    parse_identity,
    parse_map,
    power_chain,
    product_subspace,
    quotient_algebra,
    subalgebra_generate,
    zoo,
)
from malcevlab import engine
from malcevlab.subspaces import filtration, stable_powers

ZOO = zoo()
SMALL = ["cross_product", "heisenberg", "octonion_malcev", "free_2_3", "free_3_3", "abelian_3"]

IDENTITIES = [entry.identity for entry in builtin_catalog().values()] + [
    parse_identity("half : x,y,z | 1/2*(x*y)*z + 1/3*(y*z)*x = 1/2*(z*x)*y"),
    parse_identity("halfjac : x,y,z | 1/2*J(x,y,z) = 0"),
    # z has degree 0: it occurs in no term, so the check is not pruned
    parse_identity("t : x,y,z | x*y = 0"),
    parse_identity("u : x,y,z | 2/3*(x*y)*y = 0"),
]
MAPS = [
    parse_map("x1,x2,x3,x4 | J(x1,x2,x3*x4)", name="xi"),
    parse_map("x1,x2,x3,x4 | J(x1,x2,x3)*x4", name="zeta"),
    parse_map("x,y,z | (x*y)*z", name="assoc"),
    parse_map("x,y,z | 1/2*J(x,y,z)", name="halfjac"),
    parse_map("x,y,z | 1/2*(x*y)*z - 1/3*(y*z)*x", name="mixed"),
]
CHECKS = [(check_identity, i) for i in IDENTITIES] + [(check_skew_symmetric, m) for m in MAPS]
# the plain reference scan of one case visits at most this many tuples
TUPLE_BUDGET = 2401

SEEDED_RANDOM = st.integers(0, 2**32 - 1).map(random.Random)


@contextmanager
def plain_fractions():
    """The Fraction path: no model and no integral coefficients.

    Only the products change path: they run in the algebra itself rather
    than in its integral model.  A subspace's stored rows are primitive
    int rows on either path, so this reference shares the echelon and does
    not cover a Fraction RREF: the integer echelon has its own
    differential test against sympy in test_subspaces.py.
    """
    with mock.patch.object(Algebra, "integral_model", lambda self: (self, 1)), \
            mock.patch.object(engine, "_integral_terms", lambda ident, terms, d: (terms, 1)):
        yield


def _scalar(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))


def rebased(algebra: Algebra, rng) -> Algebra:
    """The algebra in the basis f_a = sum P[a][i] e_i, for a random sparse
    rational P: a nonzero diagonal plus about dim / 2 other entries."""
    n = algebra.dim
    while True:
        rows = [[_scalar(rng) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for _ in range(max(n // 2, 1)):
            rows[rng.randrange(n)][rng.randrange(n)] = _scalar(rng)
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
            products[(a, b)] = {c: sum(v * back[k][c] for k, v in prod.items()) for c in range(n)}
    return Algebra(n, [f"f{i}" for i in range(n)], products, name=f"{algebra.name}@P")


def twin(algebra: Algebra) -> Algebra:
    """An equal algebra with none of the caches (model, power chain)."""
    return Algebra(algebra.dim, algebra.labels, algebra.table, name=algebra.name)


def _outcome(report):
    cx = report.counterexample
    witness = None if cx is None else (cx.indices, cx.residual, cx.transposition)
    return report.status, report.tuples_checked, witness


def _cases():
    for name in SMALL:
        for check, ident in CHECKS:
            n_vars = len((ident if ident.is_multilinear else linearize(ident)).variables)
            if ZOO[name].dim ** n_vars <= TUPLE_BUDGET:
                yield name, check, ident


CASES = list(_cases())


@settings(max_examples=80, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(CASES))
def test_engine_matches_the_fraction_path(rng, case):
    name, check, ident = case
    algebra = rebased(ZOO[name], rng)
    with plain_fractions():
        plain = check(twin(algebra), ident)
    assert _outcome(check(algebra, ident)) == _outcome(plain), (name, ident.name)


def _random_vector(rng, dim):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]


def _random_subspace(rng, dim, rank):
    """The span of `rank` random rows; an all-zero draw gives rank 0."""
    return Subspace(dim, [_random_vector(rng, dim) for _ in range(rank)])


def _subspace_results(algebra, rng):
    """Every subspace function's result on inputs drawn from rng."""
    dim = algebra.dim
    left, right = (_random_subspace(rng, dim, rng.randint(1, min(dim, 3))) for _ in range(2))
    # may be empty: the subalgebra generated by nothing has dimension 0
    gens = _random_subspace(rng, dim, rng.randint(1, 3)).row_elements()
    seed = _random_subspace(rng, dim, 1)
    point = algebra.element(_random_vector(rng, dim))
    full = full_space(algebra)
    out = {
        "power_chain": power_chain(algebra, dim + 2),
        "stable_powers": stable_powers(algebra),
        "filtration": filtration(algebra),
        "lie_kernel": lie_kernel(algebra),
        "product_subspace": product_subspace(algebra, left, right),
        "jacobian_span": jacobian_span(algebra, full, full, full),
        "jacobian_span_mixed": jacobian_span(algebra, left, right, full),
    }
    ideal = out["ideal_closure"] = ideal_closure(algebra, seed)
    quotient, project = quotient_algebra(algebra, ideal)
    out["quotient"] = (quotient.table, quotient.labels, project(point))
    sub, restricted = subalgebra_generate(algebra, gens)
    out["subalgebra_generate"] = (sub, restricted.table, restricted.labels)
    try:
        quotient_algebra(algebra, left)
        out["not_an_ideal"] = None
    except NotAnIdealError as exc:
        out["not_an_ideal"] = (exc.row_index, exc.basis_index, exc.escaping)
    return out


@settings(max_examples=40, deadline=None)
@given(SEEDED_RANDOM, st.sampled_from(SMALL))
# draws all-zero generator rows: an empty generating set
@example(random.Random(336), "cross_product")
def test_subspace_calculus_matches_the_fraction_path(rng, name):
    algebra = rebased(ZOO[name], rng)
    state = rng.getstate()
    with plain_fractions():
        plain = _subspace_results(twin(algebra), rng)
    rng.setstate(state)
    assert _subspace_results(algebra, rng) == plain, name


def test_model_of_an_integral_algebra_is_the_algebra(animals):
    for algebra in animals.values():
        assert algebra.integral_model() == (algebra, 1)


@pytest.mark.parametrize("name", ["octonion_malcev", "cross_product"])
def test_model_is_integral_and_isomorphic(name):
    algebra = rebased(ZOO[name], random.Random(name))
    model, d = algebra.integral_model()
    assert d > 1 and algebra.integral_model()[0] is model
    assert all(type(c) is int for vec in model.table.values() for c in vec.values())
    # x -> d*x is an isomorphism: (dx)(dy) in the model is d times d^2 xy
    for (i, j), vec in algebra.table.items():
        assert model.multiply_sparse({i: d}, {j: d}) == {k: d**3 * c for k, c in vec.items()}
