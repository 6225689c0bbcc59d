"""The subspace layer's partner rule against plain references.

product_subspace (and through it ideal_closure), every term A^i A^(n-i)
of the power chain and jacobian_span form a product only for partner
rows: rows with a key among the structure-constant partners of the other
row's keys (subspaces._partner_rows), each unordered pair once for a
space times itself.  The references here multiply every pair, and
evaluate J on every ordered triple, of the spaces' canonical rows with
Algebra.multiply_sparse in the algebra itself, not its integral model.
They run on the algebras of test_jacobian_pruning (the zoo, the
corrupted example, and their rebased and halved copies), on the whole
algebra, its square, two spaces that share a stored row, a span of drawn
elements, and a space passed twice.  One algebra is added to them: in
the zoo a third basis vector that completes a nonzero pair always has a
product with one of its two vectors, but here e2 completes e1 e3 only
through the product's key.
"""

import random
from fractions import Fraction

import pytest

from malcevlab import (
    Algebra,
    Subspace,
    full_space,
    ideal_closure,
    jacobian_span,
    product_subspace,
    span,
)
from malcevlab.engine import random_element
from malcevlab.subspaces import stable_powers
from test_jacobian_pruning import NAMES, _algebra
from test_subspaces import _zoo_algebra

# e1 e3 = e4 and e4 e2 = e5: J(e1, e2, e3) = (e3 e1) e2 = -e5
THIRD_PAIR = "third_pair"
CASES = NAMES + [THIRD_PAIR] + [f"{THIRD_PAIR}@{kind}" for kind in ("rebased", "halved")]


def _case(animals, name):
    if name.partition("@")[0] != THIRD_PAIR:
        return _algebra(animals, name)
    return _zoo_algebra({THIRD_PAIR: Algebra(5, None, {(0, 2): {3: 1}, (1, 3): {4: -1}})}, name)


def _span(algebra, vecs) -> Subspace:
    return Subspace(algebra.dim, [algebra._from_sparse(v) for v in vecs])


def plain_product(algebra, left, right) -> Subspace:
    """The span of u v over every pair of canonical rows."""
    mul = algebra.multiply_sparse
    return _span(algebra, [mul(u, v) for u in left.sparse_rows for v in right.sparse_rows])


def plain_powers(algebra, m) -> list:
    """A^1..A^m, A^n the sum of A^i A^(n-i) over every i in 1..n-1."""
    chain = [Subspace(algebra.dim, algebra.basis())]
    for n in range(2, m + 1):
        power = Subspace(algebra.dim)
        for i in range(1, n):
            power = power.add(plain_product(algebra, chain[i - 1], chain[n - i - 1]))
        chain.append(power)
    return chain


def plain_closure(algebra, seed) -> Subspace:
    whole = Subspace(algebra.dim, algebra.basis())
    current = seed
    while True:
        grown = current.add(plain_product(algebra, current, whole))
        if grown == current:
            return current
        current = grown


def plain_jacobian(algebra, u_space, v_space, w_space) -> Subspace:
    """The span of (uv)w + (vw)u + (wu)v over every ordered row triple."""
    mul = algebra.multiply_sparse
    out = []
    for u in u_space.sparse_rows:
        for v in v_space.sparse_rows:
            uv = mul(u, v)
            for w in w_space.sparse_rows:
                j: dict = {}
                for term in (mul(uv, w), mul(mul(v, w), u), mul(mul(w, u), v)):
                    for k, c in term.items():
                        j[k] = j.get(k, 0) + c
                out.append(j)
    return _span(algebra, out)


def _keys(space) -> set:
    return {frozenset(r.items()) for r in space._rows}


def _spaces(algebra, rng) -> dict:
    """The whole algebra, its square, U and V (which share the stored row
    of g: the basis vectors added lie off g's keys, so neither eliminates
    it) and a span of two drawn elements."""
    dim = algebra.dim
    keys = rng.sample(range(dim), 1 if dim < 5 else 2)
    extra = [algebra.basis_element(k)
             for k in rng.sample([k for k in range(dim) if k not in keys], min(2, dim - len(keys)))]
    g = algebra._from_sparse({k: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                              for k in keys})
    u_space = span(algebra, [g] + extra[:1])
    v_space = span(algebra, [g] + extra[1:])
    assert _keys(u_space) & _keys(v_space), "U and V share a stored row"
    whole = full_space(algebra)
    return {
        "A": whole,
        "A^2": plain_product(algebra, whole, whole),
        "U": u_space,
        "V": v_space,
        "D": span(algebra, [random_element(algebra, rng) for _ in range(2)]),
    }


# J(X, Y, Z): distinct spaces, spaces sharing a row, a space passed twice
# or three times, and the whole algebra in one or two slots
JACOBIAN_CASES = [("U", "V", "D"), ("U", "U", "V"), ("U", "V", "U"), ("V", "U", "U"),
                  ("U", "U", "U"), ("A", "U", "V"), ("V", "A", "U"), ("A", "A", "U"),
                  ("A^2", "U", "D"), ("D", "A^2", "D")]


@pytest.mark.parametrize("name", CASES)
def test_products_and_closures_match_all_pairs(animals, name):
    algebra = _case(animals, name)
    spaces = _spaces(algebra, random.Random(name))
    for x, left in spaces.items():
        for y, right in spaces.items():
            assert product_subspace(algebra, left, right) == plain_product(algebra, left, right), \
                (name, x, y)
    for x in ("U", "D"):
        assert ideal_closure(algebra, spaces[x]) == plain_closure(algebra, spaces[x]), (name, x)


@pytest.mark.parametrize("name", CASES)
def test_every_power_matches_all_pairs(animals, name):
    algebra = _case(animals, name)
    chain = stable_powers(algebra)
    assert list(chain) == plain_powers(algebra, len(chain)), name


@pytest.mark.parametrize("name", CASES)
def test_jacobian_span_matches_all_triples(animals, name):
    algebra = _case(animals, name)
    spaces = _spaces(algebra, random.Random(name))
    cases = JACOBIAN_CASES + ([("A", "A", "A")] if algebra.dim <= 12 else [])
    for case in cases:
        chosen = [spaces[x] for x in case]
        assert jacobian_span(algebra, *chosen) == plain_jacobian(algebra, *chosen), (name, case)
