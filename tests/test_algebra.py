import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (
    Algebra,
    AlgebraFormatError,
    BilinearForm,
    DimensionMismatch,
    Element,
)
from malcevlab.algebra import MAX_DIM, accumulate
from malcevlab.classify import anticommutative_sweep
from malcevlab.construct import ZOO, cross_product_algebra, octonion_malcev
from malcevlab.subspaces import _Jacobians
from test_integral import rebased

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def elements_of(algebra):
    return st.lists(
        small_rationals, min_size=algebra.dim, max_size=algebra.dim
    ).map(Element)


def test_element_basics():
    e = Element([1, Fraction(4, 2), 0])
    assert e.coords == (1, 2, 0)
    assert isinstance(e.coords[1], int)
    assert not e.is_zero()
    assert Element([0, 0]).is_zero()
    assert (e + (-e)).is_zero()
    assert e.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1, 0)
    assert Element([1]) != Element([1, 0])


def test_multiply_requires_matching_dimension():
    cross = cross_product_algebra()
    with pytest.raises(DimensionMismatch):
        cross.multiply(Element([1, 0]), Element([1, 0, 0]))


def test_structure_constants_reject_bad_shapes():
    with pytest.raises(ValueError):
        Algebra(3, None, {(1, 1): {0: 1}})
    with pytest.raises(ValueError):
        Algebra(3, None, {(2, 1): {0: 1}})
    with pytest.raises(ValueError):
        Algebra(3, None, {(0, 1): {5: 1}})


def test_anticommutativity_sweep_on_zoo(animals):
    for name, algebra in animals.items():
        assert anticommutative_sweep(algebra) is None, name


@pytest.mark.parametrize("name", list(ZOO))
def test_partners_is_the_table_in_both_orientations(animals, name):
    # e_i e_j for i < j is the stored constant, for i > j its negation,
    # and e_i e_i = 0: each nonzero one is partners[i][j], sorted by k
    for algebra in (animals[name], rebased(animals[name], random.Random(name))):
        partners = algebra.partners
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                sign = 1 if i < j else -1
                stored = {} if i == j else algebra.table.get((min(i, j), max(i, j)), {})
                expected = tuple(sorted((k, sign * c) for k, c in stored.items()))
                assert partners.get(i, {}).get(j, ()) == expected, (name, i, j)
        cells = [cell for row in partners.values() for cell in row.values()]
        assert len(cells) == 2 * len(algebra.table), name
        assert all(cell and all(c for _, c in cell) for cell in cells), name
        assert all(partners.values()), name
        assert anticommutative_sweep(algebra) is None, name


def test_anticommutativity_sweep_finds_a_corrupted_index():
    # the sweep reads the index every product reads: a broken entry shows
    algebra = octonion_malcev()
    (i, j), _ = min(algebra.table.items())
    del algebra.partners[j][i]
    assert anticommutative_sweep(algebra) == (i, j)
    assert algebra.multiply_sparse({j: 1}, {i: 1}) == {}
    algebra = octonion_malcev()
    algebra.partners[2][2] = ((0, 1),)
    assert anticommutative_sweep(algebra) == (2, 2)
    # the least witness pair, whichever orientation is broken
    algebra = octonion_malcev()
    (i, j), _ = max(algebra.table.items())
    del algebra.partners[i][j]
    assert anticommutative_sweep(algebra) == (i, j)


def test_square_is_zero_for_any_element():
    oct7 = octonion_malcev()
    rng = random.Random(7)
    for _ in range(20):
        u = Element([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)])
        assert oct7.multiply(u, u).is_zero()


@settings(max_examples=60)
@given(st.data())
def test_multiply_is_bilinear(data):
    cross = cross_product_algebra()
    u = data.draw(elements_of(cross))
    u2 = data.draw(elements_of(cross))
    v = data.draw(elements_of(cross))
    a = data.draw(small_rationals)
    left = cross.multiply(u.scale(a) + u2, v)
    right = cross.multiply(u, v).scale(a) + cross.multiply(u2, v)
    assert left == right
    left = cross.multiply(v, u.scale(a) + u2)
    right = cross.multiply(v, u).scale(a) + cross.multiply(v, u2)
    assert left == right


@settings(max_examples=40)
@given(st.data())
def test_jacobian_is_alternating(data):
    oct7 = octonion_malcev()
    x = data.draw(elements_of(oct7))
    y = data.draw(elements_of(oct7))
    z = data.draw(elements_of(oct7))
    assert oct7.jacobian(x, x, y).is_zero()
    assert oct7.jacobian(x, y, y).is_zero()
    assert oct7.jacobian(x, y, x).is_zero()
    j = oct7.jacobian(x, y, z)
    assert oct7.jacobian(y, x, z) == -j
    assert oct7.jacobian(x, z, y) == -j
    assert oct7.jacobian(z, x, y) == j


def sparse_of(algebra):
    """Sparse coefficient dicts with no stored zero."""
    return st.dictionaries(
        st.integers(0, algebra.dim - 1), small_rationals.filter(bool), max_size=algebra.dim
    )


def _dense(algebra, vec):
    coords = [0] * algebra.dim
    for k, c in vec.items():
        coords[k] = c
    return Element(coords)


def _cancelling(algebra, u, v):
    """(u2, k): two entries of u, one rescaled so that coordinate k of u2*v
    cancels inside multiply_sparse; (u, None) when no two entries meet."""
    for (i, a), (j, b) in combinations(sorted(u.items()), 2):
        p = algebra.multiply_sparse({i: a}, v)
        q = algebra.multiply_sparse({j: b}, v)
        for k in sorted(p.keys() & q.keys()):
            return {i: a, j: -b * Fraction(p[k]) / q[k]}, k
    return u, None


@pytest.mark.parametrize("name", ["octonion_malcev", "second_type_23"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_core_never_stores_zero(animals, name, data):
    algebra = animals[name]
    u, v, w = (data.draw(sparse_of(algebra)) for _ in range(3))
    # u + w - w: every entry of w cancels again, and nothing else is left
    assert accumulate(accumulate(dict(u), 1, w.items()), -1, w.items()) == u
    forced, k = _cancelling(algebra, u, v)
    for a in (u, forced):
        prod = algebra.multiply_sparse(a, v)
        assert all(prod.values())
        assert _dense(algebra, prod) == algebra.multiply(_dense(algebra, a), _dense(algebra, v))
    if k is not None:
        assert k not in algebra.multiply_sparse(forced, v)
    # J(u, v, u + w) = J(u, v, w): the (uv)u and (vu)u parts cancel in the sum
    for z in (w, accumulate(dict(u), 1, w.items())):
        jac = _Jacobians(algebra, [u, v, z])(0, 1, 2)
        assert all(jac.values())
        dense = [_dense(algebra, x) for x in (u, v, z)]
        assert _dense(algebra, jac) == algebra.jacobian(*dense)


def test_text_format_round_trip(atilde):
    text = atilde.to_text()
    back = Algebra.from_text(text)
    assert back.dim == atilde.dim
    assert back.labels == atilde.labels
    assert back.table == atilde.table
    assert back.to_text() == text


def test_text_format_errors():
    with pytest.raises(AlgebraFormatError):
        Algebra.from_text("label 0 x\n")  # missing dim
    with pytest.raises(AlgebraFormatError):
        Algebra.from_text("dim 2\nsc 1 0 -> 0:1\n")  # i >= j
    with pytest.raises(AlgebraFormatError):
        Algebra.from_text("dim 2\nsc 0 1 -> 0:1\nsc 0 1 -> 1:1\n")  # duplicate
    with pytest.raises(AlgebraFormatError):
        Algebra.from_text("dim 2\nwhat 0\n")


@pytest.mark.parametrize("text, message", [
    ("dim 2\nlabel 5 foo\nlabel -1 bar\nsc 0 1 -> 1:1\n", "line 2: label index 5 outside 0..1"),
    ("label -1 bar\ndim 2\n", "line 1: label index -1 outside 0..1"),
    ("dim 2\nlabel 0 x\nlabel 0 y\n", "line 3: duplicate label 0 (first on line 2)"),
    # the dim line takes one value, at least 0; sc indices and coordinates
    # are checked against it once the whole file is read
    ("dim 2 junk\n", "line 1: dim needs exactly one value"),
    ("dim -1\n", "line 1: dim -1 is negative"),
    ("sc 0 2 -> 1:1\ndim 2\n", "line 1: sc index 2 outside 0..1"),
    ("dim 2\nsc -1 1 -> 0:1\n", "line 2: sc index -1 outside 0..1"),
    ("dim 2\nsc 0 1 -> 2:1\n", "line 2: coordinate 2 outside 0..1"),
    ("dim 2\n\nsc 0 1 -> 1:1 -1:2\n", "line 3: coordinate -1 outside 0..1"),
])
def test_text_format_rejects_unusable_labels(text, message):
    with pytest.raises(AlgebraFormatError) as info:
        Algebra.from_text(text)
    assert str(info.value) == message


def test_text_format_bounds_dim(capped_python):
    assert Algebra.from_text(f"dim {MAX_DIM}").dim == MAX_DIM
    code = (
        "from malcevlab.algebra import Algebra, AlgebraFormatError\n"
        "try:\n"
        "    Algebra.from_text('dim 1000000000000\\nsc 0 1 -> 2:1')\n"
        "except AlgebraFormatError as exc:\n"
        "    print(exc)\n"
    )
    done = capped_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"line 1: dim 1000000000000 exceeds {MAX_DIM}\n"


def test_text_format_comments_and_rationals():
    text = "dim 2  # two dims\n# full comment\nsc 0 1 -> 0:-3/2\n"
    algebra = Algebra.from_text(text)
    assert algebra.basis_product(0, 1) == {0: Fraction(-3, 2)}
    assert algebra.basis_product(1, 0) == {0: Fraction(3, 2)}
    assert algebra.basis_product(0, 0) == {}


def test_format_element(atilde):
    e = atilde.basis_element
    combo = e(4) + e(22).scale(-3) + e(0).scale(Fraction(1, 2))
    assert atilde.format_element(combo) == "1/2*x1 + [x1,x2] - 3*v"
    assert atilde.format_element(combo, compact=True) == "1/2*x1+[x1,x2]-3*v"
    assert atilde.format_element(atilde.zero()) == "0"


def test_bilinear_form_antisymmetry():
    form = BilinearForm(3, {(0, 1): 2, (1, 2): Fraction(1, 2)})
    assert form.pair(0, 1) == 2
    assert form.pair(1, 0) == -2
    assert form.pair(2, 2) == 0
    u = Element([1, 1, 0])
    v = Element([0, 1, 2])
    # psi(u, v) = 2*(u0 v1 - u1 v0) + 1/2*(u1 v2 - u2 v1)
    assert form.evaluate(u, v) == 2 * (1 * 1 - 1 * 0) + Fraction(1, 2) * (1 * 2 - 0 * 1)
    assert form.evaluate(v, u) == -form.evaluate(u, v)
    assert form.evaluate(u, u) == 0


def test_bilinear_form_rejects_bad_entries():
    with pytest.raises(ValueError):
        BilinearForm(3, {(1, 1): 1})
    with pytest.raises(DimensionMismatch):
        BilinearForm(3, {(0, 1): 1}).evaluate(Element([1, 0]), Element([0, 1]))
