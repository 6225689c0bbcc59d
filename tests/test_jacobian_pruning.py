"""Filtration-weight pruning in the Jacobian layer against the plain computation.

lie_kernel, jacobian_span and power_jacobian_spans skip every row triple
whose filtration weights (the least weight of a row's keys) sum to the
algebra's class or more, and every row pair that no third row completes
below it: that J is exactly zero.  The reference is the same functions
with, in this test only, no class (subspaces.filtration patched to report
none): then every triple with a nonzero pair product is evaluated.  The
Subspaces must be equal: on the whole zoo, the corrupted example, and
their rebased copies (non-basis rows that mix the grading) and halved
copies (sparse rows with fractions); for jacobian_span on equal, partly
equal and distinct spaces of basis rows and of drawn rows, and for
power_jacobian_spans on the power chain and on drawn descending chains.
The reference patches only the filtration, so it cannot see a skip that
comes from elsewhere: a pass that read its class from the chain given is
caught by test_subspaces' comparison with direct jacobian_span calls.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (
    full_space,
    jacobian_span,
    lie_kernel,
    power_chain,
    power_jacobian_spans,
    second_type_example,
    span,
)
from malcevlab import subspaces
from malcevlab.construct import ZOO
from malcevlab.engine import random_element
from malcevlab.subspaces import _UNPRUNED, _jacobian_triples, filtration
from malcevlab.verify import _power_triples, corrupted_psi_entries
from test_subspaces import EQUALITY_PATTERNS, _zoo_algebra, descending_chains, sparse_spans

BASES = list(ZOO) + ["corrupt_psi"]
NAMES = BASES + [f"{name}@{kind}" for name in BASES for kind in ("rebased", "halved")]
TRIPLES_OF_FOUR = list(_power_triples())


def _no_class(algebra):
    return (0,) * algebra.dim, None


def unpruned(fn, *args):
    """fn(*args) with the filtration reporting no class: nothing skipped."""
    with mock.patch.object(subspaces, "filtration", _no_class):
        return fn(*args)


def assert_matches_unpruned(fn, *args):
    assert fn(*args) == unpruned(fn, *args)


_ALGEBRAS: dict = {}


def _algebra(animals, name):
    if name not in _ALGEBRAS:
        base = name.partition("@")[0]
        if base == "corrupt_psi":
            animals = {base: second_type_example(corrupted_psi_entries())}
        _ALGEBRAS[name] = _zoo_algebra(animals, name)
    return _ALGEBRAS[name]


def _spaces(algebra, rng):
    """Basis-row spaces (the whole algebra, its powers, drawn sets of basis
    vectors) and drawn-row spaces (spans of random elements)."""
    dim = algebra.dim
    chain = power_chain(algebra, 3)
    basis_rows = [span(algebra, [algebra.basis_element(i)
                                 for i in sorted(rng.sample(range(dim), rng.randint(1, dim)))])
                  for _ in range(2)]
    drawn = [span(algebra, [random_element(algebra, rng) for _ in range(rng.randint(1, 3))])
             for _ in range(2)]
    return [full_space(algebra), chain[1], chain[2]] + basis_rows + drawn


@pytest.mark.parametrize("name", NAMES)
def test_lie_kernel_matches_unpruned(animals, name):
    assert_matches_unpruned(lie_kernel, _algebra(animals, name))


@pytest.mark.parametrize("name", NAMES)
def test_jacobian_span_matches_unpruned(animals, name):
    algebra = _algebra(animals, name)
    rng = random.Random(name)
    spaces = _spaces(algebra, rng)
    for pattern in EQUALITY_PATTERNS:
        for _ in range(4):
            distinct = rng.sample(spaces, max(pattern) + 1)
            chosen = [distinct[t] for t in pattern]
            assert jacobian_span(algebra, *chosen) == unpruned(jacobian_span, algebra, *chosen), \
                (name, pattern)


@pytest.mark.parametrize("name", NAMES)
def test_power_jacobian_spans_match_unpruned(animals, name):
    algebra = _algebra(animals, name)
    assert_matches_unpruned(power_jacobian_spans, algebra, power_chain(algebra, 4), TRIPLES_OF_FOUR)


REBASED = ["second_type_23@rebased", "quotient_22@rebased", "corrupt_psi@halved",
           "free_3_5@rebased"]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(REBASED), pattern=st.sampled_from(EQUALITY_PATTERNS), data=st.data())
def test_jacobian_span_on_drawn_spans_matches_unpruned(animals, name, pattern, data):
    algebra = _algebra(animals, name)
    distinct = [data.draw(sparse_spans(algebra)) for _ in range(max(pattern) + 1)]
    assert_matches_unpruned(jacobian_span, algebra, *(distinct[t] for t in pattern))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(REBASED), data=st.data())
def test_power_jacobian_spans_on_drawn_chains_match_unpruned(animals, name, data):
    # a descending chain need not satisfy V_i V_j in V_(i+j): the weights
    # that skip a triple are the algebra's, never the chain's
    algebra = _algebra(animals, name)
    chain = data.draw(descending_chains(algebra))
    index = st.integers(1, 4)
    triples = data.draw(st.lists(st.tuples(index, index, index), min_size=1, unique=True))
    assert_matches_unpruned(power_jacobian_spans, algebra, chain, triples)


def test_the_example_evaluates_34_of_97_triples(atilde):
    # 97 basis triples have a nonzero pair product that the third basis
    # vector completes (a partner of a key of the pair or its product),
    # 10 of them a nonzero J; 34 have weights summing below the class 5
    rows = [{i: 1} for i in range(atilde.dim)]
    jac, plain = _jacobian_triples(atilde, rows, _UNPRUNED)
    _, pruned = _jacobian_triples(atilde, rows, filtration(atilde))
    assert (len(plain), len(pruned)) == (97, 34)
    assert set(pruned) <= set(plain)
    nonzero = [t for t in plain if jac(*t)]
    assert len(nonzero) == 10 and set(nonzero) <= set(pruned)


def test_pruned_triples_agree_on_basis_and_scaled_rows(animals):
    # basis rows read each pair product from the structure constants,
    # scaled rows form the product of each partner pair that some row
    # completes by weight: the same triples, those of the plain list
    # whose weights sum below c
    for name in ["heisenberg", "free_3_3", "quotient_22", "second_type_23", "free_3_5"]:
        algebra = animals[name]
        weights, c = filt = filtration(algebra)
        _, from_table = _jacobian_triples(algebra, [{i: 1} for i in range(algebra.dim)], filt)
        _, from_products = _jacobian_triples(algebra, [{i: 2} for i in range(algebra.dim)], filt)
        _, plain = _jacobian_triples(algebra, [{i: 1} for i in range(algebra.dim)], _UNPRUNED)
        light = [t for t in plain if sum(weights[i] for i in t) < c]
        assert from_table == from_products == light, name
